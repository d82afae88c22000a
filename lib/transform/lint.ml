open Lang.Syntax
module String_set = Lang.Subst.String_set

type violation = { check : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.check v.detail

exception
  Lint_error of {
    pass : string;
    violations : violation list;
    dump : string;
  }

let pp_lint_error ppf = function
  | Lint_error { pass; violations; dump } ->
      Fmt.pf ppf "lint failed after pass %s:@\n%a@\n%s" pass
        Fmt.(list ~sep:cut pp_violation)
        violations dump
  | e -> Fmt.string ppf (Printexc.to_string e)

let () =
  Printexc.register_printer (function
    | Lint_error _ as e -> Some (Fmt.str "%a" pp_lint_error e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Structural checks                                                   *)
(* ------------------------------------------------------------------ *)

let first_dup xs =
  let rec go seen = function
    | [] -> None
    | x :: rest ->
        if List.mem x seen then Some x else go (x :: seen) rest
  in
  go [] xs

let scope_violations ~free_ok free =
  String_set.fold
    (fun x acc ->
      { check = "scope"; detail = Fmt.str "unbound variable %s" x } :: acc)
    (String_set.diff free free_ok) []
  |> List.rev

let builtin_arities = lazy (Lang.Con_info.builtins ())

(* One fused traversal: the structural checks (arity, binder
   uniqueness, patterns) and the term's free variables (occurrences not
   in the threaded [bound] set, accumulated into [free]) in a single
   walk — a check visits each node once instead of once for findings
   and once for [Subst.free_vars]'s union-heavy set building.
   [base] is a frozen arity table consulted read-only (the cached
   prelude one), so per-check traversals never copy it: construction
   sites not in [base] land in the small fresh [seen_arity] overlay. *)
let walk ?base ~bound vs seen_arity free e =
  let add check detail = vs := { check; detail } :: !vs in
  let builtins = Lazy.force builtin_arities in
  (* One consistent arity per constructor per term. Wrong-arity [Pcon]
     alternatives are deliberately not flagged: the machines treat them
     as unreachable (they fall through to later alternatives), so they
     are legal input — only construction sites are held to the table. *)
  let check_con c n =
    (match Lang.Con_info.arity builtins c with
    | Some k when k <> n ->
        add "arity"
          (Fmt.str "constructor %s applied to %d args (arity %d)" c n k)
    | _ -> ());
    let seen =
      match Hashtbl.find_opt seen_arity c with
      | Some _ as s -> s
      | None -> Option.bind base (fun b -> Hashtbl.find_opt b c)
    in
    match seen with
    | None -> Hashtbl.add seen_arity c n
    | Some k when k <> n ->
        add "arity" (Fmt.str "constructor %s built at arities %d and %d" c k n)
    | Some _ -> ()
  in
  let bind_all bound xs =
    List.fold_left (fun b x -> String_set.add x b) bound xs
  in
  let rec go bound = function
    | Var x ->
        if not (String_set.mem x bound) then free := String_set.add x !free
    | Lit _ -> ()
    | Lam (x, b) -> go (String_set.add x bound) b
    | Raise b | Fix b -> go bound b
    | App (f, a) ->
        go bound f;
        go bound a
    | Con (c, es) ->
        check_con c (List.length es);
        List.iter (go bound) es
    | Prim (p, es) ->
        if Lang.Prim.arity p <> List.length es then
          add "arity"
            (Fmt.str "primitive %s applied to %d args (arity %d)"
               (Lang.Prim.name p) (List.length es) (Lang.Prim.arity p));
        List.iter (go bound) es
    | Case (s, alts) ->
        if alts = [] then add "pattern" "case with no alternatives";
        go bound s;
        List.iter
          (fun a ->
            (match a.pat with
            | Pcon (c, xs) -> (
                match first_dup xs with
                | Some x ->
                    add "binder-uniqueness"
                      (Fmt.str "pattern %s binds %s twice" c x)
                | None -> ())
            | Plit _ | Pany _ -> ());
            go (bind_all bound (pat_binders a.pat)) a.rhs)
          alts
    | Let (x, e1, e2) ->
        go bound e1;
        go (String_set.add x bound) e2
    | Letrec (binds, body) ->
        (match first_dup (List.map fst binds) with
        | Some x ->
            add "binder-uniqueness" (Fmt.str "letrec binds %s twice" x)
        | None -> ());
        let bound = bind_all bound (List.map fst binds) in
        List.iter (fun (_, b) -> go bound b) binds;
        go bound body
  in
  go bound e

(* The pipeline starts every run from [Prelude.wrap body], and passes
   that follow mostly rewrite only the body — so the wrapper's
   contribution to every check is computed once: per-binding free
   variables and structural findings, the prelude's constructor-arity
   table, and the wrapper-level free-variable set. A binding is reused
   only when it is structurally equal to the prelude's own, so the fast
   paths cannot be fooled by a pass that rewrites inside a binding. *)
let prelude_facts =
  lazy
    (let defs = Lang.Prelude.defs in
     let names = String_set.of_list (List.map fst defs) in
     let by_name : (string, expr * String_set.t) Hashtbl.t =
       Hashtbl.create 256
     in
     List.iter
       (fun (x, rhs) ->
         if not (Hashtbl.mem by_name x) then
           Hashtbl.add by_name x (rhs, Lang.Subst.free_vars rhs))
       defs;
     let w = Lang.Prelude.wrap (Lit (Lit_int 0)) in
     let vs = ref [] in
     let pfree = ref String_set.empty in
     let arities = Hashtbl.create 64 in
     walk ~bound:String_set.empty vs arities pfree w;
     (names, by_name, !pfree, List.rev !vs, arities))

(* Every binding structurally equal to the prelude def of its name. *)
let subset_of_prelude binds =
  let _, by_name, _, _, _ = Lazy.force prelude_facts in
  List.for_all
    (fun (x, rhs) ->
      match Hashtbl.find_opt by_name x with
      | Some (crhs, _) -> crhs == rhs || equal crhs rhs
      | None -> false)
    binds

(* One classification per term, shared by the free-variable, structural
   and typing layers — the subset walk is the most expensive of the
   fast-path guards, so it runs once per checked term. *)
type shape =
  | Pristine of expr  (** [Prelude.wrap body]: the shared defs list *)
  | Subset of (string * expr) list * expr
      (** bindings all structurally pristine, group possibly pruned *)
  | Plain

(* [known] is the binds list of the last term already classified as
   [Subset] (the group-facts cache): sharing-preserving rewriting keeps
   it physically intact across body-only passes, so the subset scan
   runs once per pruning, not once per check. *)
let shape_of ?known e =
  match e with
  | Letrec (defs, body) when defs == Lang.Prelude.defs -> Pristine body
  | Letrec (binds, body)
    when (match known with Some k -> k == binds | None -> false)
         || subset_of_prelude binds ->
      Subset (binds, body)
  | _ -> Plain

(* The walked program body with its own free variables and findings.
   Collected under an {e empty} outer bound set (group names subtracted
   per shape afterwards), so the result is shape-independent — which is
   what lets a check whose pass only touched the letrec group (prune)
   reuse the previous check's walk by physical identity. *)
type body_facts = expr * String_set.t * violation list

let body_facts ?bodyf body : body_facts =
  match bodyf with
  | Some ((b, _, _) as f) when b == body -> f
  | _ ->
      let _, _, _, _, arities = Lazy.force prelude_facts in
      let vs = ref [] in
      let fr = ref String_set.empty in
      walk ~base:arities ~bound:String_set.empty vs (Hashtbl.create 8) fr
        body;
      (body, !fr, List.rev !vs)

(* Free variables and traversal findings together, one {!walk} per
   term, skipping pristine prelude bindings: their free variables and
   findings are cached, and the arity table is seeded (read-only) with
   the full prelude's so body-vs-prelude consistency still holds — both
   the snapshot and every check seed identically, so the differential
   subtraction lines up. *)
(* Per-group facts for a pruned-but-pristine letrec, cached by physical
   identity of the binds list — {!Rewrite.map_children} preserves the
   list across passes that only rewrite the body, so every check after
   prune's reuses one computation: the bound-name set, the bindings'
   free variables outside the group, and the duplicate-binder scan. *)
type group_facts =
  (string * expr) list * String_set.t * String_set.t * violation list

module SM = Map.Make (String)

(* The same pruned-to subsets of the Prelude recur across programs (a
   serve corpus reuses the same handful of library functions), and the
   facts below are a function of the group's {e name list} alone — the
   bindings are already known structurally pristine when this runs. So
   they are memoised under the concatenated names. The map is immutable
   and swapped by a single [ref] write: a racing optimise under the
   threaded serve runtime can lose an insertion, never corrupt one. *)
let group_memo :
    (String_set.t * String_set.t * violation list) SM.t ref =
  ref SM.empty

let group_facts ?groupf binds : group_facts =
  match groupf with
  | Some ((b, _, _, _) as f) when b == binds -> f
  | _ -> (
      let names = List.map fst binds in
      let key = String.concat "\000" names in
      match SM.find_opt key !group_memo with
      | Some (bnames, gdiff, dup) -> (binds, bnames, gdiff, dup)
      | None ->
          let _, by_name, _, _, _ = Lazy.force prelude_facts in
          let dup =
            match first_dup names with
            | Some x ->
                [
                  {
                    check = "binder-uniqueness";
                    detail = Fmt.str "letrec binds %s twice" x;
                  };
                ]
            | None -> []
          in
          let bnames = String_set.of_list names in
          (* The bindings' free variables outside the group itself —
             collected directly rather than union-then-diff, because
             after a correct prune every dependency is kept and the
             result is empty: the common case allocates nothing. *)
          let gdiff =
            List.fold_left
              (fun acc (x, _) ->
                match Hashtbl.find_opt by_name x with
                | Some (_, f) ->
                    String_set.fold
                      (fun y acc ->
                        if String_set.mem y bnames then acc
                        else String_set.add y acc)
                      f acc
                | None -> acc)
              String_set.empty binds
          in
          group_memo := SM.add key (bnames, gdiff, dup) !group_memo;
          (binds, bnames, gdiff, dup))

(* When the body contributes no free names beyond the group's, the
   cached set is returned {e physically} — letting {!check_pass} skip
   the scope diff outright with a pointer compare. *)
let facts_of ?bodyf ?groupf ~shape e =
  match shape with
  | Pristine body ->
      (* The cached wrapper findings already include the wrapper's own
         duplicate-binder check — only the body needs walking. *)
      let names, _, pfree, pvs, _ = Lazy.force prelude_facts in
      let ((_, fr, vs) as bf) = body_facts ?bodyf body in
      let extra = String_set.diff fr names in
      let free =
        if String_set.is_empty extra then pfree
        else String_set.union pfree extra
      in
      (free, pvs @ vs, Some bf, None)
  | Subset (binds, body) ->
      let _, _, _, pvs, _ = Lazy.force prelude_facts in
      let ((_, fr, vs) as bf) = body_facts ?bodyf body in
      let ((_, bnames, gdiff, dup) as gf) = group_facts ?groupf binds in
      let extra = String_set.diff fr bnames in
      let free =
        if String_set.is_empty extra then gdiff
        else String_set.union gdiff extra
      in
      (free, pvs @ dup @ vs, Some bf, Some gf)
  | Plain ->
      let vs = ref [] in
      let fr = ref String_set.empty in
      walk ~bound:String_set.empty vs (Hashtbl.create 16) fr e;
      (!fr, List.rev !vs, None, None)

let structural ~free_ok e =
  let free, vs, _, _ = facts_of ~shape:(shape_of e) e in
  scope_violations ~free_ok free @ vs

(* ------------------------------------------------------------------ *)
(* Type preservation                                                   *)
(* ------------------------------------------------------------------ *)

let prelude_env = lazy (Types.Infer.with_prelude ())

(* What the last successfully typed term looked like: the letrec group
   whose extension [env] is, and the body typed under it together with
   its rendering. A pass that leaves the body alone (prune only drops
   group bindings) then pays no inference at all. *)
type tyfacts = {
  group : (string * Lang.Syntax.expr) list;
  env : Types.Infer.env;
  body : Lang.Syntax.expr;
  rendered : string option Lazy.t;
}

type tycache = tyfacts option

let render_in env e =
  match Types.Infer.infer env e with
  | Ok t -> Some (Types.Infer.ty_to_string t)
  | Error _ -> None

(* Every rendering the checks need is semantically the same function:
   the canonical type of a term under the prelude environment (a
   [Letrec]'s split into extend-group-then-type-body is only how that
   inference is implemented). So renderings are memoised under one
   structural key. A serve corpus re-optimises the same programs — the
   daemon already keeps a compiled-program LRU for the same reason —
   and the optimiser is deterministic, so in steady state every check
   is a lookup, not an inference. Same race discipline as
   {!group_memo}: immutable map, single [ref] swap. *)
module EM = Map.Make (struct
  type t = expr

  let compare = Lang.Syntax.compare
end)

(* The map travels with its size, so a miss checks the bound without
   walking the map, and one [ref] write still swaps both. Bounded: it
   starts over once it holds 1,024 renderings. *)
type render_memo = { renders : string option EM.t; size : int }

let render_memo = ref { renders = EM.empty; size = 0 }

let memo_render key (render : unit -> string option) =
  match EM.find_opt key !render_memo.renders with
  | Some r -> r
  | None ->
      let r = render () in
      let m = !render_memo in
      let m = if m.size >= 1024 then { renders = EM.empty; size = 0 } else m in
      render_memo := { renders = EM.add key r m.renders; size = m.size + 1 };
      r

(* The rendering is lazy: a program none of whose body-rewriting passes
   fire never pays for inference at all — the baseline type is only
   forced the first time a check has a changed body to compare. *)
let reuse_or_render ~key (cache : tycache) group env body :
    tycache * string option Lazy.t =
  match cache with
  | Some c when c.env == env && (c.body == body || equal c.body body) ->
      (cache, c.rendered)
  | _ ->
      let rendered = lazy (memo_render key (fun () -> render_in env body)) in
      (Some { group; env; body; rendered }, rendered)

(* [binds] is covered by the cache when every binding is structurally
   one of the cached group's — a subset is fine: the cached env then
   types the body under a superset of the bindings in scope, and any
   reference to a dropped binding is caught by the (independent)
   structural scope check, not the type check. This is what lets a
   pruned-but-unrewritten Prelude group reuse the prelude env
   outright. *)
let covered_by cbinds binds =
  List.for_all
    (fun (x, rhs) ->
      match List.assoc_opt x cbinds with
      | Some crhs -> equal crhs rhs
      | None -> false)
    binds

(* Typing a [Letrec] is [extend_letrec] on the group, then the body —
   so type the two halves separately and cache the group env. The
   pristine [Prelude.wrap]per's group IS the cached prelude env; after
   pruning, passes mostly rewrite only the program body, so they reuse
   the previous pass's group env and pay body-sized inference (or none,
   via {!reuse_or_render}, when the body itself is unchanged). *)
let infer_cached ~shape (cache : tycache) e : tycache * string option Lazy.t =
  match shape with
  | Pristine body | Subset (_, body) ->
      reuse_or_render ~key:body cache Lang.Prelude.defs
        (Lazy.force prelude_env) body
  | Plain -> (
      match e with
      | Letrec (binds, body) -> (
          match cache with
          | Some c when covered_by c.group binds ->
              reuse_or_render ~key:e cache c.group c.env body
          | _ -> (
              (* A memoised whole-term rendering skips even the group
                 extension; only a first encounter pays it. *)
              match EM.find_opt e !render_memo.renders with
              | Some r -> (None, Lazy.from_val r)
              | None -> (
                  match
                    Types.Infer.extend_letrec (Lazy.force prelude_env) binds
                  with
                  | Ok env -> reuse_or_render ~key:e None binds env body
                  | Error _ ->
                      (None, Lazy.from_val (memo_render e (fun () -> None))))))
      | e -> reuse_or_render ~key:e cache [] (Lazy.force prelude_env) e)

(* A rendering without unification variables is ground: equality is
   then exact. Polymorphic renderings may legally differ (a pass that
   drops a dead alternative can generalise the inferred type). *)
let ground s = not (String.contains s '\'')

let type_violation ~before ~after =
  match (before, after) with
  | None, _ -> (* input did not type-check: nothing to preserve *) None
  | Some tb, None ->
      Some
        {
          check = "type-preservation";
          detail = Fmt.str "input had type %s, output does not type-check" tb;
        }
  | Some tb, Some ta ->
      if String.equal tb ta then None
      else if ground tb && ground ta then
        Some
          {
            check = "type-preservation";
            detail = Fmt.str "type changed: %s -> %s" tb ta;
          }
      else None

(* ------------------------------------------------------------------ *)
(* Pass-to-pass snapshots                                              *)
(* ------------------------------------------------------------------ *)

type st = {
  free : String_set.t;
  ty : string option Lazy.t;  (** baseline type, forced on first use *)
  pre : violation list;  (** findings already present before the pass *)
  tyc : tycache;  (** letrec group env of the last checked term *)
  bodyf : body_facts option;  (** walked body, reused by identity *)
  groupf : group_facts option;  (** letrec group facts, by identity *)
}

let snapshot e =
  let shape = shape_of e in
  let tyc, ty = infer_cached ~shape None e in
  let free, pre, bodyf, groupf = facts_of ~shape e in
  { free; ty; pre; tyc; bodyf; groupf }

let ty_of_st st = Lazy.force st.ty

let check_pass ?trace ~pass ~prev after =
  let known = Option.map (fun (b, _, _, _) -> b) prev.groupf in
  let shape = shape_of ?known after in
  let free, vs, bodyf, groupf =
    facts_of ?bodyf:prev.bodyf ?groupf:prev.groupf ~shape after
  in
  let scope =
    (* The physically-same cached set needs no diff. *)
    if free == prev.free then []
    else scope_violations ~free_ok:prev.free free
  in
  let introduced =
    scope @ List.filter (fun v -> not (List.mem v prev.pre)) vs
  in
  let tyc, after_ty = infer_cached ~shape prev.tyc after in
  let introduced =
    (* Physically the same lazy rendering means the typed body did not
       change — nothing to force, let alone compare. *)
    if after_ty == prev.ty then introduced
    else
      match
        type_violation ~before:(Lazy.force prev.ty)
          ~after:(Lazy.force after_ty)
      with
      | Some v -> introduced @ [ v ]
      | None -> introduced
  in
  match introduced with
  | [] -> { free; ty = after_ty; pre = vs; tyc; bodyf; groupf }
  | v :: _ ->
      let summary = Fmt.str "%a" pp_violation v in
      let dump =
        match trace with
        | Some tr ->
            if Obs.on tr then Obs.record tr (Obs.Ev_lint_fail (pass, summary));
            Obs.dump
              ~extra:
                [
                  ("pass", pass);
                  ( "violations",
                    Fmt.str "%a"
                      Fmt.(list ~sep:(any "; ") pp_violation)
                      introduced );
                ]
              ~note:"optimizer lint failure" tr
        | None -> Fmt.str "optimizer lint failure after pass %s" pass
      in
      raise (Lint_error { pass; violations = introduced; dump })

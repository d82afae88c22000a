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
   uniqueness, patterns) and the term's free variables in a single
   walk — a check visits each node once instead of once for findings
   and once for [Subst.free_vars]'s union-heavy set building. *)
let walk e =
  let vs = ref [] and free = ref String_set.empty in
  let seen_arity = Hashtbl.create 16 in
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
    match Hashtbl.find_opt seen_arity c with
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
  go String_set.empty e;
  (!free, List.rev !vs)

(* ------------------------------------------------------------------ *)
(* Type preservation                                                   *)
(* ------------------------------------------------------------------ *)

let prelude_env = lazy (Types.Infer.with_prelude ())

(* A body's canonical type under the Prelude environment, memoised under
   the body itself. A serve corpus re-optimises the same programs — the
   daemon already keeps a compiled-program LRU for the same reason — and
   the optimiser is deterministic, so in steady state every check is a
   lookup, not an inference. No code optimises from two threads or
   domains, so a plain [ref] suffices; it is bounded instead: the map
   travels with its size and starts over once it holds 1,024
   renderings. *)
module EM = Map.Make (struct
  type t = expr

  let compare = Lang.Syntax.compare
end)

type render_memo = { renders : string option EM.t; size : int }

let render_memo = ref { renders = EM.empty; size = 0 }

let render e =
  match EM.find_opt e !render_memo.renders with
  | Some r -> r
  | None ->
      let r =
        match Types.Infer.infer (Lazy.force prelude_env) e with
        | Ok t -> Some (Types.Infer.ty_to_string t)
        | Error _ -> None
      in
      let m = !render_memo in
      let m = if m.size >= 1024 then { renders = EM.empty; size = 0 } else m in
      render_memo := { renders = EM.add e r m.renders; size = m.size + 1 };
      r

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
}

(* One walk of the body for its free variables and findings, and its
   type under the Prelude environment — the same function whether the
   body is open over the Prelude (the pipeline split the wrapper off) or
   a closed term, whose own [letrec]s [Infer] types in place. The
   rendering is lazy: a program none of whose passes fire never pays
   for inference at all. *)
let snapshot e =
  let free, pre = walk e in
  { free; ty = lazy (render e); pre }

(* Blame [pass] for the violations it introduced, if any. *)
let fail_on ?trace ~pass = function
  | [] -> ()
  | v :: _ as introduced ->
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

let check_pass ?trace ~pass ~prev after =
  let next = snapshot after in
  let introduced =
    scope_violations ~free_ok:prev.free next.free
    @ List.filter (fun v -> not (List.mem v prev.pre)) next.pre
  in
  let introduced =
    match
      type_violation ~before:(Lazy.force prev.ty) ~after:(Lazy.force next.ty)
    with
    | Some v -> introduced @ [ v ]
    | None -> introduced
  in
  fail_on ?trace ~pass introduced;
  next

(* ------------------------------------------------------------------ *)
(* The Prelude group                                                   *)
(* ------------------------------------------------------------------ *)

(* The Prelude's pairs with their free variables, and its names:
   computed once, since a kept binding is one of those pairs. *)
let prelude_free =
  lazy
    (List.map
       (fun ((_, rhs) as d) -> (d, Lang.Subst.free_vars rhs))
       Lang.Prelude.defs)

let prelude_names = lazy (String_set.of_list Lang.Prelude.names)

let check_group ?trace ~pass body group =
  let dup =
    match first_dup (List.map fst group) with
    | Some x ->
        [
          {
            check = "binder-uniqueness";
            detail = Fmt.str "letrec binds %s twice" x;
          };
        ]
    | None -> []
  in
  (* Walk the group along the Prelude: each binding must be one of its
     pairs, in its order, and brings that pair's free variables. *)
  let rec along used foreign group defs =
    match (group, defs) with
    | [], _ -> (used, List.rev foreign)
    | g :: rest, (d, fv) :: defs' ->
        if g == d then along (String_set.union fv used) foreign rest defs'
        else along used foreign group defs'
    | (x, _) :: rest, [] ->
        let v =
          {
            check = "group";
            detail = Fmt.str "binding %s is not a Prelude pair, in order" x;
          }
        in
        along used (v :: foreign) rest []
  in
  let used, foreign = along body.free [] group (Lazy.force prelude_free) in
  let needed = String_set.inter used (Lazy.force prelude_names) in
  let bound = String_set.of_list (List.map fst group) in
  fail_on ?trace ~pass (scope_violations ~free_ok:bound needed @ dup @ foreign)

(* The resolution (compile-to-slots) pass: one walk over {!Syntax.expr}
   that eliminates every runtime string operation the abstract machine
   used to pay for.

   - Variable occurrences become lexical slot references: a (frame,
     offset) pair into a chain of array-backed environment frames.
   - Constructor names are interned into integer tags through a global
     table seeded with {!Con_info.builtin_list}, so constructor dispatch
     (including the IO drivers' [Return]/[Bind]/... matching) is integer
     comparison.
   - Every heap-allocation site (let right-hand sides, application and
     constructor arguments, letrec bindings) and every lambda gets its
     free-variable footprint precomputed as an array of slot references,
     so closures capture a compact [addr array] instead of a whole
     name-keyed map.

   Scoping mirrors the name-based machine exactly, including its lazy
   treatment of unbound variables: an out-of-scope name resolves to
   {!RUnbound}, which raises [TypeError "unbound variable ..."] only if
   the occurrence is actually evaluated. *)

open Syntax

type slot = { frame : int; idx : int }
(** A resolved variable occurrence: walk [frame] environment links
    outward, then read array index [idx]. *)

type rexpr =
  | RVar of slot
  | RUnbound of string
      (** Out-of-scope name; raises [TypeError] if evaluated (the
          name-based machine's behaviour, preserved for dead code). *)
  | RLit of lit
  | RLam of lam
  | RApp of rexpr * arg
  | RCon of int * arg array  (** Interned constructor tag. *)
  | RCase of rexpr * ralt array
  | RLet of arg * rexpr  (** Body runs under one pushed 1-slot frame. *)
  | RLetrec of tspec array * rexpr
  | RPrim of Prim.t * rexpr list
  | RMapexn of arg * rexpr
  | RIsexn of rexpr
  | RGetexn of rexpr
  | RRaise of string * rexpr
      (** The string is the raise site's static label (site number plus
          a hint of the raised expression), threaded into the machine's
          exception provenance. *)

and arg =
  | Aslot of slot
      (** The argument is a variable: reuse its heap address directly
          (the machine's [alloc_in] fast path, now decided statically). *)
  | Athunk of tspec

and tspec = { caps : slot array; tbody : rexpr }
(** A thunk template: at allocation time the capture array is filled by
    reading [caps] from the current environment; [tbody] is compiled
    against a single frame holding exactly those captures. *)

and lam = { lcaps : slot array; lbody : rexpr; lname : string }
(** A lambda: evaluating it captures [lcaps] into a flat array; applying
    the closure runs [lbody] under a 1-slot argument frame chained onto
    the capture frame. *)

and ralt = { rpat : rpat; rrhs : rexpr }

and rpat =
  | Rpcon of int * int  (** tag, binder count *)
  | Rplit of lit
  | Rpany of bool  (** [true] when the wildcard binds the scrutinee. *)

(* ------------------------------------------------------------------ *)
(* Constructor interning                                               *)
(* ------------------------------------------------------------------ *)

(* The interning state is an explicit context record, not module-level
   globals: the serve daemon's re-entrancy audit requires that nothing a
   machine touches is hidden process state. One shared [global_context]
   remains the default everywhere (the compiled-program cache and the
   cross-machine differentials depend on tags meaning the same thing in
   every machine), but an embedder can sandbox with [new_context] — and
   because every context pre-interns {!Con_info.builtin_list} in the
   same order, the [t_*] tags below are valid in all of them. *)
type context = {
  con_table : (string, int) Hashtbl.t;
  con_names : (int, string) Hashtbl.t;
  mutable next_tag : int;
  mutable prelude : prelude_ir option;
      (** The Prelude's resolved bindings, filled by the first
          [Prelude.wrap]ped term {!expr} resolves in this context. *)
}

(* The [Letrec] over {!Prelude.defs} at the root of a wrapped program,
   resolved once: its bindings' frame (the body's scope), their specs
   (tags interned in the owning context) and how many raise sites they
   numbered, which is where the body's numbering starts. *)
and prelude_ir = {
  pframe : string array;
  pspecs : tspec array;
  psites : int;
}

let new_context () =
  let ctx =
    {
      con_table = Hashtbl.create 64;
      con_names = Hashtbl.create 64;
      next_tag = 0;
      prelude = None;
    }
  in
  List.iter
    (fun (c, _) ->
      let t = ctx.next_tag in
      ctx.next_tag <- t + 1;
      Hashtbl.add ctx.con_table c t;
      Hashtbl.add ctx.con_names t c)
    Con_info.builtin_list;
  ctx

let global_context = new_context ()

let con_tag ?(ctx = global_context) c =
  match Hashtbl.find_opt ctx.con_table c with
  | Some t -> t
  | None ->
      let t = ctx.next_tag in
      ctx.next_tag <- t + 1;
      Hashtbl.add ctx.con_table c t;
      Hashtbl.add ctx.con_names t c;
      t

let con_name ?(ctx = global_context) t =
  match Hashtbl.find_opt ctx.con_names t with
  | Some c -> c
  | None -> Printf.sprintf "<con:%d>" t

let t_true = con_tag c_true
let t_false = con_tag c_false
let t_cons = con_tag c_cons
let t_unit = con_tag c_unit
let t_ok = con_tag c_ok
let t_bad = con_tag c_bad
let t_just = con_tag c_just
let t_nothing = con_tag c_nothing
let t_return = con_tag c_return
let t_bind = con_tag c_bind
let t_get_char = con_tag c_get_char
let t_put_char = con_tag c_put_char
let t_get_exception = con_tag c_get_exception
let t_bracket = con_tag c_bracket
let t_on_exception = con_tag c_on_exception
let t_mask = con_tag c_mask
let t_unmask = con_tag c_unmask
let t_timeout = con_tag c_timeout
let t_retry = con_tag c_retry
let t_fork = con_tag "Fork"
let t_new_mvar = con_tag "NewMVar"
let t_take_mvar = con_tag "TakeMVar"
let t_put_mvar = con_tag "PutMVar"
let t_mvar_ref = con_tag "MVarRef"
let t_my_thread_id = con_tag "MyThreadId"
let t_throw_to = con_tag "ThrowTo"
let t_thread_id = con_tag "ThreadId"
let t_new_chan = con_tag "NewChan"
let t_read_chan = con_tag "ReadChan"
let t_write_chan = con_tag "WriteChan"
let t_chan_ref = con_tag "ChanRef"
let t_evaluate = con_tag c_evaluate

let io_action_tags =
  [
    t_return; t_bind; t_get_char; t_put_char; t_get_exception; t_bracket;
    t_on_exception; t_mask; t_unmask; t_timeout; t_retry; t_fork;
    t_new_mvar; t_take_mvar; t_put_mvar; t_my_thread_id; t_throw_to;
    t_new_chan; t_read_chan; t_write_chan; t_evaluate;
  ]

let is_io_action_tag t = List.mem t io_action_tags

(* ------------------------------------------------------------------ *)
(* Scope: a static image of the runtime frame chain                    *)
(* ------------------------------------------------------------------ *)

(* Innermost frame first. Within a frame, later binders shadow earlier
   ones (the map-based machine folded [Env_map.add] left to right), so
   frames are scanned right to left. *)
type scope = string array list

let find_slot (scope : scope) (x : string) : slot option =
  let rec in_frame (arr : string array) i =
    if i < 0 then None
    else if String.equal arr.(i) x then Some i
    else in_frame arr (i - 1)
  in
  let rec go frame = function
    | [] -> None
    | arr :: rest -> (
        match in_frame arr (Array.length arr - 1) with
        | Some idx -> Some { frame; idx }
        | None -> go (frame + 1) rest)
  in
  go 0 scope

(* The ordered capture list of an expression under a scope: its free
   variables that are actually in scope (out-of-scope names stay free
   and resolve to [RUnbound] inside the body). Order is the set's
   (sorted) order — deterministic, and mirrored by the body scope. *)
let captures (scope : scope) (e : expr) : string array * slot array =
  let names =
    List.filter
      (fun x -> find_slot scope x <> None)
      (Subst.String_set.elements (Subst.free_vars e))
  in
  ( Array.of_list names,
    Array.of_list
      (List.map
         (fun x ->
           match find_slot scope x with
           | Some s -> s
           | None -> assert false)
         names) )

(* ------------------------------------------------------------------ *)
(* Raise-site labels                                                   *)
(* ------------------------------------------------------------------ *)

(* Each [raise] occurrence gets a site number scoped to the top-level
   {!expr} call plus a hint of what it raises, so exception provenance
   can name the site: "raise#3:UserError". Numbering restarts at 0 for
   every resolution (a wrapped program's body numbers on from the
   Prelude's sites, held or not), so resolving the same source twice
   yields structurally identical IR — the property the serve daemon's
   compiled-program cache keys on (a cache hit and a fresh resolution
   must be indistinguishable, provenance labels included). *)
type pass_state = { rctx : context; mutable next_site : int }

let raise_label (st : pass_state) (e : expr) : string =
  let n = st.next_site in
  st.next_site <- n + 1;
  let hint =
    match e with
    | Con (c, _) -> ":" ^ c
    | Var x -> ":" ^ x
    | _ -> ""
  in
  Printf.sprintf "raise#%d%s" n hint

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let rec resolve (st : pass_state) (scope : scope) (e : expr) : rexpr =
  match e with
  | Var x -> (
      match find_slot scope x with
      | Some s -> RVar s
      | None -> RUnbound x)
  | Lit l -> RLit l
  | Lam (x, body) ->
      let names, lcaps = captures scope e in
      RLam { lcaps; lbody = resolve st [ [| x |]; names ] body; lname = x }
  | App (f, a) -> RApp (resolve st scope f, resolve_arg st scope a)
  | Con (c, es) ->
      RCon
        ( con_tag ~ctx:st.rctx c,
          Array.of_list (List.map (resolve_arg st scope) es) )
  | Case (scrut, alts) ->
      RCase
        ( resolve st scope scrut,
          Array.of_list (List.map (resolve_alt st scope) alts) )
  | Let (x, e1, e2) ->
      RLet (resolve_arg st scope e1, resolve st ([| x |] :: scope) e2)
  | Letrec (binds, body) ->
      let frame, specs = letrec_specs st scope binds in
      RLetrec (specs, resolve st (frame :: scope) body)
  | Fix e1 ->
      (* fix e ≡ letrec x = e x in x — the machine's own reading,
         desugared here so the IR needs no fixpoint node. *)
      resolve st scope
        (Letrec ([ ("$fix", App (e1, Var "$fix")) ], Var "$fix"))
  | Raise e1 -> RRaise (raise_label st e1, resolve st scope e1)
  | Prim (Prim.Map_exception, [ f; v ]) ->
      RMapexn (resolve_arg st scope f, resolve st scope v)
  | Prim (Prim.Unsafe_is_exception, [ v ]) -> RIsexn (resolve st scope v)
  | Prim (Prim.Unsafe_get_exception, [ v ]) -> RGetexn (resolve st scope v)
  | Prim (p, es) -> RPrim (p, List.map (resolve st scope) es)

and resolve_arg st scope e =
  match e with
  | Var x -> (
      (* alloc_in's "variables are already in the heap" fast path,
         decided once at compile time instead of per allocation. *)
      match find_slot scope x with
      | Some s -> Aslot s
      | None -> Athunk { caps = [||]; tbody = RUnbound x })
  | _ -> Athunk (thunk_spec st scope e)

(* A letrec group's frame and its bindings' specs, resolved before the
   body so the group's raise sites number first. *)
and letrec_specs st scope binds =
  let frame = Array.of_list (List.map fst binds) in
  let scope' = frame :: scope in
  ( frame,
    Array.of_list (List.map (fun (_, rhs) -> thunk_spec st scope' rhs) binds)
  )

and thunk_spec st scope e =
  let names, caps = captures scope e in
  { caps; tbody = resolve st [ names ] e }

and resolve_alt st scope (a : alt) : ralt =
  match a.pat with
  | Pcon (c, xs) ->
      let n = List.length xs in
      let scope' = if n = 0 then scope else Array.of_list xs :: scope in
      {
        rpat = Rpcon (con_tag ~ctx:st.rctx c, n);
        rrhs = resolve st scope' a.rhs;
      }
  | Plit l -> { rpat = Rplit l; rrhs = resolve st scope a.rhs }
  | Pany None -> { rpat = Rpany false; rrhs = resolve st scope a.rhs }
  | Pany (Some x) ->
      { rpat = Rpany true; rrhs = resolve st ([| x |] :: scope) a.rhs }

let resolved_prelude ctx =
  match ctx.prelude with
  | Some p -> p
  | None ->
      let st = { rctx = ctx; next_site = 0 } in
      let pframe, pspecs = letrec_specs st [] Prelude.defs in
      let p = { pframe; pspecs; psites = st.next_site } in
      ctx.prelude <- Some p;
      p

(* A [Prelude.wrap]ped program, recognised by the physical identity of
   the shared bindings list (as [Pipeline.optimize]'s split does) and only
   at the root, where the outer scope is empty: it reuses the context's
   resolved Prelude and resolves just the body, numbering raise sites
   from where the Prelude's end. The IR is structurally the one a full
   resolution gives; only the spec array is shared, which is safe
   because resolution is deterministic and no machine mutates IR. *)
let expr ?(ctx = global_context) (e : expr) : rexpr =
  match e with
  | Letrec (defs, body) when defs == Prelude.defs ->
      let p = resolved_prelude ctx in
      let st = { rctx = ctx; next_site = p.psites } in
      RLetrec (p.pspecs, resolve st [ p.pframe ] body)
  | _ -> resolve { rctx = ctx; next_site = 0 } [] e

let held_prelude ctx = Option.map (fun p -> p.pspecs) ctx.prelude

(* ------------------------------------------------------------------ *)
(* Static accounting (for tests and docs)                              *)
(* ------------------------------------------------------------------ *)

let rec count_nodes (r : rexpr) : int =
  let arg = function Aslot _ -> 1 | Athunk t -> 1 + count_nodes t.tbody in
  match r with
  | RVar _ | RUnbound _ | RLit _ -> 1
  | RLam l -> 1 + count_nodes l.lbody
  | RApp (f, a) -> 1 + count_nodes f + arg a
  | RCon (_, args) -> Array.fold_left (fun acc a -> acc + arg a) 1 args
  | RCase (s, alts) ->
      Array.fold_left
        (fun acc a -> acc + count_nodes a.rrhs)
        (1 + count_nodes s) alts
  | RLet (a, b) -> 1 + arg a + count_nodes b
  | RLetrec (specs, b) ->
      Array.fold_left
        (fun acc t -> acc + count_nodes t.tbody)
        (1 + count_nodes b) specs
  | RPrim (_, es) -> List.fold_left (fun acc e -> acc + count_nodes e) 1 es
  | RMapexn (a, v) -> 1 + arg a + count_nodes v
  | RIsexn v | RGetexn v | RRaise (_, v) -> 1 + count_nodes v

let rec unbound (r : rexpr) : string list =
  let arg = function Aslot _ -> [] | Athunk t -> unbound t.tbody in
  match r with
  | RUnbound x -> [ x ]
  | RVar _ | RLit _ -> []
  | RLam l -> unbound l.lbody
  | RApp (f, a) -> unbound f @ arg a
  | RCon (_, args) -> Array.to_list args |> List.concat_map arg
  | RCase (s, alts) ->
      unbound s
      @ (Array.to_list alts |> List.concat_map (fun a -> unbound a.rrhs))
  | RLet (a, b) -> arg a @ unbound b
  | RLetrec (specs, b) ->
      (Array.to_list specs |> List.concat_map (fun t -> unbound t.tbody))
      @ unbound b
  | RPrim (_, es) -> List.concat_map unbound es
  | RMapexn (a, v) -> arg a @ unbound v
  | RIsexn v | RGetexn v | RRaise (_, v) -> unbound v

(* The slot-compiled stack-trimming machine: {!Lang.Resolve} turns every
   expression into a pre-resolved IR (variables are (frame, offset)
   slots, constructors are interned integer tags, allocation sites carry
   their free-variable footprints), and this machine evaluates that IR
   with array-backed environments. No string is compared and no
   string-keyed map is touched at runtime.

   The heap, latches, async queue, exception readback, deep-forcing and
   collector are {!Runtime}'s; this module keeps its frames, its slot
   lookup and its dispatch loop. *)

open Lang.Syntax
open Runtime
module Exn = Lang.Exn
module R = Lang.Resolve

type addr = int
type mvalue = R.lam Runtime.mvalue

type frame =
  | F_update of addr
  | F_apply of addr
  | F_case of R.ralt array * env
  | F_prim of Lang.Prim.t * mvalue list * R.rexpr list * env
  | F_raise of string
      (** Evaluating the argument of [raise]; carries the resolver's
          raise-site label for provenance. *)
  | F_mapexn of addr  (** [mapException]'s function, awaiting a raise. *)
  | F_isexn
  | F_unsafe_catch
      (** Section 6's pure [unsafeGetException]: reify the outcome as an
          ExVal right here, without the IO monad. *)

type t = (R.rexpr, R.lam, frame, unit) Runtime.t

type config = Runtime.config = {
  fuel : int;
  blackhole_nontermination : bool;
  poison_thunks : bool;
  heap_limit : int option;
  stack_limit : int option;
}

type failure = Runtime.failure =
  | Fail_exn of Exn.t
  | Fail_async of Exn.t
  | Fail_diverged

let default_config = Runtime.default_config
let create ?config ?trace ?rctx () = Runtime.create ?config ?trace ?rctx ()
let stats = Runtime.stats

(* Read a (frame, offset) slot from the environment chain. The resolver
   guarantees the frame walk and the index are in bounds for well-formed
   IR; a corrupt environment is a machine bug, reported as stuck. *)
let lookup (env : env) (s : R.slot) : addr =
  let rec go env n =
    match env with
    | Env_frame (arr, up) -> if n = 0 then arr.(s.R.idx) else go up (n - 1)
    | Env_nil ->
        raise
          (Machine_stuck (Fail_exn (Exn.Type_error "corrupt environment")))
  in
  go env s.R.frame

(* Fill a thunk template's capture array from the current environment
   and allocate it as a single-frame closure over exactly its free
   variables. *)
let capture env (caps : R.slot array) : env =
  if Array.length caps = 0 then Env_nil
  else Env_frame (Array.map (lookup env) caps, Env_nil)

let alloc_spec (m : t) env (spec : R.tspec) : addr =
  alloc_cell m (Cell_thunk (spec.R.tbody, capture env spec.R.caps))

(* The resolver's statically-decided [alloc_in]: variable arguments
   reuse their heap address, everything else becomes a compact thunk. *)
let arg_addr m env = function
  | R.Aslot s -> lookup env s
  | R.Athunk spec -> alloc_spec m env spec

let alloc_resolved (m : t) r = alloc_cell m (Cell_thunk (r, Env_nil))
let alloc m e = alloc_resolved m (R.expr ~ctx:m.rctx e)

(* A root letrec group's cells, built once: binding [i]'s thunk over
   the group's frame, exactly as the [RLetrec] step would build them in
   a fresh heap. [held] is the spec array, recognised by physical
   identity. *)
type image = {
  held : R.tspec array;
  cells : (R.rexpr, R.lam, frame) Runtime.image;
}

let image (specs : R.tspec array) =
  {
    held = specs;
    cells =
      Runtime.image (Array.length specs) (fun group i ->
          (specs.(i).R.tbody, capture group specs.(i).R.caps));
  }

(* A root that binds the image's group starts at its body, in a heap
   that starts as a copy of the image; any other root takes the full
   path. *)
let start ?config ?trace ?image rx =
  match (image, rx) with
  | Some i, R.RLetrec (specs, body) when specs == i.held ->
      let m = Runtime.create ?config ?trace ~image:i.cells () in
      (m, root m body)
  | _ ->
      let m = create ?config ?trace () in
      (m, alloc_resolved m rx)

(* Pre-resolved [$f $x] template shared by [alloc_app] and the nested
   mapException application: frame 0 holds [|f; x|]. *)
let app01 : R.rexpr =
  R.RApp
    (R.RVar { R.frame = 0; R.idx = 0 }, R.Aslot { R.frame = 0; R.idx = 1 })

let alloc_app (m : t) f x = Runtime.alloc_app m app01 f x
let update = function F_update a -> Some a | _ -> None

(* One run's state, the only block a run allocates at entry: the frame
   stack and its depth, the current control, and whether the run polls
   for asynchronous events, which reach only an unmasked catch mark (the
   mask depth is set between runs, so [poll] is fixed per run). A nested
   run (a mapException function, a raised payload's readback) gets its
   own record. *)
type state = {
  m : t;
  mutable stack : frame list;
  mutable depth : int;
  mutable code : (R.rexpr, R.lam) code;
  poll : bool;
}

let push s f =
  s.stack <- f :: s.stack;
  s.depth <- s.depth + 1;
  if s.depth > s.m.stats.max_stack then s.m.stats.max_stack <- s.depth

let type_error msg = raise (Prim_type_error msg)

let select_alt (m : t) (v : mvalue) (alts : R.ralt array) env =
  let n = Array.length alts in
  let rec go i =
    if i >= n then None
    else
      let a = alts.(i) in
      match (a.R.rpat, v) with
      | R.Rpcon (tag, nb), MCon (tag', addrs)
        when tag = tag' && Array.length addrs = nb ->
          (* The constructor's argument array doubles as the binder
             frame: no copy, no per-binder insertion. *)
          Some ((if nb = 0 then env else Env_frame (addrs, env)), a.R.rrhs)
      | R.Rplit (Lit_int k), MInt mv when k = mv -> Some (env, a.R.rrhs)
      | R.Rplit (Lit_char c), MChar c' when c = c' -> Some (env, a.R.rrhs)
      | R.Rplit (Lit_string s), MString s' when String.equal s s' ->
          Some (env, a.R.rrhs)
      | R.Rpany false, _ -> Some (env, a.R.rrhs)
      | R.Rpany true, _ ->
          Some (Env_frame ([| alloc_value m v |], env), a.R.rrhs)
      | (R.Rpcon _ | R.Rplit _), _ -> go (i + 1)
  in
  go 0

(* The machine loop. [catch] marks the bottom of this run's stack as a
   getException catch mark: synchronous raises and asynchronous events
   that unwind all the way down are returned as [Error]. *)
let rec run (m : t) ~(catch : bool) (code0 : (R.rexpr, R.lam) code) :
    (mvalue, failure) result =
  let s =
    { m; stack = []; depth = 0; code = code0; poll = catch && m.mask_depth = 0 }
  in
  try Ok (exec s) with Machine_stuck failure -> Error failure

(* Synchronous unwinding: trim to the mark, poisoning update frames
   (Section 3.3), and continue at the frame that handles the raise. An
   empty stack ends the run: the failure reaches the caller. *)
and unwind_sync s (o : Obs.origin) (exn : Exn.t) : (R.rexpr, R.lam) code =
  match s.stack with
  | [] -> raise (Machine_stuck (Fail_exn exn))
  | f :: rest -> (
      s.stack <- rest;
      s.depth <- s.depth - 1;
      s.m.stats.frames_trimmed <- s.m.stats.frames_trimmed + 1;
      match f with
      | F_update a ->
          poison s.m a exn o;
          unwind_sync s o exn
      | F_isexn ->
          (* unsafeIsException observes the raise and answers True. *)
          C_ret (MCon (R.t_true, [||]))
      | F_unsafe_catch ->
          C_ret (MCon (R.t_bad, [| alloc_value s.m (exn_to_mvalue s.m exn) |]))
      | F_mapexn f_addr ->
          let exn' = map_exn run s.m ~app:app01 f_addr exn in
          raise_to_code s "mapException" exn'
      | F_apply _ | F_case _ | F_prim _ | F_raise _ -> unwind_sync s o exn)

(* A fresh raise at a labelled site, continued as machine code. *)
and raise_to_code s label exn =
  unwind_sync s (note_raise s.m ~depth:s.depth label exn) exn

and arith s n =
  if n >= -Runtime.arith_bound && n < Runtime.arith_bound then C_ret (MInt n)
  else raise_to_code s "arith-overflow" Exn.Overflow

and apply_prim s (p : Lang.Prim.t) (vs : mvalue list) : (R.rexpr, R.lam) code =
  let module P = Lang.Prim in
  let int2 k =
    match vs with
    | [ MInt a; MInt b ] -> k a b
    | _ -> type_error (P.name p ^ ": expected integers")
  in
  match p with
  | P.Add -> int2 (fun a b -> arith s (a + b))
  | P.Sub -> int2 (fun a b -> arith s (a - b))
  | P.Mul -> int2 (fun a b -> arith s (a * b))
  | P.Div ->
      int2 (fun a b ->
          if b = 0 then raise_to_code s "div" Exn.Divide_by_zero
          else arith s (a / b))
  | P.Mod ->
      int2 (fun a b ->
          if b = 0 then raise_to_code s "mod" Exn.Divide_by_zero
          else arith s (a mod b))
  | P.Neg -> (
      match vs with
      | [ MInt a ] -> arith s (-a)
      | _ -> type_error "negate: expected an integer")
  | P.Eq | P.Ne | P.Lt | P.Le | P.Gt | P.Ge -> (
      match vs with
      | [ a; b ] -> C_ret (compare_prim s.m p a b)
      | _ -> type_error (P.name p ^ ": uncomparable values"))
  | P.Seq -> (
      match vs with [ _; v2 ] -> C_ret v2 | _ -> type_error "seq: arity")
  | P.Chr -> (
      match vs with
      | [ MInt a ] when a >= 0 && a < 256 -> C_ret (MChar (Char.chr a))
      | [ MInt _ ] -> type_error "chr: out of range"
      | _ -> type_error "chr: expected an integer")
  | P.Ord -> (
      match vs with
      | [ MChar c ] -> C_ret (MInt (Char.code c))
      | _ -> type_error "ord: expected a character")
  | P.Map_exception | P.Unsafe_is_exception | P.Unsafe_get_exception ->
      (* Handled at C_eval via dedicated IR nodes. *)
      type_error (P.name p ^ ": not strict-applied")

and step s : unit =
  let m = s.m in
  m.stats.steps <- m.stats.steps + 1;
  m.fuel_left <- m.fuel_left - 1;
  if m.fuel_left <= 0 then raise (Machine_stuck Fail_diverged);
  (* Resource exhaustion (GHC's HeapOverflow/StackOverflow): delivered
     through the ordinary trim-the-stack path, so it poisons abandoned
     thunks and is catchable by getException like any other imprecise
     exception. *)
  let exhausted =
    match m.cfg.stack_limit with
    | Some lim when s.depth > lim ->
        m.stats.stack_overflows <- m.stats.stack_overflows + 1;
        Some ("stack-limit", Exn.Stack_overflow_exn)
    | _ -> (
        match m.cfg.heap_limit with
        | Some lim when m.heap_check_armed && Growarray.length m.heap >= lim ->
            m.heap_check_armed <- false;
            m.stats.heap_overflows <- m.stats.heap_overflows + 1;
            Some ("heap-limit", Exn.Heap_overflow)
        | _ -> None)
  in
  match exhausted with
  | Some (label, exn) -> s.code <- raise_to_code s label exn
  | None -> (
    (if s.poll then
       match m.async with
       | (k, x) :: rest when m.stats.steps >= k ->
           m.async <- rest;
           unwind_async m ~depth:s.depth ~update s.code s.stack x
       | _ -> ());
    match s.code with
    | C_enter a -> (
        match Growarray.get m.heap a with
        | Cell_value v -> s.code <- C_ret v
        | Cell_thunk (e, env) ->
            Growarray.set m.heap a Cell_blackhole;
            push s (F_update a);
            s.code <- C_eval (e, env)
        | Cell_blackhole ->
            (* Section 5.2: a detectable bottom. *)
            if m.cfg.blackhole_nontermination then
              s.code <- raise_to_code s "blackhole" Exn.Non_termination
            else raise (Machine_stuck Fail_diverged)
        | Cell_raise (exn, o) ->
            (* A poisoned thunk: re-raise the same exception, with the
               origin of the poisoning raise intact. *)
            note_reraise m o exn;
            s.code <- unwind_sync s o exn
        | Cell_paused (code', seg) ->
            (* Resume the interrupted evaluation (Section 5.1). *)
            Growarray.set m.heap a Cell_blackhole;
            push s (F_update a);
            List.iter (push s) (List.rev seg);
            if Obs.on m.trace then Obs.record m.trace (Obs.Ev_resume a);
            s.code <- code'
        | Cell_unused -> type_error "dangling address")
    | C_eval (e, env) -> (
        match e with
        | R.RVar sl -> s.code <- C_enter (lookup env sl)
        | R.RUnbound x ->
            s.code <-
              raise_to_code s "unbound"
                (Exn.Type_error (Printf.sprintf "unbound variable %s" x))
        | R.RLit (Lit_int n) -> s.code <- C_ret (MInt n)
        | R.RLit (Lit_char c) -> s.code <- C_ret (MChar c)
        | R.RLit (Lit_string str) -> s.code <- C_ret (MString str)
        | R.RLam l ->
            s.code <- C_ret (MClo (l, Array.map (lookup env) l.R.lcaps))
        | R.RApp (f, a) ->
            let a_addr = arg_addr m env a in
            push s (F_apply a_addr);
            s.code <- C_eval (f, env)
        | R.RCon (tag, args) ->
            s.code <- C_ret (MCon (tag, Array.map (arg_addr m env) args))
        | R.RLet (a, body) ->
            let addr = arg_addr m env a in
            s.code <- C_eval (body, Env_frame ([| addr |], env))
        | R.RLetrec (specs, body) ->
            (* Reserve the cells, then tie the knot through the shared
               binder frame: each right-hand side captures its footprint
               from the extended environment, in which the siblings'
               addresses already exist. *)
            let addrs = Array.map (fun _ -> alloc_cell m Cell_unused) specs in
            let env' = Env_frame (addrs, env) in
            Array.iteri
              (fun i spec ->
                Growarray.set m.heap addrs.(i)
                  (Cell_thunk (spec.R.tbody, capture env' spec.R.caps)))
              specs;
            s.code <- C_eval (body, env')
        | R.RRaise (lbl, e1) ->
            push s (F_raise lbl);
            s.code <- C_eval (e1, env)
        | R.RMapexn (f, v) ->
            let f_addr = arg_addr m env f in
            push s (F_mapexn f_addr);
            s.code <- C_eval (v, env)
        | R.RIsexn v ->
            push s F_isexn;
            s.code <- C_eval (v, env)
        | R.RGetexn v ->
            push s F_unsafe_catch;
            s.code <- C_eval (v, env)
        | R.RPrim (p, arg :: rest) ->
            push s (F_prim (p, [], rest, env));
            s.code <- C_eval (arg, env)
        | R.RPrim (p, []) -> type_error (Lang.Prim.name p ^ ": no arguments")
        | R.RCase (scrut, alts) ->
            push s (F_case (alts, env));
            s.code <- C_eval (scrut, env))
    | C_ret v -> (
        match s.stack with
        | [] ->
            (* [loop] returns before stepping a finished configuration,
               so reaching here means the driver invariant broke. *)
            invariant_failure m "C_ret with an empty stack reached step"
        | f :: rest -> (
            s.stack <- rest;
            s.depth <- s.depth - 1;
            match f with
            | F_update a ->
                Growarray.set m.heap a (Cell_value v);
                m.stats.updates <- m.stats.updates + 1
            | F_apply a -> (
                match v with
                | MClo (l, caps) ->
                    (* One 1-slot argument frame chained onto the
                       captured frame: no copying of the captures. *)
                    s.code <-
                      C_eval
                        ( l.R.lbody,
                          Env_frame ([| a |], Env_frame (caps, Env_nil)) )
                | MInt _ | MChar _ | MString _ | MCon _ ->
                    type_error "application of a non-function")
            | F_case (alts, env) -> (
                match select_alt m v alts env with
                | Some (env', rhs) -> s.code <- C_eval (rhs, env')
                | None ->
                    s.code <-
                      raise_to_code s "case" (Exn.Pattern_match_fail "case"))
            | F_prim (p, done_, remaining, env) -> (
                let done' = done_ @ [ v ] in
                match remaining with
                | [] -> s.code <- apply_prim s p done'
                | next :: rest' ->
                    push s (F_prim (p, done', rest', env));
                    s.code <- C_eval (next, env))
            | F_raise lbl -> s.code <- raise_to_code s lbl (raised_exn run m v)
            | F_mapexn _ ->
                (* The protected value was normal: mapException is the
                   identity. *)
                s.code <- C_ret v
            | F_isexn -> s.code <- C_ret (MCon (R.t_false, [||]))
            | F_unsafe_catch ->
                s.code <- C_ret (MCon (R.t_ok, [| alloc_value m v |])))))

and loop s =
  match (s.code, s.stack) with
  | C_ret v, [] -> v
  | _ ->
      step s;
      loop s

(* A prim type error unwinds like an ordinary raise from the point of
   the error: the stack is intact when the OCaml exception arrives. *)
and exec s =
  try loop s
  with Prim_type_error msg ->
    s.code <- raise_to_code s "type-error" (Exn.Type_error msg);
    exec s

let force = Runtime.force run
let force_catch = Runtime.force_catch run
let deep = Runtime.deep run
let mvalue_to_exn = Runtime.mvalue_to_exn run

let run_expr ?config e =
  let m = create ?config () in
  let r = force m (alloc m e) in
  (r, m.stats)

let run_deep ?config ?depth e =
  let m = create ?config () in
  let d = deep ?depth m (alloc m e) in
  (d, m.stats)

let copy_frame copy = function
  | F_update a -> F_update (copy a)
  | F_apply a -> F_apply (copy a)
  | F_case (alts, env) -> F_case (alts, copy_env copy env)
  | F_prim (p, done_, rest, env) ->
      F_prim (p, List.map (copy_value copy) done_, rest, copy_env copy env)
  | F_mapexn a -> F_mapexn (copy a)
  | (F_raise _ | F_isexn | F_unsafe_catch) as f -> f

let gc = Runtime.gc copy_frame

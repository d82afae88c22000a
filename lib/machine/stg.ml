(* The slot-compiled stack-trimming machine: {!Lang.Resolve} turns every
   expression into a pre-resolved IR (variables are (frame, offset)
   slots, constructors are interned integer tags, allocation sites carry
   their free-variable footprints), and this machine evaluates that IR
   with array-backed environments. No string is compared and no
   string-keyed map is touched at runtime.

   The exception machinery (poisoning, pause cells, masks, resource
   limits) follows Sections 3.3 and 5.1. *)

open Lang.Syntax
module Exn = Lang.Exn
module R = Lang.Resolve

type addr = int

type mvalue =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array  (** Interned constructor tag. *)
  | MClo of R.lam * addr array  (** Code template + captured slots. *)

(* The runtime environment: a chain of address frames mirroring the
   static scope the resolver compiled against. Capture points (thunks,
   closures) cut the chain to a single compact frame. *)
and env = Env_nil | Env_frame of addr array * env

type cell =
  | Cell_thunk of R.rexpr * env
  | Cell_value of mvalue
  | Cell_blackhole
  | Cell_raise of Exn.t * Obs.origin
      (** Thunk poisoned by a synchronous unwinding (Section 3.3); the
          origin of the raise rides along so a later re-entry still
          reports where the exception originally came from. *)
  | Cell_paused of code * frame list
      (** Resumable continuation left by an asynchronous unwinding
          (Section 5.1): code to resume and the stack segment above the
          thunk's update frame (top first). *)
  | Cell_unused

and code = C_eval of R.rexpr * env | C_enter of addr | C_ret of mvalue

and frame =
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

type config = {
  fuel : int;
  int_bits : int;
  blackhole_nontermination : bool;
  poison_thunks : bool;
  heap_limit : int option;
  stack_limit : int option;
}

let default_config =
  {
    fuel = 2_000_000;
    int_bits = 32;
    blackhole_nontermination = false;
    poison_thunks = true;
    heap_limit = None;
    stack_limit = None;
  }

type t = {
  mutable heap : cell Growarray.t;
  stats : Stats.t;
  cfg : config;
  rctx : R.context;
      (* The interning context this machine's IR was resolved against.
         Defaults to {!R.global_context}; every piece of per-machine
         state (heap, stats, async queue, provenance, trace) lives in
         this record — the serve daemon's re-entrancy audit holds the
         machine to "no hidden process state". *)
  mutable fuel_left : int;
  mutable async : (int * Exn.t) list;
  mutable mask_depth : int;
  mutable heap_check_armed : bool;
      (* The heap limit fires once, then stays disarmed until a collection
         brings the heap back under the limit: the raise itself cannot
         free memory, so without the latch every subsequent step would
         re-raise before a supervisor could recover. *)
  trace : Obs.t;
  prov : Obs.provenance;
      (* Origin of the most recent raise of each exception constant;
         maintained whether or not the recorder is on (raise paths are
         off the per-step fast path, so this costs nothing per step). *)
}

type failure =
  | Fail_exn of Exn.t
  | Fail_async of Exn.t
  | Fail_diverged

let pp_failure ppf = function
  | Fail_exn e -> Fmt.pf ppf "raise %a" Exn.pp e
  | Fail_async e -> Fmt.pf ppf "async %a" Exn.pp e
  | Fail_diverged -> Fmt.string ppf "diverged"

(* Why a WHNF value could not be read back as an exception constant:
   either it is not an exception at all (the caller chooses the message
   -- [raise] and [mapException] report differently, matching the
   denotational semantics), or interpreting it raised an exception of
   its own (a payload that raises propagates that exception). *)
type to_exn_error = Not_exn | Exn_err of Exn.t

let create ?(config = default_config) ?(trace = Obs.create ())
    ?(rctx = R.global_context) () =
  {
    heap = Growarray.create ~dummy:Cell_unused ();
    stats = Stats.create ();
    cfg = config;
    rctx;
    fuel_left = config.fuel;
    async = [];
    mask_depth = 0;
    heap_check_armed = true;
    trace;
    prov = Obs.new_provenance ();
  }

let stats m = m.stats
let heap_size m = Growarray.length m.heap
let trace m = m.trace
let origin_of m e = Obs.find_origin m.prov e
let pp_exn_with_origin m = Obs.pp_exn_with m.prov

(* A broken unwind or a return into an empty stack mid-step: the dead
   branches that used to be [assert false]. Fatal, but debuggable — the
   exception carries the flight-recorder dump and a stats snapshot. *)
let invariant_failure (m : t) (msg : string) : 'a =
  let extra =
    [
      ("stats", Fmt.str "%a" Stats.pp m.stats);
      ("heap", Printf.sprintf "%d cells" (Growarray.length m.heap));
      ("mask-depth", string_of_int m.mask_depth);
    ]
  in
  raise
    (Obs.Machine_invariant
       (Obs.dump ~note:("machine invariant violated: " ^ msg) ~extra m.trace))

let refuel m = m.fuel_left <- m.cfg.fuel

let set_mask_depth m d = m.mask_depth <- max 0 d

exception Machine_stuck of failure

(* A primitive or pattern-match type error inside [run]: caught at the
   loop boundary and re-entered as an ordinary synchronous raise, so it
   unwinds the stack (poisoning thunks, feeding [mapException] and catch
   frames) exactly like any other exception — the denotational semantics
   makes no distinction. *)
exception Prim_type_error of string

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

let alloc_cell m cell =
  m.stats.allocations <- m.stats.allocations + 1;
  Growarray.push m.heap cell

let alloc_value m v = alloc_cell m (Cell_value v)

(* Fill a thunk template's capture array from the current environment
   and allocate it as a single-frame closure over exactly its free
   variables. *)
let capture env (caps : R.slot array) : env =
  if Array.length caps = 0 then Env_nil
  else Env_frame (Array.map (lookup env) caps, Env_nil)

let alloc_spec m env (spec : R.tspec) : addr =
  alloc_cell m (Cell_thunk (spec.R.tbody, capture env spec.R.caps))

(* The resolver's statically-decided [alloc_in]: variable arguments
   reuse their heap address, everything else becomes a compact thunk. *)
let arg_addr m env = function
  | R.Aslot s -> lookup env s
  | R.Athunk spec -> alloc_spec m env spec

let alloc_resolved m r = alloc_cell m (Cell_thunk (r, Env_nil))
let alloc m e = alloc_resolved m (R.expr ~ctx:m.rctx e)

(* Pre-resolved [$f $x] template shared by [alloc_app] and the nested
   mapException application: frame 0 holds [|f; x|]. *)
let app01 : R.rexpr =
  R.RApp
    (R.RVar { R.frame = 0; R.idx = 0 }, R.Aslot { R.frame = 0; R.idx = 1 })

let alloc_app m f x =
  alloc_cell m (Cell_thunk (app01, Env_frame ([| f; x |], Env_nil)))

let inject_async m ~at_step e = m.async <- m.async @ [ (at_step, e) ]
let clear_async m = m.async <- []

let exn_to_mvalue m (e : Exn.t) : mvalue =
  let tag = R.con_tag ~ctx:m.rctx (Exn.constructor_name e) in
  match Exn.payload e with
  | Some (Exn.P_string s) -> MCon (tag, [| alloc_value m (MString s) |])
  | Some (Exn.P_int n) -> MCon (tag, [| alloc_value m (MInt n) |])
  | None -> MCon (tag, [||])

(* The machine loop. [catch] marks the bottom of this run's stack as a
   getException catch mark: synchronous raises and asynchronous events
   that unwind all the way down are returned as [Error]. *)
let rec run (m : t) ~(catch : bool) (code0 : code) : (mvalue, failure) result
    =
  let stack : frame list ref = ref [] in
  let depth = ref 0 in
  let code = ref code0 in
  let push f =
    stack := f :: !stack;
    incr depth;
    if !depth > m.stats.max_stack then m.stats.max_stack <- !depth
  in
  let pop_to rest =
    stack := rest;
    decr depth
  in
  let type_error msg = raise (Prim_type_error msg) in

  (* Register the origin of a raise (provenance is always-on: raises are
     off the fast path) and record the event when the recorder is on. *)
  let note_raise label exn =
    let o = Obs.origin ~label ~depth:!depth ~step:m.stats.steps in
    Obs.set_origin m.prov exn o;
    if Obs.on m.trace then Obs.record m.trace (Obs.Ev_raise (exn, o));
    o
  in

  (* Synchronous unwinding: trim to the mark, poisoning update frames
     (Section 3.3). Returns [Some code'] to continue executing, or [None]
     when the stack is fully unwound (the failure reaches the caller). *)
  let rec unwind_sync (o : Obs.origin) (exn : Exn.t) : code option =
    match !stack with
    | [] -> raise (Machine_stuck (Fail_exn exn))
    | f :: rest -> (
        pop_to rest;
        m.stats.frames_trimmed <- m.stats.frames_trimmed + 1;
        match f with
        | F_update a ->
            (* Section 3.3 (footnote 3): the abandoned thunk must be
               overwritten with [raise ex]. The [poison_thunks] ablation
               leaves the black hole behind instead, reproducing the bug
               the paper warns about: re-evaluation then sees a black
               hole, not the exception. *)
            if m.cfg.poison_thunks then begin
              Growarray.set m.heap a (Cell_raise (exn, o));
              m.stats.thunks_poisoned <- m.stats.thunks_poisoned + 1;
              if Obs.on m.trace then
                Obs.record m.trace (Obs.Ev_poison (a, exn))
            end;
            unwind_sync o exn
        | F_isexn ->
            (* unsafeIsException observes the raise and answers True. *)
            Some (C_ret (MCon (R.t_true, [||])))
        | F_unsafe_catch ->
            Some
              (C_ret
                 (MCon (R.t_bad, [| alloc_value m (exn_to_mvalue m exn) |])))
        | F_mapexn f_addr -> (
            (* Transform the representative exception by applying the
               mapped function in a nested run, then keep unwinding with
               the transformed exception (Section 5.4). *)
            let e_addr = alloc_value m (exn_to_mvalue m exn) in
            let a = alloc_app m f_addr e_addr in
            match run m ~catch:false (C_enter a) with
            | Ok v -> (
                match mvalue_to_exn m v with
                | Ok exn' -> unwind_sync (note_raise "mapException" exn') exn'
                | Error Not_exn ->
                    (* Matches [Sem_value.exn_of_whnf]: the denotational
                       semantics reports a non-exception uniformly, with
                       no mapException-specific message. *)
                    let exn' = Exn.Type_error "raise: not an exception" in
                    unwind_sync (note_raise "mapException" exn') exn'
                | Error (Exn_err exn') ->
                    unwind_sync (note_raise "mapException" exn') exn')
            | Error (Fail_exn exn') ->
                unwind_sync (note_raise "mapException" exn') exn'
            | Error (Fail_async _ | Fail_diverged) ->
                raise (Machine_stuck Fail_diverged))
        | F_apply _ | F_case _ | F_prim _ | F_raise _ -> unwind_sync o exn)
  in

  (* A fresh raise at a labelled site, continued as machine code. *)
  let raise_to_code ?(label = "raise") exn =
    match unwind_sync (note_raise label exn) exn with
    | Some c -> c
    | None -> invariant_failure m "unwind_sync returned no continuation"
  in

  (* A poisoned thunk re-entered: replay the raise with its original
     origin intact. *)
  let reraise_to_code o exn =
    Obs.set_origin m.prov exn o;
    if Obs.on m.trace then Obs.record m.trace (Obs.Ev_rethrow (exn, o));
    match unwind_sync o exn with
    | Some c -> c
    | None -> invariant_failure m "unwind_sync returned no continuation"
  in

  (* Asynchronous unwinding (Section 5.1): pause cells instead of poison,
     so the abandoned work is resumable. The segment saved with each thunk
     is the stack slice above its update frame, top first. *)
  let unwind_async (exn : Exn.t) : 'a =
    m.stats.async_delivered <- m.stats.async_delivered + 1;
    ignore (note_raise "async" exn);
    if Obs.on m.trace then Obs.record m.trace (Obs.Ev_async exn);
    let rec go cur_code buf st =
      match st with
      | [] ->
          stack := [];
          depth := 0;
          raise (Machine_stuck (Fail_async exn))
      | F_update a :: rest ->
          Growarray.set m.heap a (Cell_paused (cur_code, List.rev buf));
          m.stats.thunks_paused <- m.stats.thunks_paused + 1;
          if Obs.on m.trace then Obs.record m.trace (Obs.Ev_pause a);
          go (C_enter a) [] rest
      | f :: rest -> go cur_code (f :: buf) rest
    in
    go !code [] !stack
  in

  let pending_async () =
    if (not catch) || m.mask_depth > 0 then None
    else
      match m.async with
      | (k, x) :: rest when m.stats.steps >= k ->
          m.async <- rest;
          Some x
      | _ -> None
  in

  let arith n =
    let bound = 1 lsl (m.cfg.int_bits - 1) in
    if n >= -bound && n < bound then C_ret (MInt n)
    else raise_to_code ~label:"arith-overflow" Exn.Overflow
  in

  let mbool b = MCon ((if b then R.t_true else R.t_false), [||]) in

  let apply_prim (p : Lang.Prim.t) (vs : mvalue list) : code =
    let module P = Lang.Prim in
    let int2 k =
      match vs with
      | [ MInt a; MInt b ] -> k a b
      | _ -> type_error (P.name p ^ ": expected integers")
    in
    let cmp k =
      match vs with
      | [ MInt a; MInt b ] -> C_ret (mbool (k (Stdlib.compare a b)))
      | [ MChar a; MChar b ] -> C_ret (mbool (k (Stdlib.compare a b)))
      | [ MString a; MString b ] -> C_ret (mbool (k (String.compare a b)))
      | [ MCon (a, [||]); MCon (b, [||]) ] ->
          (* Nullary constructors compare by name, as before interning:
             tag order is interning order, not lexicographic. *)
          C_ret
            (mbool
               (k
                  (String.compare
                     (R.con_name ~ctx:m.rctx a)
                     (R.con_name ~ctx:m.rctx b))))
      | _ -> type_error (P.name p ^ ": uncomparable values")
    in
    match p with
    | P.Add -> int2 (fun a b -> arith (a + b))
    | P.Sub -> int2 (fun a b -> arith (a - b))
    | P.Mul -> int2 (fun a b -> arith (a * b))
    | P.Div ->
        int2 (fun a b ->
            if b = 0 then raise_to_code ~label:"div" Exn.Divide_by_zero
            else arith (a / b))
    | P.Mod ->
        int2 (fun a b ->
            if b = 0 then raise_to_code ~label:"mod" Exn.Divide_by_zero
            else arith (a mod b))
    | P.Neg -> (
        match vs with
        | [ MInt a ] -> arith (-a)
        | _ -> type_error "negate: expected an integer")
    | P.Eq -> cmp (fun c -> c = 0)
    | P.Ne -> cmp (fun c -> c <> 0)
    | P.Lt -> cmp (fun c -> c < 0)
    | P.Le -> cmp (fun c -> c <= 0)
    | P.Gt -> cmp (fun c -> c > 0)
    | P.Ge -> cmp (fun c -> c >= 0)
    | P.Seq -> (
        match vs with
        | [ _; v2 ] -> C_ret v2
        | _ -> type_error "seq: arity")
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
  in

  let select_alt (v : mvalue) (alts : R.ralt array) env =
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
            Some
              ((if nb = 0 then env else Env_frame (addrs, env)), a.R.rrhs)
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
  in

  let step () : unit =
    m.stats.steps <- m.stats.steps + 1;
    m.fuel_left <- m.fuel_left - 1;
    if m.fuel_left <= 0 then raise (Machine_stuck Fail_diverged);
    (* Resource exhaustion (GHC's HeapOverflow/StackOverflow): delivered
       through the ordinary trim-the-stack path, so it poisons abandoned
       thunks and is catchable by getException like any other imprecise
       exception. *)
    let exhausted =
      match m.cfg.stack_limit with
      | Some lim when !depth > lim ->
          m.stats.stack_overflows <- m.stats.stack_overflows + 1;
          Some ("stack-limit", Exn.Stack_overflow_exn)
      | _ -> (
          match m.cfg.heap_limit with
          | Some lim when m.heap_check_armed && Growarray.length m.heap >= lim
            ->
              m.heap_check_armed <- false;
              m.stats.heap_overflows <- m.stats.heap_overflows + 1;
              Some ("heap-limit", Exn.Heap_overflow)
          | _ -> None)
    in
    match exhausted with
    | Some (label, exn) -> code := raise_to_code ~label exn
    | None -> (
    (match pending_async () with
    | Some x -> unwind_async x
    | None -> ());
    match !code with
    | C_enter a -> (
        match Growarray.get m.heap a with
        | Cell_value v -> code := C_ret v
        | Cell_thunk (e, env) ->
            Growarray.set m.heap a Cell_blackhole;
            push (F_update a);
            code := C_eval (e, env)
        | Cell_blackhole ->
            (* Section 5.2: a detectable bottom. *)
            if m.cfg.blackhole_nontermination then
              code := raise_to_code ~label:"blackhole" Exn.Non_termination
            else raise (Machine_stuck Fail_diverged)
        | Cell_raise (exn, o) ->
            (* A poisoned thunk: re-raise the same exception, with the
               origin of the poisoning raise intact. *)
            code := reraise_to_code o exn
        | Cell_paused (code', seg) ->
            (* Resume the interrupted evaluation (Section 5.1). *)
            Growarray.set m.heap a Cell_blackhole;
            push (F_update a);
            List.iter push (List.rev seg);
            if Obs.on m.trace then Obs.record m.trace (Obs.Ev_resume a);
            code := code'
        | Cell_unused -> type_error "dangling address")
    | C_eval (e, env) -> (
        match e with
        | R.RVar s -> code := C_enter (lookup env s)
        | R.RUnbound x ->
            code :=
              raise_to_code ~label:"unbound"
                (Exn.Type_error (Printf.sprintf "unbound variable %s" x))
        | R.RLit (Lit_int n) -> code := C_ret (MInt n)
        | R.RLit (Lit_char c) -> code := C_ret (MChar c)
        | R.RLit (Lit_string s) -> code := C_ret (MString s)
        | R.RLam l -> code := C_ret (MClo (l, Array.map (lookup env) l.R.lcaps))
        | R.RApp (f, a) ->
            let a_addr = arg_addr m env a in
            push (F_apply a_addr);
            code := C_eval (f, env)
        | R.RCon (tag, args) ->
            code := C_ret (MCon (tag, Array.map (arg_addr m env) args))
        | R.RLet (a, body) ->
            let addr = arg_addr m env a in
            code := C_eval (body, Env_frame ([| addr |], env))
        | R.RLetrec (specs, body) ->
            (* Reserve the cells, then tie the knot through the shared
               binder frame: each right-hand side captures its footprint
               from the extended environment, in which the siblings'
               addresses already exist. *)
            let addrs =
              Array.map (fun _ -> alloc_cell m Cell_unused) specs
            in
            let env' = Env_frame (addrs, env) in
            Array.iteri
              (fun i spec ->
                Growarray.set m.heap addrs.(i)
                  (Cell_thunk (spec.R.tbody, capture env' spec.R.caps)))
              specs;
            code := C_eval (body, env')
        | R.RRaise (lbl, e1) ->
            push (F_raise lbl);
            code := C_eval (e1, env)
        | R.RMapexn (f, v) ->
            let f_addr = arg_addr m env f in
            push (F_mapexn f_addr);
            code := C_eval (v, env)
        | R.RIsexn v ->
            push F_isexn;
            code := C_eval (v, env)
        | R.RGetexn v ->
            push F_unsafe_catch;
            code := C_eval (v, env)
        | R.RPrim (p, arg :: rest) ->
            push (F_prim (p, [], rest, env));
            code := C_eval (arg, env)
        | R.RPrim (p, []) -> type_error (Lang.Prim.name p ^ ": no arguments")
        | R.RCase (scrut, alts) ->
            push (F_case (alts, env));
            code := C_eval (scrut, env))
    | C_ret v -> (
        match !stack with
        | [] ->
            (* [loop] returns before stepping a finished configuration,
               so reaching here means the driver invariant broke. *)
            invariant_failure m "C_ret with an empty stack reached step"
        | f :: rest -> (
            pop_to rest;
            match f with
            | F_update a ->
                Growarray.set m.heap a (Cell_value v);
                m.stats.updates <- m.stats.updates + 1
            | F_apply a -> (
                match v with
                | MClo (l, caps) ->
                    (* One 1-slot argument frame chained onto the
                       captured frame: no copying of the captures. *)
                    code :=
                      C_eval
                        ( l.R.lbody,
                          Env_frame
                            ([| a |], Env_frame (caps, Env_nil)) )
                | MInt _ | MChar _ | MString _ | MCon _ ->
                    type_error "application of a non-function")
            | F_case (alts, env) -> (
                match select_alt v alts env with
                | Some (env', rhs) -> code := C_eval (rhs, env')
                | None ->
                    code :=
                      raise_to_code ~label:"case"
                        (Exn.Pattern_match_fail "case"))
            | F_prim (p, done_, remaining, env) -> (
                let done' = done_ @ [ v ] in
                match remaining with
                | [] -> code := apply_prim p done'
                | next :: rest' ->
                    push (F_prim (p, done', rest', env));
                    code := C_eval (next, env))
            | F_raise lbl -> (
                match mvalue_to_exn m v with
                | Ok exn -> code := raise_to_code ~label:lbl exn
                | Error Not_exn ->
                    code :=
                      raise_to_code ~label:lbl
                        (Exn.Type_error "raise: not an exception")
                | Error (Exn_err e) -> code := raise_to_code ~label:lbl e)
            | F_mapexn _ ->
                (* The protected value was normal: mapException is the
                   identity. *)
                code := C_ret v
            | F_isexn -> code := C_ret (mbool false)
            | F_unsafe_catch ->
                code := C_ret (MCon (R.t_ok, [| alloc_value m v |])))))
  in
  try
    let rec loop () =
      match (!code, !stack) with
      | C_ret v, [] -> Ok v
      | _ ->
          step ();
          loop ()
    in
    let rec exec () =
      try loop ()
      with Prim_type_error msg ->
        code := raise_to_code ~label:"type-error" (Exn.Type_error msg);
        exec ()
    in
    exec ()
  with Machine_stuck failure -> Error failure

(* Interpret a WHNF machine value as an exception constant; forces the
   payload in a nested run. *)
and mvalue_to_exn (m : t) (v : mvalue) : (Exn.t, to_exn_error) result =
  match v with
  | MCon (tag, args) -> (
      let payload =
        match args with
        | [||] -> Ok None
        | [| a |] -> (
            match run m ~catch:false (C_enter a) with
            | Ok (MString s) -> Ok (Some (Exn.P_string s))
            | Ok (MInt n) -> Ok (Some (Exn.P_int n))
            | Ok _ ->
                Error (Exn.Type_error "exception payload is not a string")
            | Error (Fail_exn e) | Error (Fail_async e) -> Error e
            | Error Fail_diverged ->
                Error (Exn.Type_error "exception payload failed to evaluate"))
        | _ -> Error (Exn.Type_error "exception constructor arity")
      in
      match payload with
      | Error e -> Error (Exn_err e)
      | Ok p -> (
          let name = R.con_name ~ctx:m.rctx tag in
          match Exn.of_constructor_p name p with
          | Some e -> Ok e
          | None ->
              Error
                (Exn_err
                   (Exn.Type_error
                      (name ^ " is not an exception constructor")))))
  | MInt _ | MChar _ | MString _ | MClo _ -> Error Not_exn

let force m a = run m ~catch:false (C_enter a)

let force_catch m a =
  m.stats.catches <- m.stats.catches + 1;
  let r = run m ~catch:true (C_enter a) in
  (if Obs.on m.trace then
     match r with
     | Error (Fail_exn e) | Error (Fail_async e) ->
         Obs.record m.trace (Obs.Ev_catch (Some e))
     | Ok _ | Error Fail_diverged -> Obs.record m.trace (Obs.Ev_catch None));
  r

type deep_result = DV of Semantics.Sem_value.deep | DFail of failure

module SV = Semantics.Sem_value

let rec deep ?(depth = 64) m a : SV.deep =
  if depth <= 0 then SV.DCut
  else
    match force m a with
    | Error (Fail_exn e) -> SV.DBad (Semantics.Exn_set.singleton e)
    | Error (Fail_async e) -> SV.DBad (Semantics.Exn_set.singleton e)
    | Error Fail_diverged -> SV.DBad Semantics.Exn_set.bottom
    | Ok v -> (
        match v with
        | MInt n -> SV.DInt n
        | MChar c -> SV.DChar c
        | MString s -> SV.DString s
        | MClo _ -> SV.DFun
        | MCon (tag, addrs) ->
            SV.DCon
              ( R.con_name ~ctx:m.rctx tag,
                List.map
                  (fun a' -> deep ~depth:(depth - 1) m a')
                  (Array.to_list addrs) ))

let run_expr ?config e =
  let m = create ?config () in
  let a = alloc m e in
  let r = force m a in
  (r, m.stats)

let run_deep ?config ?depth e =
  let m = create ?config () in
  let a = alloc m e in
  let d = deep ?depth m a in
  (d, m.stats)


(* ------------------------------------------------------------------ *)
(* Garbage collection: a semi-space copying collector over the cell    *)
(* heap. Roots are the addresses the caller still holds; the machine   *)
(* must be between runs (no live stack). Returns the relocated roots   *)
(* in order.                                                           *)
(* ------------------------------------------------------------------ *)

let gc (m : t) ~(roots : addr list) : addr list =
  let old_heap = m.heap in
  let old_len = Growarray.length old_heap in
  let new_heap = Growarray.create ~capacity:(max 16 old_len) ~dummy:Cell_unused () in
  let forward = Array.make (max 1 old_len) (-1) in
  (* Cheney-style: copy the cell shell first, then scan and rewrite. *)
  let rec copy (a : addr) : addr =
    if a < 0 || a >= old_len then a
    else if forward.(a) >= 0 then forward.(a)
    else begin
      let a' = Growarray.push new_heap (Growarray.get old_heap a) in
      forward.(a) <- a';
      (* Depth-first rewrite of the freshly copied cell. OCaml's own
         stack bounds recursion depth; heaps here are small enough, and
         long list spines alternate through environment frames which are
         copied breadth-ish via [copy_env]. *)
      Growarray.set new_heap a' (copy_cell (Growarray.get old_heap a));
      a'
    end

  and copy_env = function
    | Env_nil -> Env_nil
    | Env_frame (arr, up) -> Env_frame (Array.map copy arr, copy_env up)

  and copy_value = function
    | (MInt _ | MChar _ | MString _) as v -> v
    | MCon (tag, addrs) -> MCon (tag, Array.map copy addrs)
    | MClo (l, caps) -> MClo (l, Array.map copy caps)

  and copy_code = function
    | C_eval (e, env) -> C_eval (e, copy_env env)
    | C_enter a -> C_enter (copy a)
    | C_ret v -> C_ret (copy_value v)

  and copy_frame = function
    | F_update a -> F_update (copy a)
    | F_apply a -> F_apply (copy a)
    | F_case (alts, env) -> F_case (alts, copy_env env)
    | F_prim (p, done_, rest, env) ->
        F_prim (p, List.map copy_value done_, rest, copy_env env)
    | F_raise _ as f -> f
    | F_mapexn a -> F_mapexn (copy a)
    | F_isexn -> F_isexn
    | F_unsafe_catch -> F_unsafe_catch

  and copy_cell = function
    | Cell_thunk (e, env) -> Cell_thunk (e, copy_env env)
    | Cell_value v -> Cell_value (copy_value v)
    | Cell_blackhole -> Cell_blackhole
    | Cell_raise _ as c -> c
    | Cell_paused (code, frames) ->
        Cell_paused (copy_code code, List.map copy_frame frames)
    | Cell_unused -> Cell_unused
  in
  let roots' = List.map copy roots in
  m.heap <- new_heap;
  m.stats.collections <- m.stats.collections + 1;
  m.stats.live_copied <-
    m.stats.live_copied + Growarray.length new_heap;
  if Obs.on m.trace then
    Obs.record m.trace (Obs.Ev_gc (old_len, Growarray.length new_heap));
  (* Re-arm the heap limit only once a collection has actually brought the
     heap back under it; otherwise the next step would re-raise before the
     supervisor makes progress. *)
  (match m.cfg.heap_limit with
  | Some lim when Growarray.length new_heap < lim -> m.heap_check_armed <- true
  | _ -> ());
  roots'

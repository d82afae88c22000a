(* The flat bytecode backend. One compile pass flattens the resolved IR
   into a contiguous int array (opcode + inline operand words, emitted
   through a growarray code buffer and frozen); the evaluator is a
   register machine — mode, program counter, environment, accumulator —
   that dispatches straight off the code array with no per-step variant
   allocation ({!Stg} allocates a [C_eval]/[C_ret] cell on every
   transition; this machine writes four registers).

   Three superinstructions fuse the slot machine's measured hot pairs:

   - [op_app_enter]   push-apply of an argument + enter a variable
                      callee ([RApp (RVar f, a)] — every saturated call
                      in CPS-free code hits this).
   - [op_let_thunk]   allocate an argument thunk + bind it in a fresh
                      1-slot frame ([RLet (Athunk _, _)] — the
                      alloc+move pair of every let).
   - [op_case_enter]  push a case frame + force a variable scrutinee
                      ([RCase (RVar _, _)] — the force+branch pair of
                      every case on a bound variable).

   Every case site owns a monomorphic inline cache (tag, binder count,
   branch pc): constructor returns check it first ([Stats.ic_hits]) and
   fall back to the alternative-table walk on a miss, which refills the
   cache ([Stats.ic_misses]). The cache lives in the program, which the
   machines running it share — sound, because a site's tag-to-branch
   mapping is a pure function of the static table. No two programs
   share a site: a program compiled against a held {!segment} (the
   Prelude, compiled once) gets fresh copies of the segment's sites.

   The exception machinery is the {!Runtime} this shares with the slot
   machine; this module keeps its compiler, frames, packed slot lookup
   and dispatch loop. *)

open Lang.Syntax
open Runtime
module Exn = Lang.Exn
module R = Lang.Resolve

type addr = int
type mvalue = int Runtime.mvalue

(* ------------------------------------------------------------------ *)
(* The compiled program                                                *)
(* ------------------------------------------------------------------ *)

(* Opcodes. Operand words follow inline; every expression's code ends in
   a control transfer (enter or return), so blocks never fall off their
   end. *)
let op_enter = 0 (* slotw *)
let op_ret_int = 1 (* n *)
let op_ret_char = 2 (* char code *)
let op_ret_str = 3 (* string pool idx *)
let op_ret_clo = 4 (* lam pool idx *)
let op_ret_con = 5 (* tag, n, n arg words *)
let op_ret_con0 = 6 (* tag *)
let op_push_apply = 7 (* argw; falls through to the callee *)
let op_app_enter = 8 (* argw, slotw — superinstruction *)
let op_let_slot = 9 (* slotw; falls through to the body *)
let op_let_thunk = 10 (* tspec idx — superinstruction *)
let op_letrec = 11 (* n, n tspec idxs; falls through to the body *)
let op_push_case = 12 (* case idx; falls through to the scrutinee *)
let op_case_enter = 13 (* case idx, slotw — superinstruction *)
let op_push_prim = 14 (* prim-site idx; falls through to argument 0 *)
let op_prim0 = 15 (* prim-site idx (zero arguments: a type error) *)
let op_push_raise = 16 (* label pool idx; falls through to the payload *)
let op_push_mapexn = 17 (* argw; falls through to the protected value *)
let op_push_isexn = 18
let op_push_catch = 19
let op_unbound = 20 (* string pool idx *)

(* A slot packs to one word: frame in the high bits, index in the low 16
   (static lexical depth and frame width never approach 2^16). An
   argument word [argw] is a thunk-template index when non-negative and
   [-(packed slot) - 1] when the argument reuses a variable's address. *)
let pack (s : R.slot) = (s.R.frame lsl 16) lor s.R.idx

(* ------------------------------------------------------------------ *)
(* Frames and environments (a segment's image is built over them)      *)
(* ------------------------------------------------------------------ *)

(* A thunk's body and a position's [C_eval] are code-array pcs; a
   position is reified as a [Runtime.code] only when a pause cell must
   capture the continuation. *)
type bframe =
  | BF_update of addr
  | BF_apply of addr
  | BF_case of int * env  (* case-site index *)
  | BF_prim of int * mvalue array * int * env
      (* prim-site index, argument accumulator (filled in place, one
         slot per argument), index of the next slot to fill — which is
         also the index of the next argument pc in [ps_args] *)
  | BF_raise of int  (* raise-label pool index *)
  | BF_mapexn of addr
  | BF_isexn
  | BF_catch

(* The environment walk off a packed slot word — the bytecode
   counterpart of {!Stg.lookup}. *)
let lookup (env : env) (w : int) : addr =
  let rec go env n =
    match env with
    | Env_frame (arr, up) ->
        if n = 0 then Array.unsafe_get arr (w land 0xffff) else go up (n - 1)
    | Env_nil ->
        raise
          (Machine_stuck (Fail_exn (Exn.Type_error "corrupt environment")))
  in
  go env (w lsr 16)

(* Resolve every packed slot in [caps] — a counted loop rather than
   [Array.map (lookup env)], which would allocate a closure per call
   on the thunk-allocation hot path. *)
let lookup_all (env : env) (caps : int array) : addr array =
  let n = Array.length caps in
  if n = 0 then [||]
  else begin
    let arr = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set arr i (lookup env (Array.unsafe_get caps i))
    done;
    arr
  end

let capture env (caps : int array) : env =
  if Array.length caps = 0 then Env_nil
  else Env_frame (lookup_all env caps, Env_nil)

(* ------------------------------------------------------------------ *)
(* Programs and segments                                               *)
(* ------------------------------------------------------------------ *)

type lam_info = {
  l_caps : int array;  (* packed capture slots *)
  mutable l_pc : int;  (* body entry, patched after the body is emitted *)
  l_name : string;
}

type tspec_info = { t_caps : int array; mutable t_pc : int }

type bpat = Bp_con of int * int | Bp_lit of lit | Bp_any of bool

type balt = { bpat : bpat; mutable bpc : int }

type case_site = {
  c_alts : balt array;
  (* The monomorphic inline cache: last constructor (tag, binder count)
     seen here and the branch it selected. [-1] = empty. *)
  mutable ic_tag : int;
  mutable ic_nb : int;
  mutable ic_pc : int;
}

type prim_site = {
  ps_prim : Lang.Prim.t;
  ps_args : int array;  (* entry pcs of arguments 1..n-1 (0 falls through) *)
}

type program = {
  code : int array;
  entry : int;
  app_pc : int;  (* the [$f $x] template for alloc_app / mapException *)
  strs : string array;  (* string literals, unbound names, raise labels *)
  lams : lam_info array;
  tspecs : tspec_info array;
  cases : case_site array;
  prims : prim_site array;
  emitted : int;  (* code words this compile emitted itself *)
  image : (int, int, bframe) Runtime.image option;
      (* the segment's group cells, for a program compiled against one *)
}

let code_words p = Array.length p.code
let emitted_words p = p.emitted

(* A root letrec group compiled once: its bindings' code and sub-blocks,
   and the image of the group's cells over that code ([base.image]), so
   a program whose body is emitted after it starts its machines' heaps
   from the image and its root at the body. [held] is the spec array it
   was compiled from, recognised by physical identity. *)
type segment = { held : R.tspec array; base : program }

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

(* An accumulating pool seeded with [base]: add returns the index,
   freeze returns [base] followed by the additions in order. *)
let pool base =
  let items = ref [] and n = ref (Array.length base) in
  let add x =
    let i = !n in
    items := x :: !items;
    incr n;
    i
  in
  let freeze () =
    let added = Array.of_list (List.rev !items) in
    if Array.length base = 0 then added else Array.append base added
  in
  (add, freeze)

let empty =
  {
    code = [||];
    entry = 0;
    app_pc = -1;
    strs = [||];
    lams = [||];
    tspecs = [||];
    cases = [||];
    prims = [||];
    emitted = 0;
    image = None;
  }

(* The one emitter. Code and pools continue from [base]: [empty] for a
   fresh compile, a held segment's for a program appended to it. Only
   the case sites are copied, so every program owns its inline caches;
   the other templates and the image are final once their segment is
   built and are shared. [lay_out] emits the new blocks through these
   operations and answers the entry and [$f $x] template pcs. *)
type emitter = {
  here : unit -> int;
  emit_tail : R.rexpr -> unit;
  add_tspec : R.tspec -> int;
  drain : unit -> unit;  (* emit every queued sub-block *)
}

let assemble (base : program) (lay_out : emitter -> int * int) : program =
  let off = Array.length base.code in
  let code = Growarray.create ~dummy:0 () in
  let emit w = ignore (Growarray.push code w) in
  let here () = off + Growarray.length code in
  let add_str, freeze_strs = pool base.strs in
  let add_lam, freeze_lams = pool base.lams in
  let add_tspec_info, freeze_tspecs = pool base.tspecs in
  let add_case, freeze_cases =
    pool
      (Array.map
         (fun c -> { c_alts = c.c_alts; ic_tag = -1; ic_nb = -1; ic_pc = -1 })
         base.cases)
  in
  let add_prim, freeze_prims = pool base.prims in
  (* Sub-blocks (λ and thunk bodies, case branches, prim arguments past
     the first) are queued and emitted after the current linear block,
     each job patching its entry pc into the pool record that owns it. *)
  let pending : (unit -> unit) Queue.t = Queue.create () in
  let rec add_tspec (sp : R.tspec) : int =
    let info = { t_caps = Array.map pack sp.R.caps; t_pc = -1 } in
    let i = add_tspec_info info in
    Queue.add
      (fun () ->
        info.t_pc <- here ();
        emit_tail sp.R.tbody)
      pending;
    i
  and arg_word = function
    | R.Aslot s -> -pack s - 1
    | R.Athunk sp -> add_tspec sp
  and emit_tail (e : R.rexpr) : unit =
    match e with
    | R.RVar s ->
        emit op_enter;
        emit (pack s)
    | R.RUnbound x ->
        emit op_unbound;
        emit (add_str x)
    | R.RLit (Lit_int n) ->
        emit op_ret_int;
        emit n
    | R.RLit (Lit_char c) ->
        emit op_ret_char;
        emit (Char.code c)
    | R.RLit (Lit_string s) ->
        emit op_ret_str;
        emit (add_str s)
    | R.RLam l ->
        let info =
          { l_caps = Array.map pack l.R.lcaps; l_pc = -1; l_name = l.R.lname }
        in
        let i = add_lam info in
        Queue.add
          (fun () ->
            info.l_pc <- here ();
            emit_tail l.R.lbody)
          pending;
        emit op_ret_clo;
        emit i
    | R.RApp (R.RVar s, a) ->
        (* Superinstruction: push the argument's apply frame and enter
           the callee in one dispatch. *)
        let aw = arg_word a in
        emit op_app_enter;
        emit aw;
        emit (pack s)
    | R.RApp (f, a) ->
        let aw = arg_word a in
        emit op_push_apply;
        emit aw;
        emit_tail f
    | R.RCon (tag, [||]) ->
        emit op_ret_con0;
        emit tag
    | R.RCon (tag, args) ->
        let ws = Array.map arg_word args in
        emit op_ret_con;
        emit tag;
        emit (Array.length ws);
        Array.iter emit ws
    | R.RCase (scrut, alts) ->
        let balts =
          Array.map
            (fun (a : R.ralt) ->
              let b =
                {
                  bpat =
                    (match a.R.rpat with
                    | R.Rpcon (t, nb) -> Bp_con (t, nb)
                    | R.Rplit l -> Bp_lit l
                    | R.Rpany bind -> Bp_any bind);
                  bpc = -1;
                }
              in
              Queue.add
                (fun () ->
                  b.bpc <- here ();
                  emit_tail a.R.rrhs)
                pending;
              b)
            alts
        in
        let ci =
          add_case { c_alts = balts; ic_tag = -1; ic_nb = -1; ic_pc = -1 }
        in
        (match scrut with
        | R.RVar s ->
            (* Superinstruction: force+branch — push the case frame and
               enter the scrutinee in one dispatch. *)
            emit op_case_enter;
            emit ci;
            emit (pack s)
        | _ ->
            emit op_push_case;
            emit ci;
            emit_tail scrut)
    | R.RLet (R.Aslot s, body) ->
        emit op_let_slot;
        emit (pack s);
        emit_tail body
    | R.RLet (R.Athunk sp, body) ->
        (* Superinstruction: alloc+move — allocate the bound thunk and
           bind it in a fresh 1-slot frame in one dispatch. *)
        emit op_let_thunk;
        emit (add_tspec sp);
        emit_tail body
    | R.RLetrec (specs, body) ->
        let idxs = Array.map add_tspec specs in
        emit op_letrec;
        emit (Array.length idxs);
        Array.iter emit idxs;
        emit_tail body
    | R.RPrim (p, []) ->
        emit op_prim0;
        emit (add_prim { ps_prim = p; ps_args = [||] })
    | R.RPrim (p, a0 :: rest) ->
        let ps_args = Array.make (List.length rest) (-1) in
        List.iteri
          (fun i a ->
            Queue.add
              (fun () ->
                ps_args.(i) <- here ();
                emit_tail a)
              pending)
          rest;
        emit op_push_prim;
        emit (add_prim { ps_prim = p; ps_args });
        emit_tail a0
    | R.RRaise (lbl, e1) ->
        emit op_push_raise;
        emit (add_str lbl);
        emit_tail e1
    | R.RMapexn (f, v) ->
        let aw = arg_word f in
        emit op_push_mapexn;
        emit aw;
        emit_tail v
    | R.RIsexn v ->
        emit op_push_isexn;
        emit_tail v
    | R.RGetexn v ->
        emit op_push_catch;
        emit_tail v
  in
  let drain () =
    while not (Queue.is_empty pending) do
      (Queue.pop pending) ()
    done
  in
  let entry, app_pc = lay_out { here; emit_tail; add_tspec; drain } in
  let own = Array.init (Growarray.length code) (Growarray.get code) in
  {
    code = (if off = 0 then own else Array.append base.code own);
    entry;
    app_pc;
    strs = freeze_strs ();
    lams = freeze_lams ();
    tspecs = freeze_tspecs ();
    cases = freeze_cases ();
    prims = freeze_prims ();
    emitted = Array.length own;
    image = base.image;
  }

(* The segment is never run on its own: it has no entry and no
   application template, and its case sites are only copied. Its image
   is binding [i]'s thunk, at its code, over the group's frame. *)
let segment (specs : R.tspec array) : segment =
  let idxs = ref [||] in
  let base =
    assemble empty (fun e ->
        idxs := Array.map e.add_tspec specs;
        e.drain ();
        (-1, -1))
  in
  let image =
    Runtime.image (Array.length specs) (fun group i ->
        let sp = base.tspecs.(!idxs.(i)) in
        (sp.t_pc, capture group sp.t_caps))
  in
  { held = specs; base = { base with image = Some image } }

(* Against a segment that holds the root's group, the program is the
   body, entered over the group's frame from the segment's image; any
   other root compiles in full. *)
let compile ?segment (root : R.rexpr) : program =
  let base, block =
    match (segment, root) with
    | Some s, R.RLetrec (specs, body) when specs == s.held -> (s.base, body)
    | _ -> (empty, root)
  in
  assemble base (fun e ->
      let entry = e.here () in
      e.emit_tail block;
      (* The application template [$f $x] over a [|f; x|] frame. *)
      let app_pc = e.here () in
      e.emit_tail
        (R.RApp (R.RVar { frame = 0; idx = 0 }, R.Aslot { frame = 0; idx = 1 }));
      e.drain ();
      (entry, app_pc))

let compile_expr ?ctx e = compile (R.expr ?ctx e)

(* ------------------------------------------------------------------ *)
(* The machine                                                         *)
(* ------------------------------------------------------------------ *)

type t = (int, int, bframe, program) Runtime.t

let create ?config ?trace ?rctx prog =
  Runtime.create ?config ?trace ?rctx ?image:prog.image prog

let stats = Runtime.stats

let alloc_tspec (m : t) env (ti : int) : addr =
  let sp = m.prog.tspecs.(ti) in
  alloc_cell m (Cell_thunk (sp.t_pc, capture env sp.t_caps))

(* Decode an argument word: a negative word reuses a variable's address,
   a non-negative word allocates its thunk template. *)
let arg_addr m env (w : int) : addr =
  if w < 0 then lookup env (-w - 1) else alloc_tspec m env w

let entry (m : t) = root m m.prog.entry

let start ?config ?trace prog =
  let m = create ?config ?trace prog in
  (m, entry m)

let update = function BF_update a -> Some a | _ -> None

(* The per-transition preamble's verdict: proceed, a resource latch
   tripped, or an asynchronous exception is due. [Go] is the constant
   hot result; the other arms allocate only on their (rare) paths. *)
type guard = Go | Trip of string * Exn.t | Async of Exn.t

(* One run's state, the only block a run allocates at entry: the frame
   stack and its depth, and what is fixed for the run — the program and
   its code array, the counters, the poll flag and the latch bounds.
   Asynchronous events reach only an unmasked catch mark, and the mask
   depth is set between runs, so [poll] is fixed per run; an absent
   latch limit is [max_int], so the per-step check is one integer
   compare. A nested run (a mapException function, a raised payload's
   readback) gets its own record. *)
type state = {
  m : t;
  prog : program;
  codea : int array;
  stats : Stats.t;
  mutable stack : bframe list;
  mutable depth : int;
  poll : bool;
  stack_lim : int;
  heap_lim : int;
}

let limit = function Some l -> l | None -> max_int

let push s f =
  s.stack <- f :: s.stack;
  s.depth <- s.depth + 1;
  if s.depth > s.stats.Stats.max_stack then s.stats.Stats.max_stack <- s.depth

let type_error msg = raise (Prim_type_error msg)

(* The preamble, shared by all three transition functions: count the
   step, burn fuel, check the latches, poll for an asynchronous
   delivery — one call, one branch on the hot path.
   [Stats.bc_dispatches] is not bumped here: for this machine it is
   identically [steps], so the run synchronises it once at exit
   instead of paying a second counter store per dispatch. *)
let check s : guard =
  let m = s.m and stats = s.stats in
  stats.Stats.steps <- stats.Stats.steps + 1;
  m.fuel_left <- m.fuel_left - 1;
  if m.fuel_left <= 0 then raise (Machine_stuck Fail_diverged);
  if s.depth > s.stack_lim then begin
    stats.Stats.stack_overflows <- stats.Stats.stack_overflows + 1;
    Trip ("stack-limit", Exn.Stack_overflow_exn)
  end
  else if m.heap_check_armed && Growarray.length m.heap >= s.heap_lim then begin
    m.heap_check_armed <- false;
    stats.Stats.heap_overflows <- stats.Stats.heap_overflows + 1;
    Trip ("heap-limit", Exn.Heap_overflow)
  end
  else if s.poll then
    match m.async with
    | (k, x) :: rest when stats.Stats.steps >= k ->
        m.async <- rest;
        Async x
    | _ -> Go
  else Go

(* The dispatch loop, in direct tail-call style: three mutually
   recursive functions — [exec] (run instructions at a pc), [enter]
   (force a heap address), [ret] (return a value to the top frame) —
   carry the position in their arguments and the run's state in [s], so
   a transition is a tail call with the state in registers: no per-step
   variant allocation, no mode cell, no dispatch-on-a-dispatch. Every
   transition still runs the same preamble as the slot machine (fuel,
   stack latch, heap latch, async poll, in that order), so the two
   backends hit their latches and deliver asynchronous exceptions under
   identical rules. [catch] marks the bottom of this run's stack as a
   getException catch mark, exactly as in the slot machine. *)
let rec run (m : t) ~(catch : bool) (code0 : (int, int) code) :
    (mvalue, failure) result =
  let prog = m.prog in
  let s =
    {
      m;
      prog;
      codea = prog.code;
      stats = m.stats;
      stack = [];
      depth = 0;
      poll = catch && m.mask_depth = 0;
      stack_lim = limit m.cfg.stack_limit;
      heap_lim = limit m.cfg.heap_limit;
    }
  in
  (* The dispatch counter is synchronised on every exit — including
     escaping exceptions, which the serve crash barrier turns into
     replies whose machine stats are still harvested. *)
  let r =
    match guarded s code0 with
    | v -> Ok v
    | exception Machine_stuck failure -> Error failure
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        s.stats.Stats.bc_dispatches <- s.stats.Stats.steps;
        Printexc.raise_with_backtrace e bt
  in
  s.stats.Stats.bc_dispatches <- s.stats.Stats.steps;
  r

(* A prim type error unwinds like an ordinary raise from the point of
   the error — the machine stack is intact when the OCaml exception
   reaches here, so [raise_to] resumes the run; the next type error (if
   any) re-enters the same handler. *)
and guarded s code =
  try goto s code
  with Prim_type_error msg -> type_errored s msg

and type_errored s msg =
  try raise_to s "type-error" (Exn.Type_error msg)
  with Prim_type_error msg -> type_errored s msg

(* Synchronous unwinding: trim to the mark, poisoning update frames
   (Section 3.3). Continues execution at the mark's continuation, or
   raises [Machine_stuck] when the stack is fully unwound. *)
and unwind_sync s (o : Obs.origin) (exn : Exn.t) : mvalue =
  match s.stack with
  | [] -> raise (Machine_stuck (Fail_exn exn))
  | f :: rest -> (
      s.stack <- rest;
      s.depth <- s.depth - 1;
      s.stats.Stats.frames_trimmed <- s.stats.Stats.frames_trimmed + 1;
      match f with
      | BF_update a ->
          poison s.m a exn o;
          unwind_sync s o exn
      | BF_isexn -> ret s (MCon (R.t_true, [||]))
      | BF_catch ->
          ret s (MCon (R.t_bad, [| alloc_value s.m (exn_to_mvalue s.m exn) |]))
      | BF_mapexn f_addr ->
          let exn' = map_exn run s.m ~app:s.prog.app_pc f_addr exn in
          raise_to s "mapException" exn'
      | BF_apply _ | BF_case _ | BF_prim _ | BF_raise _ -> unwind_sync s o exn)

and raise_to s label exn : mvalue =
  unwind_sync s (note_raise s.m ~depth:s.depth label exn) exn

and arith s (n : int) : mvalue =
  if n >= -Runtime.arith_bound && n < Runtime.arith_bound then
    ret_fused s (MInt n)
  else raise_to s "arith-overflow" Exn.Overflow

and apply_prim s (p : Lang.Prim.t) (vs : mvalue array) : mvalue =
  let module P = Lang.Prim in
  match (p, vs) with
  | P.Add, [| MInt a; MInt b |] -> arith s (a + b)
  | P.Sub, [| MInt a; MInt b |] -> arith s (a - b)
  | P.Mul, [| MInt a; MInt b |] -> arith s (a * b)
  | P.Div, [| MInt _; MInt 0 |] -> raise_to s "div" Exn.Divide_by_zero
  | P.Div, [| MInt a; MInt b |] -> arith s (a / b)
  | P.Mod, [| MInt _; MInt 0 |] -> raise_to s "mod" Exn.Divide_by_zero
  | P.Mod, [| MInt a; MInt b |] -> arith s (a mod b)
  | P.Neg, [| MInt a |] -> arith s (-a)
  | (P.Add | P.Sub | P.Mul | P.Div | P.Mod), _ ->
      type_error (P.name p ^ ": expected integers")
  | P.Neg, _ -> type_error "negate: expected an integer"
  | (P.Eq | P.Ne | P.Lt | P.Le | P.Gt | P.Ge), [| a; b |] ->
      ret_fused s (compare_prim s.m p a b)
  | (P.Eq | P.Ne | P.Lt | P.Le | P.Gt | P.Ge), _ ->
      type_error (P.name p ^ ": uncomparable values")
  | P.Seq, [| _; v2 |] -> ret_fused s v2
  | P.Seq, _ -> type_error "seq: arity"
  | P.Chr, [| MInt a |] when a >= 0 && a < 256 ->
      ret_fused s (MChar (Char.chr a))
  | P.Chr, [| MInt _ |] -> type_error "chr: out of range"
  | P.Chr, _ -> type_error "chr: expected an integer"
  | P.Ord, [| MChar c |] -> ret_fused s (MInt (Char.code c))
  | P.Ord, _ -> type_error "ord: expected a character"
  | (P.Map_exception | P.Unsafe_is_exception | P.Unsafe_get_exception), _ ->
      type_error (P.name p ^ ": not strict-applied")

(* The constructor-return path of a case frame: inline cache first,
   table walk on a miss (which refills the cache on a constructor
   match). The walk is exactly {!Stg.select_alt}. *)
and sel_alt s (c : case_site) (cenv : env) (v : mvalue) (i : int) : mvalue =
  if i >= Array.length c.c_alts then
    raise_to s "case" (Exn.Pattern_match_fail "case")
  else
    let a = c.c_alts.(i) in
    match (a.bpat, v) with
    | Bp_con (t, nb), MCon (t', addrs) when t = t' && Array.length addrs = nb
      ->
        c.ic_tag <- t;
        c.ic_nb <- nb;
        c.ic_pc <- a.bpc;
        exec s a.bpc (if nb = 0 then cenv else Env_frame (addrs, cenv))
    | Bp_lit (Lit_int k), MInt n when k = n -> exec s a.bpc cenv
    | Bp_lit (Lit_char ch), MChar ch' when ch = ch' -> exec s a.bpc cenv
    | Bp_lit (Lit_string str), MString str' when String.equal str str' ->
        exec s a.bpc cenv
    | Bp_any false, _ -> exec s a.bpc cenv
    | Bp_any true, _ ->
        exec s a.bpc (Env_frame ([| alloc_value s.m v |], cenv))
    | (Bp_con _ | Bp_lit _), _ -> sel_alt s c cenv v (i + 1)

and ret_case s (ci : int) (cenv : env) (v : mvalue) : mvalue =
  let c = Array.unsafe_get s.prog.cases ci in
  match v with
  | MCon (tag, addrs) ->
      let nb = Array.length addrs in
      if c.ic_tag = tag && c.ic_nb = nb then begin
        s.stats.Stats.ic_hits <- s.stats.Stats.ic_hits + 1;
        exec s c.ic_pc (if nb = 0 then cenv else Env_frame (addrs, cenv))
      end
      else begin
        s.stats.Stats.ic_misses <- s.stats.Stats.ic_misses + 1;
        sel_alt s c cenv v 0
      end
  | MInt _ | MChar _ | MString _ | MClo _ -> sel_alt s c cenv v 0

(* Execute the instruction at [p]. *)
and exec s (p : int) (env : env) : mvalue =
  match check s with
  | Trip (label, exn) -> raise_to s label exn
  | Async x ->
      unwind_async s.m ~depth:s.depth ~update (C_eval (p, env)) s.stack x
  | Go -> (
      let codea = s.codea in
      match Array.unsafe_get codea p with
      | 0 (* enter *) -> enter s (lookup env codea.(p + 1))
      | 1 (* ret_int *) -> ret_fused s (MInt codea.(p + 1))
      | 2 (* ret_char *) -> ret_fused s (MChar (Char.chr codea.(p + 1)))
      | 3 (* ret_str *) -> ret_fused s (MString s.prog.strs.(codea.(p + 1)))
      | 4 (* ret_clo *) ->
          let li = codea.(p + 1) in
          let l = s.prog.lams.(li) in
          ret_fused s (MClo (li, lookup_all env l.l_caps))
      | 5 (* ret_con *) ->
          let tag = codea.(p + 1) and n = codea.(p + 2) in
          let args = Array.make n 0 in
          for i = 0 to n - 1 do
            Array.unsafe_set args i (arg_addr s.m env codea.(p + 3 + i))
          done;
          ret_fused s (MCon (tag, args))
      | 6 (* ret_con0 *) -> ret_fused s (MCon (codea.(p + 1), [||]))
      | 7 (* push_apply *) ->
          push s (BF_apply (arg_addr s.m env codea.(p + 1)));
          exec s (p + 2) env
      | 8 (* app_enter *) ->
          push s (BF_apply (arg_addr s.m env codea.(p + 1)));
          enter s (lookup env codea.(p + 2))
      | 9 (* let_slot *) ->
          exec s (p + 2) (Env_frame ([| lookup env codea.(p + 1) |], env))
      | 10 (* let_thunk *) ->
          exec s (p + 2)
            (Env_frame ([| alloc_tspec s.m env codea.(p + 1) |], env))
      | 11 (* letrec *) ->
          let n = codea.(p + 1) in
          let addrs = Array.init n (fun _ -> alloc_cell s.m Cell_unused) in
          let env' = Env_frame (addrs, env) in
          for i = 0 to n - 1 do
            let sp = s.prog.tspecs.(codea.(p + 2 + i)) in
            Growarray.fast_set s.m.heap addrs.(i)
              (Cell_thunk (sp.t_pc, capture env' sp.t_caps))
          done;
          exec s (p + 2 + n) env'
      | 12 (* push_case *) ->
          push s (BF_case (codea.(p + 1), env));
          exec s (p + 2) env
      | 13 (* case_enter *) ->
          push s (BF_case (codea.(p + 1), env));
          enter s (lookup env codea.(p + 2))
      | 14 (* push_prim *) ->
          let si = codea.(p + 1) in
          let ps = Array.unsafe_get s.prog.prims si in
          push s
            (BF_prim
               (si, Array.make (Array.length ps.ps_args + 1) (MInt 0), 0, env));
          exec s (p + 2) env
      | 15 (* prim0 *) ->
          type_error
            (Lang.Prim.name s.prog.prims.(codea.(p + 1)).ps_prim
            ^ ": no arguments")
      | 16 (* push_raise *) ->
          push s (BF_raise codea.(p + 1));
          exec s (p + 2) env
      | 17 (* push_mapexn *) ->
          push s (BF_mapexn (arg_addr s.m env codea.(p + 1)));
          exec s (p + 2) env
      | 18 (* push_isexn *) ->
          push s BF_isexn;
          exec s (p + 1) env
      | 19 (* push_catch *) ->
          push s BF_catch;
          exec s (p + 1) env
      | 20 (* unbound *) ->
          raise_to s "unbound"
            (Exn.Type_error
               (Printf.sprintf "unbound variable %s"
                  s.prog.strs.(codea.(p + 1))))
      | _ -> invariant_failure s.m "corrupt opcode")

(* Force the heap address [a]. *)
and enter s (a : addr) : mvalue =
  match check s with
  | Trip (label, exn) -> raise_to s label exn
  | Async x -> unwind_async s.m ~depth:s.depth ~update (C_enter a) s.stack x
  | Go -> (
      let m = s.m in
      match Growarray.fast_get m.heap a with
      | Cell_value v -> ret_fused s v
      | Cell_thunk (tpc, tenv) ->
          Growarray.fast_set m.heap a Cell_blackhole;
          push s (BF_update a);
          exec s tpc tenv
      | Cell_blackhole ->
          if m.cfg.blackhole_nontermination then
            raise_to s "blackhole" Exn.Non_termination
          else raise (Machine_stuck Fail_diverged)
      | Cell_raise (exn, o) ->
          note_reraise m o exn;
          unwind_sync s o exn
      | Cell_paused (code', seg) ->
          Growarray.fast_set m.heap a Cell_blackhole;
          push s (BF_update a);
          List.iter (push s) (List.rev seg);
          if Obs.on m.trace then Obs.record m.trace (Obs.Ev_resume a);
          goto s code'
      | Cell_unused -> type_error "dangling address")

(* Return the value [v] to the top stack frame. An empty stack is the
   terminal state — no transition is charged for it, matching the slot
   machine's loop. [ret] charges a transition; [ret_fused] pops under a
   preamble the caller already paid — the fused path taken when the
   producing dispatch (a ret_* instruction, a memoised [Cell_value], a
   prim application) hands its value straight to the waiting frame.
   Fusion is bounded: the popped frame's continuation re-enters
   [exec]/[ret]/[enter], each of which charges normally. *)
and ret s (v : mvalue) : mvalue =
  match s.stack with
  | [] -> v
  | f :: rest -> (
      match check s with
      | Trip (label, exn) -> raise_to s label exn
      | Async x -> unwind_async s.m ~depth:s.depth ~update (C_ret v) s.stack x
      | Go -> pop_ret s f rest v)

and ret_fused s (v : mvalue) : mvalue =
  match s.stack with [] -> v | f :: rest -> pop_ret s f rest v

and pop_ret s (f : bframe) (rest : bframe list) (v : mvalue) : mvalue =
  s.stack <- rest;
  s.depth <- s.depth - 1;
  match f with
  | BF_update a ->
      Growarray.fast_set s.m.heap a (Cell_value v);
      s.stats.Stats.updates <- s.stats.Stats.updates + 1;
      ret s v
  | BF_apply a -> (
      match v with
      | MClo (li, caps) ->
          exec s
            (Array.unsafe_get s.prog.lams li).l_pc
            (Env_frame ([| a |], Env_frame (caps, Env_nil)))
      | MInt _ | MChar _ | MString _ | MCon _ ->
          type_error "application of a non-function")
  | BF_case (ci, cenv) -> ret_case s ci cenv v
  | BF_prim (si, vals, i, penv) ->
      let ps = Array.unsafe_get s.prog.prims si in
      Array.unsafe_set vals i v;
      if i >= Array.length ps.ps_args then apply_prim s ps.ps_prim vals
      else begin
        push s (BF_prim (si, vals, i + 1, penv));
        exec s ps.ps_args.(i) penv
      end
  | BF_raise li -> raise_to s s.prog.strs.(li) (raised_exn run s.m v)
  | BF_mapexn _ ->
      (* Normal value: mapException is the identity. *)
      ret s v
  | BF_isexn -> ret s (MCon (R.t_false, [||]))
  | BF_catch -> ret s (MCon (R.t_ok, [| alloc_value s.m v |]))

and goto s : (int, int) code -> mvalue = function
  | C_eval (p, e) -> exec s p e
  | C_enter a -> enter s a
  | C_ret v -> ret s v

let force = Runtime.force run
let force_catch = Runtime.force_catch run
let deep = Runtime.deep run

let run_deep ?config ?depth e =
  let m = create ?config (compile_expr e) in
  let d = deep ?depth m (entry m) in
  (d, m.stats)

(* Code positions are ints into the shared program, so only addresses
   move. *)
let copy_frame copy = function
  | BF_update a -> BF_update (copy a)
  | BF_apply a -> BF_apply (copy a)
  | BF_case (ci, env) -> BF_case (ci, copy_env copy env)
  | BF_prim (si, vals, i, env) ->
      BF_prim (si, Array.map (copy_value copy) vals, i, copy_env copy env)
  | BF_mapexn a -> BF_mapexn (copy a)
  | (BF_raise _ | BF_isexn | BF_catch) as f -> f

let gc = Runtime.gc copy_frame

(** The flat bytecode backend: {!Lang.Resolve} IR compiled once into a
    contiguous instruction array (int opcodes + inline operand words),
    evaluated by a register-style dispatch loop.

    Where {!Stg} walks a tree-shaped IR and allocates a [code] variant on
    every transition, this machine keeps its state in four registers
    (mode, program counter, environment, accumulator) and advances by
    reading int words out of a frozen code array — no per-dispatch
    allocation, no pointer-chasing through expression nodes. Three
    superinstructions fuse the measured hot transition pairs of the slot
    machine (push-apply + enter a variable, allocate-thunk + bind,
    push-case + force a variable scrutinee), and every case site carries
    a monomorphic inline cache for constructor tag dispatch
    ([Stats.ic_hits]/[Stats.ic_misses]; the table walk is the miss path).

    The machine contract is the slot machine's, transition for
    transition: fuel/heap/stack latches delivered through the ordinary
    trim-the-stack path (heap latch re-armed only by {!gc}), Section
    3.3 thunk poisoning, Section 5.1 resumable pause cells under
    asynchronous unwinding, flight-recorder events and exception
    provenance on every exceptional path, and explicit
    {!Lang.Resolve.context} re-entrancy. The admissibility argument is
    the paper's own: observational equivalence is only demanded modulo
    exception *sets* (Section 4.3), and the differential fuzzer
    holds this backend to the same C13 membership bound as the others. *)

type addr = int

type program
(** A compiled program: frozen code array plus constant pools (strings,
    closure and thunk templates, case sites with their inline caches,
    prim sites, raise labels). Compile once, run on any number of
    machines; sharing is sound because a case site's tag-to-branch
    mapping is static, so its inline cache is valid across machines. *)

val compile : Lang.Resolve.rexpr -> program
(** Compile resolved IR. Compilation is context-free: tags are already
    interned ints, so the resolving context is only needed again at
    runtime (pass it to {!create} as [rctx]). *)

val compile_expr : ?ctx:Lang.Resolve.context -> Lang.Syntax.expr -> program
(** Resolve then compile a closed source expression. *)

val code_words : program -> int
(** Length of the frozen code array, in words (static accounting). *)

type mvalue =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
      (** Constructor tag interned by {!Lang.Resolve.con_tag}. *)
  | MClo of int * addr array
      (** Closure: index into the program's template pool + captures. *)

type config = Stg.config
(** Shared with the slot machine so embedders configure both backends
    from one record. *)

val default_config : config

type failure = Stg.failure =
  | Fail_exn of Lang.Exn.t
  | Fail_async of Lang.Exn.t
  | Fail_diverged
      (** Re-exported from {!Stg} so drivers dispatch both backends
          through one match. *)

val pp_failure : failure Fmt.t

type t
(** A machine instance: heap + counters + pending asynchronous events,
    bound to one compiled program. *)

val create :
  ?config:config ->
  ?trace:Obs.t ->
  ?rctx:Lang.Resolve.context ->
  program ->
  t

val entry : t -> addr
(** Allocate the program's entry point as a fresh thunk (each call is an
    independent evaluation root). *)

val stats : t -> Stats.t
val heap_size : t -> int
val trace : t -> Obs.t
val origin_of : t -> Lang.Exn.t -> Obs.origin option
val pp_exn_with_origin : t -> Lang.Exn.t Fmt.t

val refuel : t -> unit

val inject_async : t -> at_step:int -> Lang.Exn.t -> unit
(** Same delivery contract as {!Stg.inject_async}: fires at the first
    dispatch at or after [at_step] while a catch mark is active. *)

val clear_async : t -> unit

val force : t -> addr -> (mvalue, failure) result
val force_catch : t -> addr -> (mvalue, failure) result
val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep

val gc : t -> roots:addr list -> addr list
(** Copying collection, same contract as {!Stg.gc}: call between runs;
    pause cells and poisoned thunks survive intact; re-arms the heap
    latch when the live heap fits under the limit again. *)

val run_expr :
  ?config:config -> Lang.Syntax.expr -> (mvalue, failure) result * Stats.t
(** One-shot: resolve, compile, evaluate on a fresh machine. *)

val run_deep :
  ?config:config ->
  ?depth:int ->
  Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t

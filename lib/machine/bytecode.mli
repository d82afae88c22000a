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
    transition, because everything outside the dispatch loop is the
    {!Runtime} both share. The admissibility argument is the paper's own:
    observational equivalence is only demanded modulo exception *sets*
    (Section 4.3), and the differential fuzzer holds this backend to the
    same C13 membership bound as the others. *)

type addr = int

type program
(** A compiled program: frozen code array plus constant pools (strings,
    closure and thunk templates, case sites with their inline caches,
    prim sites, raise labels). Compile once, run on any number of
    machines; the machines running one program share its inline caches,
    which is sound because a case site's tag-to-branch mapping is
    static. Two programs never share a case site, even when both are
    compiled against one {!segment}. *)

type segment
(** A root letrec group compiled once — in practice the Prelude, which
    every {!Lang.Prelude.wrap}ped program of a resolution context holds
    as the same spec array: the bindings' code and sub-blocks, and the
    group's heap cells over that code ({!Runtime.image}), from which the
    machines of a program appended to the segment start. *)

val segment : Lang.Resolve.tspec array -> segment
(** Compile a root letrec group's bindings into a segment, and build its
    image. The array is recognised by physical identity: pass the one
    the programs' roots hold ({!Lang.Resolve.held_prelude}). *)

val compile : ?segment:segment -> Lang.Resolve.rexpr -> program
(** Compile resolved IR. A root [RLetrec (specs, body)] whose [specs] is
    physically the [segment]'s starts from the segment's code and pools
    and emits only [body], its sub-blocks and the application template;
    the program gets fresh copies of the segment's case sites, and
    carries the segment's image, so {!create} starts each machine's heap
    from it and {!entry} roots at [body]. Against a full compile that
    is one dispatch and [n] allocations fewer per root, the [n]-binding
    group's letrec header ([n + 2] code words) less, and the same value
    and every other machine counter. Any other root compiles in full,
    exactly as without a segment.

    Compilation is context-free: tags are already interned ints, so the
    resolving context is only needed again at runtime (pass it to
    {!create} as [rctx]). *)

val compile_expr : ?ctx:Lang.Resolve.context -> Lang.Syntax.expr -> program
(** Resolve then compile a closed source expression. *)

val code_words : program -> int
(** Length of the frozen code array, in words (static accounting). *)

val emitted_words : program -> int
(** The code words this program's compile emitted: {!code_words} less
    the segment it started from, all of them on a full compile. *)

type mvalue = int Runtime.mvalue
(** A closure holds an index into the program's template pool and its
    captured addresses. *)

type bframe
type t = (int, int, bframe, program) Runtime.t

val create :
  ?config:Runtime.config ->
  ?trace:Obs.t ->
  ?rctx:Lang.Resolve.context ->
  program ->
  t
(** {!Runtime.create} for this program, from its segment's image when it
    carries one. *)

val entry : t -> addr
(** Allocate the program's entry point as a fresh root thunk
    ({!Runtime.root}). Each call is an independent evaluation root,
    though the roots of a program compiled against a segment share the
    machine's copy of the group's cells. *)

val start :
  ?config:Runtime.config -> ?trace:Obs.t -> program -> t * addr
(** {!create} then {!entry}: a fresh machine and its root. *)

val stats : t -> Stats.t
val force : t -> addr -> (mvalue, Runtime.failure) result
val force_catch : t -> addr -> (mvalue, Runtime.failure) result
val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep

val gc : t -> roots:addr list -> addr list
(** {!Runtime.gc} over this machine's frames. *)

val run_deep :
  ?config:Runtime.config ->
  ?depth:int ->
  Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: resolve, compile, force deeply on a fresh machine. *)

(** The slot-compiled stack-trimming implementation of Section 3.3: a
    lazy (call-by-need) abstract machine in the style of Sestoft's
    mark-2 machine, extended with the paper's exception machinery, and
    fed by the {!Lang.Resolve} compile-to-slots pass.

    {!alloc} resolves the expression once — variables to (frame, offset)
    slots, constructor names to interned integer tags, allocation sites
    to precomputed free-variable footprints — and the machine then
    evaluates the resolved IR with array-backed environments: no string
    comparison and no string-keyed map on any runtime path.

    The exception machinery is unchanged from PR 1:

    - [getException] "marks the evaluation stack": {!force_catch} runs the
      machine with a catch mark at the bottom of the stack.
    - [raise ex] "simply trims the stack to the topmost mark": unwinding
      pops frames, and every update frame passed on the way has its thunk
      overwritten with [raise ex], so re-evaluation re-raises the same
      exception (Section 3.3's correctness requirement).
    - Thunks under evaluation are black-holed; *entering* a black hole is a
      detectable bottom, which the machine is "permitted but not required"
      to report as [NonTermination] (Section 5.2) — controlled by
      [blackhole_nontermination].
    - Asynchronous events unwind like [raise], except that each abandoned
      thunk is overwritten with a *resumable* pause cell capturing the
      stack segment above it, so no work is lost (Section 5.1's
      "fascinating wrinkle"). Re-entering a pause cell resumes evaluation
      exactly where it stopped.

    The machine computes with single exceptions (the representative member
    of the semantic exception set); the differential test C13 checks that
    the exception it finds is always a member of the denotational set. *)

type addr = int

type mvalue =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
      (** Constructor tag interned by {!Lang.Resolve.con_tag}; recover
          the name with {!Lang.Resolve.con_name}. *)
  | MClo of Lang.Resolve.lam * addr array
      (** λ-closure: code template + captured addresses. *)

and env

type config = {
  fuel : int;  (** Machine steps before reporting divergence. *)
  int_bits : int;
  blackhole_nontermination : bool;
      (** Report a re-entered black hole as [NonTermination] rather than
          diverging (Section 5.2). *)
  poison_thunks : bool;
      (** Ablation (default [true]): overwrite abandoned thunks with
          [raise ex] during synchronous unwinding, as Section 3.3
          requires. With [false] the black hole is left in place and
          re-evaluation wrongly reports non-termination — the bug the
          paper's footnote 3 warns about. *)
  heap_limit : int option;
      (** Soft heap ceiling in cells (default [None]): when the heap
          reaches it, the machine raises [HeapOverflow] through the
          ordinary trim-the-stack path — a catchable imprecise exception,
          so a supervisor under [getException] can recover. The check
          then stays disarmed until {!gc} brings the heap back under the
          limit (the raise itself frees nothing). *)
  stack_limit : int option;
      (** Stack ceiling in frames (default [None]): exceeding it raises
          [StackOverflow] synchronously, trimming (and poisoning) the
          frames that overflowed. *)
}

val default_config : config

type t
(** A machine: heap + counters + pending asynchronous events. *)

val create :
  ?config:config -> ?trace:Obs.t -> ?rctx:Lang.Resolve.context -> unit -> t
(** [trace] is the flight recorder this machine reports into (default: a
    fresh, disabled recorder — tracing costs one dead branch on the
    exceptional paths and nothing on the per-step fast path). [rctx] is
    the constructor-interning context the machine's IR was resolved
    against (default {!Lang.Resolve.global_context}); a machine only
    reads names through its own context, so embedders can sandbox a
    tenant's constructor vocabulary. *)

val stats : t -> Stats.t
val heap_size : t -> int

val trace : t -> Obs.t
(** The machine's flight recorder (enable/inspect it through {!Obs}). *)

val origin_of : t -> Lang.Exn.t -> Obs.origin option
(** Provenance of the most recent raise of this exception constant:
    raise-site label, stack depth and step number. Maintained whether or
    not the recorder is on. *)

val pp_exn_with_origin : t -> Lang.Exn.t Fmt.t
(** Print an exception annotated with its origin, when known. *)

val refuel : t -> unit
(** Reset the step budget to [config.fuel] — the machine counterpart of
    {!Semantics.Denot.refill}, used by long-running drivers so one
    divergent transition does not starve the rest of the program. *)

val set_mask_depth : t -> int -> unit
(** Set the asynchronous-exception mask depth. While positive, pending
    async events are deferred even under a catch mark — this is how
    [bracket]'s acquire and release phases (and explicit [Mask] sections)
    are protected from being torn mid-flight. The IO layer keeps a depth
    per thread and sets it before each [getException]. *)

val alloc : t -> Lang.Syntax.expr -> addr
(** Resolve a closed expression (one {!Lang.Resolve.expr} pass) and
    allocate it as a thunk. *)

val alloc_resolved : t -> Lang.Resolve.rexpr -> addr
(** Allocate an already-resolved expression — the compile-once/run-many
    entry point: resolve with {!Lang.Resolve.expr} ahead of time, then
    allocate it on any number of fresh machines without re-resolving. *)

val alloc_value : t -> mvalue -> addr

val alloc_app : t -> addr -> addr -> addr
(** [alloc_app m f x]: a thunk for the application of the function at [f]
    to the argument at [x] (used by the IO driver for [>>=]
    continuations). Uses a pre-resolved application template — no
    resolution at runtime. *)

val inject_async : t -> at_step:int -> Lang.Exn.t -> unit
(** Schedule an asynchronous event: it fires at the first step at or after
    [at_step] *while a catch mark is active* (events are delivered only to
    [getException], Section 5.1); otherwise it stays pending. *)

val clear_async : t -> unit
(** Drop every pending asynchronous event. The serve daemon slices
    evaluation by injecting an interrupt each [slice] steps; once a
    request reaches WHNF the unfired interrupt must be withdrawn before
    deep-forcing, or it would tear a structure field mid-print. *)

type failure =
  | Fail_exn of Lang.Exn.t  (** Uncaught synchronous exception. *)
  | Fail_async of Lang.Exn.t
      (** An asynchronous event delivered to the active catch. *)
  | Fail_diverged  (** Fuel exhausted, or a black hole re-entered. *)

val pp_failure : failure Fmt.t

val force : t -> addr -> (mvalue, failure) result
(** Evaluate to WHNF with no catch mark: a raise is an uncaught exception;
    asynchronous events stay pending. *)

val force_catch : t -> addr -> (mvalue, failure) result
(** Evaluate to WHNF under a catch mark — the evaluation part of
    [getException]. [Error (Fail_exn e)] means [e] was caught. *)

type deep_result =
  | DV of Semantics.Sem_value.deep
  | DFail of failure

val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep
(** Force the structure rooted at [addr] recursively (catching per-field
    failures as [DBad] singletons, divergence as [DBad All]). *)

val run_expr :
  ?config:config -> Lang.Syntax.expr -> (mvalue, failure) result * Stats.t
(** One-shot: resolve, allocate, force (no catch), return result and
    stats. *)

val run_deep : ?config:config -> ?depth:int -> Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: resolve, allocate, force deeply. A top-level failure
    appears as [DBad]. *)

val gc : t -> roots:addr list -> addr list
(** Copying garbage collection over the machine heap. Must be called
    between runs (no evaluation in progress); [roots] are the addresses
    the caller still holds, and the relocated addresses are returned in
    the same order. Every other address becomes invalid. Pause cells and
    poisoned thunks survive with their contents intact, so interrupted
    computations stay resumable across collections. *)

val exn_to_mvalue : t -> Lang.Exn.t -> mvalue

(** Why a WHNF value could not be read back as an exception constant:
    not an exception at all (the caller chooses the message), or
    interpreting it raised an exception of its own (an exceptional
    payload propagates). *)
type to_exn_error = Not_exn | Exn_err of Lang.Exn.t

val mvalue_to_exn : t -> mvalue -> (Lang.Exn.t, to_exn_error) result

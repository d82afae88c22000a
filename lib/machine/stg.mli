(** The slot-compiled stack-trimming implementation of Section 3.3: a
    lazy (call-by-need) abstract machine in the style of Sestoft's
    mark-2 machine, extended with the paper's exception machinery, and
    fed by the {!Lang.Resolve} compile-to-slots pass.

    {!alloc} resolves the expression once — variables to (frame, offset)
    slots, constructor names to interned integer tags, allocation sites
    to precomputed free-variable footprints — and the machine then
    evaluates the resolved IR with array-backed environments: no string
    comparison and no string-keyed map on any runtime path.

    Its exception machinery — catch marks, poisoning, black holes,
    resumable pause cells — is the {!Runtime} it shares with {!Bytecode};
    this module keeps its frames, its slot lookup and its dispatch loop.

    The machine computes with single exceptions (the representative member
    of the semantic exception set); the differential test C13 checks that
    the exception it finds is always a member of the denotational set. *)

type addr = int

type mvalue = Lang.Resolve.lam Runtime.mvalue
(** A λ-closure holds its code template and captured addresses. *)

type frame
type t = (Lang.Resolve.rexpr, Lang.Resolve.lam, frame, unit) Runtime.t

(** {!Runtime}'s configuration and failure types, re-exported with their
    fields and constructors as the slot machine's public names. *)

type config = Runtime.config = {
  fuel : int;
  blackhole_nontermination : bool;
  poison_thunks : bool;
  heap_limit : int option;
  stack_limit : int option;
}

type failure = Runtime.failure =
  | Fail_exn of Lang.Exn.t
  | Fail_async of Lang.Exn.t
  | Fail_diverged

val default_config : config

val create :
  ?config:config -> ?trace:Obs.t -> ?rctx:Lang.Resolve.context -> unit -> t
(** {!Runtime.create} for the slot machine. *)

val stats : t -> Stats.t

val alloc : t -> Lang.Syntax.expr -> addr
(** Resolve a closed expression (one {!Lang.Resolve.expr} pass) and
    allocate it as a thunk. *)

val alloc_resolved : t -> Lang.Resolve.rexpr -> addr
(** Allocate an already-resolved expression — the compile-once/run-many
    entry point: resolve with {!Lang.Resolve.expr} ahead of time, then
    allocate it on any number of fresh machines without re-resolving. *)

type image
(** A root letrec group's heap cells, built once ({!Runtime.image}). *)

val image : Lang.Resolve.tspec array -> image
(** The image of a root letrec group. The array is recognised by
    physical identity: pass the one the programs' roots hold
    ({!Lang.Resolve.held_prelude}). *)

val start :
  ?config:config -> ?trace:Obs.t -> ?image:image -> Lang.Resolve.rexpr ->
  t * addr
(** A fresh machine and its root for a resolved program. A root
    [RLetrec (specs, body)] whose [specs] is physically the [image]'s
    starts the heap as a copy of the image and the root at [body] over
    the group's frame: one step and [n] allocations fewer than the full
    path, with the same value and every other counter alike. Any other
    root takes the full path, {!create} then {!alloc_resolved}. *)

val alloc_app : t -> addr -> addr -> addr
(** [alloc_app m f x]: a thunk for the application of the function at [f]
    to the argument at [x] (used by the IO driver for [>>=]
    continuations). Uses a pre-resolved application template — no
    resolution at runtime. *)

val force : t -> addr -> (mvalue, failure) result
val force_catch : t -> addr -> (mvalue, failure) result
val deep : ?depth:int -> t -> addr -> Semantics.Sem_value.deep

val mvalue_to_exn : t -> mvalue -> (Lang.Exn.t, Runtime.to_exn_error) result
(** {!Runtime.force}, {!Runtime.force_catch}, {!Runtime.deep} and
    {!Runtime.mvalue_to_exn} over this machine's loop. *)

val run_expr :
  ?config:config -> Lang.Syntax.expr -> (mvalue, failure) result * Stats.t
(** One-shot: resolve, allocate, force (no catch), return result and
    stats. *)

val run_deep : ?config:config -> ?depth:int -> Lang.Syntax.expr ->
  Semantics.Sem_value.deep * Stats.t
(** One-shot: resolve, allocate, force deeply. A top-level failure
    appears as [DBad]. *)

val gc : t -> roots:addr list -> addr list
(** {!Runtime.gc} over this machine's frames. *)

(** The flight recorder: cross-layer observability for the imprecise
    exception machinery.

    Three pieces, shared by {!Machine.Stg}, {!Machine.Bytecode} and the
    two IO layers, {!Semantics.Conc} and {!Machine.Machine_conc}:

    - a fixed-size ring buffer of structured {!event}s, gated by one
      branch on {!on} so instrumented hot paths cost nothing when the
      recorder is disabled (no event is even allocated);
    - exception {e provenance}: an {!origin} (raise-site label, stack
      depth, step number) registered per exception constant, so the
      member [getException] surfaces can be printed with where it came
      from — and, via {!Semantics.Exn_set.pp_annotated}, alongside the
      un-chosen members of its set;
    - {!dump}: the crash-dump formatter used on uncaught exceptions,
      fuel exhaustion and broken machine invariants
      ({!Machine_invariant}). *)

(** {1 Provenance} *)

type origin = {
  label : string;  (** Static label of the raise site (e.g. ["div"]). *)
  depth : int;  (** Evaluation-stack depth when the raise fired. *)
  step : int;  (** Machine step number (0 in the denotational layer). *)
}

val origin : label:string -> depth:int -> step:int -> origin
val pp_origin : origin Fmt.t

type provenance
(** Mutable registry: exception constant -> origin of its most recent
    raise (most-recent-wins, mirroring the machine's single
    representative member, Section 3.5). *)

val new_provenance : unit -> provenance
val set_origin : provenance -> Lang.Exn.t -> origin -> unit
val find_origin : provenance -> Lang.Exn.t -> origin option

val origins : provenance -> (Lang.Exn.t * origin) list
(** All registered origins, in a deterministic order. *)

val pp_exn_with : provenance -> Lang.Exn.t Fmt.t
(** Print an exception annotated with its origin, when one is known. *)

(** {1 Events} *)

type event =
  | Ev_raise of Lang.Exn.t * origin  (** A raise fired at its origin. *)
  | Ev_rethrow of Lang.Exn.t * origin
      (** A poisoned thunk was re-entered: the original raise replays. *)
  | Ev_catch of Lang.Exn.t option
      (** A catch mark returned: [Some e] caught, [None] normal value. *)
  | Ev_poison of int * Lang.Exn.t
      (** Synchronous unwinding overwrote the thunk at this address. *)
  | Ev_pause of int  (** Async unwinding left a resumable pause cell. *)
  | Ev_resume of int  (** A pause cell was re-entered and resumed. *)
  | Ev_mask_push
  | Ev_mask_pop
  | Ev_async of Lang.Exn.t  (** An asynchronous event was delivered. *)
  | Ev_gc of int * int  (** Collection: heap cells before/after. *)
  | Ev_acquire  (** A bracket acquire completed (release registered). *)
  | Ev_release  (** A bracket release ran (either exit path). *)
  | Ev_oracle_pick of Lang.Exn.t * Lang.Exn.t list
      (** [getException]'s oracle chose a member; the un-chosen members
          of the set ride along (empty for [All]). *)
  | Ev_throwto of int * int * Lang.Exn.t
      (** [throwTo]: source thread, target thread, exception sent. *)
  | Ev_kill_delivered of int * Lang.Exn.t
      (** A thread-targeted asynchronous exception reached its target
          thread (after any masked deferral). *)
  | Ev_blocked_recover of int
      (** An irrecoverably blocked thread was woken exceptionally with
          [BlockedIndefinitely] instead of deadlocking the program. *)
  | Ev_io of string  (** Other IO-layer transition (timeout, fork...). *)
  | Ev_lint_fail of string * string
      (** The post-pass IR linter rejected an optimizer pass's output:
          pass name, first violation. Recorded just before the pipeline
          aborts with a [Transform.Lint.Lint_error] crash dump. *)

val pp_event : event Fmt.t

(** {1 The recorder} *)

type t
(** A ring-buffer recorder. Disabled recorders ignore nothing — callers
    must gate with [if Obs.on tr then Obs.record tr (...)] so the event
    is not even allocated when tracing is off. *)

val create : ?capacity:int -> ?on:bool -> unit -> t
(** Default capacity 256 events, default off. The buffer is allocated
    when the recorder is first enabled or written, so one that stays off
    costs a few words, not [capacity]. *)

val on : t -> bool
(** The one branch instrumented hot paths pay when tracing is off. *)

val enable : t -> unit

val record : t -> event -> unit
(** Write an event (unconditionally — gate with {!on} at the call
    site). Overwrites the oldest event when the ring is full. *)

val seen : t -> int
(** Total events recorded over the recorder's life (not capped). *)

val capacity : t -> int

val events : t -> event list
(** The retained window (at most [capacity] events), oldest first. *)

val clear : t -> unit

(** {1 Crash dumps} *)

exception Machine_invariant of string
(** A broken machine invariant (an unwind that cannot happen, a return
    into an empty stack mid-step): fatal, but carries a full flight
    recorder dump instead of an anonymous assertion. *)

val dump : ?last:int -> ?extra:(string * string) list -> note:string ->
  t -> string
(** Format the last [last] (default 32) events plus caller-supplied
    [extra] key/value lines (stats snapshot, heap summary) under a
    [note] headline. Usable whether or not the recorder is on. *)

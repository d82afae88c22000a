(** The IO layer on the abstract machine: the one IO core
    ({!Semantics.Io_core}) instantiated over {!Stg} heap addresses — the
    implementation counterpart of {!Semantics.Conc}, so the two layers
    can be tested against each other. A single-threaded program is the
    one-thread run.

    Where the semantic layer picks a member of the exception {e set}
    through an oracle, the machine reports the exception its
    stack-trimming evaluation encounters first — "the set of exceptions
    associated with an exceptional value is represented by a single
    member, namely the exception that happens to be encountered first"
    (Section 3.5). Differential tests check that this member is in the
    semantic set.

    All threads share one heap, so a thunk forced by one thread is
    updated for all, and a thread abandoned mid-evaluation by an
    uncaught exception leaves poisoned thunks that other threads observe
    consistently. Scheduling, [forkIO], [MVar]s, bounded channels,
    [throwTo], masking, brackets, timeouts and retries follow the core
    exactly (see {!Semantics.Conc}). *)

include module type of struct
  include Semantics.Io_core.Types
end

type result = {
  output : string;  (** All threads' writes, in global order. *)
  outcome : outcome;
  threads_spawned : int;
  transitions : int;  (** Thread steps taken: the scheduler clock. *)
  stats : Stats.t;  (** The machine's own cost counters. *)
  counters : counters;  (** The IO core's fault and exception-safety counters. *)
}

val run :
  ?config:Stg.config ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:(int * Lang.Exn.t) list ->
  ?kills:(int * int * Lang.Exn.t) list ->
  ?check_invariants:bool ->
  ?max_transitions:int ->
  ?gc_every:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed [IO] expression on a fresh machine. The machine's
    step budget is refuelled at every transition; [max_transitions]
    bounds the thread steps taken (default 100,000). [async] events go
    into the machine's queue and are delivered in list order, each at
    the first [getException] of an unmasked thread running at or after
    its machine step ({!Runtime.inject_async}). [trace] is shared with the
    underlying machine: the scheduler adds fork, bracket, mask and
    timeout events to the machine's raise/poison/async stream.

    [gc_every] collects the heap every that many transitions; a caught
    [HeapOverflow] collects at the next transition boundary too, which
    re-arms the heap limit. The roots are every thread's action and
    frames, blocked writers' and putters' values, sleepers, MVar
    contents and channel buffers.

    [kills] is a fault-injection schedule of [(transition, tid, exn)]
    triples, as in {!Semantics.Conc.run}; [check_invariants] likewise
    validates the scheduler indices every round. *)

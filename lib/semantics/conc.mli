(** The IO layer of Section 4.4 on the denotational semantics: the one IO
    core ({!Io_core}) instantiated over {!Denot} thunks, with an oracle
    resolving every non-deterministic choice.

    [IO] is an algebraic data type whose values this module performs:

    {v
    m1 → m2  ⟹  (m1 >>= k) → (m2 >>= k)
    (return v) >>= k → k v
    getChar  —?c→  return c
    putChar c —!c→ return ()
    getException (Ok v)  → return (OK v)
    getException (Bad s) → return (Bad x)      if x ∈ s
    getException (Bad s) → getException (Bad s) if NonTermination ∈ s
    getException v —¡x→  return (Bad x)        x an asynchronous event
    v}

    A single-threaded program is the one-thread run. Section 4.4 notes
    that the transition system "scales to other extensions, such as
    adding concurrency to the language [16]"; the same rules drive a
    round-robin scheduler over threads with [forkIO], [MVar]s, bounded
    channels ([newChan n], [readChan], [writeChan]) and thread-targeted
    asynchronous exceptions ([myThreadId], [throwTo], [killThread]).

    On top sit the exception-safety combinators in the style of GHC's
    [Control.Exception] ([bracket], [onException], [mask], [unmask],
    [timeout], [retryWithBackoff]): normal returns pop frames, exceptions
    trim them, running releases and handlers on the way down. A
    bracket's acquire and every cleanup run masked. An uncaught
    exception kills only the thread that performed it; the main
    thread's death ends the program. Likewise only the main thread's
    self-transition makes the run [Diverged]: another thread that takes
    it spins while the rest run on. {!Machine.Machine_conc} is the same
    core over the abstract machine, so the two layers can be tested
    against each other. *)

include module type of struct
  include Io_core.Types
end

type result = {
  trace : event list;
  outcome : outcome;
  threads_spawned : int;
  context_switches : int;  (** Thread steps taken: the scheduler clock. *)
  counters : counters;
}

type schedule = (int * Lang.Exn.t) list
(** Asynchronous events, delivered in list order: the head [(k, x)]
    delivers [x] at the first unmasked [getException] performed at or
    after clock tick [k], and later events wait for it. *)

val run :
  ?config:Denot.config ->
  ?oracle:Oracle.t ->
  ?trace:Obs.t ->
  ?input:string ->
  ?async:schedule ->
  ?kills:(int * int * Lang.Exn.t) list ->
  ?check_invariants:bool ->
  ?max_steps:int ->
  Lang.Syntax.expr ->
  result
(** Perform a closed [IO] expression. [trace] receives a structured event
    per oracle pick (chosen member plus the un-chosen rest of the set),
    catch, async delivery, mask transition, bracket acquire/release,
    fork and timeout. [max_steps] bounds the thread steps taken
    (default 200,000); beyond it the run is [Diverged].

    [kills] is a fault-injection schedule of [(clock, tid, exn)]
    triples: once the clock reaches [clock], [exn] is queued on thread
    [tid] exactly as if a live thread had performed
    [ThrowTo (ThreadId tid) exn]. Entries naming finished or unknown
    threads are dropped silently.

    [check_invariants] (default: set when the [IMPEXN_SCHED_DEBUG]
    environment variable is present) validates the scheduler indices
    every round and raises {!Obs.Machine_invariant} carrying a
    flight-recorder dump on violation. *)

val output_string_of : result -> string
(** Characters written by all threads, in global order. *)

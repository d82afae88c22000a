(** Evaluation-as-a-service: the engine behind [impexn serve].

    A long-running, multi-tenant evaluation daemon over a line-oriented
    protocol. The engine is driver-agnostic — no sockets, no file
    descriptors: a driver creates one {!session} per client, {!feed}s it
    protocol lines, {!drain}s replies, and calls {!tick} to advance
    evaluation. That makes the entire daemon — quotas, timeouts,
    shedding, eviction, crash barrier — testable in-process with an
    injected clock.

    {1 Protocol}

    Requests and replies are single lines.

    {v
    eval <id> [fuel=N] [heap=N] [stack=N] [timeout=MS] [depth=N]
    <program line>...
    .
    v}

    submits the program text between the [eval] line and the lone [.]
    for evaluation under the given quotas (engine defaults otherwise).
    Other verbs: [ping] → [pong]; [stats] → a one-line JSON counter
    export; [quit] closes the session.

    Replies: [ok <id> <deep value>] or [err <id> <kind> [detail]] where
    [kind] is one of [exn], [quota:heap], [quota:stack], [quota:fuel],
    [timeout], [overloaded], [evicted], [parse], [lint], [crash],
    [proto].

    {1 Robustness model}

    Each request runs on its own {!Machine.Runtime.t} under its own fuel,
    heap and stack quotas — a breach is an imprecise exception inside
    that machine only; the daemon never dies. Wall-clock timeouts reuse
    Section 5.1's pause cells: an asynchronous interrupt is injected
    [slice] steps past each resume, unwinding the request into resumable
    pause cells; at each boundary the deadline is checked and the request
    either answers [timeout], or re-arms and requeues. Admission is
    bounded ([overloaded] past [max_inflight]); when paused heaps sum
    past [mem_budget] the oldest paused request is [evicted]. Unexpected
    machine exceptions hit a crash barrier that writes a flight-recorder
    dump and answers [crash] to that client alone. Repeat submissions
    hit a compiled-program cache (source-hash → resolved slot IR, LRU)
    and skip parse/resolve entirely. *)

type backend = Slot | Bytecode
(** Which machine evaluates requests: the tree-walking slot machine
    ({!Machine.Stg}) or the flat compiled backend ({!Machine.Bytecode}).
    Both honour the identical quota/timeout/pause-cell contract; the
    bytecode backend is measured multi-x faster and caches compiled
    programs (with warm inline caches) instead of slot IR. *)

type config = {
  backend : backend;  (** Request evaluator; default [Slot]. *)
  fuel : int;  (** Default per-request machine-step quota. *)
  heap : int;  (** Default per-request heap quota, in cells. *)
  stack : int;  (** Default per-request stack quota, in frames. *)
  timeout_ms : int;
      (** Default per-request wall-clock deadline; [0] disables. *)
  depth : int;  (** Deep-forcing print depth for [ok] replies. *)
  slice : int;
      (** Steps of progress per quantum: the next interrupt fires [slice]
          steps after the resume has re-entered the paused cells. *)
  max_inflight : int;  (** Admission bound; beyond it: [overloaded]. *)
  mem_budget : int;  (** Paused-heap cell budget; beyond it: evict. *)
  cache_capacity : int;  (** Compiled-program cache entries (LRU). *)
  optimize : bool;
      (** Run the linted imprecise optimisation pipeline
          ({!Transform.Pipeline.optimize}) between parsing and
          resolution. The mode is part of the cache key (optimised and
          unoptimised submissions never share an entry); a lint
          rejection answers [err ... lint] with a crash dump, and the
          daemon stays up. Default [false]. *)
  dump_dir : string option;  (** Crash-barrier dump directory. *)
  trace : bool;  (** Enable each request machine's flight recorder. *)
  now : unit -> int64;  (** Nanosecond clock (injectable for tests). *)
}

val default_config : config
val default_now : unit -> int64

type counters = {
  mutable requests : int;
  mutable ok : int;
  mutable failed : int;
  mutable quota_heap : int;
  mutable quota_stack : int;
  mutable quota_fuel : int;
  mutable timeouts : int;
  mutable sheds : int;
  mutable evictions : int;
  mutable parse_errors : int;
  mutable lint_rejects : int;
  mutable proto_errors : int;
  mutable crashes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

type t
(** An engine: compiled-program cache + run queue + counters. *)

val create : ?config:config -> unit -> t
val config : t -> config

val counters : t -> counters
(** Live service counters (the [stats] verb renders these as JSON). *)

val machine_totals : t -> Machine.Stats.t
(** Machine cost counters accumulated over every finished request —
    including timed-out, evicted and crashed ones. *)

val inflight : t -> int
(** Requests currently paused in the run queue. *)

val cache_size : t -> int

val holds_prelude_segment : t -> bool
(** Whether the engine has compiled the Prelude to bytecode once, as the
    segment an unoptimised program's bytecode miss appends its body to.
    It is built at the first such miss, so an engine on the slot backend
    or under [optimize] holds none. *)

val stats_json : t -> string
(** The [stats] verb's one-line JSON export. *)

type session
(** One client's protocol state: a line parser plus an outbound reply
    queue. Sessions are independent; any number share one engine. *)

val session : t -> session

val feed : session -> string -> unit
(** Feed one protocol line (without its newline). Replies accumulate in
    the session's queue; evaluation itself advances via {!tick}. *)

val drain : session -> string list
(** Pop all queued replies, oldest first. *)

val closed : session -> bool
(** True once the session has processed [quit]. *)

val tick : t -> bool
(** Run one scheduling quantum: resume the front request for one slice
    and either answer it or requeue it. Returns [true] while work
    remains. Never raises — the crash barrier converts unexpected
    machine exceptions into per-request [crash] replies. *)

val run_all : t -> unit
(** {!tick} until the run queue is empty. Terminates: every request is
    bounded by its fuel quota. *)

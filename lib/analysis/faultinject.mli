(** A cross-layer fault-injection harness.

    From a seeded oracle, generate a {!fault} — a schedule of asynchronous
    events (Section 5.1), optional heap/stack ceilings (catchable resource
    exhaustion in {!Machine.Stg}), a starved machine fuel budget,
    truncated input, a kill schedule and a GC cadence — then run a
    library of template programs under both IO layers ({!Semantics.Conc}
    and {!Machine.Machine_conc}, the one IO core over the denotation and
    over the machine) and check the invariants that must survive any
    fault:

    - every surfaced uncaught exception is a member of the pure core's
      denotational exception set, or an asynchronous/resource event;
    - bracket releases run exactly once per completed acquire
      (counters and paired 'A'/'R' output markers);
    - a shared thunk interrupted mid-force never loses work (a second
      force sees the same value or exception — the pause-cell invariant);
    - [Mask] really defers delivery (a masked section is never torn);
    - with no fault injected, both layers agree (baseline). *)

type fault = {
  seed : int;  (** Oracle seed; also seeds the layers' oracles. *)
  async : (int * Lang.Exn.t) list;
      (** Asynchronous events: deliver [x] at the first [getException] at
          or after the given transition. *)
  kills : (int * int * Lang.Exn.t) list;
      (** Thread-targeted sends [(clock, tid, exn)] — the
          [throwTo]/[killThread] fault axis; sends to finished or
          never-spawned threads are dropped, like a dead [throwTo]. *)
  heap_limit : int option;  (** Machine heap ceiling in cells. *)
  stack_limit : int option;  (** Machine stack ceiling in frames. *)
  starved_fuel : int option;
      (** Tiny machine fuel budget, simulating fuel exhaustion. *)
  truncate_input : bool;  (** Run with the template's input removed. *)
  gc_every : int option;
      (** Collect the machine heap every [k] IO transitions, exercising
          frame relocation under faults. *)
}

val no_fault : int -> fault
(** A fault record that injects nothing (baseline runs). *)

val clean : fault -> bool
(** No resource limits, no starved fuel and no kill schedule: the
    strictest checks apply. *)

val pp_fault : fault Fmt.t

type layer = L_conc | L_machine_conc

val layer_name : layer -> string

val layers : layer list
(** Every layer; each template runs on all of them. *)

type status = S_done | S_uncaught of Lang.Exn.t | S_diverged | S_stuck | S_deadlock

val status_name : status -> string

type observation = {
  status : status;
  output : string;
  entered : int;  (** Bracket acquires that completed. *)
  released : int;  (** Bracket releases that ran. *)
}

type template = {
  name : string;
  source : string;  (** Surface syntax, wrapped with the Prelude. *)
  base_input : string;
  core : string option;
      (** The pure sub-expression whose denotational exception set bounds
          the program's uncaught exceptions. *)
  deterministic : bool;
      (** Zero-fault output is identical across layers. *)
  special : fault -> observation -> string list;
      (** Per-template invariants; returns violation messages. *)
}

val templates : template list

val observe : ?trace:Obs.t -> layer -> template -> fault -> observation
(** Run one template under one layer with the fault applied. [trace] is
    threaded into the layer's flight recorder. *)

val concurrent : template -> bool
(** Whether the template's zero-fault run spawns a second thread or
    blocks on an MVar or a channel. Only concurrent templates get kill
    schedules from {!gen_fault}. *)

val trace_of_failure : layer -> template -> fault -> string
(** Replay one (layer, template, fault) cell with an enabled recorder
    and return the crash-dump text. {!check_one} calls this on every
    violation, so failing schedules always report their event trace;
    passing schedules never pay for tracing. *)

val gen_fault : seed:int -> template -> fault
(** The seeded fault generator used by {!run_suite}. Only a
    {!concurrent} template gets a kill schedule. *)

val check_one : template -> fault -> layer -> int * string list
(** Run and check one (template, fault, layer) cell: returns the number
    of checks evaluated and any violations. When there are violations,
    the last entry is the flight-recorder dump of an instrumented
    replay of the same schedule. *)

val baseline : template -> int * string list
(** Cross-layer agreement with no fault injected. *)

val check_supervisor : unit -> int * string list
(** The heap-exhaustion recovery scenario: under a heap ceiling the
    machine surfaces a catchable [HeapOverflow], the supervisor catches
    it, an emergency collection frees the abandoned allocations, and a
    smaller retry succeeds. *)

type report = {
  runs : int;  (** (template, layer, fault) executions performed. *)
  checks : int;  (** Individual invariant checks evaluated. *)
  violations : string list;  (** Empty iff every check passed. *)
}

val pp_report : report Fmt.t

val run_suite : ?count:int -> unit -> report
(** Run the baselines, [count] seeded fault schedules (default 250, each
    over one template on every layer), and the supervisor scenario. *)

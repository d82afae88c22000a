(** The fuzzer's coverage signal.

    Two complementary maps, both fed by artefacts the machinery already
    produces (no extra instrumentation in the layers themselves):

    - the {e event-kind bitmap}: which of the {!Obs.event} constructors
      have ever been recorded by any run — raise, rethrow, catch, poison,
      pause, resume, mask push/pop, async delivery, gc, bracket
      acquire/release, oracle pick, throwTo, kill delivery, blocked
      recovery, other IO, lint failure. 18 kinds; a campaign exercising
      all the machinery hits the 17 non-failure kinds (lint-fail is a
      failure kind and is excluded from {!kind_coverage}).
    - {e stats buckets}: each {!Machine.Stats} counter (and the IO-layer
      {!Semantics.Conc.counters}) quantised to a power-of-two bucket.
      An input that drives a counter into a bucket never seen before
      (first collection, first poisoned thunk, ten-times-deeper stack)
      counts as new coverage even when it records no new event kind.

    An input is {e interesting} — retained in the corpus — when running
    it changes either map. *)

type t

val create : unit -> t

val n_kinds : int
(** Number of {!Obs.event} constructors (18). *)

val kind_name : int -> string

val note_event : t -> Obs.event -> unit

val note_events : t -> Obs.event list -> unit

val note_counter : t -> string -> int -> unit
(** Record counter [name] at this value's power-of-two bucket. *)

val note_stats : t -> Machine.Stats.t -> unit

val note_io_counters : t -> Semantics.Conc.counters -> unit
(** The IO core's counters, from either layer. *)

val signature : t -> int * int
(** [(kinds hit, stats buckets seen)] — compare before/after a run to
    decide whether the input found new coverage. *)

val kinds_hit : t -> int

val kind_coverage : t -> float
(** Fraction of non-failure event kinds hit, in [0,1]. *)

val missing_kinds : t -> string list
(** Non-failure kinds never recorded. *)

val kind_counts : t -> (string * int) list
(** Events recorded per kind, for the campaign report. *)

val buckets_seen : t -> int

val pp : t Fmt.t

(** The differential driver: one term, every evaluator, one verdict.

    Pure terms run through all five engines — the imprecise denotational
    semantics (the reference), the slot-compiled machine {!Machine.Stg},
    the flat bytecode backend {!Machine.Bytecode}, and the precise
    fixed-order evaluator under both orders — and the results are
    cross-checked:

    - every implementation result {e implements} the denotation (C13,
      via {!Semantics.Refine.implements_deep});
    - the two machines agree exactly (same representative member);
    - the slot machine agrees with fixed-order left-to-right (both are
      deterministic left-to-right call-by-need evaluators).

    IO and concurrent programs run through the two IO layers — the one
    IO core over the denotation ({!Semantics.Conc}) and over the machine
    ({!Machine.Machine_conc}) — with a shared flight recorder, under a
    clean schedule (cross-layer agreement, [Oracle.first]), a
    GC-every-3-transitions schedule on the machine (collections must be
    transparent), and a seeded asynchronous schedule (invariants only:
    bracket balance — delivery timing is layer-relative, so exact
    agreement is not owed). Programs containing [WithTimeout]/[Retry]
    are {e timing-sensitive}: the layers count ticks differently, so
    only the invariant checks apply to them. A semantic run whose oracle
    picked from ⊥ owes no agreement on its final value (Section 5.3).

    Machine fuel-exhaustion and denotational fuel differ, so any side
    whose result contains [DBad All] (bottom) is exempt from exact
    agreement — the {e implements} direction still applies.

    When [optimize_variants] is on (the default), pure terms are
    additionally optimised by the linted imprecise pipeline and re-run
    through all five engines against the optimised denotation, with the
    same cross-checks under check names prefixed ["optimized-"]; a
    {!Transform.Lint.Lint_error} is reported as an ["optimizer-lint"]
    violation.

    All runs feed the optional {!Coverage} accumulator with recorded
    events and stats; on any violation the shared recorder's crash dump
    rides along in the result. *)

type vconfig = {
  denot_fuel : int;
  machine_fuel : int;
  fixed_fuel : int;
  depth : int;  (** Deep-forcing depth for result comparison. *)
  io_max_steps : int;  (** IO transition budget, every layer. *)
  poison_thunks : bool;
      (** Bug-injection toggle: [false] reintroduces the footnote-3
          poison-replay bug in both machines. *)
  app_union : bool;  (** Bug-injection: the rejected Section 4.2 design. *)
  case_finding : bool;  (** Bug-injection: the rejected Section 4.3 design. *)
  optimize_variants : bool;
      (** Also run every pure evaluator on the imprecise pipeline's
          output (linted, {!Transform.Pipeline.optimize}): the optimised
          denotation may only gain information, every implementation
          must implement it, and the machines must keep agreeing. *)
  break_pass : string option;
      (** Bug-injection: thread a {!Transform.Pipeline.ablations} name
          into the pipeline — the linter must catch it (flagged as
          ["optimizer-lint"] rather than crashing the campaign). *)
}

val default_vconfig : vconfig

type violation = { check : string; detail : string }

val pp_violation : violation Fmt.t

type result = {
  violations : violation list;
  dump : string option;
      (** Flight-recorder dump of the run, present iff violations. *)
}

type held = {
  segment : Machine.Bytecode.segment;
  image : Machine.Stg.image;
}
(** The global resolution context's Prelude as a serve engine holds it:
    compiled to bytecode once, and built into the slot machine's heap
    image once. *)

val held_prelude : unit -> held
(** Build both, once per campaign. *)

val check_pure :
  ?cov:Coverage.t -> held:held -> vconfig -> Lang.Syntax.expr -> result
(** Cross-check one pure term (open over the Prelude). The raw term's
    machines start from [held], the path a serve request takes: the
    slot machine's heap from the image, the bytecode compiled against
    the segment (only its body after the held Prelude). The optimised
    term's group is pruned, so it takes the full path on both machines,
    and both paths meet [stg-vs-bytecode] and the refinement checks. *)

val check_io :
  ?cov:Coverage.t -> vconfig -> seed:int -> Lang.Syntax.expr -> result
(** Cross-check one sequential [IO Int] program: the machine's output
    extends the semantic one and its value implements the semantic
    value; plus the GC and async fault schedules. [seed] drives the
    seeded-oracle fault run. *)

val check_conc :
  ?cov:Coverage.t -> vconfig -> seed:int -> Lang.Syntax.expr -> result
(** Cross-check one concurrent program: termination classes, output
    multisets, thread counts and bracket balance, plus the same fault
    schedules as {!check_io}. *)

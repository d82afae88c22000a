(** A CoreLint-style IR sanity checker for the optimisation pipeline.

    The paper's licence to transform (Section 4.5) is a licence to get
    things subtly wrong: a pass that drops a live binding or rebuilds a
    constructor at the wrong arity produces a term the machines will
    happily mis-evaluate. Following GHC's CoreLint, every pass output is
    mechanically checked against the pass input:

    - {b closed scope}: the output's free variables must be a subset of
      the input's (a pass may drop free occurrences, never invent them);
    - {b binder uniqueness where assumed}: no duplicate binders inside a
      single [Pcon] pattern, no duplicate names in one [letrec] group;
    - {b well-formed arities}: constructor applications match the
      built-in constructor table (and are used at one consistent arity
      per term), primitives are fully saturated, no empty [case];
    - {b type preservation}: when the input type-checks under the
      Prelude ({!Types.Infer.with_prelude}), the output must too, and a
      ground (type-variable-free) type must be rendered identically.
      Re-inference may legally {e generalise} — e.g. case-of-known
      dropping the alternative that pinned a type variable — so two
      differing polymorphic renderings are not flagged.

    Checks are differential against a {!st} snapshot of the pass input:
    a structural oddity already present in the input (say, a wrong-arity
    [Pcon] alternative, which the machines treat as unreachable rather
    than ill-formed) is tolerated; only {e newly introduced} violations
    fail the pass.

    The pipeline splits a [Prelude.wrap]ped root into the Prelude group
    and the program body once, so a snapshot is of a body: open over the
    Prelude, or an unwrapped closed term. What prune trims off the group
    is checked apart, by {!check_group}. *)

type violation = { check : string; detail : string }
(** One lint finding: the check that fired ("scope",
    "binder-uniqueness", "arity", "pattern", "type-preservation",
    "group") and a human-readable description. *)

val pp_violation : violation Fmt.t

exception
  Lint_error of {
    pass : string;  (** The pass whose output failed the check. *)
    violations : violation list;
    dump : string;  (** Flight-recorder crash dump (or plain summary). *)
  }

val pp_lint_error : exn Fmt.t
(** Renders a [Lint_error]; falls back to [Printexc] otherwise. *)

type st
(** Snapshot of the last known-good body: its free variables, its
    canonical type under the Prelude environment (None when it does not
    type-check), and the structural findings already present in it. *)

val snapshot : Lang.Syntax.expr -> st

val check_pass : ?trace:Obs.t -> pass:string -> prev:st -> Lang.Syntax.expr -> st
(** Lint a pass output against the snapshot of its input. On success
    returns the output's own snapshot (so a pipeline threads one
    snapshot through its passes, paying one walk and one type lookup
    per pass). On failure records {!Obs.Ev_lint_fail} in [trace] (when
    tracing is on) and raises {!Lint_error} carrying a crash dump that
    names the offending pass. *)

val check_group :
  ?trace:Obs.t ->
  pass:string ->
  st ->
  (string * Lang.Syntax.expr) list ->
  unit
(** [check_group ~pass body group] lints the Prelude group kept around
    the body that [body] snapshots: the group must be a sublist of
    [Prelude.defs]' own pairs ("group"), bind no name twice
    ("binder-uniqueness"), and bind every Prelude name that the body or
    a kept binding uses ("scope"). Fails as {!check_pass} does. *)

(** The optimisation pipeline, in two flavours:

    - {b imprecise}: applies order-changing transformations freely — "No
      analysis required!" (Section 3.4).
    - {b fixed order}: the same passes, but every order-changing rewrite is
      guarded by {!Analysis.Exn_analysis}: the moved expression must be
      provably exception-free and terminating, mirroring what compilers
      for precise-exception languages must do.

    The difference in enabled sites is experiment C8.

    The driver iterates the pass sequence (prune, simplify, inline,
    case-of-case, case-commute, cbv, simplify) to a fixpoint, and after
    {e every} pass output runs the {!Lint} checker against the pass
    input — a violation aborts with {!Lint.Lint_error} naming the
    offending pass instead of letting a corrupted term reach a machine.

    A [Prelude.wrap]ped root (its group physically [Prelude.defs]) is
    split once into group and body. No pass rewrites a Prelude binding,
    so the passes and the linter see only the body; after the body's
    own prune, each round trims the group to the bindings the body
    reaches ({!Lint.check_group} checks the trim), and the term is
    rebuilt at the end: the output is the one a walk of the whole term
    gives. *)

type mode = Imprecise | Fixed_order_with_effect_analysis

type report = {
  mode : mode;
  rounds : int;  (** Pass-sequence iterations actually executed. *)
  sites : (string * int) list;  (** Rewrites applied, per pass. *)
  blocked_sites : int;
      (** Order-changing rewrites that fired under [Imprecise] but were
          rejected by the effect analysis under fixed order. *)
  size_before : int;
  size_after : int;
  lint_checks : int;
      (** Post-pass lint runs (0 when linting is off). A pass returning
          its input unchanged is not re-checked — that term was blessed
          by the previous check. *)
  lint_time : float;
      (** Elapsed seconds spent in the linter (monotonic clock). *)
}

val pp_report : report Fmt.t

val cbv_pass : mode -> Lang.Syntax.expr -> Lang.Syntax.expr * int * int
(** Strictness-driven call-by-value conversion: [let x = e in body] with
    [body] strict in [x] becomes [case e of { x -> body }]. Returns
    (result, applied, blocked). Under fixed-order mode a site is applied
    only when the bound expression is provably pure. *)

val simplify_pass : Lang.Syntax.expr -> Lang.Syntax.expr * int
(** Order-preserving cleanups, safe in every design: beta on trivial
    arguments, case-of-known-constructor, dead lets. (Case-of-case is
    {e not} part of this pass — it lives in {!case_of_case_pass}.) *)

val inline_pass : Lang.Syntax.expr -> Lang.Syntax.expr * int
(** Occurrence-guided inlining: [let]-bindings used exactly once (outside
    lambdas) are substituted; cheap bindings (variables, literals, nullary
    constructors) are substituted regardless of use count. Work is never
    duplicated, so this is valid in every design. *)

val prune_pass : Lang.Syntax.expr -> Lang.Syntax.expr * int
(** Dead-binding elimination in [letrec] groups: bindings not reachable
    from the body are dropped. Returns the number of bindings removed.
    {!optimize} runs it on a wrapped program's body only; the same rule
    at the root, applied by the driver to the split-off group, is what
    shrinks the Prelude down to the functions a program uses. *)

val case_of_case_pass : Lang.Syntax.expr -> Lang.Syntax.expr * int
(** [case (case s of {p -> a}) of alts] becomes
    [case s of {p -> case a of alts}] ({!Rules.case_of_case}, an
    identity in every design), unblocking case-of-known-constructor.
    Outer alternatives are duplicated into several inner branches only
    when they are small. *)

val case_commute_pass :
  mode -> Lang.Syntax.expr -> Lang.Syntax.expr * int * int
(** Swap two nested single-constructor cases so the smaller scrutinee
    is evaluated first ({!Rules.case_commute}, the Section 4 motivating
    equation). Guarded in the improving direction by the strictness
    analysis: the hoisted case's binders must feed a demand in the
    body. Returns (result, applied, blocked); an identity only under
    imprecise semantics, so the fixed-order pipeline additionally
    requires both scrutinees provably pure and counts refusals as
    blocked. *)

val ablations : string list
(** Deliberately broken pseudo-passes, one per lint check category:
    ["unbind-var"] (scope), ["drop-con-arg"] (arity),
    ["dup-pattern-binder"] (binder uniqueness), ["int-to-string"] (type
    preservation). For negative tests à la [Fuzz.inject_bug]. *)

val sabotage : string -> Lang.Syntax.expr -> Lang.Syntax.expr option
(** Apply the named ablation's corruption to the first eligible site;
    [None] when the term has no such site. *)

val optimize :
  ?lint:bool ->
  ?break_pass:string ->
  ?trace:Obs.t ->
  mode ->
  Lang.Syntax.expr ->
  Lang.Syntax.expr * report
(** Run the pipeline to a fixpoint (bounded rounds), linting after
    every pass ([lint] defaults to [true]).
    [break_pass] injects the named {!ablations} corruption as its own
    pseudo-pass after the first simplify — the linter must then raise
    {!Lint.Lint_error} naming it. [trace] receives
    {!Obs.Ev_lint_fail} events and provides the crash-dump history.
    @raise Lint.Lint_error when a pass output fails the checker. *)

val count_cbv_opportunities : Lang.Syntax.expr -> int * int
(** (sites applied by the imprecise pipeline, sites applied by the
    fixed-order pipeline) — the headline numbers of C8, read off the
    two {!optimize} reports so they cannot disagree with the pipeline's
    own [sites] accounting on the same program. *)

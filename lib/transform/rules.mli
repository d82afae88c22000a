(** The catalogue of program transformations whose validity the paper
    discusses, each with its claimed status under the three competing
    designs:

    - the imprecise exception-set semantics (this paper),
    - a precise fixed-evaluation-order semantics (ML/FL-style, the first
      rejected design of Section 3.4),
    - the naive non-deterministic semantics with a *pure* [getException]
      (the second rejected design of Section 3.4).

    A transformation is an [Identity] if it preserves the denotation, a
    [Refinement] if it can only gain information (fewer possible
    exceptions — legitimate per Section 4.5), and [Invalid] if it can
    change observable results. The claims are validated empirically by
    {!Laws.table} and by the qcheck suites. *)

type status = Identity | Refinement | Invalid

val pp_status : status Fmt.t
val status_equal : status -> status -> bool

type rule = {
  name : string;
  description : string;
  paper_ref : string;  (** Section of the paper motivating the rule. *)
  imprecise : status;
  fixed_order : status;
  nondet : status;
  applies : Lang.Syntax.expr -> Lang.Syntax.expr option;
      (** One-step rewrite at the root, [None] if not applicable. *)
  instances : Lang.Syntax.expr list;
      (** Closed instances on which [applies] fires at the root,
          including exception-raising ones; used by the law table. For
          claimed-[Invalid] rules at least one instance witnesses the
          invalidity. *)
}

val all : rule list
val find : string -> rule option

(* Individual rules, for direct use in tests. *)

val beta : rule
val let_inline : rule
val plus_commute : rule
val case_switch : rule
val case_commute : rule
val error_collapse : rule
val case_of_known_constructor : rule
val dead_let : rule
val case_identity_collapse : rule
val case_of_case : rule
val eta_expand : rule
val strictness_cbv : rule

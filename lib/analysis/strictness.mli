(** Strictness analysis: a two-point abstract interpretation computing
    which variables are *definitely demanded* when an expression is
    demanded to WHNF.

    This drives the call-by-need → call-by-value pass that Section 3.4
    singles out: "Haskell compilers perform strictness analysis to turn
    call-by-need into call-by-value. This crucial transformation changes
    the evaluation order" — valid under the imprecise semantics, but
    requiring an exception-freedom proof under fixed-order semantics
    (see {!Exn_analysis}).

    Recursive function signatures are solved by a decreasing fixpoint from
    the all-strict top element, which is sound for strictness (a safety
    property): the analysis only claims [f] strict in an argument if
    [f ⊥ = ⊥] in that position. *)

module String_set = Lang.Subst.String_set

type signature = bool list
(** One flag per parameter of a [letrec]-bound curried function:
    [true] = the argument is definitely demanded whenever the fully
    applied call is demanded. *)

type sigs
(** Signatures for the functions bound in the analysed expression. *)

val empty_sigs : sigs
val find_sig : sigs -> string -> signature option
val sigs_to_list : sigs -> (string * signature) list

val analyze : Lang.Syntax.expr -> sigs
(** Compute signatures for every [letrec]-bound function in the
    expression (including nested ones). *)

val demanded : sigs -> Lang.Syntax.expr -> String_set.t
(** [demanded sigs e]: free variables of [e] certainly forced whenever [e]
    is forced to WHNF — restricted to demand paths along which early
    forcing is observationally safe under the imprecise semantics.
    Demand through [mapException] is deliberately not reported: it
    forces its argument but rewrites the exceptions it surfaces, so the
    transformations this analysis licenses (let-to-case, [seq]
    insertion) would change the exception set. *)

val strict_args_of_app : sigs -> Lang.Syntax.expr -> bool list
(** For an application spine [f a1 ... an] with [f] a known function,
    which argument positions are demanded. Empty if the head is
    unknown. *)

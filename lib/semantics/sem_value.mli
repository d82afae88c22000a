(** The semantic domain [M t = (t + P(E))⊥] of Section 4.1.

    A weak-head value ({!whnf}) is either a normal value ([Ok_v]) or an
    exceptional value carrying a set of exceptions ([Bad]). Bottom is
    identified with [Bad All] — "the least informative value contains all
    exceptions".

    Laziness is modelled with memoizing thunks. Forcing a thunk that is
    already being forced (a cyclic demand) yields [Bad All]: the
    denotational reading of a black hole. *)

type whnf = Ok_v of value | Bad of Exn_set.t

and value =
  | VInt of int
  | VChar of char
  | VString of string
  | VCon of string * thunk list  (** Constructors are non-strict. *)
  | VFun of (thunk -> whnf)
      (** [λx.⊥ ≠ ⊥]: a function is always a normal value (Section 4.2). *)

and thunk

val delay : (unit -> whnf) -> thunk
val delay_self : (thunk -> whnf) -> thunk
(** [delay_self f] is a thunk [t] whose forcing computes [f t] — the
    cyclic knot used for [fix]. *)

val from_whnf : whnf -> thunk
val force : thunk -> whnf
(** Memoizing; a cyclic force returns [Bad All]. *)

val s_of : whnf -> Exn_set.t
(** The auxiliary [S] of Section 4.2: ∅ on normal values, the set on
    exceptional ones. *)

val bad_all : whnf
val bad : Lang.Exn.t -> whnf
val bad_empty : whnf
(** The "strange value" [Bad {}] (Section 4.3). *)

val provenance : Obs.provenance
(** Raise-site provenance for the denotational layer, keyed by exception
    constant; most recent raise wins. Origins here carry a site label
    only (no step counter or stack depth exists denotationally). *)

val bad_at : label:string -> Lang.Exn.t -> whnf
(** [bad e], registering [label] as the exception's origin in
    {!provenance}. *)

val pp_exn_with_origin : Lang.Exn.t Fmt.t
(** Print an exception annotated with its {!provenance} origin. *)

val vbool : bool -> whnf
val vcon0 : string -> whnf

val exn_to_value : Lang.Exn.t -> whnf
(** Reify an exception constant as the corresponding source-level
    constructor value (used by [getException] and [mapException]). *)

val exn_of_whnf : whnf -> (Lang.Exn.t, whnf) result
(** Interpret a WHNF as an exception constant (the argument of [raise]).
    [Error w] returns the exceptional/ill-typed result to propagate. *)

(** Fully-forced finite prefixes of values, for printing and comparison. *)
type deep =
  | DInt of int
  | DChar of char
  | DString of string
  | DCon of string * deep list
  | DFun  (** functions are not compared structurally *)
  | DBad of Exn_set.t
  | DCut  (** depth cut-off *)

val deep_force : ?depth:int -> thunk -> deep
val deep_of_whnf : ?depth:int -> whnf -> deep

val deep_equal : deep -> deep -> bool
(** Structural equality; [DFun]s compare equal, [DCut] equals only
    [DCut]. *)

val deep_leq : deep -> deep -> bool
(** The information ordering, pointwise: [DBad All] below everything,
    [DBad s ⊑ DBad s'] iff [s' ⊆ s], constructors componentwise. *)

val contains_bottom : deep -> bool
(** Whether a [DBad All] (bottom: fuel ran out, or a black hole) occurs
    anywhere in the value. *)

val pp_deep : deep Fmt.t

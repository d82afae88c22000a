(** Refinement checking: the Section 4.5 story made executable.

    "Some transformations that are identities in Haskell become refinements
    in our new system … it is legitimate to perform a transformation that
    increases information."

    [compare_denot a b] evaluates both closed expressions with the
    imprecise denotational semantics, forces the results deeply, and
    classifies the pair in the information ordering. *)

type verdict =
  | Equal  (** ⟦a⟧ = ⟦b⟧ at this approximation. *)
  | Refines  (** ⟦a⟧ ⊑ ⟦b⟧ strictly: the rewrite gains information. *)
  | Refined_by  (** ⟦a⟧ ⊒ ⟦b⟧ strictly: the rewrite loses information. *)
  | Incomparable

val pp_verdict : verdict Fmt.t
val verdict_equal : verdict -> verdict -> bool

val compare_deep : Semantics.Sem_value.deep -> Semantics.Sem_value.deep ->
  verdict

val compare_denot :
  ?config:Semantics.Denot.config -> ?depth:int ->
  Lang.Syntax.expr -> Lang.Syntax.expr -> verdict

val implements_deep :
  Semantics.Sem_value.deep -> Semantics.Sem_value.deep -> bool
(** Re-export of {!Semantics.Refine.implements_deep}: the C13
    implementation-refines-semantics checker shared by the differential
    tests and the fuzzer. *)

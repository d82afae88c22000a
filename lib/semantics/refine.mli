(** The implementation-refines-semantics relation (claim C13).

    "The semantics of the program is given by the set; the implementation
    is free to report any member." An implementation result {e implements}
    a denotation when every exception it actually reports is a member of
    the semantic exception set and every normal component agrees exactly.

    This is the single checker behind the differential test suite and the
    fuzzer; {!Transform.Refine} re-exports it next to the
    transformation-validity verdicts. *)

val implements_deep : Sem_value.deep -> Sem_value.deep -> bool
(** [implements_deep impl den]: [impl] (a machine or fixed-order result,
    reporting single representative exceptions, [DBad All] for
    divergence) refines [den] (the imprecise denotation). Componentwise
    on constructors; a denotational [DBad All] (bottom) admits anything;
    [DCut] admits anything on either side. *)

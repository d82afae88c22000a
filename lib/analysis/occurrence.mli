(** Occurrence analysis: how many times each bound variable is used, and
    whether uses occur under a lambda — the information an inliner needs
    to avoid duplicating work or losing sharing (the very sharing whose
    loss breaks β under the naive non-deterministic design, Section 3.4;
    under the imprecise semantics the inliner is free, but still should
    not duplicate work). *)

type occurrence =
  | Dead  (** Never used: the binding can be dropped. *)
  | Once  (** Used exactly once, not under a lambda: inline freely. *)
  | Once_under_lambda
      (** Used once but inside a lambda: inlining may duplicate work per
          call. *)
  | Many  (** Several uses: inlining duplicates the redex. *)

val of_binding : string -> Lang.Syntax.expr -> occurrence
(** How [x] occurs in the scope expression. *)

val reachable_bindings :
  (string * Lang.Syntax.expr) list -> Lang.Syntax.expr ->
  (string * Lang.Syntax.expr) list
(** Of a recursive binding group, the subset transitively reachable from
    the body — used to prune unused Prelude definitions. Order is
    preserved. *)

(** Precedence-aware pretty-printer for the term language.

    The output re-parses to an alpha-equivalent term (round-trip is
    property-tested). Sugared forms ([if], list literals, infix operators)
    are reconstructed where the AST shape allows. *)

val pp_expr : Syntax.expr Fmt.t
val pp_pat : Syntax.pat Fmt.t
val pp_lit : Syntax.lit Fmt.t
val pp_ty : Syntax.ty_expr Fmt.t
val pp_data : Syntax.data_decl Fmt.t
val pp_program : Syntax.program Fmt.t

val expr_to_string : Syntax.expr -> string

(** Abstract syntax of the extended language (Figure 1 of the paper, plus the
    conveniences any real program needs: literals beyond integers,
    [let]/[letrec], and saturated constructor applications).

    The paper's grammar:

    {v
    e ::= x | k | e1 e2 | \x1...xn. e | C e1 ... en
        | case e of { p1 -> e1 ; ... }      p ::= C x1 ... xn
        | raise e | e1 + e2 | fix e
    v}

    [IO] computations are ordinary constructor values ([Return], [Bind],
    [GetChar], [PutChar], [GetException]): Section 4.4 says "from a semantic
    point of view we regard IO as an algebraic data type". The operational
    layer ({!module:Semantics} in the sibling library) interprets them. *)

type lit =
  | Lit_int of int
  | Lit_char of char
  | Lit_string of string
      (** Strings are primitive here (rather than [List Char]) to keep
          [UserError]'s payload cheap; the Prelude provides [unpack]. *)

type pat =
  | Pcon of string * string list
      (** Constructor pattern [C x1 ... xn]; fields are binders. *)
  | Plit of lit  (** Literal pattern (integers and characters). *)
  | Pany of string option
      (** Default alternative; [Some x] binds the scrutinee. *)

type expr =
  | Var of string
  | Lit of lit
  | Lam of string * expr
  | App of expr * expr
  | Con of string * expr list  (** Saturated constructor application. *)
  | Case of expr * alt list
  | Let of string * expr * expr  (** Non-recursive local binding. *)
  | Letrec of (string * expr) list * expr
  | Prim of Prim.t * expr list  (** Saturated primitive application. *)
  | Raise of expr  (** [raise e]; [e] evaluates to an [Exception]. *)
  | Fix of expr  (** Least fixed point, as in Figure 1. *)

and alt = { pat : pat; rhs : expr }

type ty_expr =
  | Ty_var of string  (** a type variable, e.g. [a] *)
  | Ty_con of string * ty_expr list  (** [Int], [List a], [Pair a b] *)
  | Ty_fun of ty_expr * ty_expr

type data_decl = {
  type_name : string;
  type_params : string list;
  constructors : (string * ty_expr list) list;
}
(** A [data] declaration: name, parameters, and each constructor's field
    types. *)

type exn_decl = { exn_name : string; exn_payload : ty_expr option }
(** An [exception] declaration: a new member of the open exception
    vocabulary, optionally carrying an [Int] or [String] payload. *)

type program = {
  defs : (string * expr) list;
  datas : data_decl list;
  exns : exn_decl list;
  main : expr;
}
(** A parsed module: [data] and [exception] declarations, top-level
    definitions (mutually recursive) and the expression bound to
    [main]. *)

val equal : expr -> expr -> bool
(** Structural equality (not alpha-equivalence; see {!Subst.alpha_equal}). *)

val compare : expr -> expr -> int

val size : expr -> int
(** Number of AST nodes; the code-size measure used by the ExVal-encoding
    cost experiment (claim C6). *)

val depth : expr -> int

val lit_equal : lit -> lit -> bool
val pat_binders : pat -> string list

(* Common constructor names, centralised so every layer agrees. *)

val c_true : string
val c_false : string
val c_nil : string
val c_cons : string
val c_unit : string
val c_pair : string
val c_ok : string
val c_bad : string
val c_just : string
val c_nothing : string
val c_return : string
val c_bind : string
val c_get_char : string
val c_put_char : string
val c_get_exception : string
val c_bracket : string
val c_on_exception : string
val c_mask : string
val c_unmask : string
val c_timeout : string
val c_retry : string
val c_evaluate : string

val is_io_constructor : string -> bool
(** True for the constructors of the [IO] data type, including the
    exception-safety combinators ([Bracket], [OnException], [Mask],
    [Unmask], [WithTimeout], [Retry]). *)

val is_io_action_constructor : string -> bool
(** Like {!is_io_constructor} but also covering the concurrency
    extension ([Fork], MVar operations, [MyThreadId], [ThrowTo]) — every
    performable action, excluding the value wrappers [MVarRef] and
    [ThreadId]. *)

val spine : expr -> expr * expr list
(** [f a1 ... an] as [(f, [a1; ...; an])]. *)

val uncurry : expr -> string list * expr
(** [\x1 -> ... \xn -> body] as [([x1; ...; xn], body)]. *)

val list_expr : expr list -> expr
(** Build a [Cons]/[Nil] spine. *)

(** Hindley–Milner type inference for the object language.

    The paper assumes a typed source language throughout (the [Exception]
    data type, "the type of a function makes it clear whether it can raise
    an exception" is discussed and rejected, and the domain equations in
    Section 4.1 are indexed by Haskell types). This checker makes that
    assumption checkable: programs accepted here cannot evaluate to the
    [TypeError] constant that the untyped interpreters add defensively —
    that soundness claim is property-tested.

    Features: algorithm-W with mutable-ref unification variables and an
    occurs check, let-polymorphism (generalisation at [let], [letrec] and
    top-level definitions), user [data] declarations, and the built-in
    Prelude data types. The [IO] constructors are typed specially: [Bind]'s
    first component mentions an existentially quantified intermediate type
    ([Bind : IO a -> (a -> IO b) -> IO b]), outside vanilla HM data types,
    so [Con ("Bind", _)] gets its own rule.

    Known approximations, documented rather than hidden:
    - [==] and friends are typed [∀a. a -> a -> Bool]; the dynamic
      semantics rejects comparisons of functions at run time.
    - [raise]'s argument must have type [Exception]; [mapException]'s
      function [Exception -> Exception]. *)

type ty =
  | T_var of tvar ref
  | T_con of string * ty list  (** [Int], [List Int], [IO a]... *)
  | T_arrow of ty * ty

and tvar

type scheme
(** A type scheme [∀ a1..an . ty]. *)

type env
(** Typing environment: term variables to schemes, plus the data-type
    table. *)

type error = {
  message : string;
  in_expr : Lang.Syntax.expr option;
}

val pp_error : error Fmt.t
val pp_ty : ty Fmt.t
(** Canonical printing: unification variables are renamed ['a], ['b]… *)

val initial_env : unit -> env
(** The built-in data types ([Bool], lists, [Pair], [Maybe], [ExVal],
    [Exception], [IO], [Unit]) and nothing else. *)

val add_data : env -> Lang.Syntax.data_decl -> (env, error) result
(** Register a user [data] declaration (checks that field types are
    well-formed and arities match). *)

val with_prelude : unit -> env
(** [initial_env] extended with the types of every Prelude binding
    (obtained by inferring the Prelude itself — which is therefore
    type-checked on first use). *)

val infer : env -> Lang.Syntax.expr -> (ty, error) result
(** Infer the type of an expression whose free variables are bound in
    [env]. *)

val infer_program : Lang.Syntax.program -> ((string * ty) list, error) result
(** Check a whole program under the Prelude: returns the inferred type of
    every top-level definition (including [main], which must be [IO t]). *)

val check_string : string -> (ty, error) result
(** Parse (under the Prelude's names) and infer. *)

val ty_to_string : ty -> string

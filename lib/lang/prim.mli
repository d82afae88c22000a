(** Primitive operations of the extended language.

    Section 4 treats [+] as the representative primitive; we supply the whole
    arithmetic/comparison family, the paper's [seq] (Section 3.2),
    [mapException] (Section 5.4) and the unsafe [isException] probe of
    Section 5.4 (with its proof obligation). Every primitive is saturated in
    the AST ([Syntax.Prim]); partial applications are expanded to lambdas by
    the parser. *)

type t =
  | Add
  | Sub
  | Mul
  | Div  (** Integer division; division by zero raises [DivideByZero]. *)
  | Mod
  | Neg
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Seq
      (** [seq a b]: forces [a] to WHNF then returns [b]; propagates the
          exception set of [a] (Section 3.2's tool for flushing exceptional
          values out of lazy structures). *)
  | Map_exception
      (** [mapException f v]: applies [f] to each member of the exception
          set of [v]; the identity on normal values (Section 5.4). *)
  | Unsafe_is_exception
      (** The pure [isException] of Section 5.4, under its optimistic
          semantics. Unsafe: the programmer undertakes the proof obligation
          that the argument is not bottom. *)
  | Unsafe_get_exception
      (** The pure [unsafeGetException : a -> ExVal a] suggested in
          Section 6 as an alternative to the IO-monad [getException].
          Unsafe: the programmer undertakes the proof obligation that the
          argument's exception set has at most one member (and is not
          bottom); otherwise the answer is implementation-dependent and
          the refinement theorem (C13) does not cover it. *)
  | Chr  (** Int to character. *)
  | Ord  (** Character to int. *)

val arity : t -> int
val name : t -> string
(** Source-language spelling, e.g. ["+"] or ["seq"]. *)

val of_name : string -> t option
val all : t list

val pp : t Fmt.t
val equal : t -> t -> bool
val compare : t -> t -> int

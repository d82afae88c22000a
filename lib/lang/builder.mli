(** Combinators for constructing terms from OCaml.

    Tests, examples and benchmarks build programs with these rather than
    strings, so they are robust against concrete-syntax changes. All the
    paper's running examples are provided at the bottom. *)

open Syntax

val var : string -> expr
val int : int -> expr
val char : char -> expr
val str : string -> expr
val lam : string -> expr -> expr
val lams : string list -> expr -> expr
val app : expr -> expr -> expr
val apps : expr -> expr list -> expr
val con : string -> expr list -> expr
val letrec : (string * expr) list -> expr -> expr
val fix : expr -> expr

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( mod ) : expr -> expr -> expr
val ( == ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( <= ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( >= ) : expr -> expr -> expr
val neg : expr -> expr
val seq : expr -> expr -> expr
val map_exception : expr -> expr -> expr

val true_ : expr
val false_ : expr
val unit_ : expr
val nil : expr
val cons : expr -> expr -> expr
val list : expr list -> expr
val pair : expr -> expr -> expr
val just : expr -> expr
val nothing : expr

val if_ : expr -> expr -> expr -> expr
(** Desugars to a [case] on [True]/[False]; a non-boolean scrutinee fails
    with [PatternMatchFail] at evaluation time. *)

val case : expr -> (pat * expr) list -> expr
val pcon : string -> string list -> pat

val raise_exn : Exn.t -> expr
(** [raise] applied to a literal exception constructor. *)

val exn_con : Exn.t -> expr
(** The source-level constructor value for an exception constant. *)

val error : string -> expr
(** The Prelude's [error str = raise (UserError str)]. *)

val io_return : expr -> expr
val io_bind : expr -> expr -> expr
val get_char : expr
val get_exception : expr -> expr

val io_bracket : expr -> expr -> expr -> expr
(** [io_bracket acquire release use]: perform [acquire]; on success run
    [use resource]; run [release resource] exactly once whether [use]
    returns, raises, or is interrupted. *)

val io_on_exception : expr -> expr -> expr
val io_mask : expr -> expr
val io_timeout : expr -> expr -> expr

(* The paper's running examples. *)

val loop : expr
(** [fix (\x.x)] — diverges; denotes bottom (= the set of all exceptions). *)

val loop_plus_error : expr
(** [(loop + error "Urk")] from Section 4. *)

val div_zero_plus_error : expr
(** [((1/0) + error "Urk")] from Section 3.4. *)

val black : expr
(** [black = black + 1]: the detectable black hole of Section 5.2, as
    [letrec black = black + 1 in black]. *)

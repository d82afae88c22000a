type t =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Neg
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Seq
  | Map_exception
  | Unsafe_is_exception
  | Unsafe_get_exception
  | Chr
  | Ord

let arity = function
  | Neg | Unsafe_is_exception | Unsafe_get_exception | Chr | Ord -> 1
  | Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | Seq
  | Map_exception ->
      2

let name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Neg -> "negate"
  | Eq -> "=="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Seq -> "seq"
  | Map_exception -> "mapException"
  | Unsafe_is_exception -> "unsafeIsException"
  | Unsafe_get_exception -> "unsafeGetException"
  | Chr -> "chr"
  | Ord -> "ord"

let all =
  [
    Add;
    Sub;
    Mul;
    Div;
    Mod;
    Neg;
    Eq;
    Ne;
    Lt;
    Le;
    Gt;
    Ge;
    Seq;
    Map_exception;
    Unsafe_is_exception;
    Unsafe_get_exception;
    Chr;
    Ord;
  ]

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

let pp ppf p = Fmt.string ppf (name p)
let equal a b = a = b
let compare = Stdlib.compare

open Syntax

let var x = Var x
let int n = Lit (Lit_int n)
let char c = Lit (Lit_char c)
let str s = Lit (Lit_string s)
let lam x e = Lam (x, e)
let lams xs e = List.fold_right (fun x acc -> Lam (x, acc)) xs e
let app f a = App (f, a)
let apps f args = List.fold_left (fun acc a -> App (acc, a)) f args
let con c es = Con (c, es)
let letrec binds body = Letrec (binds, body)
let fix e = Fix e

let prim2 p a b = Prim (p, [ a; b ])
let ( + ) = prim2 Prim.Add
let ( - ) = prim2 Prim.Sub
let ( * ) = prim2 Prim.Mul
let ( / ) = prim2 Prim.Div
let ( mod ) = prim2 Prim.Mod
let ( == ) = prim2 Prim.Eq
let ( < ) = prim2 Prim.Lt
let ( <= ) = prim2 Prim.Le
let ( > ) = prim2 Prim.Gt
let ( >= ) = prim2 Prim.Ge
let neg e = Prim (Prim.Neg, [ e ])
let seq = prim2 Prim.Seq
let map_exception = prim2 Prim.Map_exception

let true_ = Con (c_true, [])
let false_ = Con (c_false, [])
let unit_ = Con (c_unit, [])
let nil = Con (c_nil, [])
let cons x xs = Con (c_cons, [ x; xs ])
let list = list_expr
let pair a b = Con (c_pair, [ a; b ])
let just e = Con (c_just, [ e ])
let nothing = Con (c_nothing, [])

let pcon c xs = Pcon (c, xs)
let case e alts = Case (e, List.map (fun (pat, rhs) -> { pat; rhs }) alts)

let if_ c t f = case c [ (pcon c_true [], t); (pcon c_false [], f) ]

let exn_con (e : Exn.t) =
  let name = Exn.constructor_name e in
  match Exn.payload e with
  | Some (Exn.P_string s) -> Con (name, [ str s ])
  | Some (Exn.P_int n) -> Con (name, [ int n ])
  | None -> Con (name, [])

let raise_exn e = Raise (exn_con e)
let error s = raise_exn (Exn.User_error s)

let io_return e = Con (c_return, [ e ])
let io_bind m k = Con (c_bind, [ m; k ])
let get_char = Con (c_get_char, [])
let get_exception e = Con (c_get_exception, [ e ])
let io_bracket acq rel use = Con (c_bracket, [ acq; rel; use ])
let io_on_exception m h = Con (c_on_exception, [ m; h ])
let io_mask m = Con (c_mask, [ m ])
let io_timeout k m = Con (c_timeout, [ k; m ])

let loop = Fix (lam "x" (var "x"))
let loop_plus_error = loop + error "Urk"
let div_zero_plus_error = int 1 / int 0 + error "Urk"
let black = letrec [ ("black", var "black" + int 1) ] (var "black")

type lit = Lit_int of int | Lit_char of char | Lit_string of string

type pat = Pcon of string * string list | Plit of lit | Pany of string option

type expr =
  | Var of string
  | Lit of lit
  | Lam of string * expr
  | App of expr * expr
  | Con of string * expr list
  | Case of expr * alt list
  | Let of string * expr * expr
  | Letrec of (string * expr) list * expr
  | Prim of Prim.t * expr list
  | Raise of expr
  | Fix of expr

and alt = { pat : pat; rhs : expr }

type ty_expr =
  | Ty_var of string
  | Ty_con of string * ty_expr list
  | Ty_fun of ty_expr * ty_expr

type data_decl = {
  type_name : string;
  type_params : string list;
  constructors : (string * ty_expr list) list;
}

(* [exception Name;] / [exception Name of Int;] / [exception Name of
   String;] — an open-vocabulary extension of the prelude's Exception
   type. The payload is restricted to Int/String so that every exception
   value can cross the language/Exn.t boundary at a [raise]. *)
type exn_decl = { exn_name : string; exn_payload : ty_expr option }

type program = {
  defs : (string * expr) list;
  datas : data_decl list;
  exns : exn_decl list;
  main : expr;
}

let equal (a : expr) (b : expr) = a = b
let compare = Stdlib.compare
let lit_equal (a : lit) (b : lit) = a = b

let rec size = function
  | Var _ | Lit _ -> 1
  | Lam (_, e) | Raise e | Fix e -> 1 + size e
  | App (e1, e2) -> 1 + size e1 + size e2
  | Con (_, es) | Prim (_, es) ->
      List.fold_left (fun acc e -> acc + size e) 1 es
  | Case (e, alts) ->
      List.fold_left (fun acc a -> acc + size a.rhs) (1 + size e) alts
  | Let (_, e1, e2) -> 1 + size e1 + size e2
  | Letrec (binds, body) ->
      List.fold_left (fun acc (_, e) -> acc + size e) (1 + size body) binds

let rec depth = function
  | Var _ | Lit _ -> 1
  | Lam (_, e) | Raise e | Fix e -> 1 + depth e
  | App (e1, e2) -> 1 + max (depth e1) (depth e2)
  | Con (_, es) | Prim (_, es) ->
      1 + List.fold_left (fun acc e -> max acc (depth e)) 0 es
  | Case (e, alts) ->
      1
      + List.fold_left (fun acc a -> max acc (depth a.rhs)) (depth e) alts
  | Let (_, e1, e2) -> 1 + max (depth e1) (depth e2)
  | Letrec (binds, body) ->
      1
      + List.fold_left (fun acc (_, e) -> max acc (depth e)) (depth body) binds

let pat_binders = function
  | Pcon (_, xs) -> xs
  | Plit _ -> []
  | Pany (Some x) -> [ x ]
  | Pany None -> []

let c_true = "True"
let c_false = "False"
let c_nil = "Nil"
let c_cons = "Cons"
let c_unit = "Unit"
let c_pair = "Pair"
let c_ok = "OK"
let c_bad = "Bad"
let c_just = "Just"
let c_nothing = "Nothing"
let c_return = "Return"
let c_bind = "Bind"
let c_get_char = "GetChar"
let c_put_char = "PutChar"
let c_get_exception = "GetException"
let c_bracket = "Bracket"
let c_on_exception = "OnException"
let c_mask = "Mask"
let c_unmask = "Unmask"
let c_timeout = "WithTimeout"
let c_retry = "Retry"
let c_evaluate = "Evaluate"

let is_io_constructor c =
  List.mem c
    [
      c_return;
      c_bind;
      c_get_char;
      c_put_char;
      c_get_exception;
      c_bracket;
      c_on_exception;
      c_mask;
      c_unmask;
      c_timeout;
      c_retry;
    ]

(* Every performable IO action, including the concurrency extension —
   but not the value wrappers MVarRef/ThreadId. The IO drivers use this
   to recognise [getException <io action>] (perform-under-a-catch). *)
let is_io_action_constructor c =
  is_io_constructor c
  || List.mem c
       [
         "Fork";
         "NewMVar";
         "TakeMVar";
         "PutMVar";
         "MyThreadId";
         "ThrowTo";
         "NewChan";
         "ReadChan";
         "WriteChan";
         c_evaluate;
       ]

let spine e =
  let rec go args = function App (f, a) -> go (a :: args) f | f -> (f, args) in
  go [] e

let rec uncurry = function
  | Lam (x, body) ->
      let xs, inner = uncurry body in
      (x :: xs, inner)
  | e -> ([], e)

let list_expr es =
  List.fold_right (fun e acc -> Con (c_cons, [ e; acc ])) es (Con (c_nil, []))

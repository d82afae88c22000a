open Lang.Syntax
module Exn = Lang.Exn
module Env_map = Map.Make (String)

type policy = Left_to_right | Right_to_left | Random of int

type outcome =
  | Value of Sem_value.deep
  | Raised of Lang.Exn.t
  | Diverged

exception Raise_exn of Exn.t
exception Diverge

(* A simple deterministic LCG; each dynamic choice point draws one bit. *)
type rng = { mutable state : int64 }

let rng_bool r =
  r.state <-
    Int64.add (Int64.mul r.state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical r.state 62) land 1 = 0

type fvalue =
  | FInt of int
  | FChar of char
  | FString of string
  | FCon of string * fthunk list
  | FFun of (fthunk -> fvalue)

and fthunk = { mutable st : fstate }

and fstate =
  | Forced of fvalue
  | Delayed of (unit -> fvalue)
  | Busy
  | Failed of Exn.t
      (** A thunk whose evaluation raised: re-forcing re-raises the same
          exception (the "overwrite with raise ex" of Section 3.3). *)

type ctx = {
  mutable fuel : int;
  int_bits : int;
  left_first : unit -> bool;
}

let delay f = { st = Delayed f }
let from_value v = { st = Forced v }

let force t =
  match t.st with
  | Forced v -> v
  | Failed e -> raise (Raise_exn e)
  | Busy -> raise Diverge
  | Delayed f -> (
      t.st <- Busy;
      match f () with
      | v ->
          t.st <- Forced v;
          v
      | exception Raise_exn e ->
          t.st <- Failed e;
          raise (Raise_exn e)
      | exception Stack_overflow -> raise Diverge)

let type_error msg = raise (Raise_exn (Exn.Type_error msg))

let arith_result ctx n =
  let bound = 1 lsl (ctx.int_bits - 1) in
  if n >= -bound && n < bound then FInt n else raise (Raise_exn Exn.Overflow)

let fbool b = FCon ((if b then c_true else c_false), [])

let rec eval ctx env (e : expr) : fvalue =
  if ctx.fuel <= 0 then raise Diverge;
  ctx.fuel <- ctx.fuel - 1;
  match e with
  | Var x -> (
      match Env_map.find_opt x env with
      | Some t -> force t
      | None -> type_error (Printf.sprintf "unbound variable %s" x))
  | Lit (Lit_int n) -> FInt n
  | Lit (Lit_char c) -> FChar c
  | Lit (Lit_string s) -> FString s
  | Lam (x, body) -> FFun (fun t -> eval ctx (Env_map.add x t env) body)
  | App (e1, e2) -> (
      let arg = delay (fun () -> eval ctx env e2) in
      match eval ctx env e1 with
      | FFun g -> g arg
      | _ -> type_error "application of a non-function")
  | Con (c, [ e1 ]) when String.equal c c_get_exception ->
      (* The *pure* getException of the rejected designs: catch right
         here, deterministically under a fixed order, observably
         non-deterministically under [Random]. *)
      let t = delay (fun () -> eval ctx env e1) in
      (try FCon (c_ok, [ from_value (force t) ])
       with Raise_exn exn ->
         FCon (c_bad, [ from_value (exn_to_fvalue exn) ]))
  | Con (c, es) ->
      FCon (c, List.map (fun e -> delay (fun () -> eval ctx env e)) es)
  | Let (x, e1, e2) ->
      let t = delay (fun () -> eval ctx env e1) in
      eval ctx (Env_map.add x t env) e2
  | Letrec (binds, body) ->
      let env_cell = ref env in
      let env' =
        List.fold_left
          (fun acc (x, e1) ->
            Env_map.add x (delay (fun () -> eval ctx !env_cell e1)) acc)
          env binds
      in
      env_cell := env';
      eval ctx env' body
  | Fix e1 -> (
      match eval ctx env e1 with
      | FFun g ->
          let rec t = { st = Delayed (fun () -> g t) } in
          force t
      | _ -> type_error "fix of a non-function")
  | Raise e1 -> raise (Raise_exn (exn_of_fvalue (eval ctx env e1)))
  | Prim (p, args) -> eval_prim ctx env p args
  | Case (scrut, alts) -> (
      let v = eval ctx env scrut in
      match select_alt v alts with
      | Some (binds, rhs) ->
          let env' =
            List.fold_left
              (fun acc (x, t) -> Env_map.add x t acc)
              env binds
          in
          eval ctx env' rhs
      | None -> raise (Raise_exn (Exn.Pattern_match_fail "case")))

and select_alt v alts =
  let matches a =
    match (a.pat, v) with
    | Pcon (c, xs), FCon (c', ts)
      when String.equal c c' && List.length xs = List.length ts ->
        Some (List.combine xs ts, a.rhs)
    | Plit (Lit_int n), FInt m when n = m -> Some ([], a.rhs)
    | Plit (Lit_char c), FChar c' when c = c' -> Some ([], a.rhs)
    | Plit (Lit_string s), FString s' when String.equal s s' ->
        Some ([], a.rhs)
    | Pany None, _ -> Some ([], a.rhs)
    | Pany (Some x), _ -> Some ([ (x, from_value v) ], a.rhs)
    | (Pcon _ | Plit _), _ -> None
  in
  List.find_map matches alts

and exn_to_fvalue (e : Exn.t) : fvalue =
  let name = Exn.constructor_name e in
  match Exn.payload e with
  | Some (Exn.P_string s) -> FCon (name, [ from_value (FString s) ])
  | Some (Exn.P_int n) -> FCon (name, [ from_value (FInt n) ])
  | None -> FCon (name, [])

and exn_of_fvalue (v : fvalue) : Exn.t =
  match v with
  | FCon (name, args) -> (
      let payload =
        match args with
        | [] -> None
        | [ t ] -> (
            match force t with
            | FString s -> Some (Exn.P_string s)
            | FInt n -> Some (Exn.P_int n)
            | _ -> type_error "exception payload is not a string")
        | _ -> type_error "exception constructor arity"
      in
      match Exn.of_constructor_p name payload with
      | Some e -> e
      | None -> type_error (name ^ " is not an exception constructor"))
  | _ -> type_error "raise: not an exception"

(* Evaluate [a] and [b] in the policy's order and hand both values to
   [k]. The *only* semantic effect of the order is which exception
   surfaces first. *)
and ordered2 ctx env a b k =
  if ctx.left_first () then
    let va = eval ctx env a in
    let vb = eval ctx env b in
    k va vb
  else
    let vb = eval ctx env b in
    let va = eval ctx env a in
    k va vb

and eval_prim ctx env (p : Lang.Prim.t) (args : expr list) : fvalue =
  let module P = Lang.Prim in
  let int2 k =
    match args with
    | [ a; b ] ->
        ordered2 ctx env a b (fun va vb ->
            match (va, vb) with
            | FInt x, FInt y -> k x y
            | _ -> type_error (P.name p ^ ": expected integers"))
    | _ -> type_error (P.name p ^ ": arity")
  in
  let cmp k =
    match args with
    | [ a; b ] ->
        ordered2 ctx env a b (fun va vb ->
            match (va, vb) with
            | FInt x, FInt y -> fbool (k (Stdlib.compare x y))
            | FChar x, FChar y -> fbool (k (Stdlib.compare x y))
            | FString x, FString y -> fbool (k (String.compare x y))
            | FCon (x, []), FCon (y, []) -> fbool (k (String.compare x y))
            | _ -> type_error (P.name p ^ ": uncomparable values"))
    | _ -> type_error (P.name p ^ ": arity")
  in
  match (p, args) with
  | P.Add, _ -> int2 (fun a b -> arith_result ctx (a + b))
  | P.Sub, _ -> int2 (fun a b -> arith_result ctx (a - b))
  | P.Mul, _ -> int2 (fun a b -> arith_result ctx (a * b))
  | P.Div, _ ->
      int2 (fun a b ->
          if b = 0 then raise (Raise_exn Exn.Divide_by_zero)
          else arith_result ctx (a / b))
  | P.Mod, _ ->
      int2 (fun a b ->
          if b = 0 then raise (Raise_exn Exn.Divide_by_zero)
          else arith_result ctx (a mod b))
  | P.Neg, [ e1 ] -> (
      match eval ctx env e1 with
      | FInt a -> arith_result ctx (-a)
      | _ -> type_error "negate: expected an integer")
  | P.Eq, _ -> cmp (fun c -> c = 0)
  | P.Ne, _ -> cmp (fun c -> c <> 0)
  | P.Lt, _ -> cmp (fun c -> c < 0)
  | P.Le, _ -> cmp (fun c -> c <= 0)
  | P.Gt, _ -> cmp (fun c -> c > 0)
  | P.Ge, _ -> cmp (fun c -> c >= 0)
  | P.Seq, [ a; b ] ->
      let _ = eval ctx env a in
      eval ctx env b
  | P.Map_exception, [ ef; ev ] -> (
      (* Precise semantics: one exception; map the function over it. *)
      let fv = eval ctx env ef in
      match eval ctx env ev with
      | v -> v
      | exception Raise_exn e -> (
          match fv with
          | FFun g ->
              raise
                (Raise_exn (exn_of_fvalue (g (from_value (exn_to_fvalue e)))))
          | _ -> type_error "application of a non-function"))
  | P.Unsafe_is_exception, [ e1 ] -> (
      try
        let _ = eval ctx env e1 in
        fbool false
      with Raise_exn _ -> fbool true)
  | P.Unsafe_get_exception, [ e1 ] -> (
      let t = delay (fun () -> eval ctx env e1) in
      try FCon (c_ok, [ from_value (force t) ])
      with Raise_exn exn -> FCon (c_bad, [ from_value (exn_to_fvalue exn) ]))
  | P.Chr, [ e1 ] -> (
      match eval ctx env e1 with
      | FInt a when a >= 0 && a < 256 -> FChar (Char.chr a)
      | FInt _ -> type_error "chr: out of range"
      | _ -> type_error "chr: expected an integer")
  | P.Ord, [ e1 ] -> (
      match eval ctx env e1 with
      | FChar c -> FInt (Char.code c)
      | _ -> type_error "ord: expected a character")
  | _, _ -> type_error (P.name p ^ ": arity")

let make_ctx ?(fuel = 200_000) ?(int_bits = 32) policy =
  let left_first =
    match policy with
    | Left_to_right -> fun () -> true
    | Right_to_left -> fun () -> false
    | Random seed ->
        let r = { state = Int64.of_int (seed lxor 0x9e3779b9) } in
        fun () -> rng_bool r
  in
  { fuel; int_bits; left_first }

(* [open Sem_value] shadows the fthunk [force] above; keep an alias. *)
let force_f = force

open Sem_value

let rec deep_of_fvalue ctx depth (v : fvalue) : deep =
  if depth <= 0 then DCut
  else
    match v with
    | FInt n -> DInt n
    | FChar c -> DChar c
    | FString s -> DString s
    | FFun _ -> DFun
    | FCon (c, args) ->
        DCon
          ( c,
            List.map
              (fun t ->
                match force_f t with
                | v' -> deep_of_fvalue ctx (depth - 1) v'
                | exception Raise_exn e -> DBad (Exn_set.singleton e)
                | exception Diverge -> DBad Exn_set.bottom)
              args )

let run ?fuel ?int_bits policy e =
  let ctx = make_ctx ?fuel ?int_bits policy in
  match eval ctx Env_map.empty e with
  | v -> Value (deep_of_fvalue ctx 1 v)
  | exception Raise_exn exn -> Raised exn
  | exception Diverge -> Diverged
  | exception Stack_overflow -> Diverged

(* Unlike [deep_of_fvalue], let exceptions escape: precise semantics
   reports the first exception encountered in evaluation order. *)
let rec deep_of_fvalue_strict ctx depth (v : fvalue) : deep =
  if depth <= 0 then DCut
  else
    match v with
    | FInt n -> DInt n
    | FChar c -> DChar c
    | FString s -> DString s
    | FFun _ -> DFun
    | FCon (c, args) ->
        DCon
          ( c,
            List.map
              (fun t -> deep_of_fvalue_strict ctx (depth - 1) (force_f t))
              args )

let run_deep ?fuel ?int_bits ?(depth = 64) policy e =
  let ctx = make_ctx ?fuel ?int_bits policy in
  match eval ctx Env_map.empty e with
  | v -> (
      (* Deep forcing continues under the same fuel budget; the first
         exception met during the walk is the program's exception. *)
      try Value (deep_of_fvalue_strict ctx depth v)
      with
      | Raise_exn exn -> Raised exn
      | Diverge -> Diverged)
  | exception Raise_exn exn -> Raised exn
  | exception Diverge -> Diverged
  | exception Stack_overflow -> Diverged

let outcome_to_deep = function
  | Value d -> d
  | Raised e -> DBad (Exn_set.singleton e)
  | Diverged -> DBad Exn_set.bottom

let pp_outcome ppf = function
  | Value d -> Fmt.pf ppf "Value %a" pp_deep d
  | Raised e -> Fmt.pf ppf "Raised %a" Exn.pp e
  | Diverged -> Fmt.string ppf "Diverged"

let outcome_equal a b =
  match (a, b) with
  | Value d1, Value d2 -> deep_equal d1 d2
  | Raised e1, Raised e2 -> Exn.equal e1 e2
  | Diverged, Diverged -> true
  | (Value _ | Raised _ | Diverged), (Value _ | Raised _ | Diverged) -> false

let outcomes ?fuel ?depth ~seeds e =
  let results = List.map (fun s -> run_deep ?fuel ?depth (Random s) e) seeds in
  List.fold_left
    (fun acc o -> if List.exists (outcome_equal o) acc then acc else o :: acc)
    [] results
  |> List.rev

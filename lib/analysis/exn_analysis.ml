open Lang.Syntax
module Exn = Lang.Exn
module Env = Map.Make (String)

type t = {
  may_raise : Exn.Set.t;
  may_diverge : bool;
  unknown : bool;
}

let pure t =
  (not t.unknown) && (not t.may_diverge) && Exn.Set.is_empty t.may_raise

let none = { may_raise = Exn.Set.empty; may_diverge = false; unknown = false }
let top = { may_raise = Exn.Set.empty; may_diverge = true; unknown = true }
let raises e = { none with may_raise = Exn.Set.singleton e }

let join a b =
  {
    may_raise = Exn.Set.union a.may_raise b.may_raise;
    may_diverge = a.may_diverge || b.may_diverge;
    unknown = a.unknown || b.unknown;
  }

(* What a binder is known to be: a lambda with a latent effect (charged at
   application sites), or a plain computation whose effect is charged when
   the variable is demanded. *)
type binding = B_fun of t | B_val of t

(* Canonicalise a source-level exception constructor expression to a
   constant, when it is literal. *)
let literal_exn = function
  | Con (name, []) -> Exn.of_constructor name None
  | Con (name, [ Lit (Lit_string s) ]) -> Exn.of_constructor name (Some s)
  | Con (name, [ Lit (Lit_int n) ]) ->
      Exn.of_constructor_p name (Some (Exn.P_int n))
  | _ -> None

(* Effect of demanding [e] to WHNF under [env]. *)
let rec effect (env : binding Env.t) (e : expr) : t =
  match e with
  | Lit _ | Lam _ -> none
  | Con (_, _) -> none
  | Var x -> (
      match Env.find_opt x env with
      | Some (B_val t) -> t
      | Some (B_fun _) -> none (* the function value itself is WHNF *)
      | None -> top)
  | App _ -> (
      let head, args = spine e in
      (* Arguments may all be demanded by a strict callee; charge them. *)
      let args_eff =
        List.fold_left (fun acc a -> join acc (effect env a)) none args
      in
      match head with
      | Var f -> (
          match Env.find_opt f env with
          | Some (B_fun latent) -> join latent args_eff
          | Some (B_val _) | None -> top)
      | Lam _ ->
          let params, body = uncurry head in
          if List.length args <= List.length params then
            (* Approximate beta: bind arguments as unknown-value effects
               of the actual arguments. *)
            let env' =
              List.fold_left2
                (fun acc x a -> Env.add x (B_val (effect env a)) acc)
                env
                (List.filteri (fun i _ -> i < List.length args) params)
                args
            in
            join args_eff (effect env' body)
          else top
      | _ -> top)
  | Raise e1 -> (
      match literal_exn e1 with
      | Some exn -> raises exn
      | None -> join top (effect env e1))
  | Prim (p, args) -> (
      let module P = Lang.Prim in
      let args_eff =
        List.fold_left (fun acc a -> join acc (effect env a)) none args
      in
      match p with
      | P.Div | P.Mod ->
          join args_eff
            (join (raises Exn.Divide_by_zero) (raises Exn.Overflow))
      | P.Add | P.Sub | P.Mul | P.Neg -> join args_eff (raises Exn.Overflow)
      | P.Eq | P.Ne | P.Lt | P.Le | P.Gt | P.Ge | P.Seq | P.Chr | P.Ord ->
          args_eff
      | P.Map_exception ->
          (* mapException can rewrite exceptions arbitrarily. *)
          join args_eff top
      | P.Unsafe_is_exception | P.Unsafe_get_exception ->
          (* These catch: exceptions are swallowed, divergence is not. *)
          { args_eff with may_raise = Lang.Exn.Set.empty })
  | Case (scrut, alts) ->
      let scrut_eff = effect env scrut in
      let alt_eff a =
        let env' =
          List.fold_left
            (fun acc x -> Env.add x (B_val top) acc)
            env (pat_binders a.pat)
        in
        effect env' a.rhs
      in
      let branches =
        List.fold_left (fun acc a -> join acc (alt_eff a)) none alts
      in
      let fallthrough =
        (* A non-exhaustive case may fail to match. *)
        match
          List.exists (fun a -> match a.pat with Pany _ -> true | _ -> false)
            alts
        with
        | true -> none
        | false -> raises (Exn.Pattern_match_fail "case")
      in
      join scrut_eff (join branches fallthrough)
  | Let (x, e1, e2) ->
      let b =
        match e1 with
        | Lam _ ->
            let _, body = uncurry e1 in
            B_fun (effect (bind_params env e1) body)
        | _ -> B_val (effect env e1)
      in
      effect (Env.add x b env) e2
  | Letrec (binds, body) ->
      (* Recursion is treated pessimistically: every recursive function may
         diverge (the paper: one can only "hope to prove that non-recursive
         programs terminate"); its latent effect is its body's effect with
         recursive calls charged as diverging. *)
      let env0 =
        List.fold_left
          (fun acc (f, rhs) ->
            match rhs with
            | Lam _ -> Env.add f (B_fun { top with unknown = false }) acc
            | _ -> Env.add f (B_val { top with unknown = false }) acc)
          env binds
      in
      let env' =
        List.fold_left
          (fun acc (f, rhs) ->
            match rhs with
            | Lam _ ->
                let _, inner = uncurry rhs in
                let latent =
                  join
                    { none with may_diverge = true }
                    (effect (bind_params env0 rhs) inner)
                in
                Env.add f (B_fun latent) acc
            | _ ->
                Env.add f
                  (B_val (join { none with may_diverge = true }
                            (effect env0 rhs)))
                  acc)
          env0 binds
      in
      effect env' body
  | Fix _ -> { top with unknown = false }

and bind_params env lam =
  let params, _ = uncurry lam in
  List.fold_left (fun acc x -> Env.add x (B_val top) acc) env params

let analyze e = effect Env.empty e

let pp ppf t =
  if t.unknown then Fmt.string ppf "unknown"
  else
    Fmt.pf ppf "{raise: %a; diverge: %b}"
      Fmt.(list ~sep:comma Exn.pp)
      (Exn.Set.elements t.may_raise)
      t.may_diverge

open Syntax

let pp_lit ppf = function
  | Lit_int n ->
      if n < 0 then Fmt.pf ppf "(negate %d)" (-n) else Fmt.int ppf n
  | Lit_char c -> Fmt.pf ppf "%C" c
  | Lit_string s -> Fmt.pf ppf "%S" s

let pp_pat ppf = function
  | Pcon (c, []) -> Fmt.string ppf c
  | Pcon (c, xs) -> Fmt.pf ppf "%s %s" c (String.concat " " xs)
  | Plit l -> pp_lit ppf l
  | Pany None -> Fmt.string ppf "_"
  | Pany (Some x) -> Fmt.string ppf x

(* Precedence levels, mirroring the parser:
   0 expr (lambda, let, case), 1 >>= , 4 comparisons, 5 cons, 6 additive,
   7 multiplicative, 10 application, 11 atom. *)

let prim_level (p : Prim.t) =
  match p with
  | Prim.Eq | Prim.Ne | Prim.Lt | Prim.Le | Prim.Gt | Prim.Ge -> Some 4
  | Prim.Add | Prim.Sub -> Some 6
  | Prim.Mul | Prim.Div | Prim.Mod -> Some 7
  | Prim.Neg | Prim.Seq | Prim.Map_exception | Prim.Unsafe_is_exception
  | Prim.Unsafe_get_exception | Prim.Chr | Prim.Ord ->
      None

(* Collect a [Cons]/[Nil] spine if the expression is a literal list. *)
let rec as_list = function
  | Con (c, []) when String.equal c c_nil -> Some []
  | Con (c, [ x; xs ]) when String.equal c c_cons ->
      Option.map (fun rest -> x :: rest) (as_list xs)
  | _ -> None

let rec pp_level lvl ppf e =
  let parens_if cond fmt =
    if cond then Fmt.pf ppf "(%a)" fmt e else fmt ppf e
  in
  match e with
  | Var x -> Fmt.string ppf x
  | Lit l -> pp_lit ppf l
  | Con (c, []) -> Fmt.string ppf c
  | Con (_, _) when Option.is_some (as_list e) ->
      let elems = Option.get (as_list e) in
      Fmt.pf ppf "[@[<hv>%a@]]" Fmt.(list ~sep:comma (pp_level 0)) elems
  | Con (c, [ a; b ]) when String.equal c c_pair ->
      Fmt.pf ppf "(@[<hv>%a,@ %a@])" (pp_level 0) a (pp_level 0) b
  | Con (c, [ a; b ]) when String.equal c c_cons ->
      parens_if (lvl > 5) (fun ppf _ ->
          Fmt.pf ppf "@[<hv>%a@ : %a@]" (pp_level 6) a (pp_level 5) b)
  | Con (c, [ a; b ]) when String.equal c c_bind ->
      parens_if (lvl > 1) (fun ppf _ ->
          Fmt.pf ppf "@[<hv>%a@ >>= %a@]" (pp_level 2) a (pp_level 2) b)
  | Con (c, args) ->
      parens_if (lvl > 10) (fun ppf _ ->
          Fmt.pf ppf "@[<hv 2>%s@ %a@]" c
            Fmt.(list ~sep:sp (pp_level 11))
            args)
  | Lam _ ->
      let xs, body = uncurry e in
      parens_if (lvl > 0) (fun ppf _ ->
          Fmt.pf ppf "@[<hv 2>\\%s ->@ %a@]" (String.concat " " xs)
            (pp_level 0) body)
  | App _ ->
      let head, args = spine e in
      (* A nullary-constructor head must be parenthesised: [Nil x] would
         re-parse as an over-applied constructor, not an application of
         the constructor value. *)
      let pp_head ppf h =
        match h with
        | Con (_, []) -> Fmt.pf ppf "(%a)" (pp_level 0) h
        | _ -> pp_level 11 ppf h
      in
      parens_if (lvl > 10) (fun ppf _ ->
          Fmt.pf ppf "@[<hv 2>%a@ %a@]" pp_head head
            Fmt.(list ~sep:sp (pp_level 11))
            args)
  | Prim (p, [ a; b ]) when Option.is_some (prim_level p) ->
      let pl = Option.get (prim_level p) in
      parens_if (lvl > pl) (fun ppf _ ->
          Fmt.pf ppf "@[<hv>%a@ %s %a@]" (pp_level (pl + 1)) a (Prim.name p)
            (pp_level (pl + 1))
            b)
  | Prim (p, args) ->
      parens_if (lvl > 10 && args <> []) (fun ppf _ ->
          if args = [] then Fmt.string ppf (Prim.name p)
          else
            Fmt.pf ppf "@[<hv 2>%s@ %a@]" (Prim.name p)
              Fmt.(list ~sep:sp (pp_level 11))
              args)
  | Raise e1 ->
      parens_if (lvl > 10) (fun ppf _ ->
          Fmt.pf ppf "@[<hv 2>raise@ %a@]" (pp_level 11) e1)
  | Fix e1 ->
      parens_if (lvl > 10) (fun ppf _ ->
          Fmt.pf ppf "@[<hv 2>fix@ %a@]" (pp_level 11) e1)
  | Let (x, e1, e2) ->
      parens_if (lvl > 0) (fun ppf _ ->
          Fmt.pf ppf "@[<hv>let %s =@;<1 2>@[%a@] in@ %a@]" x (pp_level 0) e1
            (pp_level 0) e2)
  | Letrec (binds, body) ->
      parens_if (lvl > 0) (fun ppf _ ->
          let pp_bind ppf (x, e1) =
            Fmt.pf ppf "%s =@;<1 2>@[%a@]" x (pp_level 0) e1
          in
          Fmt.pf ppf "@[<hv>let rec %a in@ %a@]"
            Fmt.(list ~sep:(any "@ and ") pp_bind)
            binds (pp_level 0) body)
  | Case (scrut, alts) ->
      parens_if (lvl > 0) (fun ppf _ ->
          let pp_alt ppf a =
            Fmt.pf ppf "@[<hv 2>%a ->@ %a@]" pp_pat a.pat (pp_level 0) a.rhs
          in
          Fmt.pf ppf "@[<hv>case %a of@ {@[<hv 1> %a @]}@]" (pp_level 0) scrut
            Fmt.(list ~sep:(any ";@ ") pp_alt)
            alts)

let pp_expr ppf e = pp_level 0 ppf e

let pp_ty ppf ty =
  let rec go lvl ppf = function
    | Ty_var v -> Fmt.string ppf v
    | Ty_con (c, []) -> Fmt.string ppf c
    | Ty_con ("List", [ t ]) -> Fmt.pf ppf "[%a]" (go 0) t
    | Ty_con ("Pair", [ a; b ]) ->
        Fmt.pf ppf "(%a, %a)" (go 0) a (go 0) b
    | Ty_con (c, args) ->
        if lvl > 1 then
          Fmt.pf ppf "(%s %a)" c Fmt.(list ~sep:sp (go 2)) args
        else Fmt.pf ppf "%s %a" c Fmt.(list ~sep:sp (go 2)) args
    | Ty_fun (a, b) ->
        if lvl > 0 then Fmt.pf ppf "(%a -> %a)" (go 1) a (go 0) b
        else Fmt.pf ppf "%a -> %a" (go 1) a (go 0) b
  in
  go 0 ppf ty

let pp_data ppf (d : data_decl) =
  let pp_con ppf (c, fields) =
    if fields = [] then Fmt.string ppf c
    else
      Fmt.pf ppf "%s %a" c
        Fmt.(list ~sep:sp (fun ppf t -> pp_ty ppf t))
        fields
  in
  Fmt.pf ppf "@[<hv 2>data %s%s =@ %a;@]" d.type_name
    (match d.type_params with
    | [] -> ""
    | ps -> " " ^ String.concat " " ps)
    Fmt.(list ~sep:(any "@ | ") pp_con)
    d.constructors

let pp_exn_decl ppf (d : exn_decl) =
  match d.exn_payload with
  | None -> Fmt.pf ppf "exception %s;" d.exn_name
  | Some t -> Fmt.pf ppf "exception %s of %a;" d.exn_name pp_ty t

let pp_program ppf ({ defs; datas; exns; main = _ } : program) =
  let pp_def ppf (name, e) =
    (* Re-sugar leading lambdas into parameters. *)
    let rec collect acc = function
      | Lam (x, body) -> collect (x :: acc) body
      | body -> (List.rev acc, body)
    in
    let ps, body = collect [] e in
    if ps = [] then Fmt.pf ppf "@[<hv 2>%s =@ %a;@]" name pp_expr body
    else
      Fmt.pf ppf "@[<hv 2>%s %s =@ %a;@]" name (String.concat " " ps) pp_expr
        body
  in
  (match exns with
  | [] -> ()
  | _ ->
      Fmt.pf ppf "@[<v>%a@]@,@,"
        Fmt.(list ~sep:(any "@,@,") pp_exn_decl)
        exns);
  (match datas with
  | [] -> ()
  | _ ->
      Fmt.pf ppf "@[<v>%a@]@,@," Fmt.(list ~sep:(any "@,@,") pp_data) datas);
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@,@,") pp_def) defs

let expr_to_string e = Fmt.str "%a" pp_expr e

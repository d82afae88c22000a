open Lang.Syntax

type occurrence = Dead | Once | Once_under_lambda | Many

(* Count uses of [x], tracking whether we are under a lambda. Shadowing
   stops the count. *)
let analyze (x : string) (e : expr) : int * bool =
  let total = ref 0 in
  let under = ref false in
  let rec go in_lam e =
    match e with
    | Var y ->
        if String.equal y x then begin
          incr total;
          if in_lam then under := true
        end
    | Lit _ -> ()
    | Lam (y, body) -> if not (String.equal y x) then go true body
    | App (a, b) ->
        go in_lam a;
        go in_lam b
    | Con (_, es) | Prim (_, es) -> List.iter (go in_lam) es
    | Raise e1 | Fix e1 -> go in_lam e1
    | Case (scrut, alts) ->
        go in_lam scrut;
        List.iter
          (fun a ->
            if not (List.mem x (pat_binders a.pat)) then go in_lam a.rhs)
          alts
    | Let (y, e1, e2) ->
        go in_lam e1;
        if not (String.equal y x) then go in_lam e2
    | Letrec (binds, body) ->
        if not (List.mem_assoc x binds) then begin
          List.iter (fun (_, e1) -> go in_lam e1) binds;
          go in_lam body
        end
  in
  go false e;
  (!total, !under)

let of_binding x e =
  match analyze x e with
  | 0, _ -> Dead
  | 1, false -> Once
  | 1, true -> Once_under_lambda
  | _ -> Many

let reachable_bindings (binds : (string * expr) list) (body : expr) :
    (string * expr) list =
  let module SS = Lang.Subst.String_set in
  let bound = SS.of_list (List.map fst binds) in
  let needed_by e = SS.inter (Lang.Subst.free_vars e) bound in
  let rec grow live =
    let live' =
      List.fold_left
        (fun acc (x, rhs) ->
          if SS.mem x acc then SS.union acc (needed_by rhs) else acc)
        live binds
    in
    if SS.equal live live' then live else grow live'
  in
  let live = grow (needed_by body) in
  List.filter (fun (x, _) -> SS.mem x live) binds

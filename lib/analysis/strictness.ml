open Lang.Syntax
module String_set = Lang.Subst.String_set
module Sig_map = Map.Make (String)

type signature = bool list
type sigs = signature Sig_map.t

let empty_sigs = Sig_map.empty
let find_sig sigs f = Sig_map.find_opt f sigs
let sigs_to_list sigs = Sig_map.bindings sigs

(* Variables certainly demanded when [e] is demanded to WHNF, given
   function signatures. *)
let rec demanded_in (sigs : sigs) (e : expr) : String_set.t =
  match e with
  | Var x -> String_set.singleton x
  | Lit _ | Lam _ | Con _ -> String_set.empty
  | App _ -> (
      let head, args = spine e in
      match head with
      | Var f -> (
          let base = String_set.singleton f in
          match Sig_map.find_opt f sigs with
          | Some sg when List.length args = List.length sg ->
              (* Fully applied known function: strict positions are
                 demanded. *)
              List.fold_left2
                (fun acc strict a ->
                  if strict then String_set.union acc (demanded_in sigs a)
                  else acc)
                base sg args
          | Some _ | None -> base)
      | _ -> demanded_in sigs head)
  | Case (scrut, alts) ->
      let scrut_d = demanded_in sigs scrut in
      let branch_d =
        match alts with
        | [] -> String_set.empty
        | a0 :: rest ->
            let alt_d a =
              String_set.diff (demanded_in sigs a.rhs)
                (String_set.of_list (pat_binders a.pat))
            in
            List.fold_left
              (fun acc a -> String_set.inter acc (alt_d a))
              (alt_d a0) rest
      in
      String_set.union scrut_d branch_d
  | Let (x, e1, e2) ->
      let d2 = demanded_in sigs e2 in
      let d2' = String_set.remove x d2 in
      if String_set.mem x d2 then String_set.union d2' (demanded_in sigs e1)
      else d2'
  | Letrec (binds, body) ->
      let bound = String_set.of_list (List.map fst binds) in
      (* Conservative: do not chase demand through the recursive knot. *)
      String_set.diff (demanded_in sigs body) bound
  | Prim (p, args) -> (
      let module P = Lang.Prim in
      match (p, args) with
      | P.Map_exception, _ ->
          (* [mapException f v] does force [v], but it rewrites the
             exceptions [v] surfaces — so a variable demanded only
             through it is NOT safe to force early: the consumers of
             this analysis (let-to-case, seq insertion) would surface
             the un-mapped exception. Report no demand through it. *)
          String_set.empty
      | _, args ->
          List.fold_left
            (fun acc a -> String_set.union acc (demanded_in sigs a))
            String_set.empty args)
  | Raise e1 -> demanded_in sigs e1
  | Fix e1 -> demanded_in sigs e1

(* One round of signature refinement for a letrec group. *)
let refine_group (sigs : sigs) (binds : (string * expr) list) : sigs =
  List.fold_left
    (fun acc (f, rhs) ->
      let params, body = uncurry rhs in
      if params = [] then acc
      else
        let d = demanded_in sigs body in
        let sg = List.map (fun x -> String_set.mem x d) params in
        Sig_map.add f sg acc)
    sigs binds

let analyze (e : expr) : sigs =
  (* Collect every letrec group in the term. *)
  let groups = ref [] in
  let rec collect e =
    (match e with
    | Letrec (binds, _) -> groups := binds :: !groups
    | _ -> ());
    match e with
    | Var _ | Lit _ -> ()
    | Lam (_, b) | Raise b | Fix b -> collect b
    | App (a, b) | Let (_, a, b) ->
        collect a;
        collect b
    | Con (_, es) | Prim (_, es) -> List.iter collect es
    | Case (s, alts) ->
        collect s;
        List.iter (fun a -> collect a.rhs) alts
    | Letrec (binds, body) ->
        List.iter (fun (_, rhs) -> collect rhs) binds;
        collect body
  in
  collect e;
  (* Start from the all-strict top element and iterate downwards to the
     greatest fixpoint. *)
  let init =
    List.fold_left
      (fun acc binds ->
        List.fold_left
          (fun acc (f, rhs) ->
            let params, _ = uncurry rhs in
            if params = [] then acc
            else Sig_map.add f (List.map (fun _ -> true) params) acc)
          acc binds)
      Sig_map.empty !groups
  in
  let step sigs =
    List.fold_left (fun acc binds -> refine_group acc binds) sigs !groups
  in
  let rec fixpoint sigs n =
    if n > 20 then sigs
    else
      let sigs' = step sigs in
      if Sig_map.equal (List.equal Bool.equal) sigs sigs' then sigs
      else fixpoint sigs' (n + 1)
  in
  fixpoint init 0

let demanded = demanded_in

let strict_args_of_app sigs e =
  let head, args = spine e in
  match head with
  | Var f -> (
      match Sig_map.find_opt f sigs with
      | Some sg when List.length args = List.length sg -> sg
      | Some _ | None -> [])
  | _ -> []

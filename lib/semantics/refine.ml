open Sem_value

let rec implements_deep (impl : deep) (den : deep) : bool =
  match (den, impl) with
  | DBad s, _ when Exn_set.is_all s -> true
  | DCut, _ | _, DCut -> true
  | DBad s_d, DBad s_i -> (
      (* The implementation reports one representative (or diverged). *)
      match Exn_set.elements s_i with
      | Some [ e ] -> Exn_set.mem e s_d
      | Some _ | None -> Exn_set.leq s_i s_d)
  | DInt a, DInt b -> a = b
  | DChar a, DChar b -> a = b
  | DString a, DString b -> String.equal a b
  | DFun, DFun -> true
  | DCon (c1, ds), DCon (c2, is) ->
      String.equal c1 c2
      && List.length ds = List.length is
      && List.for_all2 (fun d i -> implements_deep i d) ds is
  | ((DInt _ | DChar _ | DString _ | DFun | DCon _ | DBad _), _) -> false

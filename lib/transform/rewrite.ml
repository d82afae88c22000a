open Lang.Syntax

(* [map_children] preserves physical identity: an untouched node (no
   child changed) is returned as-is, not rebuilt. Downstream consumers
   lean on this — the pipeline's no-op detection starts with a pointer
   comparison, which only hits if rewriting shares what it does not
   change. *)
let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

let map_children f e =
  match e with
  | Var _ | Lit _ -> e
  | Lam (x, b) ->
      let b' = f b in
      if b' == b then e else Lam (x, b')
  | App (e1, e2) ->
      let e1' = f e1 and e2' = f e2 in
      if e1' == e1 && e2' == e2 then e else App (e1', e2')
  | Con (c, es) ->
      let es' = map_sharing f es in
      if es' == es then e else Con (c, es')
  | Case (s, alts) ->
      let s' = f s
      and alts' =
        map_sharing
          (fun a ->
            let rhs' = f a.rhs in
            if rhs' == a.rhs then a else { a with rhs = rhs' })
          alts
      in
      if s' == s && alts' == alts then e else Case (s', alts')
  | Let (x, e1, e2) ->
      let e1' = f e1 and e2' = f e2 in
      if e1' == e1 && e2' == e2 then e else Let (x, e1', e2')
  | Letrec (binds, body) ->
      let binds' =
        map_sharing
          (fun ((x, e1) as b) ->
            let e1' = f e1 in
            if e1' == e1 then b else (x, e1'))
          binds
      and body' = f body in
      if binds' == binds && body' == body then e else Letrec (binds', body')
  | Prim (p, es) ->
      let es' = map_sharing f es in
      if es' == es then e else Prim (p, es')
  | Raise b ->
      let b' = f b in
      if b' == b then e else Raise b'
  | Fix b ->
      let b' = f b in
      if b' == b then e else Fix b'

let bottom_up rule e =
  let count = ref 0 in
  let rec go e =
    let e' = map_children go e in
    match rule e' with
    | Some e'' ->
        incr count;
        e''
    | None -> e'
  in
  let e' = go e in
  (e', !count)

let fixpoint ?(max_rounds = 10) rule e =
  let rec go e total n =
    if n >= max_rounds then (e, total)
    else
      let e', c = bottom_up rule e in
      if c = 0 then (e', total) else go e' (total + c) (n + 1)
  in
  go e 0 0

let first_site rule e =
  let fired = ref false in
  let rec go e =
    if !fired then e
    else
      match rule e with
      | Some e' ->
          fired := true;
          e'
      | None -> map_children go e
  in
  let e' = go e in
  if !fired then Some e' else None

let rec subterms e =
  let children =
    match e with
    | Var _ | Lit _ -> []
    | Lam (_, b) | Raise b | Fix b -> [ b ]
    | App (a, b) | Let (_, a, b) -> [ a; b ]
    | Con (_, es) | Prim (_, es) -> es
    | Case (s, alts) -> s :: List.map (fun a -> a.rhs) alts
    | Letrec (binds, body) -> List.map snd binds @ [ body ]
  in
  e :: List.concat_map subterms children

let count_nodes = size

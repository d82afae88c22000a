module Exn = Lang.Exn

type whnf = Ok_v of value | Bad of Exn_set.t

and value =
  | VInt of int
  | VChar of char
  | VString of string
  | VCon of string * thunk list
  | VFun of (thunk -> whnf)

and thunk = { mutable state : state }
and state = Forced of whnf | Delayed of (unit -> whnf) | Busy

let delay f = { state = Delayed f }

let delay_self f =
  let rec t = { state = Delayed (fun () -> f t) } in
  t
let from_whnf w = { state = Forced w }

let force t =
  match t.state with
  | Forced w -> w
  | Busy ->
      (* A cyclic demand: the thunk's value depends on itself strictly,
         i.e. a black hole. Denotationally this is bottom = Bad All. We do
         not memoize Bad All here: an enclosing [Fix] unrolling may still
         complete and overwrite the state with the real value. *)
      Bad Exn_set.bottom
  | Delayed f ->
      t.state <- Busy;
      let w = try f () with Stack_overflow -> Bad Exn_set.bottom in
      t.state <- Forced w;
      w

let s_of = function Ok_v _ -> Exn_set.empty | Bad s -> s

let bad_all = Bad Exn_set.bottom
let bad e = Bad (Exn_set.singleton e)
let bad_empty = Bad Exn_set.empty

(* Shared provenance registry for the denotational layer: every labelled
   raise site deposits the origin of its exception here, keyed by the
   exception constant (most recent raise wins), so [getException]'s
   chosen member can be printed with where it came from. Denotational
   evaluation has no step counter or stack depth, so origins carry the
   label only. *)
let provenance : Obs.provenance = Obs.new_provenance ()

let bad_at ~label e =
  Obs.set_origin provenance e (Obs.origin ~label ~depth:0 ~step:0);
  Bad (Exn_set.singleton e)

let pp_exn_with_origin ppf e = Obs.pp_exn_with provenance ppf e
let vcon0 c = Ok_v (VCon (c, []))

let vbool b = vcon0 (if b then Lang.Syntax.c_true else Lang.Syntax.c_false)

let exn_to_value (e : Exn.t) =
  let name = Exn.constructor_name e in
  match Exn.payload e with
  | Some (Exn.P_string s) ->
      Ok_v (VCon (name, [ from_whnf (Ok_v (VString s)) ]))
  | Some (Exn.P_int n) -> Ok_v (VCon (name, [ from_whnf (Ok_v (VInt n)) ]))
  | None -> vcon0 name

let exn_of_whnf (w : whnf) : (Exn.t, whnf) result =
  match w with
  | Bad _ -> Error w
  | Ok_v (VCon (name, args)) -> (
      let payload =
        match args with
        | [] -> Ok None
        | [ t ] -> (
            match force t with
            | Ok_v (VString s) -> Ok (Some (Exn.P_string s))
            | Ok_v (VInt n) -> Ok (Some (Exn.P_int n))
            | Ok_v _ ->
                Result.Error
                  (Bad
                     (Exn_set.singleton
                        (Exn.Type_error "exception payload is not a string")))
            | Bad _ as b -> Result.Error b)
        | _ :: _ :: _ ->
            Result.Error
              (Bad
                 (Exn_set.singleton
                    (Exn.Type_error "exception constructor arity")))
      in
      match payload with
      | Result.Error e -> Error e
      | Ok p -> (
          match Exn.of_constructor_p name p with
          | Some e -> Ok e
          | None ->
              Error
                (Bad
                   (Exn_set.singleton
                      (Exn.Type_error
                         (Printf.sprintf "%s is not an exception constructor"
                            name))))))
  | Ok_v _ ->
      Error
        (Bad (Exn_set.singleton (Exn.Type_error "raise: not an exception")))

type deep =
  | DInt of int
  | DChar of char
  | DString of string
  | DCon of string * deep list
  | DFun
  | DBad of Exn_set.t
  | DCut

let rec deep_of_whnf ?(depth = 64) (w : whnf) : deep =
  if depth <= 0 then DCut
  else
    match w with
    | Bad s -> DBad s
    | Ok_v (VInt n) -> DInt n
    | Ok_v (VChar c) -> DChar c
    | Ok_v (VString s) -> DString s
    | Ok_v (VFun _) -> DFun
    | Ok_v (VCon (c, args)) ->
        DCon (c, List.map (fun t -> deep_force ~depth:(depth - 1) t) args)

and deep_force ?(depth = 64) t = deep_of_whnf ~depth (force t)

let rec deep_equal a b =
  match (a, b) with
  | DInt x, DInt y -> x = y
  | DChar x, DChar y -> x = y
  | DString x, DString y -> String.equal x y
  | DCon (c1, a1), DCon (c2, a2) ->
      String.equal c1 c2
      && List.length a1 = List.length a2
      && List.for_all2 deep_equal a1 a2
  | DFun, DFun -> true
  | DBad s1, DBad s2 -> Exn_set.equal s1 s2
  | DCut, DCut -> true
  | ( (DInt _ | DChar _ | DString _ | DCon _ | DFun | DBad _ | DCut),
      (DInt _ | DChar _ | DString _ | DCon _ | DFun | DBad _ | DCut) ) ->
      false

let rec deep_leq a b =
  match (a, b) with
  | DBad s, _ when Exn_set.is_all s -> true
  | DBad s1, DBad s2 -> Exn_set.leq s1 s2
  | DCon (c1, a1), DCon (c2, a2) ->
      String.equal c1 c2
      && List.length a1 = List.length a2
      && List.for_all2 deep_leq a1 a2
  | DCut, _ | _, DCut ->
      (* A cut-off carries no information either way; treat it as
         compatible so that depth-bounded comparison is conservative
         towards "related". *)
      true
  | (DInt _ | DChar _ | DString _ | DFun), _ -> deep_equal a b
  | DBad _, (DInt _ | DChar _ | DString _ | DCon _ | DFun) -> false
  | DCon _, (DInt _ | DChar _ | DString _ | DFun | DBad _) -> false

let rec contains_bottom = function
  | DBad s -> Exn_set.is_all s
  | DCon (_, ds) -> List.exists contains_bottom ds
  | DInt _ | DChar _ | DString _ | DFun | DCut -> false

let rec pp_deep ppf = function
  | DInt n -> Fmt.int ppf n
  | DChar c -> Fmt.pf ppf "%C" c
  | DString s -> Fmt.pf ppf "%S" s
  | DCon (c, []) -> Fmt.string ppf c
  | DCon (c, args) ->
      Fmt.pf ppf "(%s %a)" c Fmt.(list ~sep:sp pp_deep) args
  | DFun -> Fmt.string ppf "<fun>"
  | DBad s -> Fmt.pf ppf "Bad %a" Exn_set.pp s
  | DCut -> Fmt.string ppf "..."

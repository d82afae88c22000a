(* Everything the slot machine and the bytecode backend share outside
   their dispatch loops (see the interface). *)

module Exn = Lang.Exn
module R = Lang.Resolve
module SV = Semantics.Sem_value

type addr = int

type 'lam mvalue =
  | MInt of int
  | MChar of char
  | MString of string
  | MCon of int * addr array
  | MClo of 'lam * addr array

and env = Env_nil | Env_frame of addr array * env

type ('body, 'lam) code =
  | C_eval of 'body * env
  | C_enter of addr
  | C_ret of 'lam mvalue

type ('body, 'lam, 'frame) cell =
  | Cell_thunk of 'body * env
  | Cell_value of 'lam mvalue
  | Cell_blackhole
  | Cell_raise of Exn.t * Obs.origin
  | Cell_paused of ('body, 'lam) code * 'frame list
  | Cell_unused

type config = {
  fuel : int;
  blackhole_nontermination : bool;
  poison_thunks : bool;
  heap_limit : int option;
  stack_limit : int option;
}

let default_config =
  {
    fuel = 2_000_000;
    blackhole_nontermination = false;
    poison_thunks = true;
    heap_limit = None;
    stack_limit = None;
  }

let arith_bound = 1 lsl 31

type failure = Fail_exn of Exn.t | Fail_async of Exn.t | Fail_diverged

let pp_failure ppf = function
  | Fail_exn e -> Fmt.pf ppf "raise %a" Exn.pp e
  | Fail_async e -> Fmt.pf ppf "async %a" Exn.pp e
  | Fail_diverged -> Fmt.string ppf "diverged"

type to_exn_error = Not_exn | Exn_err of Exn.t

exception Machine_stuck of failure
exception Prim_type_error of string

type ('body, 'lam, 'frame) image = {
  cells : ('body, 'lam, 'frame) cell array;
  group : env;
}

let image n thunk =
  let group = Env_frame (Array.init n Fun.id, Env_nil) in
  {
    cells =
      Array.init n (fun i ->
          let body, env = thunk group i in
          Cell_thunk (body, env));
    group;
  }

type ('body, 'lam, 'frame, 'prog) t = {
  prog : 'prog;
  mutable heap : ('body, 'lam, 'frame) cell Growarray.t;
  mutable group : env;
  stats : Stats.t;
  cfg : config;
  rctx : R.context;
  mutable fuel_left : int;
  mutable async : (int * Exn.t) list;
  mutable mask_depth : int;
  mutable heap_check_armed : bool;
  trace : Obs.t;
  prov : Obs.provenance;
}

type ('body, 'lam, 'frame, 'prog) run =
  ('body, 'lam, 'frame, 'prog) t ->
  catch:bool ->
  ('body, 'lam) code ->
  ('lam mvalue, failure) result

(* OCaml's [Max_young_wosize], the largest array born in the minor heap:
   a larger start is born in the major heap, and the next minor
   collection promotes every cell stored into it, machine dead or not
   (see [create] in the interface). *)
let initial_heap_slots = 256

let create ?(config = default_config) ?(trace = Obs.create ())
    ?(rctx = R.global_context) ?image prog =
  let heap =
    Growarray.create ~capacity:initial_heap_slots ~dummy:Cell_unused ()
  in
  let group =
    match image with
    | None -> Env_nil
    | Some i ->
        (* A copy of the image's slots: the cells and their frames are
           shared, and never written in place. *)
        Growarray.append heap i.cells;
        i.group
  in
  {
    prog;
    heap;
    group;
    stats = Stats.create ();
    cfg = config;
    rctx;
    fuel_left = config.fuel;
    async = [];
    mask_depth = 0;
    heap_check_armed = true;
    trace;
    prov = Obs.new_provenance ();
  }

let stats m = m.stats
let heap_size m = Growarray.length m.heap
let trace m = m.trace
let origin_of m e = Obs.find_origin m.prov e
let pp_exn_with_origin m = Obs.pp_exn_with m.prov

let invariant_failure m msg =
  let extra =
    [
      ("stats", Fmt.str "%a" Stats.pp m.stats);
      ("heap", Printf.sprintf "%d cells" (Growarray.length m.heap));
      ("mask-depth", string_of_int m.mask_depth);
    ]
  in
  raise
    (Obs.Machine_invariant
       (Obs.dump ~note:("machine invariant violated: " ^ msg) ~extra m.trace))

let refuel m = m.fuel_left <- m.cfg.fuel
let set_mask_depth m d = m.mask_depth <- max 0 d

let alloc_cell m cell =
  m.stats.allocations <- m.stats.allocations + 1;
  Growarray.push m.heap cell

let alloc_value m v = alloc_cell m (Cell_value v)
let root m body = alloc_cell m (Cell_thunk (body, m.group))

let alloc_app m app f x =
  alloc_cell m (Cell_thunk (app, Env_frame ([| f; x |], Env_nil)))

let inject_async m ~at_step e = m.async <- m.async @ [ (at_step, e) ]
let clear_async m = m.async <- []

let note_raise m ~depth label exn =
  let o = Obs.origin ~label ~depth ~step:m.stats.steps in
  Obs.set_origin m.prov exn o;
  if Obs.on m.trace then Obs.record m.trace (Obs.Ev_raise (exn, o));
  o

let note_reraise m o exn =
  Obs.set_origin m.prov exn o;
  if Obs.on m.trace then Obs.record m.trace (Obs.Ev_rethrow (exn, o))

(* Section 3.3 (footnote 3). Without poisoning the black hole stays, and
   re-evaluation sees a black hole instead of the exception. *)
let poison m a exn o =
  if m.cfg.poison_thunks then begin
    Growarray.set m.heap a (Cell_raise (exn, o));
    m.stats.thunks_poisoned <- m.stats.thunks_poisoned + 1;
    if Obs.on m.trace then Obs.record m.trace (Obs.Ev_poison (a, exn))
  end

let unwind_async m ~depth ~update cur stack exn =
  m.stats.async_delivered <- m.stats.async_delivered + 1;
  ignore (note_raise m ~depth "async" exn);
  if Obs.on m.trace then Obs.record m.trace (Obs.Ev_async exn);
  let rec go cur buf = function
    | [] -> raise (Machine_stuck (Fail_async exn))
    | f :: rest -> (
        match update f with
        | Some a ->
            Growarray.set m.heap a (Cell_paused (cur, List.rev buf));
            m.stats.thunks_paused <- m.stats.thunks_paused + 1;
            if Obs.on m.trace then Obs.record m.trace (Obs.Ev_pause a);
            go (C_enter a) [] rest
        | None -> go cur (f :: buf) rest)
  in
  go cur [] stack

let compare_prim m (p : Lang.Prim.t) a b =
  let c =
    match (a, b) with
    | MInt x, MInt y -> Int.compare x y
    | MChar x, MChar y -> Char.compare x y
    | MString x, MString y -> String.compare x y
    | MCon (x, [||]), MCon (y, [||]) ->
        (* By name, as before interning: tag order is interning order,
           not lexicographic. *)
        String.compare (R.con_name ~ctx:m.rctx x) (R.con_name ~ctx:m.rctx y)
    | _ -> raise (Prim_type_error (Lang.Prim.name p ^ ": uncomparable values"))
  in
  let holds =
    match p with
    | Lang.Prim.Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | _ -> c >= 0
  in
  MCon ((if holds then R.t_true else R.t_false), [||])

let exn_to_mvalue m (e : Exn.t) =
  let tag = R.con_tag ~ctx:m.rctx (Exn.constructor_name e) in
  match Exn.payload e with
  | Some (Exn.P_string s) -> MCon (tag, [| alloc_value m (MString s) |])
  | Some (Exn.P_int n) -> MCon (tag, [| alloc_value m (MInt n) |])
  | None -> MCon (tag, [||])

type ('body, 'lam, 'frame, 'prog) whnf =
  ('body, 'lam, 'frame, 'prog) t -> addr -> ('lam mvalue, failure) result

let force run m a = run m ~catch:false (C_enter a)

let mvalue_to_exn run m v : (Exn.t, to_exn_error) result =
  match v with
  | MCon (tag, args) -> (
      let payload =
        match args with
        | [||] -> Ok None
        | [| a |] -> (
            match force run m a with
            | Ok (MString s) -> Ok (Some (Exn.P_string s))
            | Ok (MInt n) -> Ok (Some (Exn.P_int n))
            | Ok _ ->
                Error (Exn.Type_error "exception payload is not a string")
            | Error (Fail_exn e) | Error (Fail_async e) -> Error e
            | Error Fail_diverged ->
                Error (Exn.Type_error "exception payload failed to evaluate"))
        | _ -> Error (Exn.Type_error "exception constructor arity")
      in
      match payload with
      | Error e -> Error (Exn_err e)
      | Ok p -> (
          let name = R.con_name ~ctx:m.rctx tag in
          match Exn.of_constructor_p name p with
          | Some e -> Ok e
          | None ->
              Error
                (Exn_err
                   (Exn.Type_error
                      (name ^ " is not an exception constructor")))))
  | MInt _ | MChar _ | MString _ | MClo _ -> Error Not_exn

let raised_exn run m v =
  match mvalue_to_exn run m v with
  | Ok e | Error (Exn_err e) -> e
  | Error Not_exn -> Exn.Type_error "raise: not an exception"

let map_exn run m ~app f exn =
  let a = alloc_app m app f (alloc_value m (exn_to_mvalue m exn)) in
  match force run m a with
  | Ok v -> raised_exn run m v
  | Error (Fail_exn e) -> e
  | Error (Fail_async _ | Fail_diverged) -> raise (Machine_stuck Fail_diverged)

let force_catch run m a =
  m.stats.catches <- m.stats.catches + 1;
  let r = run m ~catch:true (C_enter a) in
  (if Obs.on m.trace then
     match r with
     | Error (Fail_exn e) | Error (Fail_async e) ->
         Obs.record m.trace (Obs.Ev_catch (Some e))
     | Ok _ | Error Fail_diverged -> Obs.record m.trace (Obs.Ev_catch None));
  r

let rec deep run ?(depth = 64) m a : SV.deep =
  if depth <= 0 then SV.DCut
  else
    match force run m a with
    | Error (Fail_exn e) | Error (Fail_async e) ->
        SV.DBad (Semantics.Exn_set.singleton e)
    | Error Fail_diverged -> SV.DBad Semantics.Exn_set.bottom
    | Ok (MInt n) -> SV.DInt n
    | Ok (MChar c) -> SV.DChar c
    | Ok (MString s) -> SV.DString s
    | Ok (MClo _) -> SV.DFun
    | Ok (MCon (tag, addrs)) ->
        SV.DCon
          ( R.con_name ~ctx:m.rctx tag,
            List.map
              (fun a' -> deep run ~depth:(depth - 1) m a')
              (Array.to_list addrs) )

(* Garbage collection: a semi-space copying collector over the cell
   heap. *)

let rec copy_env copy = function
  | Env_nil -> Env_nil
  | Env_frame (arr, up) -> Env_frame (Array.map copy arr, copy_env copy up)

let copy_value copy = function
  | (MInt _ | MChar _ | MString _) as v -> v
  | MCon (tag, addrs) -> MCon (tag, Array.map copy addrs)
  | MClo (l, caps) -> MClo (l, Array.map copy caps)

let gc copy_frame m ~roots =
  let old_heap = m.heap in
  let old_len = Growarray.length old_heap in
  let new_heap =
    Growarray.create ~capacity:(max 16 old_len) ~dummy:Cell_unused ()
  in
  let forward = Array.make (max 1 old_len) (-1) in
  (* Cheney-style: copy the cell shell first, then scan and rewrite.
     The rewrite is depth-first, so OCaml's own stack bounds recursion
     depth; heaps here are small enough, and long list spines alternate
     through environment frames. *)
  let rec copy (a : addr) : addr =
    if a < 0 || a >= old_len then a
    else if forward.(a) >= 0 then forward.(a)
    else begin
      let a' = Growarray.push new_heap (Growarray.get old_heap a) in
      forward.(a) <- a';
      Growarray.set new_heap a' (copy_cell (Growarray.get old_heap a));
      a'
    end
  and copy_code = function
    | C_eval (b, env) -> C_eval (b, copy_env copy env)
    | C_enter a -> C_enter (copy a)
    | C_ret v -> C_ret (copy_value copy v)
  and copy_cell = function
    | Cell_thunk (b, env) -> Cell_thunk (b, copy_env copy env)
    | Cell_value v -> Cell_value (copy_value copy v)
    | Cell_paused (code, frames) ->
        Cell_paused (copy_code code, List.map (copy_frame copy) frames)
    | (Cell_blackhole | Cell_raise _ | Cell_unused) as c -> c
  in
  let roots' = List.map copy roots in
  m.group <- copy_env copy m.group;
  m.heap <- new_heap;
  m.stats.collections <- m.stats.collections + 1;
  m.stats.live_copied <- m.stats.live_copied + Growarray.length new_heap;
  if Obs.on m.trace then
    Obs.record m.trace (Obs.Ev_gc (old_len, Growarray.length new_heap));
  (* Re-arm the heap limit only once a collection has actually brought
     the heap back under it; otherwise the next step would re-raise
     before the supervisor makes progress. *)
  (match m.cfg.heap_limit with
  | Some lim when Growarray.length new_heap < lim -> m.heap_check_armed <- true
  | _ -> ());
  roots'

open Lang.Syntax
open Sem_value
module Exn = Lang.Exn
module Core = Io_core
include Io_core.Types

type result = {
  trace : event list;
  outcome : outcome;
  threads_spawned : int;
  context_switches : int;
  counters : counters;
}

type schedule = (int * Exn.t) list

(* The denotational evaluator: values are memoizing thunks, failures are
   exception sets resolved by the oracle. *)
module Eval = struct
  type t = {
    oracle : Oracle.t;
    fuel : Denot.handle;
    tr : Obs.t;
    counters : counters;
    mutable async : schedule;
  }

  type v = thunk

  (* Ask the oracle for a member of [s], recording the chosen member and
     the members that were not chosen — the imprecision the operational
     layer hides. *)
  let pick st s =
    if Exn_set.is_all s then st.counters.bottom_picks <- st.counters.bottom_picks + 1;
    let x = Oracle.pick_exception st.oracle s in
    if Obs.on st.tr then begin
      let unchosen =
        match Exn_set.elements s with
        | None -> []
        | Some es -> List.filter (fun e -> e <> x) es
      in
      Obs.record st.tr (Obs.Ev_oracle_pick (x, unchosen))
    end;
    x

  (* Section 4.4: an exceptional value may take the self-transition when
     NonTermination is a member; otherwise the oracle picks a member. *)
  let fail st s : Core.failure =
    if Oracle.diverge_on_non_termination st.oracle s then Diverge
    else if Exn_set.is_empty s then Ill "empty exception set"
    else Exn (pick st s)

  let action st m : v Core.io =
    match force m with
    | Bad s -> Failed (fail st s)
    | Ok_v (VCon (c, args)) -> (
        match (c, args) with
        | "Return", [ v ] -> Return v
        | "Bind", [ m1; k ] -> Bind (m1, k)
        | "GetChar", [] -> Get_char
        | "PutChar", [ v ] -> Put_char v
        | "GetException", [ v ] -> Get_exception v
        | "Evaluate", [ v ] -> Evaluate v
        | "Bracket", [ acq; rel; use ] -> Bracket (acq, rel, use)
        | "OnException", [ m1; h ] -> On_exception (m1, h)
        | "Mask", [ m1 ] -> Mask m1
        | "Unmask", [ m1 ] -> Unmask m1
        | "WithTimeout", [ n; m1 ] -> Timeout (n, m1)
        | "Retry", [ n; b; m1 ] -> Retry (n, b, m1)
        | "Fork", [ m1 ] -> Fork m1
        | "NewMVar", [] -> New_mvar
        | "TakeMVar", [ r ] -> Take_mvar r
        | "PutMVar", [ r; v ] -> Put_mvar (r, v)
        | "NewChan", [ n ] -> New_chan n
        | "ReadChan", [ r ] -> Read_chan r
        | "WriteChan", [ r; v ] -> Write_chan (r, v)
        | "MyThreadId", [] -> My_thread_id
        | "ThrowTo", [ tt; et ] -> Throw_to (tt, et)
        | _ -> Not_io)
    | Ok_v _ -> Not_io

  let read st v : (v Core.data, Core.failure) Stdlib.result =
    match force v with
    | Bad s -> Error (fail st s)
    | Ok_v (VInt n) -> Ok (Int n)
    | Ok_v (VChar c) -> Ok (Char c)
    | Ok_v (VCon (("MVarRef" | "ChanRef" | "ThreadId") as c, [ id ])) -> (
        match force id with
        | Bad s -> Error (fail st s)
        | Ok_v (VInt n) ->
            Ok (match c with "MVarRef" -> MVarRef n | "ChanRef" -> ChanRef n | _ -> ThreadId n)
        | Ok_v _ -> Ok Other)
    | Ok_v _ -> Ok Other

  let exn st v =
    match exn_of_whnf (force v) with
    | Ok x -> Ok x
    | Error (Bad s) -> Error (fail st s)
    | Error (Ok_v _) -> Error (Core.Exn (Exn.Type_error "throwTo: not an exception"))

  (* The asynchronous schedule, delivered in list order: the head
     [(k, x)] delivers [x] at the first unmasked [getException] performed
     at or after clock tick [k], and later events wait for it. *)
  let catch st ~mask ~clock v : v Core.caught =
    match st.async with
    | (k, x) :: rest when mask = 0 && clock >= k ->
        st.async <- rest;
        if Obs.on st.tr then begin
          Obs.record st.tr (Obs.Ev_async x);
          Obs.record st.tr (Obs.Ev_catch (Some x))
        end;
        Async x
    | _ -> (
        match force v with
        | Ok_v (VCon (c, _)) when is_io_action_constructor c -> Action v
        | Ok_v _ ->
            if Obs.on st.tr then Obs.record st.tr (Obs.Ev_catch None);
            Value v
        | Bad s ->
            let f = fail st s in
            (match f with
            | Exn x when Obs.on st.tr -> Obs.record st.tr (Obs.Ev_catch (Some x))
            | _ -> ());
            Caught f)

  let evaluate st v = match force v with Ok_v _ -> Ok v | Bad s -> Error (fail st s)

  let bind st k v =
    match force k with
    | Ok_v (VFun f) -> Ok (delay (fun () -> f v))
    | Ok_v _ -> Error (Core.Ill ">>=: continuation is not a function")
    | Bad s -> Error (fail st s)

  (* An ill-typed "function" surfaces as an exceptional IO value, which
     then unwinds normally. *)
  let apply _ f x =
    delay (fun () ->
        match force f with
        | Ok_v (VFun f) -> f x
        | Ok_v _ -> Bad (Exn_set.singleton (Exn.Type_error "applied a non-function"))
        | Bad s -> Bad s)

  let con c args = from_whnf (Ok_v (VCon (c, args)))
  let ref_ c n = con c [ from_whnf (Ok_v (VInt n)) ]

  let make _ : v Core.data -> v = function
    | Unit -> con c_unit []
    | Int n -> from_whnf (Ok_v (VInt n))
    | Char c -> from_whnf (Ok_v (VChar c))
    | OK v -> con c_ok [ v ]
    | Bad x -> con c_bad [ from_whnf (exn_to_value x) ]
    | Just v -> con c_just [ v ]
    | Nothing -> con c_nothing []
    | MVarRef n -> ref_ "MVarRef" n
    | ChanRef n -> ref_ "ChanRef" n
    | ThreadId n -> ref_ "ThreadId" n
    | Other -> invalid_arg "Conc.make"

  let return _ v = con c_return [ v ]

  (* Each transition gets a fresh approximation budget: a transition that
     hits bottom must not starve the rest of the program. *)
  let refill st = Denot.refill st.fuel
  let deep _ v = deep_force ~depth:64 v
  let gc _ roots = roots
end

module Run = Core.Make (Eval)

let run ?(config = Denot.default_config) ?(oracle = Oracle.first ())
    ?(trace = Obs.create ()) ?(input = "") ?(async = []) ?(kills = [])
    ?(check_invariants = Core.debug_default ()) ?(max_steps = 200_000) (e : expr) =
  let counters = fresh_counters () in
  let fuel = Denot.handle config in
  let st = { Eval.oracle; fuel; tr = trace; counters; async } in
  let r =
    Run.run st ~trace ~counters ~input ~kills ~check_invariants ~max_steps ~gc_every:None
      (delay (fun () -> Denot.eval_in fuel Denot.empty_env e))
  in
  {
    trace = r.events;
    outcome = r.outcome;
    threads_spawned = r.threads_spawned;
    context_switches = r.transitions;
    counters;
  }

let output_string_of r = output_of_events r.trace

module Exn = Lang.Exn
module R = Lang.Resolve
module Core = Semantics.Io_core
include Core.Types

type result = {
  output : string;
  outcome : outcome;
  threads_spawned : int;
  transitions : int;
  stats : Stats.t;
  counters : counters;
}

(* The abstract-machine evaluator: values are heap addresses, a failure
   is the single exception the stack-trimming machine met first. *)
module Eval = struct
  type t = Stg.t
  type v = Stg.addr

  let failure : Stg.failure -> Core.failure = function
    | Stg.Fail_exn x -> Exn x
    | Stg.Fail_diverged -> Exn Exn.Non_termination
    | Stg.Fail_async _ -> Ill "async event outside getException"

  let io_of_con c (args : v array) : v Core.io =
    match args with
    | [| v |] when c = R.t_return -> Return v
    | [| m1; k |] when c = R.t_bind -> Bind (m1, k)
    | [||] when c = R.t_get_char -> Get_char
    | [| v |] when c = R.t_put_char -> Put_char v
    | [| v |] when c = R.t_get_exception -> Get_exception v
    | [| v |] when c = R.t_evaluate -> Evaluate v
    | [| acq; rel; use |] when c = R.t_bracket -> Bracket (acq, rel, use)
    | [| m1; h |] when c = R.t_on_exception -> On_exception (m1, h)
    | [| m1 |] when c = R.t_mask -> Mask m1
    | [| m1 |] when c = R.t_unmask -> Unmask m1
    | [| n; m1 |] when c = R.t_timeout -> Timeout (n, m1)
    | [| n; b; m1 |] when c = R.t_retry -> Retry (n, b, m1)
    | [| m1 |] when c = R.t_fork -> Fork m1
    | [||] when c = R.t_new_mvar -> New_mvar
    | [| r |] when c = R.t_take_mvar -> Take_mvar r
    | [| r; v |] when c = R.t_put_mvar -> Put_mvar (r, v)
    | [| n |] when c = R.t_new_chan -> New_chan n
    | [| r |] when c = R.t_read_chan -> Read_chan r
    | [| r; v |] when c = R.t_write_chan -> Write_chan (r, v)
    | [||] when c = R.t_my_thread_id -> My_thread_id
    | [| tt; et |] when c = R.t_throw_to -> Throw_to (tt, et)
    | _ -> Not_io

  let action m a : v Core.io =
    match Stg.force m a with
    | Error f -> Failed (failure f)
    | Ok (Runtime.MCon (c, args)) -> io_of_con c args
    | Ok _ -> Not_io

  let read m a : (v Core.data, Core.failure) Stdlib.result =
    match Stg.force m a with
    | Error f -> Error (failure f)
    | Ok (Runtime.MInt n) -> Ok (Int n)
    | Ok (Runtime.MChar c) -> Ok (Char c)
    | Ok (Runtime.MCon (c, [| id |]))
      when c = R.t_mvar_ref || c = R.t_chan_ref || c = R.t_thread_id -> (
        match Stg.force m id with
        | Error f -> Error (failure f)
        | Ok (Runtime.MInt n) ->
            Ok
              (if c = R.t_mvar_ref then MVarRef n
               else if c = R.t_chan_ref then ChanRef n
               else ThreadId n)
        | Ok _ -> Ok Other)
    | Ok _ -> Ok Other

  let exn m a =
    match Stg.force m a with
    | Error f -> Error (failure f)
    | Ok v -> (
        match Stg.mvalue_to_exn m v with
        | Ok x -> Ok x
        | Error (Runtime.Exn_err x) -> Error (Core.Exn x)
        | Error Runtime.Not_exn -> Error (Core.Exn (Exn.Type_error "throwTo: not an exception")))

  (* The machine delivers injected events itself, mid-evaluation, to a
     catch mark whose thread is unmasked: sync the thread's mask depth
     in first. The machine records the catch events. *)
  let catch m ~mask ~clock:_ a : v Core.caught =
    Runtime.set_mask_depth m mask;
    match Stg.force_catch m a with
    | Ok (Runtime.MCon (c, _)) when R.is_io_action_tag c -> Action a
    | Ok _ -> Value a
    | Error (Stg.Fail_exn x) -> Caught (Exn x)
    | Error (Stg.Fail_async x) -> Async x
    | Error Stg.Fail_diverged -> Caught (Exn Exn.Non_termination)

  let evaluate m a =
    match Stg.force m a with Ok v -> Ok (Runtime.alloc_value m v) | Error f -> Error (failure f)

  let bind m k a =
    match Stg.force m k with
    | Ok (Runtime.MClo _) -> Ok (Stg.alloc_app m k a)
    | Ok _ -> Error (Core.Ill ">>=: continuation is not a function")
    | Error f -> Error (failure f)

  let apply = Stg.alloc_app
  let con m c args = Runtime.alloc_value m (Runtime.MCon (c, args))
  let ref_ m c n = con m c [| Runtime.alloc_value m (Runtime.MInt n) |]

  let make m : v Core.data -> v = function
    | Unit -> con m R.t_unit [||]
    | Int n -> Runtime.alloc_value m (Runtime.MInt n)
    | Char c -> Runtime.alloc_value m (Runtime.MChar c)
    | OK a -> con m R.t_ok [| a |]
    | Bad x -> con m R.t_bad [| Runtime.alloc_value m (Runtime.exn_to_mvalue m x) |]
    | Just a -> con m R.t_just [| a |]
    | Nothing -> con m R.t_nothing [||]
    | MVarRef n -> ref_ m R.t_mvar_ref n
    | ChanRef n -> ref_ m R.t_chan_ref n
    | ThreadId n -> ref_ m R.t_thread_id n
    | Other -> invalid_arg "Machine_conc.make"

  let return m a = con m R.t_return [| a |]

  (* The step budget is refuelled at every transition, so one divergent
     transition does not starve the rest of the program. *)
  let refill = Runtime.refuel
  let deep m a = Stg.deep m a
  let gc m roots = Stg.gc m ~roots
end

module Run = Core.Make (Eval)

let run ?config ?trace ?(input = "") ?(async = []) ?(kills = [])
    ?(check_invariants = Core.debug_default ()) ?(max_transitions = 100_000) ?gc_every
    (e : Lang.Syntax.expr) =
  let m = Stg.create ?config ?trace () in
  List.iter (fun (k, x) -> Runtime.inject_async m ~at_step:k x) async;
  let counters = fresh_counters () in
  let r =
    Run.run m ~trace:(Runtime.trace m) ~counters ~input ~kills ~check_invariants
      ~max_steps:max_transitions ~gc_every (Stg.alloc m e)
  in
  {
    output = output_of_events r.events;
    outcome = r.outcome;
    threads_spawned = r.threads_spawned;
    transitions = r.transitions;
    stats = Stg.stats m;
    counters;
  }

(* Asynchronous exceptions (Section 5.1): a Timeout interrupts a long
   computation at a getException; the abandoned thunks are overwritten
   with *resumable* pause cells ("a kind of resumable continuation"), so
   retrying after the interrupt completes without redoing the work
   already done.

   Run with: dune exec examples/async_timeout.exe *)

open Imprecise

let work_src = "sum (map (\\x -> x * x) (enumFromTo 1 300))"

let () =
  (* Uninterrupted baseline. *)
  let baseline, base_stats = eval_machine (parse work_src) in
  Fmt.pr "baseline:      %a in %d steps@." Value.pp_deep baseline
    base_stats.Stats.steps;

  (* Interrupt the same computation with a Timeout partway through, then
     retry. The machine is shared, so the pause cells survive between the
     two catches. *)
  let m = Machine.create () in
  Runtime.inject_async m ~at_step:4_000 Exn.Timeout;
  let addr = Machine.alloc m (parse work_src) in

  (match Machine.force_catch m addr with
  | Error (Machine.Fail_async Exn.Timeout) ->
      Fmt.pr "interrupted:   Timeout after %d steps, %d thunks paused@."
        (Machine.stats m).Stats.steps
        (Machine.stats m).Stats.thunks_paused
  | Ok _ -> Fmt.pr "not interrupted (raise at_step)@."
  | Error f -> Fmt.pr "unexpected: %a@." Runtime.pp_failure f);

  let steps_before_retry = (Machine.stats m).Stats.steps in
  (match Machine.force_catch m addr with
  | Ok (Runtime.MInt n) ->
      let retry_steps = (Machine.stats m).Stats.steps - steps_before_retry in
      Fmt.pr "retried:       %d in %d further steps (vs %d from scratch)@."
        n retry_steps base_stats.Stats.steps
  | Ok _ -> Fmt.pr "unexpected value@."
  | Error f -> Fmt.pr "retry failed: %a@." Runtime.pp_failure f);

  (* The same flow as one IO program on the machine driver: the first
     getException gets Bad Timeout, the second completes. *)
  Fmt.pr "@.as an IO program:@.";
  let program =
    parse
      (Printf.sprintf
         "getException (%s) >>= \\first ->\n\
          getException (%s) >>= \\second ->\n\
          case second of\n\
          { OK v -> putLine (showInt v)\n\
          ; Bad e -> putLine [chr 63] } >>= \\u ->\n\
          return (Pair first second)"
         work_src work_src)
  in
  let r = run_io_machine ~async:[ (4_000, Exn.Timeout) ] program in
  Fmt.pr "output: %S@." r.Machine_conc.output;
  Fmt.pr "result: %a@." Machine_conc.pp_outcome r.Machine_conc.outcome;
  Fmt.pr "paused thunks: %d@." r.Machine_conc.stats.Stats.thunks_paused;

  (* Interrupts are delivered ONLY at getException: without a catch the
     event stays pending and the computation completes (Section 5.1's
     contract). *)
  Fmt.pr "@.no catch, no delivery:@.";
  let m2 = Machine.create () in
  Runtime.inject_async m2 ~at_step:0 Exn.Interrupt;
  let a2 = Machine.alloc m2 (parse "sum (enumFromTo 1 100)") in
  (match Machine.force m2 a2 with
  | Ok (Runtime.MInt n) -> Fmt.pr "completed: %d (event still pending)@." n
  | _ -> Fmt.pr "unexpected@.");

  (* Keyboard interrupt semantics at the operational layer: the semantic
     LTS (Section 4.4 + the ¡x rule) shows the same behaviour. *)
  Fmt.pr "@.semantic layer (Conc):@.";
  let r2 =
    run_io
      ~async:[ (0, Exn.Interrupt) ]
      (parse "getException 42 >>= \\v -> return v")
  in
  Fmt.pr "getException 42 under an interrupt: %a@." Conc.pp_outcome
    r2.Conc.outcome

(* Supervision trees over the imprecise-exception vocabulary.

   The paper's pitch (Sections 1 and 3) is that built-in errors are
   recoverable values, not process aborts. With the extensible exception
   hierarchy this example pushes that into OTP territory: workers run
   under [supervisorTree] with real restart strategies, faults arrive as
   ordinary catchable exceptions — heap ceilings, murdered threads,
   restart storms — and typed handlers pick apart what surfaces.

   - heap exhaustion under one_for_one: the machine runs with a heap
     ceiling, the worker's big computation blows it, HeapOverflow is an
     ordinary catchable exception in the worker, and the supervisor's
     restart gives the (now smaller) workload a clean second life;

   - murdered workers under rest_for_one (Section 5.1): a fault schedule
     throwTo-kills the middle worker mid-job; the supervisor restarts
     the victim and its successors while the earlier sibling's work is
     kept, exactly the rest_for_one contract;

   - typed handlers: a user-declared exception ([exception DbTimeout of
     Int]) is dispatched by a [catches] handler list, with the arith
     and catch-all handlers falling through;

   - restart storms: a worker that can never succeed exhausts the
     max-restart-intensity window; the supervisor sheds the load by
     killing the tree and raising SupervisorLimit, which a typed
     handler catches with the window census.

   Every scenario runs on both IO layers (Semantics.Conc and
   Machine.Machine_conc), and the process exits nonzero if any outcome
   deviates, so CI can use this binary as a smoke test.

   Run with: dune exec examples/supervisor.exe *)

open Imprecise

let failures = ref 0

let expect name got want =
  if got then Fmt.pr "  [ok] %s@." name
  else begin
    incr failures;
    Fmt.pr "  [FAILED] %s (wanted %s)@." name want
  end

(* ------------------------------------------------------------------ *)
(* 1. Heap exhaustion under one_for_one.                               *)

(* One worker, one restart budget. The first generation forces the big
   sum with [evaluate] — the precise forcing point — and under a heap
   ceiling dies of HeapOverflow; the supervisor respawns it, and the
   second generation's smaller workload fits. Denotationally there is
   no heap, so the first generation just succeeds: that is the spec the
   machine refines. *)
let heap_src =
  "main =\n\
  \  newEmptyMVar >>= \\gen -> putMVar gen 0 >>= \\u0 ->\n\
  \  supervisorTree OneForOne 2 10\n\
  \    [ takeMVar gen >>= \\n -> putMVar gen (n + 1) >>= \\u1 ->\n\
  \      evaluate (sum (enumFromTo 1 (if n < 1 then 5000 else 100)))\n\
  \      >>= \\s -> putInt s ]\n\
  \  >>= \\u2 -> putChar 'S' >>= \\u3 -> return 0;"

let heap_scenario () =
  Fmt.pr "== heap exhaustion under one_for_one ==@.";
  let e = parse_program heap_src in
  let sem = Conc.run e in
  Fmt.pr "spec (no heap):    %a  output %S@." Conc.pp_outcome sem.Conc.outcome
    (Conc.output_string_of sem);
  expect "spec: first generation completes the big sum"
    (match sem.Conc.outcome with
    | Conc.Done _ -> String.equal (Conc.output_string_of sem) "12502500S"
    | _ -> false)
    "Done with output 12502500S";
  let mach =
    Machine_conc.run
      ~config:{ Machine.default_config with heap_limit = Some 2_500 }
      e
  in
  Fmt.pr "machine (ceiling): %a  output %S  heap overflows %d@."
    Machine_conc.pp_outcome mach.Machine_conc.outcome mach.Machine_conc.output
    mach.Machine_conc.stats.Stats.heap_overflows;
  expect "machine: restarted worker completes the small sum"
    (match mach.Machine_conc.outcome with
    | Machine_conc.Done _ -> String.equal mach.Machine_conc.output "5050S"
    | _ -> false)
    "Done with output 5050S";
  expect "machine: the overflow was caught, not fatal"
    (mach.Machine_conc.stats.Stats.heap_overflows > 0)
    "heap_overflows > 0"

(* ------------------------------------------------------------------ *)
(* 2. Murdered worker under rest_for_one.                              *)

(* Three workers (tids 1, 2, 3): the first counts and exits, the second
   busyworks long enough to be murdered mid-job, the third counts
   quickly. rest_for_one restarts the victim and its successor while
   the first sibling's completed work is kept — so after the tree comes
   down, worker 0 has counted exactly once, the victim's only completed
   generation is its respawn, and worker 2 has counted at least once. *)
let murder_src =
  "main =\n\
  \  newEmptyMVar >>= \\c0 -> putMVar c0 0 >>= \\u0 ->\n\
  \  newEmptyMVar >>= \\c1 -> putMVar c1 0 >>= \\u1 ->\n\
  \  newEmptyMVar >>= \\c2 -> putMVar c2 0 >>= \\u2 ->\n\
  \  supervisorTree RestForOne 3 100\n\
  \    [ takeMVar c0 >>= \\n -> putMVar c0 (n + 1),\n\
  \      seq (sum (enumFromTo 1 2000))\n\
  \          (takeMVar c1 >>= \\n -> putMVar c1 (n + 1)),\n\
  \      takeMVar c2 >>= \\n -> putMVar c2 (n + 1) ]\n\
  \  >>= \\u3 ->\n\
  \  takeMVar c0 >>= \\a -> takeMVar c1 >>= \\b -> takeMVar c2 >>= \\c ->\n\
  \  return (if a == 1 then (if b == 1 then c >= 1 else False) else False);"

(* The victim is the second worker, tid 2. Several kill entries spread
   across the busywork window so one lands while it is alive; sends to
   a tid that has already finished (or to the respawned generation's
   different tid) are dropped by the scheduler. *)
let murder_kills =
  [ (20, 2, Exn.Thread_killed); (35, 2, Exn.Thread_killed);
    (50, 2, Exn.Thread_killed); (70, 2, Exn.Thread_killed) ]

let murder_scenario () =
  Fmt.pr "== murdered worker under rest_for_one ==@.";
  let e = parse_program murder_src in
  let sem = Conc.run ~kills:murder_kills e in
  Fmt.pr "semantic: %a  kills delivered %d@." Conc.pp_outcome sem.Conc.outcome
    sem.Conc.counters.Conc.throwtos_delivered;
  expect "semantic: prefix kept, suffix respawned"
    (match sem.Conc.outcome with
    | Conc.Done d -> Value.deep_equal d (Value.DCon ("True", []))
    | _ -> false)
    "Done True";
  expect "semantic: the murder was delivered"
    (sem.Conc.counters.Conc.throwtos_delivered > 0)
    "throwtos_delivered > 0";
  let mach = Machine_conc.run ~kills:murder_kills e in
  Fmt.pr "machine:  %a  kills delivered %d@." Machine_conc.pp_outcome
    mach.Machine_conc.outcome
    mach.Machine_conc.counters.Machine_conc.throwtos_delivered;
  expect "machine: prefix kept, suffix respawned"
    (match mach.Machine_conc.outcome with
    | Machine_conc.Done d -> Value.deep_equal d (Value.DCon ("True", []))
    | _ -> false)
    "Done True";
  expect "machine: the murder was delivered"
    (mach.Machine_conc.counters.Machine_conc.throwtos_delivered > 0)
    "throwtos_delivered > 0"

(* ------------------------------------------------------------------ *)
(* 3. Typed handlers over an open exception vocabulary.                *)

(* A user-declared exception with an Int payload travels through
   [throwIO] and is picked out by the matching handler in a [catches]
   list; the arithmetic handler before it falls through, the catch-all
   after it never runs. A second program shows [evaluate] forcing a
   division at its precise point, caught by the arith handler. *)
let handler_src =
  "exception DbTimeout of Int;\n\
   main =\n\
  \  catches (throwIO (DbTimeout 3))\n\
  \    [ handler matchArith (\\e -> putChar 'A' >>= \\u -> return 0),\n\
  \      handler (\\e -> case e of { DbTimeout n -> Just n ; z -> Nothing })\n\
  \              (\\n -> putInt n >>= \\u -> return n),\n\
  \      handler matchAny (\\e -> putChar '?' >>= \\u -> return 0) ];"

let evaluate_src =
  "main =\n\
  \  catches (evaluate (1 / 0))\n\
  \    [ handler matchArith (\\e -> putChar 'A' >>= \\u -> return 7) ];"

let handler_scenario () =
  Fmt.pr "== typed handlers ==@.";
  let check name src want_out want_val =
    let e = parse_program src in
    let sem = Conc.run e in
    Fmt.pr "%s semantic: %a  output %S@." name Conc.pp_outcome sem.Conc.outcome
      (Conc.output_string_of sem);
    expect (name ^ ": semantic layer dispatches to the right handler")
      (match sem.Conc.outcome with
      | Conc.Done d ->
          Value.deep_equal d want_val
          && String.equal (Conc.output_string_of sem) want_out
      | _ -> false)
      (Fmt.str "Done with output %S" want_out);
    let mach = Machine_conc.run e in
    Fmt.pr "%s machine: %a  output %S@." name Machine_conc.pp_outcome
      mach.Machine_conc.outcome mach.Machine_conc.output;
    expect (name ^ ": machine dispatches to the right handler")
      (match mach.Machine_conc.outcome with
      | Machine_conc.Done d ->
          Value.deep_equal d want_val
          && String.equal mach.Machine_conc.output want_out
      | _ -> false)
      (Fmt.str "Done with output %S" want_out)
  in
  check "user-exception" handler_src "3" (Value.DInt 3);
  check "evaluate" evaluate_src "A" (Value.DInt 7)

(* ------------------------------------------------------------------ *)
(* 4. Restart storm: the intensity window sheds the load.              *)

let storm_src =
  "main = catches\n\
  \  (supervisorTree OneForOne 2 8 [ putChar 'w' >>= \\u ->\n\
  \                                  throwIO DivideByZero ])\n\
  \  [ handler matchSupervisorLimit\n\
  \      (\\n -> putChar 'L' >>= \\u -> return n) ];"

let storm_scenario () =
  Fmt.pr "== restart storm ==@.";
  let e = parse_program storm_src in
  let sem = Conc.run e in
  Fmt.pr "semantic: %a  output %S@." Conc.pp_outcome sem.Conc.outcome
    (Conc.output_string_of sem);
  expect "semantic: SupervisorLimit census after maxR generations"
    (match sem.Conc.outcome with
    | Conc.Done d ->
        Value.deep_equal d (Value.DInt 2)
        && String.equal (Conc.output_string_of sem) "wwwL"
    | _ -> false)
    "Done 2 with output wwwL";
  let mach = Machine_conc.run e in
  Fmt.pr "machine:  %a  output %S@." Machine_conc.pp_outcome
    mach.Machine_conc.outcome mach.Machine_conc.output;
  expect "machine: SupervisorLimit census after maxR generations"
    (match mach.Machine_conc.outcome with
    | Machine_conc.Done d ->
        Value.deep_equal d (Value.DInt 2)
        && String.equal mach.Machine_conc.output "wwwL"
    | _ -> false)
    "Done 2 with output wwwL"

let () =
  heap_scenario ();
  murder_scenario ();
  handler_scenario ();
  storm_scenario ();
  if !failures > 0 then begin
    Fmt.pr "@.%d scenario check(s) FAILED@." !failures;
    exit 1
  end;
  Fmt.pr "@.all supervisor scenarios survived their faults@."

open Imprecise
open Helpers
module B = Builder
module E = Exn
module M = Machine

(* The stack-trimming implementation (Section 3.3). *)

let run ?config src =
  let d, _ = M.run_deep ?config (parse src) in
  d

let check_run ?config msg expected src =
  Alcotest.check deep msg expected (run ?config src)

(* What a caught run answers, as a deep value. *)
let caught deep m = function
  | Ok v -> deep m (Runtime.alloc_value m v)
  | Error (Runtime.Fail_exn x | Runtime.Fail_async x) -> dbad [ x ]
  | Error Runtime.Fail_diverged -> Value.DBad Exn_set.bottom

(* Each machine's two ways in: a one-shot deep run, and a catch mark
   at the bottom of the run's stack. *)
let machines =
  [
    ( "slot",
      (fun e -> fst (M.run_deep e)),
      fun e ->
        let m = M.create () in
        caught (fun m a -> M.deep m a) m (M.force_catch m (M.alloc m e)) );
    ( "bytecode",
      (fun e -> fst (Bytecode.run_deep e)),
      fun e ->
        let m = Bytecode.create (Bytecode.compile_expr e) in
        caught
          (fun m a -> Bytecode.deep m a)
          m
          (Bytecode.force_catch m (Bytecode.entry m)) );
  ]

(* A mapException that fires starts a nested run (its function's, then
   the mapped payload's readback) inside the run that is unwinding, so
   per-run state must not leak between them. The program runs on both
   machines, alone and under an outer frame, through both ways in, and
   every answer must be the denotation's. *)
let check_nested msg expected src =
  Alcotest.check deep (msg ^ ": denotation") expected (ev src);
  List.iter
    (fun src ->
      let e = parse src in
      let want = ev_expr e in
      List.iter
        (fun (name, run_deep, force_catch) ->
          Alcotest.check deep
            (Printf.sprintf "%s: %s run_deep of %s" msg name src)
            want (run_deep e);
          Alcotest.check deep
            (Printf.sprintf "%s: %s force_catch of %s" msg name src)
            want (force_catch e))
        machines)
    [ src; "1 + (" ^ src ^ ")" ]

let suite =
  [
    tc "arithmetic" (fun () -> check_run "add" (dint 5) "2 + 3");
    tc "laziness: unused bottom untouched" (fun () ->
        check_run "lazy" (dint 1) "let x = 1/0 in 1");
    tc "sharing: thunks update" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "let x = 2 + 3 in x + x") in
        (match M.force m a with
        | Ok (Runtime.MInt 10) -> ()
        | _ -> Alcotest.fail "expected 10");
        Alcotest.(check bool)
          "updates happened" true
          ((M.stats m).Stats.updates > 0));
    tc "prelude pipelines" (fun () ->
        check_run "pipeline" (dints [ 2; 4; 6 ])
          "map (\\x -> 2 * x) (take 3 (iterate (\\x -> x + 1) 1))");
    tc "deep exceptional element" (fun () ->
        check_run "zip"
          (dlist [ dint 1; dbad [ E.Divide_by_zero ] ])
          "zipWith (\\a b -> a / b) [1, 2] [1, 0]");
    tc "uncaught raise reported" (fun () ->
        let r, _ = M.run_expr (parse "1 + error \"u\"") in
        match r with
        | Error (M.Fail_exn (E.User_error "u")) -> ()
        | _ -> Alcotest.fail "expected uncaught UserError");
    tc "machine picks the first exception in its order" (fun () ->
        let r, _ = M.run_expr B.div_zero_plus_error in
        match r with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "expected DivideByZero");
    tc "catch frames catch" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "1/0") in
        match M.force_catch m a with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "expected caught DivideByZero");
    tc "raise trims only to the catch frame" (fun () ->
        (* The computation under the catch builds a deep stack, raises,
           and the machine must trim exactly those frames. *)
        let m = M.create () in
        let a =
          M.alloc m
            (parse
               "let rec go n = if n == 0 then error \"deep\" else 1 + go (n-1)\n\
                in go 50")
        in
        (match M.force_catch m a with
        | Error (M.Fail_exn (E.User_error "deep")) -> ()
        | _ -> Alcotest.fail "expected caught");
        Alcotest.(check bool)
          "frames were trimmed" true
          ((M.stats m).Stats.frames_trimmed >= 50));
    tc "poisoned thunks re-raise (Section 3.3)" (fun () ->
        let m = M.create () in
        let x = M.alloc m (parse "1/0 + error \"second\"") in
        (match M.force_catch m x with
        | Error (M.Fail_exn e1) -> (
            (* Re-entering the poisoned thunk must re-raise the same
               exception without recomputing. *)
            let steps_before = (M.stats m).Stats.steps in
            match M.force_catch m x with
            | Error (M.Fail_exn e2) ->
                Alcotest.(check bool) "same exception" true (E.equal e1 e2);
                Alcotest.(check bool)
                  "cheap re-raise" true
                  ((M.stats m).Stats.steps - steps_before < 10)
            | _ -> Alcotest.fail "second force should re-raise")
        | _ -> Alcotest.fail "first force should raise");
        Alcotest.(check bool)
          "poisoned" true
          ((M.stats m).Stats.thunks_poisoned > 0));
    tc "black hole loops by default" (fun () ->
        let config = { M.default_config with fuel = 10_000 } in
        let r, _ = M.run_expr ~config B.black in
        match r with
        | Error M.Fail_diverged -> ()
        | _ -> Alcotest.fail "expected divergence");
    tc "black hole detection reports NonTermination (Section 5.2)"
      (fun () ->
        let config =
          { M.default_config with blackhole_nontermination = true }
        in
        let r, _ = M.run_expr ~config B.black in
        match r with
        | Error (M.Fail_exn E.Non_termination) -> ()
        | _ -> Alcotest.fail "expected NonTermination");
    tc "fuel exhaustion is divergence" (fun () ->
        let config = { M.default_config with fuel = 1_000 } in
        let r, _ = M.run_expr ~config (parse "sum (enumFromTo 1 100000)") in
        match r with
        | Error M.Fail_diverged -> ()
        | _ -> Alcotest.fail "expected divergence");
    tc "letrec knot through the heap" (fun () ->
        check_run "ones" (dints [ 1; 1; 1; 1 ])
          "let rec ones = 1 : ones in take 4 ones");
    tc "mutual recursion" (fun () ->
        check_run "evenodd" dtrue
          "let rec even n = if n == 0 then True else odd (n - 1)\n\
           and odd n = if n == 0 then False else even (n - 1) in even 9\n\
           == False");
    tc "fix" (fun () ->
        check_run "fix" (dint 24)
          "(fix (\\f -> \\n -> if n == 0 then 1 else n * f (n - 1))) 4");
    tc "mapException transforms during unwinding (Section 5.4)" (fun () ->
        check_nested "mapexn"
          (dbad [ E.User_error "mapped" ])
          "mapException (\\e -> UserError \"mapped\") (1/0)");
    tc "mapException identity on normal values" (fun () ->
        check_run "mapid" (dint 7)
          "mapException (\\e -> Overflow) 7");
    tc "mapException chains" (fun () ->
        check_nested "chain"
          (dbad [ E.Overflow ])
          "mapException (\\e -> Overflow)\n\
           (mapException (\\e -> UserError \"inner\") (1/0))");
    tc "mapException whose function raises" (fun () ->
        check_nested "mapraise"
          (dbad [ E.User_error "fn" ])
          "mapException (\\e -> raise (UserError \"fn\")) (1/0)");
    tc "unsafeIsException in the machine" (fun () ->
        check_run "isexn-t" dtrue "unsafeIsException (1/0)";
        check_run "isexn-f" dfalse "unsafeIsException 41");
    tc "pattern-match failure" (fun () ->
        check_run "pmf"
          (dbad [ E.Pattern_match_fail "case" ])
          "case 5 of { 0 -> 1 }");
    tc "overflow" (fun () ->
        check_run "ovf" (dbad [ E.Overflow ]) "2147483647 + 1");
    tc "type error: applying a non-function" (fun () ->
        match run "1 2" with
        | Value.DBad _ -> ()
        | d -> Alcotest.failf "got %a" Value.pp_deep d);
    tc "async events stay pending without a catch" (fun () ->
        let m = M.create () in
        Runtime.inject_async m ~at_step:0 E.Timeout;
        let a = M.alloc m (parse "sum (enumFromTo 1 100)") in
        match M.force m a with
        | Ok (Runtime.MInt 5050) -> ()
        | _ -> Alcotest.fail "expected completion despite pending event");
    tc "async event unwinds to the catch" (fun () ->
        let m = M.create () in
        Runtime.inject_async m ~at_step:100 E.Timeout;
        let a = M.alloc m (parse "sum (enumFromTo 1 5000)") in
        match M.force_catch m a with
        | Error (M.Fail_async E.Timeout) ->
            Alcotest.(check bool)
              "paused thunks" true
              ((M.stats m).Stats.thunks_paused > 0)
        | _ -> Alcotest.fail "expected async delivery");
    tc "paused computation resumes without losing work (Section 5.1)"
      (fun () ->
        let m = M.create () in
        Runtime.inject_async m ~at_step:2_000 E.Timeout;
        let a = M.alloc m (parse "sum (enumFromTo 1 3000)") in
        (match M.force_catch m a with
        | Error (M.Fail_async E.Timeout) -> ()
        | _ -> Alcotest.fail "expected interruption");
        let steps_at_interrupt = (M.stats m).Stats.steps in
        (* Resume: the pause cells must carry the work forward. *)
        (match M.force_catch m a with
        | Ok (Runtime.MInt 4501500) -> ()
        | Ok v ->
            Alcotest.failf "wrong resumed value %a" Value.pp_deep
              (M.deep m (Runtime.alloc_value m v))
        | Error f -> Alcotest.failf "resume failed: %a" Runtime.pp_failure f);
        let total = (M.stats m).Stats.steps in
        (* Restarting from scratch would re-run everything: resuming must
           cost less than the original prefix. *)
        Alcotest.(check bool)
          (Printf.sprintf "resume cheap (%d then %d)" steps_at_interrupt
             (total - steps_at_interrupt))
          true
          (total - steps_at_interrupt > 0));
    tc "interrupted-then-resumed equals uninterrupted" (fun () ->
        let expected, _ = M.run_deep (parse "product (enumFromTo 1 10)") in
        let m = M.create () in
        Runtime.inject_async m ~at_step:50 E.Interrupt;
        let a = M.alloc m (parse "product (enumFromTo 1 10)") in
        (match M.force_catch m a with
        | Error (M.Fail_async E.Interrupt) -> ()
        | Ok _ -> Alcotest.fail "expected interruption"
        | Error f -> Alcotest.failf "unexpected %a" Runtime.pp_failure f);
        match M.force_catch m a with
        | Ok v ->
            Alcotest.check deep "value"
              expected
              (M.deep m (Runtime.alloc_value m v))
        | Error f -> Alcotest.failf "resume failed: %a" Runtime.pp_failure f);
    tc "unsafeGetException on the machine" (fun () ->
        check_run "ok" (Value.DCon ("OK", [ dint 12 ]))
          "unsafeGetException (5 + 7)";
        check_run "bad"
          (Value.DCon ("Bad", [ Value.DCon ("DivideByZero", []) ]))
          "unsafeGetException (1/0)");
    tc "unsafeGetException consumed by case" (fun () ->
        check_run "consumed" (dint 99)
          "case unsafeGetException (head []) of\n\
           { OK v -> v; Bad e -> 99 }");
    tc "stats counters are populated" (fun () ->
        let _, stats = M.run_deep (parse "sum (enumFromTo 1 50)") in
        Alcotest.(check bool) "steps" true (stats.Stats.steps > 100);
        Alcotest.(check bool) "allocs" true (stats.Stats.allocations > 50);
        Alcotest.(check bool) "stack" true (stats.Stats.max_stack > 2));
    tc "repeated async injection: pause cells never lose work" (fun () ->
        let m = M.create () in
        Runtime.inject_async m ~at_step:500 E.Timeout;
        Runtime.inject_async m ~at_step:1_500 E.Interrupt;
        Runtime.inject_async m ~at_step:2_500 E.Heap_exhaustion;
        let a = M.alloc m (parse "sum (enumFromTo 1 3000)") in
        let rec go acc =
          match M.force_catch m a with
          | Error (M.Fail_async e) -> go (e :: acc)
          | Ok (Runtime.MInt n) -> (List.rev acc, n)
          | Ok _ -> Alcotest.fail "non-int result"
          | Error f -> Alcotest.failf "unexpected %a" Runtime.pp_failure f
        in
        let delivered, n = go [] in
        Alcotest.(check int) "value despite three interruptions" 4_501_500 n;
        Alcotest.(check int) "all three delivered" 3 (List.length delivered);
        Alcotest.(check bool)
          "work was paused" true
          ((M.stats m).Stats.thunks_paused > 0));
    tc "heap limit raises catchable HeapOverflow; gc re-arms it" (fun () ->
        let m =
          M.create ~config:{ M.default_config with heap_limit = Some 2_000 } ()
        in
        let a = M.alloc m (parse "sum (enumFromTo 1 5000)") in
        (match M.force_catch m a with
        | Error (M.Fail_exn E.Heap_overflow) -> ()
        | Ok _ -> Alcotest.fail "expected HeapOverflow"
        | Error f -> Alcotest.failf "unexpected %a" Runtime.pp_failure f);
        Alcotest.(check bool)
          "counted" true
          ((M.stats m).Stats.heap_overflows > 0);
        (* The raise frees nothing and the check is disarmed until a
           collection brings the heap back under the limit. *)
        ignore (M.gc m ~roots:[]);
        let b = M.alloc m (parse "sum (enumFromTo 1 10)") in
        match M.force_catch m b with
        | Ok (Runtime.MInt 55) -> ()
        | Ok _ -> Alcotest.fail "wrong value after recovery"
        | Error f -> Alcotest.failf "post-gc failure: %a" Runtime.pp_failure f);
    tc "stack limit raises catchable StackOverflow" (fun () ->
        let m =
          M.create ~config:{ M.default_config with stack_limit = Some 100 } ()
        in
        let a =
          M.alloc m (parse "foldr (\\a b -> a + b) 0 (enumFromTo 1 2000)")
        in
        match M.force_catch m a with
        | Error (M.Fail_exn E.Stack_overflow_exn) ->
            Alcotest.(check bool)
              "counted" true
              ((M.stats m).Stats.stack_overflows > 0)
        | Ok _ -> Alcotest.fail "expected StackOverflow"
        | Error f -> Alcotest.failf "unexpected %a" Runtime.pp_failure f);
  ]

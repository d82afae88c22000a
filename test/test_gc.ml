open Imprecise
open Helpers
module M = Machine
module E = Exn

(* The machine's copying collector. *)

let suite =
  [
    tc "collection shrinks a garbage-heavy heap" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "sum (enumFromTo 1 300)") in
        (match M.force m a with
        | Ok (Runtime.MInt 45150) -> ()
        | _ -> Alcotest.fail "value");
        let before = Runtime.heap_size m in
        (match M.gc m ~roots:[ a ] with
        | [ a' ] -> (
            let after = Runtime.heap_size m in
            Alcotest.(check bool)
              (Printf.sprintf "shrank %d -> %d" before after)
              true
              (after < before / 10);
            match M.force m a' with
            | Ok (Runtime.MInt 45150) -> ()
            | _ -> Alcotest.fail "value after gc")
        | _ -> Alcotest.fail "roots");
        Alcotest.(check int) "collections counted" 1
          (M.stats m).Stats.collections);
    tc "roots are relocated in order" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "1 + 1") in
        let b = M.alloc m (parse "2 + 2") in
        (match (M.force m a, M.force m b) with
        | Ok (Runtime.MInt 2), Ok (Runtime.MInt 4) -> ()
        | _ -> Alcotest.fail "values");
        match M.gc m ~roots:[ a; b ] with
        | [ a'; b' ] -> (
            match (M.force m a', M.force m b') with
            | Ok (Runtime.MInt 2), Ok (Runtime.MInt 4) -> ()
            | _ -> Alcotest.fail "values after gc")
        | _ -> Alcotest.fail "roots");
    tc "lazy structures survive collection unevaluated" (fun () ->
        let m = M.create () in
        let a =
          M.alloc m (parse "take 3 (iterate (\\x -> x * 2) 1)")
        in
        (* Force only the WHNF, collect, then force deeply. *)
        (match M.force m a with Ok (Runtime.MCon _) -> () | _ ->
          Alcotest.fail "whnf");
        (match M.gc m ~roots:[ a ] with
        | [ a' ] ->
            Alcotest.check deep "deep after gc" (dints [ 1; 2; 4 ])
              (M.deep m a')
        | _ -> Alcotest.fail "roots");
        ());
    tc "cycles survive collection" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "let rec ones = 1 : ones in ones") in
        (match M.force m a with Ok _ -> () | Error _ -> Alcotest.fail "f");
        match M.gc m ~roots:[ a ] with
        | [ a' ] -> (
            (* take from the cyclic structure after collection *)
            let taker =
              M.alloc_app m
                (M.alloc m (parse "take 4"))
                a'
            in
            match M.force m taker with
            | Ok _ ->
                Alcotest.check deep "cyclic" (dints [ 1; 1; 1; 1 ])
                  (M.deep m taker)
            | Error f -> Alcotest.failf "take: %a" Runtime.pp_failure f)
        | _ -> Alcotest.fail "roots");
    tc "poisoned thunks survive collection" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "1/0") in
        (match M.force_catch m a with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "catch");
        match M.gc m ~roots:[ a ] with
        | [ a' ] -> (
            match M.force_catch m a' with
            | Error (M.Fail_exn E.Divide_by_zero) -> ()
            | _ -> Alcotest.fail "re-raise after gc")
        | _ -> Alcotest.fail "roots");
    tc "paused (interrupted) computations resume across collection"
      (fun () ->
        let m = M.create () in
        Runtime.inject_async m ~at_step:2_000 E.Timeout;
        let a = M.alloc m (parse "sum (enumFromTo 1 3000)") in
        (match M.force_catch m a with
        | Error (M.Fail_async E.Timeout) -> ()
        | _ -> Alcotest.fail "interrupt");
        match M.gc m ~roots:[ a ] with
        | [ a' ] -> (
            match M.force_catch m a' with
            | Ok (Runtime.MInt 4501500) -> ()
            | _ -> Alcotest.fail "resume after gc")
        | _ -> Alcotest.fail "roots");
    tc "pause cells are traced and survive relocation" (fun () ->
        (* Satellite of the async-exception work: an interrupt mid-sum
           parks a pause cell (Ev_pause); the cell must survive the
           copying collector and resume (Ev_resume) to the exact value,
           proving relocation preserved the captured continuation. *)
        let trace = Obs.create ~on:true () in
        let m = M.create ~trace () in
        Runtime.inject_async m ~at_step:2_000 E.Timeout;
        let a = M.alloc m (parse "sum (enumFromTo 1 3000)") in
        (match M.force_catch m a with
        | Error (M.Fail_async E.Timeout) -> ()
        | _ -> Alcotest.fail "interrupt");
        let paused =
          List.exists
            (function Obs.Ev_pause _ -> true | _ -> false)
            (Obs.events trace)
        in
        Alcotest.(check bool) "pause recorded" true paused;
        match M.gc m ~roots:[ a ] with
        | [ a' ] -> (
            (match M.force_catch m a' with
            | Ok (Runtime.MInt 4501500) -> ()
            | _ -> Alcotest.fail "resume after gc");
            let resumed =
              List.exists
                (function Obs.Ev_resume _ -> true | _ -> false)
                (Obs.events trace)
            in
            Alcotest.(check bool) "resume recorded" true resumed)
        | _ -> Alcotest.fail "roots");
    tc "unrooted data is dropped" (fun () ->
        let m = M.create () in
        let _garbage = M.alloc m (parse "sum (enumFromTo 1 100)") in
        let keep = Runtime.alloc_value m (Runtime.MInt 7) in
        (match M.gc m ~roots:[ keep ] with
        | [ k ] ->
            Alcotest.(check int) "one live cell" 1 (Runtime.heap_size m);
            (match M.force m k with
            | Ok (Runtime.MInt 7) -> ()
            | _ -> Alcotest.fail "kept value")
        | _ -> Alcotest.fail "roots"));
    tc "IO driver with gc_every produces identical results" (fun () ->
        let src =
          "mapM (\\x -> getException (100 / x)) [5, 0, 2] >>= \\rs ->\n\
           mapM2 (\\r -> case r of { OK v -> putInt v >> putChar ' ';\n\
           Bad e -> putChar '!' }) rs"
        in
        let plain = Machine_conc.run (parse src) in
        let with_gc = Machine_conc.run ~gc_every:3 (parse src) in
        Alcotest.(check string)
          "same output" plain.Machine_conc.output with_gc.Machine_conc.output;
        Alcotest.(check bool)
          "collections ran" true
          (with_gc.Machine_conc.stats.Stats.collections > 0));
    tc "repeated collection is idempotent on live size" (fun () ->
        let m = M.create () in
        let a = M.alloc m (parse "take 5 (iterate (\\x -> x + 1) 0)") in
        (match M.force m a with Ok _ -> () | Error _ -> Alcotest.fail "f");
        match M.gc m ~roots:[ a ] with
        | [ a1 ] -> (
            let s1 = Runtime.heap_size m in
            match M.gc m ~roots:[ a1 ] with
            | [ a2 ] ->
                let s2 = Runtime.heap_size m in
                Alcotest.(check int) "stable" s1 s2;
                Alcotest.check deep "value" (dints [ 0; 1; 2; 3; 4 ])
                  (M.deep m a2)
            | _ -> Alcotest.fail "roots2")
        | _ -> Alcotest.fail "roots1");
    tc "heap-overflow latch re-arms across two recovery cycles" (fun () ->
        (* Regression for the [heap_check_armed] latch: HeapOverflow is
           raised once per exhaustion (the latch disarms so unwinding
           itself can allocate), and a collection must re-arm it so a
           *second* exhaustion raises again instead of growing without
           bound — two full overflow -> recover -> overflow cycles. *)
        let config = { M.default_config with heap_limit = Some 800 } in
        let m = M.create ~config () in
        let overflow_once tag =
          let a = M.alloc m (parse "sum (enumFromTo 1 2000)") in
          match M.force_catch m a with
          | Error (M.Fail_exn E.Heap_overflow) -> ()
          | Ok _ -> Alcotest.failf "%s: expected overflow, got a value" tag
          | Error f -> Alcotest.failf "%s: unexpected %a" tag Runtime.pp_failure f
        in
        overflow_once "first cycle";
        (* Recover: drop everything and collect, which re-arms the
           latch alongside freeing the heap. *)
        (match M.gc m ~roots:[] with
        | [] -> ()
        | _ -> Alcotest.fail "no roots requested");
        Alcotest.(check bool) "heap freed" true (Runtime.heap_size m < 100);
        (* A small allocation must now succeed... *)
        (match M.force m (M.alloc m (parse "1 + 2")) with
        | Ok (Runtime.MInt 3) -> ()
        | _ -> Alcotest.fail "small alloc after recovery");
        (* ...and a second exhaustion must raise again, proving the
           latch re-armed rather than staying disarmed after cycle one. *)
        overflow_once "second cycle";
        Alcotest.(check int) "two overflows counted" 2
          (M.stats m).Stats.heap_overflows);
      tc "a caught HeapOverflow collects and re-arms the limit (bugs #9)"
      (fun () ->
        (* Both catches overflow the same 2,000-cell ceiling. Without a
           collection after the first, the heap latch stays disarmed and
           the second runs until it diverges. One thread, then the first
           catch in a forked worker. *)
        let config = { Machine.default_config with heap_limit = Some 2_000 } in
        let big = "getException (length (replicate 100000 1))" in
        let bad = Value.DCon ("Bad", [ Value.DCon ("HeapOverflow", []) ]) in
        List.iter
          (fun (name, src) ->
            let r = Machine_conc.run ~config (parse src) in
            (match r.Machine_conc.outcome with
            | Machine_conc.Done d ->
                Alcotest.check deep name (Value.DCon ("Pair", [ bad; bad ])) d
            | o -> Alcotest.failf "%s: %a" name Machine_conc.pp_outcome o);
            Alcotest.(check int) (name ^ ": overflows") 2
              r.Machine_conc.stats.Stats.heap_overflows;
            Alcotest.(check bool) (name ^ ": collected") true
              (r.Machine_conc.stats.Stats.collections > 0))
          [
            ( "one thread",
              big ^ " >>= \\a -> " ^ big ^ " >>= \\b -> return (Pair a b)" );
            ( "forked worker",
              "newEmptyMVar >>= \\m -> forkIO (" ^ big
              ^ " >>= \\a -> putMVar m a) >>= \\u -> takeMVar m >>= \\a -> " ^ big
              ^ " >>= \\b -> return (Pair a b)" );
          ]);
]

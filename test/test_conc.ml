open Imprecise
open Helpers
module E = Exn

(* The concurrency extension of Section 4.4's closing remark: forkIO and
   MVars over the denotational values, in the same transition system a
   single-threaded program runs in as the one-thread case. *)

let run ?config ?input src = Conc.run ?config ?input (parse src)

let check_done msg expected (r : Conc.result) =
  match r.Conc.outcome with
  | Conc.Done d -> Alcotest.check deep msg expected d
  | o -> Alcotest.failf "%s: unexpected %a" msg Conc.pp_outcome o

let suite =
  [
    tc "single-threaded programs behave as one-thread runs" (fun () ->
        check_done "ret" (dint 8) (run "return 3 >>= \\x -> return (x + 5)");
        let r = run ~input:"z" "getChar >>= \\c -> putChar c" in
        Alcotest.(check string) "echo" "z" (Conc.output_string_of r));
    tc "forkIO returns unit to the parent" (fun () ->
        check_done "fork" (dint 5) (run "forkIO (return 1) >> return 5"));
    tc "writers interleave round-robin" (fun () ->
        let r =
          run
            "forkIO (putChar 'a' >> putChar 'b' >> putChar 'c') >>\n\
             putChar 'x' >> putChar 'y' >> putChar 'z' >> return 0"
        in
        Alcotest.(check string) "interleaved" "xaybzc"
          (Conc.output_string_of r);
        Alcotest.(check int) "threads" 2 r.Conc.threads_spawned);
    tc "MVar rendezvous" (fun () ->
        check_done "mv" (dint 42)
          (run
             "newEmptyMVar >>= \\mv -> forkIO (putMVar mv 42) >>\n\
              takeMVar mv >>= \\v -> return v"));
    tc "ping-pong through two MVars" (fun () ->
        check_done "pp" (dint 42)
          (run
             "newEmptyMVar >>= \\a -> newEmptyMVar >>= \\b ->\n\
              forkIO (takeMVar a >>= \\x -> putMVar b (x + 1)) >>\n\
              putMVar a 41 >> takeMVar b >>= \\r -> return r"));
    tc "takeMVar blocks until a put" (fun () ->
        (* Child delays its put behind some busywork; main still gets it. *)
        check_done "delayed" (dint 7)
          (run
             "newEmptyMVar >>= \\mv ->\n\
              forkIO (putInt (sum (enumFromTo 1 50)) >> putMVar mv 7) >>\n\
              takeMVar mv >>= \\v -> return v"));
    tc "putMVar blocks while full" (fun () ->
        (* The second put waits until main takes; order of takes proves
           the first put went through first. *)
        check_done "full" (Value.DCon ("Pair", [ dint 1; dint 2 ]))
          (run
             "newEmptyMVar >>= \\mv ->\n\
              forkIO (putMVar mv 1 >> putMVar mv 2) >>\n\
              takeMVar mv >>= \\x -> takeMVar mv >>= \\y ->\n\
              return (x, y)"));
    tc "an irrecoverably blocked thread dies of BlockedIndefinitely" (fun () ->
        (* Previously a global Deadlock; now the blocked thread receives
           the catchable BlockedIndefinitely, uncaught here. *)
        match (run "newEmptyMVar >>= \\mv -> takeMVar mv").Conc.outcome with
        | Conc.Uncaught E.Blocked_indefinitely -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "two takers: the starved second take gets BlockedIndefinitely"
      (fun () ->
        match
          (run
             "newEmptyMVar >>= \\mv -> putMVar mv 1 >>\n\
              takeMVar mv >>= \\a -> takeMVar mv")
            .Conc.outcome
        with
        | Conc.Uncaught E.Blocked_indefinitely -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "BlockedIndefinitely is caught at getException; fallback completes"
      (fun () ->
        let src =
          "newEmptyMVar >>= \\mv -> getException (takeMVar mv) >>= \\r ->\n\
           case r of { OK x -> return 0 ; Bad e ->\n\
           (if eqExn e BlockedIndefinitely then putChar 'f' else putChar \
           '?') >>= \\u -> return 7 }"
        in
        let r = run src in
        check_done "fallback ran" (dint 7) r;
        Alcotest.(check string) "marker" "f" (Conc.output_string_of r);
        Alcotest.(check int)
          "recovery counted" 1 r.Conc.counters.Conc.blocked_recoveries;
        let m = Machine_conc.run (parse src) in
        (match m.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "machine" (dint 7) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check string) "machine marker" "f" m.Machine_conc.output);
    tc "Deadlock survives only when every blocked thread is masked"
      (fun () ->
        (* A masked blocked thread defers BlockedIndefinitely forever, so
           the old global outcome is still reachable. *)
        let src = "newEmptyMVar >>= \\mv -> mask (takeMVar mv)" in
        (match (run src).Conc.outcome with
        | Conc.Deadlock -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
        match (Machine_conc.run (parse src)).Machine_conc.outcome with
        | Machine_conc.Deadlock -> ()
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
    tc "a child's uncaught exception kills only that thread" (fun () ->
        let r = run "forkIO (putInt (1/0)) >> putChar 'k' >> return 5" in
        check_done "main survives" (dint 5) r;
        Alcotest.(check string) "output" "k" (Conc.output_string_of r);
        Alcotest.(check bool)
          "death recorded" true
          (List.exists
             (function Conc.E_thread_died (1, _) -> true | _ -> false)
             r.Conc.trace));
    tc "the main thread's uncaught exception ends the program" (fun () ->
        match (run "putChar (head []) >> return 1").Conc.outcome with
        | Conc.Uncaught (E.Pattern_match_fail "head") -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "getException works per-thread" (fun () ->
        check_done "catch" (dint 99)
          (run
             "newEmptyMVar >>= \\mv ->\n\
              forkIO (getException (1/0) >>= \\r ->\n\
              case r of { OK v -> putMVar mv v; Bad e -> putMVar mv 99 }) >>\n\
              takeMVar mv >>= \\v -> return v"));
    tc "worker pool sums through an MVar" (fun () ->
        (* Three workers deposit partial sums; main collects. *)
        check_done "pool" (dint 600)
          (run
             "newEmptyMVar >>= \\mv ->\n\
              forkIO (putMVar mv 100) >>\n\
              forkIO (putMVar mv 200) >>\n\
              forkIO (putMVar mv 300) >>\n\
              takeMVar mv >>= \\a -> takeMVar mv >>= \\b ->\n\
              takeMVar mv >>= \\c -> return (a + b + c)"));
    tc "fork inherits lazy shared structure" (fun () ->
        (* The shared thunk is forced once; both threads see the value. *)
        check_done "shared" (Value.DCon ("Pair", [ dint 5050; dint 5050 ]))
          (run
             "let s = sum (enumFromTo 1 100) in\n\
              newEmptyMVar >>= \\mv ->\n\
              forkIO (putMVar mv s) >>\n\
              takeMVar mv >>= \\a -> return (a, s)"));
    tc "scheduler budget reports divergence" (fun () ->
        match
          (Conc.run ~max_steps:100
             (parse "let rec spin = return 1 >>= \\x -> spin in spin"))
            .Conc.outcome
        with
        | Conc.Diverged -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "MVar operations are typed (MVar a)" (fun () ->
        (match Infer.check_string "\\mv -> takeMVar mv" with
        | Ok t ->
            Alcotest.(check string) "take" "MVar 'a -> IO 'a"
              (Infer.ty_to_string t)
        | Error e -> Alcotest.failf "%a" Infer.pp_error e);
        (match Infer.check_string "newEmptyMVar >>= \\mv -> putMVar mv 3" with
        | Ok t ->
            Alcotest.(check string) "put" "IO Unit" (Infer.ty_to_string t)
        | Error e -> Alcotest.failf "%a" Infer.pp_error e);
        match Infer.check_string "putMVar 3 4" with
        | Ok t -> Alcotest.failf "ill-typed accepted: %s" (Infer.ty_to_string t)
        | Error _ -> ());
    (* The machine implementation of the same extension. *)
    tc "machine: MVar rendezvous" (fun () ->
        let r =
          Machine_conc.run
            (parse
               "newEmptyMVar >>= \\mv -> forkIO (putMVar mv 42) >>\n\
                takeMVar mv >>= \\v -> return v")
        in
        match r.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "42" (dint 42) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
    tc "machine: thunks are shared across threads" (fun () ->
        (* The shared sum is computed once: with sharing, total steps stay
           well below two full evaluations. *)
        let r =
          Machine_conc.run
            (parse
               "let s = sum (enumFromTo 1 500) in\n\
                newEmptyMVar >>= \\mv -> forkIO (putMVar mv s) >>\n\
                takeMVar mv >>= \\a -> return (a + s)")
        in
        (match r.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "sum" (dint 250500) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        let single, single_stats =
          Machine.run_deep (parse "sum (enumFromTo 1 500)")
        in
        Alcotest.check deep "single" (dint 125250) single;
        Alcotest.(check bool)
          "shared work" true
          (r.Machine_conc.stats.Stats.steps
          < 2 * single_stats.Stats.steps));
    tc "semantic and machine concurrency agree on a battery" (fun () ->
        let battery =
          [
            "return (1 + 1)";
            "forkIO (return 1) >> return 5";
            "newEmptyMVar >>= \\mv -> forkIO (putMVar mv 7) >>\n\
             takeMVar mv >>= \\v -> return v";
            "newEmptyMVar >>= \\mv -> takeMVar mv";
            "forkIO (putChar 'a' >> putChar 'b') >>\n\
             putChar 'x' >> putChar 'y' >> return 0";
            "newEmptyMVar >>= \\a -> newEmptyMVar >>= \\b ->\n\
             forkIO (takeMVar a >>= \\x -> putMVar b (x * 2)) >>\n\
             putMVar a 21 >> takeMVar b >>= \\r -> return r";
            (* A self-throw is synchronous in both layers. *)
            "getException (myThreadId >>= \\t -> throwTo t (UserError \
             \"boom\") >>= \\u -> return 1) >>= \\r ->\n\
             case r of { OK x -> return x ; Bad e -> return 77 }";
            (* Blocked-forever recovers identically in both layers. *)
            "newEmptyMVar >>= \\mv -> getException (takeMVar mv) >>= \\r \
             ->\n\
             case r of { OK x -> return x ; Bad e -> return 5 }";
          ]
        in
        List.iter
          (fun src ->
            let sem = Conc.run (parse src) in
            let mach = Machine_conc.run (parse src) in
            let agree =
              match (sem.Conc.outcome, mach.Machine_conc.outcome) with
              | Conc.Done d1, Machine_conc.Done d2 -> Value.deep_equal d1 d2
              | Conc.Deadlock, Machine_conc.Deadlock -> true
              | Conc.Uncaught e1, Machine_conc.Uncaught e2 -> Exn.equal e1 e2
              | Conc.Diverged, Machine_conc.Diverged -> true
              | _ -> false
            in
            Alcotest.(check bool)
              (Printf.sprintf "outcome of %s" src)
              true agree;
            Alcotest.(check string)
              (Printf.sprintf "output of %s" src)
              (Conc.output_string_of sem)
              mach.Machine_conc.output)
          battery);
    tc "a bottom transition does not starve later transitions" (fun () ->
        (* putInt (1/0) explores reverse of an undefined list: its
           denotation is bottom and burns a full tank; the refill keeps
           the rest of the program healthy. *)
        let r =
          Conc.run
            ~config:(Denot.with_fuel 20_000)
            (parse
               "forkIO (putInt (1/0)) >>\n\
                putInt (sum (enumFromTo 1 100)) >> return 1")
        in
        check_done "healthy" (dint 1) r;
        Alcotest.(check string) "output" "5050" (Conc.output_string_of r));
    tc "a forked thread's bracket releases before the join" (fun () ->
        let r =
          run
            "newEmptyMVar >>= \\mv -> forkIO (bracket (putChar 'A' >>= \\u \
             -> return 1) (\\r -> putChar 'R') (\\r -> putChar 'B' >>= \\u \
             -> return 2) >>= \\x -> putMVar mv x) >>= \\u -> takeMVar mv \
             >>= \\y -> putChar 'J' >>= \\u2 -> return y"
        in
        check_done "joined with the use result" (dint 2) r;
        let out = Conc.output_string_of r in
        Alcotest.(check bool)
          "release before join" true
          (String.index out 'R' < String.index out 'J');
        Alcotest.(check int) "entered" 1 r.Conc.counters.Conc.brackets_entered;
        Alcotest.(check int) "released" 1
          r.Conc.counters.Conc.brackets_released);
    tc "retry backoff sleeps without deadlocking the scheduler" (fun () ->
        (* The only thread sleeps between attempts: the scheduler must
           fast-forward the clock, not report deadlock. *)
        let r = run "retryWithBackoff 2 10 (seq (head []) (return 0))" in
        match r.Conc.outcome with
        | Conc.Uncaught (E.Pattern_match_fail _) -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "per-thread masks are independent" (fun () ->
        (* The child masks; the parent stays interruptible, so the
           injected event lands on the parent's getException while the
           child completes untouched. *)
        let r =
          Conc.run
            ~async:[ (0, E.Interrupt) ]
            (parse
               "forkIO (mask (getException 1 >>= \\a -> putChar 'M' >>= \
                \\u -> return 0)) >>= \\u -> getException 2 >>= \\b -> \
                case b of { Bad e -> putChar '!' >>= \\u2 -> return 1 ; OK \
                x -> putChar '.' >>= \\u2 -> return 2 }"
        )
        in
        check_done "parent took the event" (dint 1) r;
        let out = Conc.output_string_of r in
        Alcotest.(check bool) "child finished" true (String.contains out 'M');
        Alcotest.(check bool) "parent interrupted" true
          (String.contains out '!'));
    tc "a seeded oracle replays the same schedule" (fun () ->
        (* The oracle owns every nondeterministic choice, so two runs
           with the same seed must agree on outcome, output and thread
           accounting — the property the fuzzer's replay depends on. *)
        let racy =
          parse
            "newEmptyMVar >>= \\mv ->\n\
             forkIO (putChar 'a' >>= \\u -> putMVar mv (1/0)) >>= \\u ->\n\
             forkIO (putChar 'b' >>= \\u -> putMVar mv 2) >>= \\u ->\n\
             takeMVar mv >>= \\x -> getException x >>= \\r ->\n\
             case r of { Bad e -> return 0 ; OK v -> return v }"
        in
        let go seed = Conc.run ~oracle:(Oracle.create ~seed) racy in
        List.iter
          (fun seed ->
            let r1 = go seed and r2 = go seed in
            let ok =
              match (r1.Conc.outcome, r2.Conc.outcome) with
              | Conc.Done d1, Conc.Done d2 -> Value.deep_equal d1 d2
              | o1, o2 -> o1 = o2
            in
            Alcotest.(check bool)
              (Printf.sprintf "outcome deterministic (seed %d)" seed)
              true ok;
            Alcotest.(check string)
              (Printf.sprintf "output deterministic (seed %d)" seed)
              (Conc.output_string_of r1)
              (Conc.output_string_of r2);
            Alcotest.(check int)
              (Printf.sprintf "threads deterministic (seed %d)" seed)
              r1.Conc.threads_spawned r2.Conc.threads_spawned)
          [ 1; 7; 42; 1999 ]);
    tc "killThread on yourself is ThreadKilled, even under mask" (fun () ->
        (* Section 5.1-style asynchronous exceptions, self-directed: a
           self-throw is synchronous and ignores the mask depth. *)
        let plain =
          "getException (myThreadId >>= \\t -> killThread t >>= \\u -> \
           return 1) >>= \\r -> case r of { OK x -> return 0 ; Bad e -> (if \
           eqExn e ThreadKilled then return 7 else return 8) }"
        in
        let masked =
          "mask (getException (myThreadId >>= \\t -> killThread t >>= \\u \
           -> return 1)) >>= \\r -> case r of { OK x -> return 0 ; Bad e \
           -> return 3 }"
        in
        check_done "caught as ThreadKilled" (dint 7) (run plain);
        check_done "mask does not defer a self-throw" (dint 3) (run masked);
        List.iter
          (fun (src, expect) ->
            match (Machine_conc.run (parse src)).Machine_conc.outcome with
            | Machine_conc.Done d -> Alcotest.check deep "machine" expect d
            | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o)
          [ (plain, dint 7); (masked, dint 3) ]);
    tc "throwTo to a finished thread is a no-op" (fun () ->
        (* The child hands its ThreadId over an MVar and exits; by the
           time the parent throws, the target is dead — like GHC, the
           send just evaporates. *)
        let src =
          "newEmptyMVar >>= \\mv ->\n\
           forkIO (myThreadId >>= \\t -> putMVar mv t) >>= \\u ->\n\
           takeMVar mv >>= \\t ->\n\
           putInt (sum (enumFromTo 1 100)) >>= \\u2 ->\n\
           killThread t >>= \\u3 -> putChar 'd' >>= \\u4 -> return 9"
        in
        let r = run src in
        check_done "parent unaffected" (dint 9) r;
        Alcotest.(check string) "output" "5050d" (Conc.output_string_of r);
        let m = Machine_conc.run (parse src) in
        (match m.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "machine" (dint 9) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check string) "machine output" "5050d" m.Machine_conc.output);
    tc "a forked child inherits the parent's mask depth" (fun () ->
        (* Forked under mask, the child is born protected: a scheduled
           kill stays pending forever and the child's output survives
           complete. The unmasked twin is torn by the same schedule. *)
        let masked =
          "mask (forkIO (putChar 'w' >> putChar 'x' >> putChar 'y' >> \
           putChar 'z')) >>= \\u -> putInt (sum (enumFromTo 1 50)) >>= \
           \\u2 -> return 3"
        in
        let unmasked =
          "forkIO (putChar 'w' >> putChar 'x' >> putChar 'y' >> putChar \
           'z') >>= \\u -> putInt (sum (enumFromTo 1 50)) >>= \\u2 -> \
           return 3"
        in
        (* Clocks count micro-transitions, which differ per layer; a
           spread of thresholds guarantees at least one entry falls due
           while the child is alive (earlier entries aimed at a tid not
           yet spawned are dropped, like a dead throwTo). *)
        let kills =
          [ (2, 1, E.Thread_killed); (4, 1, E.Thread_killed);
            (6, 1, E.Thread_killed) ]
        in
        let rm = Conc.run ~kills (parse masked) in
        check_done "masked child's parent" (dint 3) rm;
        let out = Conc.output_string_of rm in
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "masked child wrote %c" c)
              true (String.contains out c))
          [ 'w'; 'x'; 'y'; 'z' ];
        Alcotest.(check int)
          "deferred forever" 0 rm.Conc.counters.Conc.throwtos_delivered;
        let ru = Conc.run ~kills (parse unmasked) in
        check_done "unmasked child's parent" (dint 3) ru;
        Alcotest.(check int)
          "kill delivered" 1 ru.Conc.counters.Conc.throwtos_delivered;
        Alcotest.(check bool)
          "child torn" false
          (String.contains (Conc.output_string_of ru) 'z');
        (* Machine layer: same story, transition-counted schedule. *)
        let mm = Machine_conc.run ~kills (parse masked) in
        (match mm.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "machine masked" (dint 3) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "machine masked child wrote %c" c)
              true
              (String.contains mm.Machine_conc.output c))
          [ 'w'; 'x'; 'y'; 'z' ];
        let mu = Machine_conc.run ~kills (parse unmasked) in
        (match mu.Machine_conc.outcome with
        | Machine_conc.Done d ->
            Alcotest.check deep "machine unmasked" (dint 3) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check int)
          "machine kill delivered" 1
          mu.Machine_conc.counters.Machine_conc.throwtos_delivered;
        Alcotest.(check bool)
          "machine child torn" false
          (String.contains mu.Machine_conc.output 'z'));
    tc "a killed worker leaves the supervisor a catchable blocked join"
      (fun () ->
        (* The kill schedule murders the worker mid-sum; the join on its
           MVar then blocks forever, BlockedIndefinitely lands at the
           supervisor's getException, and the fallback completes. *)
        let src =
          "newEmptyMVar >>= \\mv ->\n\
           forkIO (putInt (sum (enumFromTo 1 200)) >>= \\u -> putMVar mv \
           1) >>= \\u ->\n\
           getException (takeMVar mv) >>= \\r ->\n\
           case r of { OK x -> return x ; Bad e -> putChar 'F' >>= \\u2 -> \
           return 42 }"
        in
        let kills =
          [ (3, 1, E.Thread_killed); (5, 1, E.Thread_killed);
            (7, 1, E.Thread_killed) ]
        in
        let r = Conc.run ~kills (parse src) in
        check_done "fallback value" (dint 42) r;
        Alcotest.(check bool)
          "fallback marker" true
          (String.contains (Conc.output_string_of r) 'F');
        Alcotest.(check int)
          "kill delivered" 1 r.Conc.counters.Conc.throwtos_delivered;
        Alcotest.(check int)
          "blocked join recovered" 1 r.Conc.counters.Conc.blocked_recoveries;
        let m = Machine_conc.run ~kills (parse src) in
        (match m.Machine_conc.outcome with
        | Machine_conc.Done d -> Alcotest.check deep "machine" (dint 42) d
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check int)
          "machine kill delivered" 1
          m.Machine_conc.counters.Machine_conc.throwtos_delivered;
        Alcotest.(check int)
          "machine blocked join recovered" 1
          m.Machine_conc.counters.Machine_conc.blocked_recoveries);
    tc "failing outcomes keep the output accumulated so far" (fun () ->
        (* Uncaught and Deadlock results still carry the partial output
           and stats — a crashed program's trail is not discarded. *)
        let uncaught =
          "putChar 'a' >>= \\u -> putChar 'b' >>= \\u2 -> putChar (head [])"
        in
        let r = run uncaught in
        (match r.Conc.outcome with
        | Conc.Uncaught (E.Pattern_match_fail "head") -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
        Alcotest.(check string) "partial output" "ab"
          (Conc.output_string_of r);
        let m = Machine_conc.run (parse uncaught) in
        (match m.Machine_conc.outcome with
        | Machine_conc.Uncaught (E.Pattern_match_fail "head") -> ()
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check string) "machine partial output" "ab"
          m.Machine_conc.output;
        Alcotest.(check bool)
          "stats survive the crash" true
          (m.Machine_conc.stats.Stats.steps > 0);
        let stuck =
          "putChar 'a' >>= \\u -> newEmptyMVar >>= \\mv -> mask (takeMVar \
           mv)"
        in
        let rd = run stuck in
        (match rd.Conc.outcome with
        | Conc.Deadlock -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
        Alcotest.(check string) "deadlock keeps output" "a"
          (Conc.output_string_of rd);
        let md = Machine_conc.run (parse stuck) in
        (match md.Machine_conc.outcome with
        | Machine_conc.Deadlock -> ()
        | o -> Alcotest.failf "unexpected %a" Machine_conc.pp_outcome o);
        Alcotest.(check string) "machine deadlock keeps output" "a"
          md.Machine_conc.output);
      tc "getException of a NonTermination set may loop (bugs #10)" (fun () ->
        (* Section 4.4: getException (Bad s) -> getException (Bad s) when
           NonTermination is in s. A seeded oracle takes that rule on some
           seeds and picks a member on others. *)
        let e = parse "getException (let rec x = x + 1 in x) >>= \\v -> return 1" in
        let diverged =
          List.length
            (List.filter
               (fun seed ->
                 (Conc.run ~config:(Denot.with_fuel 2000) ~oracle:(Oracle.create ~seed) e)
                   .Conc.outcome
                 = Conc.Diverged)
               (List.init 100 Fun.id))
        in
        Alcotest.(check bool) "some seeds loop" true (diverged > 0);
        Alcotest.(check bool) "some seeds pick" true (diverged < 100));
      tc "a forked child's self-transition does not end the run" (fun () ->
        (* Only main's self-transition ends the program: a child that takes
           it spins while main runs on to Done. *)
        let e =
          parse
            "forkIO (getException (let rec x = x + 1 in x) >>= \\v -> putChar \
             'c') >>= \\u -> putChar 'a' >>= \\u1 -> putChar 'b' >>= \\u2 -> \
             putChar 'd' >>= \\u3 -> putChar 'e' >>= \\u4 -> return 1"
        in
        let parked = ref 0 in
        List.iter
          (fun seed ->
            let r =
              Conc.run ~config:(Denot.with_fuel 2000) ~oracle:(Oracle.create ~seed)
                ~check_invariants:true e
            in
            check_done (Printf.sprintf "seed %d" seed) (dint 1) r;
            if not (String.contains (Conc.output_string_of r) 'c') then incr parked)
          (List.init 100 Fun.id);
        Alcotest.(check bool) "some children spin" true (!parked > 0);
        Alcotest.(check bool) "some children pick" true (!parked < 100));
      tc "a spinning child keeps main's blocked join from recovering" (fun () ->
        (* With only a spinning thread left to run, main's takeMVar is not
           blocked indefinitely: the run diverges. A kill ends the spin. *)
        let src =
          "newEmptyMVar >>= \\m -> forkIO (getException (let rec x = x + 1 in \
           x) >>= \\v -> putMVar m 7) >>= \\u -> takeMVar m"
        in
        let outcomes kills =
          List.map
            (fun seed ->
              (Conc.run ~config:(Denot.with_fuel 2000) ~oracle:(Oracle.create ~seed)
                 ~kills ~check_invariants:true (parse src))
                .Conc.outcome)
            (List.init 100 Fun.id)
        in
        let count p os = List.length (List.filter p os) in
        let done7 = function Conc.Done (Value.DInt 7) -> true | _ -> false in
        let plain = outcomes [] in
        Alcotest.(check int) "Done 7 or Diverged" 100
          (count (fun o -> done7 o || o = Conc.Diverged) plain);
        Alcotest.(check bool) "some diverge" true (count (( = ) Conc.Diverged) plain > 0);
        Alcotest.(check bool) "some finish" true (count done7 plain > 0);
        let killed = outcomes [ (8, 1, E.Thread_killed) ] in
        Alcotest.(check int) "killed spinners leave main to recover" 0
          (count (( = ) Conc.Diverged) killed);
        Alcotest.(check bool) "BlockedIndefinitely reaches main" true
          (List.mem (Conc.Uncaught E.Blocked_indefinitely) killed));
]

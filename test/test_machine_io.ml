open Imprecise
open Helpers
module E = Exn
module Mio = Machine_conc

let run ?config ?input ?async src = Mio.run ?config ?input ?async (parse src)

let check_done msg expected (r : Mio.result) =
  match r.outcome with
  | Mio.Done d -> Alcotest.check deep msg expected d
  | o -> Alcotest.failf "%s: unexpected %a" msg Mio.pp_outcome o

let suite =
  [
    tc "return" (fun () -> check_done "ret" (dint 5) (run "return (2+3)"));
    tc "echo" (fun () ->
        let r =
          run ~input:"hi"
            "getChar >>= \\a -> getChar >>= \\b -> putChar b >> putChar a"
        in
        Alcotest.(check string) "out" "ih" r.Mio.output);
    tc "putLine showInt" (fun () ->
        let r = run "putLine (showInt 9876)" in
        Alcotest.(check string) "out" "9876\n" r.Mio.output);
    tc "getException catches on the machine" (fun () ->
        check_done "catch"
          (Value.DCon ("Bad", [ Value.DCon ("DivideByZero", []) ]))
          (run "getException (1/0 + error \"Urk\") >>= \\v -> return v"));
    tc "the machine representative is deterministic" (fun () ->
        let once () =
          Fmt.str "%a"
            Mio.pp_outcome
            (run "getException (1/0 + error \"Urk\") >>= \\v -> return v")
              .Mio.outcome
        in
        Alcotest.(check string) "same" (once ()) (once ()));
    tc "uncaught exception" (fun () ->
        match (run "putInt (1/0)").Mio.outcome with
        | Mio.Uncaught E.Divide_by_zero -> ()
        | o -> Alcotest.failf "unexpected %a" Mio.pp_outcome o);
    tc "getChar end of input is stuck" (fun () ->
        match (run "getChar").Mio.outcome with
        | Mio.Stuck _ -> ()
        | o -> Alcotest.failf "unexpected %a" Mio.pp_outcome o);
    tc "async timeout delivered at getException, work resumes" (fun () ->
        let r =
          run
            ~async:[ (500, E.Timeout) ]
            "getException (sum (enumFromTo 1 2000)) >>= \\v1 ->\n\
             getException (sum (enumFromTo 1 2000)) >>= \\v2 ->\n\
             return (Pair v1 v2)"
        in
        check_done "pair"
          (Value.DCon
             ( "Pair",
               [
                 Value.DCon ("Bad", [ Value.DCon ("Timeout", []) ]);
                 Value.DCon ("OK", [ dint 2001000 ]);
               ] ))
          r;
        Alcotest.(check bool)
          "pause cells were created" true
          (r.Mio.stats.Stats.thunks_paused > 0));
    tc "poisoned thunk: same exception at both catches" (fun () ->
        check_done "same"
          dtrue
          (run
             "let x = 1/0 + error \"u\" in\n\
              getException x >>= \\v1 -> getException x >>= \\v2 ->\n\
              return (eqExVal (\\a b -> a == b) v1 v2)"));
    tc "mapM over machine IO" (fun () ->
        check_done "mapM" (dints [ 10; 20 ])
          (run "mapM (\\x -> return (10 * x)) [1, 2]"));
    tc "io divergence budget" (fun () ->
        let r =
          Mio.run ~max_transitions:40
            (parse "let rec spin = return 1 >>= \\x -> spin in spin")
        in
        match r.Mio.outcome with
        | Mio.Diverged -> ()
        | o -> Alcotest.failf "unexpected %a" Mio.pp_outcome o);
    tc "machine IO agrees with semantic IO on a program battery" (fun () ->
        let programs =
          [
            "return (1 + 1)";
            "putInt 42";
            "putLine (showInt (sum (enumFromTo 1 10)))";
            "getException (1/0) >>= \\v -> return v";
            "getException (head []) >>= \\v -> return v";
            "mapM2 (\\c -> putChar c) (showInt 123)";
            "ioSeq [putChar 'a', putChar 'b']";
          ]
        in
        List.iter
          (fun src ->
            let sem = Conc.run (parse src) in
            let mach = run src in
            Alcotest.(check string)
              (Printf.sprintf "output of %s" src)
              (Conc.output_string_of sem) mach.Mio.output;
            let comparable =
              match (sem.Conc.outcome, mach.Mio.outcome) with
              | Conc.Done d1, Mio.Done d2 -> Value.deep_equal d1 d2
              | Conc.Uncaught e1, Mio.Uncaught e2 -> E.equal e1 e2
              | Conc.Diverged, Mio.Diverged -> true
              | Conc.Stuck _, Mio.Stuck _ -> true
              | _ -> false
            in
            Alcotest.(check bool)
              (Printf.sprintf "outcome of %s" src)
              true comparable)
          programs);
    tc "bracket releases exactly once (stats)" (fun () ->
        let r =
          run
            "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar 'R') \
             (\\r -> putChar 'U' >>= \\u -> return 9)"
        in
        check_done "v" (dint 9) r;
        Alcotest.(check string) "order" "AUR" r.Mio.output;
        Alcotest.(check int) "entered" 1 r.Mio.counters.Mio.brackets_entered;
        Alcotest.(check int) "released" 1 r.Mio.counters.Mio.brackets_released);
    tc "bracket frames survive collections (gc_every)" (fun () ->
        let r =
          Mio.run ~gc_every:3
            (parse
               "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar \
                'R') (\\r -> putList (showInt (sum (enumFromTo 1 100))))")
        in
        (match r.Mio.outcome with
        | Mio.Done _ -> ()
        | o -> Alcotest.failf "unexpected %a" Mio.pp_outcome o);
        Alcotest.(check string) "out" "A5050R" r.Mio.output;
        Alcotest.(check int) "released" 1 r.Mio.counters.Mio.brackets_released);
    tc "timeout fires on the machine clock and releases" (fun () ->
        let r =
          run
            "timeout 6 (bracket (putChar 'A' >>= \\u -> return 1) (\\r -> \
             putChar 'R') (\\r -> putList (replicate 30 'x'))) >>= \\mv -> \
             case mv of { Nothing -> putChar 'T' >>= \\u -> return 0 ; \
             Just v -> return v }"
        in
        check_done "timed out" (dint 0) r;
        Alcotest.(check int) "fired" 1 r.Mio.counters.Mio.timeouts_fired;
        Alcotest.(check bool) "released" true (String.contains r.Mio.output 'R'));
    tc "mask defers injected events on the machine" (fun () ->
        let r =
          run
            ~async:[ (0, E.Interrupt) ]
            "mask (getException 1 >>= \\a -> putChar 'M' >>= \\u -> return \
             0) >>= \\w -> getException 2 >>= \\b -> case b of { Bad e -> \
             putChar '!' >>= \\u -> return 1 ; OK x -> putChar '.' >>= \\u \
             -> return 2 }"
        in
        check_done "deferred" (dint 1) r;
        Alcotest.(check string) "out" "M!" r.Mio.output;
        Alcotest.(check int) "delivered once" 1
          r.Mio.stats.Stats.async_delivered;
        Alcotest.(check bool)
          "masked sections counted" true
          (r.Mio.counters.Mio.masked_sections > 0));
    tc "retryWithBackoff succeeds once the input changes" (fun () ->
        let r =
          run ~input:"xxy"
            "retryWithBackoff 3 2 (getChar >>= \\c -> case c of { 'x' -> \
             seq (1/0) (return 0) ; z -> return 99 })"
        in
        check_done "third attempt" (dint 99) r);
    tc "heap limit surfaces as catchable HeapOverflow; supervisor recovers"
      (fun () ->
        let r =
          Mio.run
            ~config:{ Machine.default_config with heap_limit = Some 2_500 }
            (parse
               "getException (seq (sum (enumFromTo 1 5000)) 1) >>= \\v -> \
                case v of { OK x -> putChar 'O' >>= \\u -> return 0 ; Bad \
                e -> case e of { HeapOverflow -> putChar 'H' >>= \\u -> \
                getException (seq (sum (enumFromTo 1 10)) 2) >>= \\w -> \
                (case w of { OK y -> putChar 'K' ; Bad e2 -> putChar 'Z' \
                }) >>= \\u2 -> return 1 ; z -> putChar 'Y' >>= \\u -> \
                return 0 } }")
        in
        check_done "recovered" (dint 1) r;
        Alcotest.(check string) "caught then retried smaller" "HK" r.Mio.output;
        Alcotest.(check bool)
          "overflow counted" true
          (r.Mio.stats.Stats.heap_overflows > 0));
    tc "stack limit surfaces as catchable StackOverflow" (fun () ->
        let r =
          Mio.run
            ~config:{ Machine.default_config with stack_limit = Some 100 }
            (parse
               "getException (foldr (\\a b -> a + b) 0 (enumFromTo 1 \
                2000)) >>= \\v -> case v of { Bad e -> case e of { \
                StackOverflow -> putChar 'S' >>= \\u -> return 1 ; z -> \
                return 0 } ; OK x -> return 2 }")
        in
        check_done "caught" (dint 1) r;
        Alcotest.(check string) "marker" "S" r.Mio.output;
        Alcotest.(check bool)
          "overflow counted" true
          (r.Mio.stats.Stats.stack_overflows > 0));
      tc "machine fuel is refilled every transition (bugs #8)" (fun () ->
        (* 201 catches of a 2,000-element sum, 630 transitions in all: one
           step budget for the whole run used to run out, so [impexn run
           --machine] reported divergence. *)
        let r =
          run_io_machine
            (parse_program
               "loop i acc = if i > 200 then return acc else getException \
                (sum (enumFromTo 1 2000)) >>= \\v -> case v of { OK x -> \
                loop (i + 1) (acc + x); Bad e -> loop (i + 1) (acc - 1) };\n\
                main = loop 1 0 >>= \\s -> putInt s;")
        in
        check_done "done" (Value.DCon ("Unit", [])) r;
        Alcotest.(check string) "sum of sums" "400200000" r.Mio.output);
      tc "a transition that runs out of fuel raises NonTermination" (fun () ->
        (* One transition's step budget is the machine's approximation of
           divergence: running out is the NonTermination exception, caught
           by getException and otherwise uncaught — not a diverged run. *)
        let config = { Machine.default_config with fuel = 5_000 } in
        let long = "sum (enumFromTo 1 100000)" in
        check_done "caught"
          (Value.DCon ("Bad", [ Value.DCon ("NonTermination", []) ]))
          (run ~config ("getException (" ^ long ^ ") >>= \\v -> return v"));
        let r = run ~config ("putChar 'a' >>= \\u -> putInt (" ^ long ^ ")") in
        (match r.Mio.outcome with
        | Mio.Uncaught E.Non_termination -> ()
        | o -> Alcotest.failf "uncaught: unexpected %a" Mio.pp_outcome o);
        Alcotest.(check string) "output before the long force" "a" r.Mio.output;
        check_done "the next transition has fresh fuel" (dint 1)
          (run ~config
             ("getException (" ^ long ^ ") >>= \\v -> getException (" ^ long
            ^ ") >>= \\w -> return 1")));
]

open Imprecise
open Helpers
module E = Exn

let io_outcome : Conc.outcome Alcotest.testable =
  Alcotest.testable Conc.pp_outcome (fun a b ->
      match (a, b) with
      | Conc.Done d1, Conc.Done d2 -> Value.deep_equal d1 d2
      | Conc.Uncaught e1, Conc.Uncaught e2 -> E.equal e1 e2
      | Conc.Diverged, Conc.Diverged -> true
      | Conc.Stuck _, Conc.Stuck _ -> true
      | _ -> false)

let run ?oracle ?input ?async src = Conc.run ?oracle ?input ?async (parse src)

let check_outcome msg expected r =
  Alcotest.check io_outcome msg expected r.Conc.outcome

let suite =
  [
    tc "return delivers the value" (fun () ->
        check_outcome "ret" (Conc.Done (dint 5)) (run "return (2 + 3)"));
    tc "bind sequences" (fun () ->
        check_outcome "bind" (Conc.Done (dint 8))
          (run "return 3 >>= \\x -> return (x + 5)"));
    tc "bind is left-nested-safe" (fun () ->
        check_outcome "assoc" (Conc.Done (dint 6))
          (run "(return 1 >>= \\a -> return (a + 1)) >>= \\b -> return (b * 3)"));
    tc "getChar reads, putChar writes (paper's echo program)" (fun () ->
        let r = run ~input:"x" "getChar >>= \\c -> putChar c" in
        check_outcome "echo" (Conc.Done (Value.DCon ("Unit", []))) r;
        Alcotest.(check string) "out" "x" (Conc.output_string_of r));
    tc "trace records reads and writes in order" (fun () ->
        let r = run ~input:"ab" "getChar >>= \\c -> getChar >>= \\d -> putChar d >> putChar c" in
        Alcotest.(check string) "out" "ba" (Conc.output_string_of r);
        Alcotest.(check int) "events" 4
          (List.length
             (List.filter
                (function Conc.E_read _ | Conc.E_write _ -> true | _ -> false)
                r.Conc.trace)));
    tc "getChar on empty input is stuck" (fun () ->
        check_outcome "eof" (Conc.Stuck "") (run "getChar"));
    tc "putInt prints decimal" (fun () ->
        Alcotest.(check string) "out" "12345\n" (Conc.output_string_of (run "putLine (showInt 12345)")));
    tc "putInt prints negatives" (fun () ->
        Alcotest.(check string) "out" "-42" (Conc.output_string_of (run "putInt (negate 42)")));
    tc "getException returns OK for normal values" (fun () ->
        check_outcome "ok"
          (Conc.Done (Value.DCon ("OK", [ dint 3 ])))
          (run "getException 3 >>= \\v -> return v"));
    tc "getException picks a member of the set" (fun () ->
        let members = [ E.Divide_by_zero; E.User_error "Urk" ] in
        List.iter
          (fun seed ->
            let r =
              run
                ~oracle:(Oracle.create ~seed)
                "getException (1/0 + error \"Urk\") >>= \\v -> return v"
            in
            match r.Conc.outcome with
            | Conc.Done (Value.DCon ("Bad", [ d ])) ->
                let matches e =
                  Value.deep_equal d
                    (Value.deep_of_whnf (Value.exn_to_value e))
                in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d in set" seed)
                  true
                  (List.exists matches members)
            | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o)
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
    tc "different seeds can pick different members" (fun () ->
        let pick seed =
          let r =
            run ~oracle:(Oracle.create ~seed)
              "getException (1/0 + error \"Urk\") >>= \\v -> return v"
          in
          Fmt.str "%a" Conc.pp_outcome r.Conc.outcome
        in
        let picks = List.map pick (List.init 30 (fun i -> i)) in
        Alcotest.(check bool) "two distinct" true
          (List.exists (fun p -> p <> List.hd picks) picks));
    tc "the first oracle is deterministic" (fun () ->
        let r1 = run "getException (1/0 + error \"Urk\") >>= \\v -> return v"
        and r2 = run "getException (1/0 + error \"Urk\") >>= \\v -> return v" in
        Alcotest.check io_outcome "same" r1.Conc.outcome r2.Conc.outcome);
    tc "uncaught exception is reported (paper 4.4)" (fun () ->
        check_outcome "uncaught" (Conc.Uncaught E.Divide_by_zero)
          (run "putInt (1/0)"));
    tc "exceptional IO structure is uncaught" (fun () ->
        check_outcome "badmain" (Conc.Uncaught (E.User_error "boom"))
          (run "error \"boom\""));
    tc "exceptional continuation is uncaught" (fun () ->
        check_outcome "badk" (Conc.Uncaught (E.User_error "k"))
          (run "return 1 >>= error \"k\""));
    tc "getException of bottom may return a fictitious exception (5.3)"
      (fun () ->
        let r =
          Conc.run
            ~config:(Denot.with_fuel 5_000)
            ~oracle:(Oracle.create ~seed:1)
            (parse "getException (fix (\\x -> x)) >>= \\v -> return v")
        in
        match r.Conc.outcome with
        | Conc.Done (Value.DCon ("Bad", [ _ ])) | Conc.Diverged -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
    tc "async timeout delivered at getException (5.1)" (fun () ->
        let r =
          Conc.run
            ~async:[ (0, E.Timeout) ]
            (parse "getException (sum (enumFromTo 1 5000)) >>= \\v -> return v")
        in
        check_outcome "timeout"
          (Conc.Done
             (Value.DCon ("Bad", [ Value.DCon ("Timeout", []) ])))
          r);
    tc "async event can discard a normal value (5.1)" (fun () ->
        let r =
          Conc.run ~async:[ (0, E.Interrupt) ]
            (parse "getException 42 >>= \\v -> return v")
        in
        check_outcome "discard"
          (Conc.Done (Value.DCon ("Bad", [ Value.DCon ("Interrupt", []) ])))
          r);
    tc "async event waits for a getException" (fun () ->
        (* No getException in the program: the event is never delivered. *)
        let r =
          Conc.run ~async:[ (0, E.Interrupt) ] (parse "return 1")
        in
        check_outcome "undelivered" (Conc.Done (dint 1)) r);
    tc "two async events, two catches" (fun () ->
        let r =
          Conc.run
            ~async:[ (0, E.Timeout); (0, E.Interrupt) ]
            (parse
               "getException 1 >>= \\a -> getException 2 >>= \\b ->\n\
                return (Pair a b)")
        in
        check_outcome "both"
          (Conc.Done
             (Value.DCon
                ( "Pair",
                  [
                    Value.DCon ("Bad", [ Value.DCon ("Timeout", []) ]);
                    Value.DCon ("Bad", [ Value.DCon ("Interrupt", []) ]);
                  ] )))
          r);
    tc "mapM collects" (fun () ->
        check_outcome "mapM"
          (Conc.Done (dints [ 2; 3; 4 ]))
          (run "mapM (\\x -> return (x + 1)) [1, 2, 3]"));
    tc "ioSeq sequences output" (fun () ->
        Alcotest.(check string)
          "out" "abc"
          (Conc.output_string_of
             (run "ioSeq [putChar 'a', putChar 'b', putChar 'c']")));
    tc "transition budget reports divergence" (fun () ->
        let r =
          Conc.run ~max_steps:50
            (parse
               "let rec spin = return 1 >>= \\x -> spin in spin")
        in
        check_outcome "spin" Conc.Diverged r);
    tc "non-IO value is stuck" (fun () ->
        check_outcome "stuck" (Conc.Stuck "") (run "42"));
    tc "bracket releases on success, in order" (fun () ->
        let r =
          run
            "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar 'R') \
             (\\r -> putChar 'U' >>= \\u -> return (r + 1))"
        in
        check_outcome "done" (Conc.Done (dint 2)) r;
        Alcotest.(check string) "order" "AUR" (Conc.output_string_of r);
        Alcotest.(check int) "entered" 1 r.Conc.counters.Conc.brackets_entered;
        Alcotest.(check int) "released" 1 r.Conc.counters.Conc.brackets_released);
    tc "bracket releases on exception, which still propagates" (fun () ->
        let r =
          run
            "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> putChar 'R') \
             (\\r -> seq (1/0) (return 0))"
        in
        check_outcome "uncaught" (Conc.Uncaught E.Divide_by_zero) r;
        Alcotest.(check string) "released" "AR" (Conc.output_string_of r);
        Alcotest.(check int) "released" 1 r.Conc.counters.Conc.brackets_released);
    tc "finally always runs, onException only on exceptions" (fun () ->
        let fin = run "finally (putChar 'x' >>= \\u -> return 3) (putChar 'c')" in
        check_outcome "finally" (Conc.Done (dint 3)) fin;
        Alcotest.(check string) "out" "xc" (Conc.output_string_of fin);
        let ok = run "onException (return 3) (putChar 'h')" in
        Alcotest.(check string) "no handler" "" (Conc.output_string_of ok);
        let ex = run "onException (seq (head []) (return 0)) (putChar 'h')" in
        (match ex.Conc.outcome with
        | Conc.Uncaught (E.Pattern_match_fail _) -> ()
        | o -> Alcotest.failf "unexpected %a" Conc.pp_outcome o);
        Alcotest.(check string) "handler ran" "h" (Conc.output_string_of ex));
    tc "timeout expires to Nothing; an enclosed bracket still releases"
      (fun () ->
        let r =
          run
            "timeout 6 (bracket (putChar 'A' >>= \\u -> return 1) (\\r -> \
             putChar 'R') (\\r -> putList (replicate 30 'x'))) >>= \\mv -> \
             case mv of { Nothing -> putChar 'T' >>= \\u -> return 0 ; \
             Just v -> return v }"
        in
        check_outcome "timed out" (Conc.Done (dint 0)) r;
        Alcotest.(check int) "fired" 1 r.Conc.counters.Conc.timeouts_fired;
        let out = Conc.output_string_of r in
        Alcotest.(check bool) "released" true (String.contains out 'R');
        Alcotest.(check bool) "Nothing branch" true (String.contains out 'T'));
    tc "timeout that does not expire yields Just" (fun () ->
        check_outcome "just"
          (Conc.Done (Value.DCon ("Just", [ dint 7 ])))
          (run "timeout 50 (return 7)"));
    tc "mask defers async delivery past the masked section" (fun () ->
        let r =
          run
            ~async:[ (0, E.Interrupt) ]
            "mask (getException 1 >>= \\a -> putChar 'M' >>= \\u -> return \
             0) >>= \\w -> getException 2 >>= \\b -> case b of { Bad e -> \
             putChar '!' >>= \\u -> return 1 ; OK x -> putChar '.' >>= \\u \
             -> return 2 }"
        in
        check_outcome "deferred to the unmasked getException"
          (Conc.Done (dint 1)) r;
        Alcotest.(check string) "out" "M!" (Conc.output_string_of r);
        Alcotest.(check int) "delivered once" 1
          r.Conc.counters.Conc.async_delivered);
    tc "retryWithBackoff retries then gives up" (fun () ->
        let r =
          run "retryWithBackoff 3 2 (putChar 't' >>= \\u -> seq (1/0) (return 0))"
        in
        check_outcome "exhausted" (Conc.Uncaught E.Divide_by_zero) r;
        Alcotest.(check string) "one t per attempt" "tttt"
          (Conc.output_string_of r);
        Alcotest.(check int) "retries" 3 r.Conc.counters.Conc.retries);
    tc "retryWithBackoff succeeds once the input changes" (fun () ->
        let r =
          run ~input:"xxy"
            "retryWithBackoff 3 2 (getChar >>= \\c -> case c of { 'x' -> \
             seq (1/0) (return 0) ; z -> return 99 })"
        in
        check_outcome "third attempt" (Conc.Done (dint 99)) r;
        let reads =
          List.length
            (List.filter
               (function Conc.E_read _ -> true | _ -> false)
               r.Conc.trace)
        in
        Alcotest.(check int) "three reads" 3 reads);
  ]

open Imprecise
open Helpers
module E = Exn

(* The open exception vocabulary and its robustness runtime: user-declared
   exception constructors, SomeException, typed handlers ([catches]/[try]),
   [evaluate]'s precise forcing point, and the OTP-style supervision tree
   with one_for_one / one_for_all / rest_for_one restart strategies,
   max-restart-intensity windows and exponential backoff. Every scenario
   runs on both concurrent layers; the pure vocabulary is checked across
   the denotational semantics and all three machine backends. *)

let prog src = Imprecise.parse_program src

let conc_done msg expected (r : Conc.result) =
  match r.Conc.outcome with
  | Conc.Done d -> Alcotest.check deep msg expected d
  | o -> Alcotest.failf "%s: unexpected %a" msg Conc.pp_outcome o

let mach_done msg expected (r : Machine_conc.result) =
  match r.Machine_conc.outcome with
  | Machine_conc.Done d -> Alcotest.check deep msg expected d
  | o -> Alcotest.failf "%s: unexpected %a" msg Machine_conc.pp_outcome o

(* Run a whole program on both IO layers and require the same deep
   result from each. *)
let both_conc msg expected src =
  let e = prog src in
  conc_done (msg ^ " (semantic)") expected (Conc.run e);
  mach_done (msg ^ " (machine)") expected
    (Machine_conc.run ~check_invariants:true e)

let suite =
  [
    (* ------------------------------------------------------------ *)
    (* Open vocabulary: declarations, payloads, the lattice.         *)
    tc "declared exceptions are ordinary exception-set members" (fun () ->
        let e = prog "exception TBoom of Int;\nmain = raise (TBoom 3);" in
        Alcotest.check deep "denot"
          (Value.DBad
             (Exn_set.singleton
                (E.User_exception ("TBoom", Some (E.P_int 3)))))
          (Denot.run_deep e);
        (* Both machine backends agree on the member. *)
        let slot, _ = Machine.run_deep e in
        Alcotest.check deep "slot"
          (Value.DBad
             (Exn_set.singleton
                (E.User_exception ("TBoom", Some (E.P_int 3)))))
          slot;
        let bm = Bytecode.create (Bytecode.compile_expr e) in
        Alcotest.check deep "bytecode"
          (Value.DBad
             (Exn_set.singleton
                (E.User_exception ("TBoom", Some (E.P_int 3)))))
          (Bytecode.deep bm (Bytecode.entry bm)));
    tc "user exceptions join the set lattice like builtins" (fun () ->
        let e =
          prog
            "exception TLeft of String;\n\
             exception TRight;\n\
             main = raise (TLeft \"a\") + raise TRight;"
        in
        Alcotest.check deep "union"
          (Value.DBad
             (Exn_set.of_list
                [
                  E.User_exception ("TLeft", Some (E.P_string "a"));
                  E.User_exception ("TRight", None);
                ]))
          (Denot.run_deep e));
    tc "payload kind clashes are rejected at declaration" (fun () ->
        match prog "exception TBoom of String;\nmain = return 0;" with
        | exception Imprecise.Parse_error _ -> ()
        | _ -> Alcotest.fail "redeclaring TBoom at String must fail");
    tc "a payload of the wrong kind is a runtime type error" (fun () ->
        let e =
          prog "exception TKindI of Int;\nmain = raise (TKindI \"s\");"
        in
        Alcotest.check deep "kind mismatch"
          (Value.DBad
             (Exn_set.singleton
                (E.Type_error "TKindI is not an exception constructor")))
          (Denot.run_deep e));
    (* ------------------------------------------------------------ *)
    (* evaluate: the precise forcing point.                          *)
    tc "evaluate forces at perform time, catchably" (fun () ->
        both_conc "caught" (dint 99)
          "main = catchIO (evaluate (1 / 0)) (\\e -> return 99);";
        both_conc "ok path" (dint 5) "main = evaluate (2 + 3);");
    tc "evaluate is distinct from seq-then-return as a value" (fun () ->
        (* As pure values: [evaluate (raise X)] is a WHNF constructor,
           [seq (raise X) (return ...)] is Bad. The law table claims
           Invalid in all three designs; this is the witness. *)
        both_conc "constructor survives seq" (dint 1)
          "main = seq (evaluate (1 / 0)) (return 1);";
        (* Performed, the two agree: the exception surfaces either way. *)
        both_conc "performed agree (evaluate)" (dint 7)
          "main = catchIO (evaluate (1 / 0) >>= \\x -> return x)\n\
          \               (\\e -> return 7);";
        both_conc "performed agree (seq)" (dint 7)
          "main = catchIO (seq (1 / 0) (return (1 / 0)) >>= \\x -> return x)\n\
          \               (\\e -> return 7);");
    tc "throwIO raises precisely" (fun () ->
        both_conc "throwIO" (dint 11)
          "exception TThrow of Int;\n\
           main = catchIO (throwIO (TThrow 4) >>= \\u -> return 0)\n\
          \                (\\e -> case e of { TThrow n -> return (n + 7);\n\
          \                                    z -> return 0 });");
    (* ------------------------------------------------------------ *)
    (* Typed handlers: catches / try / SomeException.                *)
    tc "catches dispatches to the first matching handler" (fun () ->
        both_conc "second handler" (dint 21)
          "exception THa of Int;\n\
           main = catches (throwIO (THa 7))\n\
          \  [ handler matchUserError (\\s -> return 0),\n\
          \    handler (\\e -> case e of { THa n -> Just n; z -> Nothing })\n\
          \            (\\n -> return (n * 3)) ];");
    tc "catches falls through to rethrow when nothing matches" (fun () ->
        both_conc "outer catch sees it" (dint 5)
          "exception THb;\n\
           main = catchIO\n\
          \  (catches (throwIO THb) [ handler matchArith (\\e -> return 0) ])\n\
          \  (\\e -> case e of { THb -> return 5; z -> return 0 });");
    tc "matchAny and SomeException round-trip" (fun () ->
        both_conc "matchAny" (dtrue)
          "main = catches (throwIO Overflow)\n\
          \  [ handler matchAny (\\e ->\n\
          \      case fromException (toException e) of {\n\
          \        Just e2 -> return (eqExn e e2);\n\
          \        Nothing -> return False }) ];");
    tc "try returns Right on success, Left on failure" (fun () ->
        both_conc "try" (Value.DCon ("Pair", [ dint 1; dint 2 ]))
          "exception THc of Int;\n\
           main = try (return 1) >>= \\a ->\n\
          \       try (throwIO (THc 2)) >>= \\b ->\n\
          \       case a of { Right x -> case b of {\n\
          \         Left e -> case e of { THc n -> return (x, n);\n\
          \                               z -> return (0, 0) };\n\
          \         Right y -> return (0, 0) };\n\
          \         Left e2 -> return (0, 0) };");
    tc "typed handlers behave identically on the concurrent layers"
      (fun () ->
        both_conc "conc catches" (dint 21)
          "exception THd of Int;\n\
           main = catches (throwIO (THd 7))\n\
          \  [ handler (\\e -> case e of { THd n -> Just n; z -> Nothing })\n\
          \            (\\n -> return (n * 3)) ];");
    (* ------------------------------------------------------------ *)
    (* Supervision trees.                                            *)
    tc "one_for_one restarts only the failing child" (fun () ->
        (* The child fails twice, then succeeds; the supervisor restarts
           it each time. The counter records three runs. *)
        both_conc "restart count" (dint 3)
          "exception TFlaky of Int;\n\
           main =\n\
          \  newEmptyMVar >>= \\c -> putMVar c 0 >>= \\u ->\n\
          \  supervisorTree OneForOne 5 100\n\
          \    [ takeMVar c >>= \\n -> putMVar c (n + 1) >>= \\u2 ->\n\
          \      if n < 2 then throwIO (TFlaky n) else return n ]\n\
          \  >>= \\u3 -> takeMVar c;");
    tc "one_for_all restarts the whole group" (fun () ->
        (* Child 0 fails on its first run only; child 1 merely counts its
           spawns. After the group restart both have run twice. *)
        both_conc "sibling respawned" (dtrue)
          "exception TOnce;\n\
           main =\n\
          \  newEmptyMVar >>= \\flag -> putMVar flag 0 >>= \\u0 ->\n\
          \  newEmptyMVar >>= \\runs -> putMVar runs 0 >>= \\u1 ->\n\
          \  supervisorTree OneForAll 3 100\n\
          \    [ takeMVar flag >>= \\f -> putMVar flag 1 >>= \\u2 ->\n\
          \      if f == 0 then throwIO TOnce else return 0,\n\
          \      takeMVar runs >>= \\n -> putMVar runs (n + 1) ]\n\
          \  >>= \\u3 -> takeMVar runs >>= \\n -> return (n >= 2);");
    tc "rest_for_one restarts the failing child and its successors"
      (fun () ->
        (* Three children: 0 counts, 1 fails once, 2 counts. Only the
           children at and after the failure restart, so 0 runs once
           while 2 runs at least twice. Child 2 busyworks first so its
           first generation is still live when 1 fails. *)
        both_conc "prefix kept, suffix respawned" (dtrue)
          "exception TRest;\n\
           main =\n\
          \  newEmptyMVar >>= \\c0 -> putMVar c0 0 >>= \\u0 ->\n\
          \  newEmptyMVar >>= \\flag -> putMVar flag 0 >>= \\u1 ->\n\
          \  newEmptyMVar >>= \\c2 -> putMVar c2 0 >>= \\u2 ->\n\
          \  supervisorTree RestForOne 3 100\n\
          \    [ takeMVar c0 >>= \\n -> putMVar c0 (n + 1),\n\
          \      takeMVar flag >>= \\f -> putMVar flag 1 >>= \\u3 ->\n\
          \      if f == 0 then throwIO TRest else return 0,\n\
          \      seq (sum (enumFromTo 1 40))\n\
          \          (takeMVar c2 >>= \\n -> putMVar c2 (n + 1)) ]\n\
          \  >>= \\u4 ->\n\
          \  takeMVar c0 >>= \\a -> takeMVar c2 >>= \\b ->\n\
          \  return (if a == 1 then b >= 2 else False);");
    tc "restart intensity exhaustion sheds load with SupervisorLimit"
      (fun () ->
        (* A child that always fails: maxR restarts inside the window,
           then the supervisor gives up, kills the others and raises
           SupervisorLimit with the window census. *)
        both_conc "limit census" (dint 3)
          "exception TStorm;\n\
           main = catchIO\n\
          \  (supervisorTree OneForOne 3 10 [ throwIO TStorm ])\n\
          \  (\\e -> case matchSupervisorLimit e of {\n\
          \           Just n -> return n; Nothing -> return (0 - 1) });");
    tc "SupervisorLimit is typed and catchable by a handler" (fun () ->
        both_conc "catches SupervisorLimit" (dint 1)
          "exception TStorm2;\n\
           main = catches\n\
          \  (supervisorTree OneForOne 1 10 [ throwIO TStorm2 ])\n\
          \  [ handler matchSupervisorLimit (\\n -> return n) ];");
    tc "exponential backoff retries inside the child first" (fun () ->
        (* retries=2 means each generation attempts the action three
           times (backoff 1, 2 steps) before reporting failure; with
           maxR=1 the second generation exhausts the window. Six
           attempts total. *)
        both_conc "attempt census" (dint 6)
          "exception TBack;\n\
           main =\n\
          \  newEmptyMVar >>= \\c -> putMVar c 0 >>= \\u ->\n\
          \  catchIO\n\
          \    (supervisorTreeB OneForOne 1 100 2 1\n\
          \       [ takeMVar c >>= \\n -> putMVar c (n + 1) >>= \\u2 ->\n\
          \         throwIO TBack ])\n\
          \    (\\e -> return 0)\n\
          \  >>= \\u3 -> takeMVar c;");
    tc "a supervised tree of healthy children just completes" (fun () ->
        both_conc "all healthy" (dint 6)
          "main =\n\
          \  newEmptyMVar >>= \\acc -> putMVar acc 0 >>= \\u ->\n\
          \  supervisorTree OneForOne 1 10\n\
          \    [ takeMVar acc >>= \\n -> putMVar acc (n + 1),\n\
          \      takeMVar acc >>= \\n -> putMVar acc (n + 2),\n\
          \      takeMVar acc >>= \\n -> putMVar acc (n + 3) ]\n\
          \  >>= \\u2 -> takeMVar acc;");
  ]

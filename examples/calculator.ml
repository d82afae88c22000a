(* Disaster recovery (Section 2): a batch calculator whose evaluation
   pipeline is written in the object language and may fail in many ways —
   division by zero, overflow, assertion failures, user errors from
   library code, even non-termination cut off by a Timeout event. The
   driver protects itself with a single getException per request, the
   pattern the paper recommends ("most disaster-recovery exception
   handling is done near the top of the program").

   Run with: dune exec examples/calculator.exe *)

open Imprecise

(* Each request is an object-language expression of type Int. *)
let requests =
  [
    ("average of 1..100", "sum (enumFromTo 1 100) / 100");
    ("safe division", "144 / 12");
    ("division by zero", "sum [1, 2, 3] / (3 - 3)");
    ("overflow", "1000000 * 1000000 * 1000000");
    ("library failure", "head (filter (\\x -> x > 100) [1, 2, 3])");
    ("assertion", "assertTrue (2 < 1) 42");
    ("deep but fine", "foldl (\\a b -> a + b) 0 (enumFromTo 1 2000)");
    ("user error", "if True then error \"config missing\" else 0");
    ("runs forever (timeout)", "sum (iterate (\\x -> x + 1) 1)");
  ]

(* The whole calculator is ONE object-language IO program: it folds over
   the request expressions, catching each one's exceptions. *)
let calculator_source (exprs : string list) =
  let entries =
    exprs
    |> List.map (fun e -> Printf.sprintf "getException (%s)" e)
    |> String.concat ", "
  in
  Printf.sprintf
    "mapM (\\req -> req >>= \\r -> return r) [%s] >>= \\results ->\n\
     mapM2 (\\r -> case r of\n\
     { OK v -> putList (append [chr 61, chr 32] (showInt v)) >>= \\u ->\n\
       putList [newline]\n\
     ; Bad e -> case e of\n\
       { DivideByZero -> putLine [chr 100, chr 105, chr 118, chr 33]\n\
       ; Overflow -> putLine [chr 111, chr 118, chr 102, chr 33]\n\
       ; Timeout -> putLine [chr 116, chr 105, chr 109, chr 101, chr 33]\n\
       ; UserError msg -> putLine [chr 117, chr 115, chr 114, chr 33]\n\
       ; AssertionFailed msg -> putLine [chr 97, chr 115, chr 116, chr 33]\n\
       ; PatternMatchFail msg -> putLine [chr 112, chr 109, chr 102, chr 33]\n\
       ; z -> putLine [chr 63] } }) results"
    entries

let () =
  let source = calculator_source (List.map snd requests) in
  let program = parse source in
  (* The last request loops. At the semantic level its denotation is
     bottom = the set of ALL exceptions, so getException is justified in
     returning a *fictitious* exception (Section 5.3) — watch the last
     line. The machine run below instead interrupts it with a real
     asynchronous Timeout (Section 5.1). *)
  let r = run_io ~config:(Denot.with_fuel 2_000_000) program in
  let lines = String.split_on_char '\n' (Conc.output_string_of r) in
  List.iteri
    (fun i line ->
      if line <> "" then
        let label = try fst (List.nth requests i) with _ -> "?" in
        Fmt.pr "%-28s %s@." label line)
    lines;
  Fmt.pr "@.final IO outcome: %a@." Conc.pp_outcome r.Conc.outcome;

  (* The same calculator on the abstract machine, with the machine's own
     async injection. *)
  Fmt.pr "@.on the abstract machine:@.";
  let m =
    run_io_machine
      ~config:{ Machine.default_config with fuel = 20_000_000 }
      ~async:[ (5_000_000, Exn.Timeout) ]
      program
  in
  List.iteri
    (fun i line ->
      if line <> "" then
        let label = try fst (List.nth requests i) with _ -> "?" in
        Fmt.pr "%-28s %s@." label line)
    (String.split_on_char '\n' m.Machine_conc.output);
  Fmt.pr "machine outcome: %a (%d steps, %d thunks paused)@."
    Machine_conc.pp_outcome m.Machine_conc.outcome
    m.Machine_conc.stats.Stats.steps m.Machine_conc.stats.Stats.thunks_paused

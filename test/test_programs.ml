open Imprecise
open Helpers

(* End-to-end: the example programs shipped in examples/programs, run
   through both the semantic IO layer and the abstract machine, and
   type-checked. [impexn run] runs them the same way. *)

(* Locate examples/programs relative to wherever the runner was started
   (dune sandbox, _build/default/test, or the repo root). *)
let program_dir =
  let candidates =
    [
      "../examples/programs";
      "examples/programs";
      "../../examples/programs";
      "../../../examples/programs";
    ]
  in
  lazy
    (match List.find_opt Sys.file_exists candidates with
    | Some d -> d
    | None -> Alcotest.fail "examples/programs not found")

let load name =
  let path = Filename.concat (Lazy.force program_dir) name in
  In_channel.with_open_text path In_channel.input_all

let fizzbuzz_expected =
  String.concat "\n"
    [
      "1"; "2"; "Fizz"; "4"; "Buzz"; "Fizz"; "7"; "8"; "Fizz"; "Buzz";
      "11"; "Fizz"; "13"; "14"; "FizzBuzz"; "16"; "17"; "Fizz"; "19";
      "Buzz"; "Fizz"; "22"; "23"; "Fizz"; "Buzz"; "26"; "Fizz"; "28";
      "29"; "FizzBuzz";
    ]
  ^ "\n"

let expected_outputs =
  [
    ("fizzbuzz.hs", "", fizzbuzz_expected);
    ("primes.hs", "", "2 3 5 7 11 13 17 19 23 29 31 37 41 43 47 \n");
    ("sort.hs", "", "0 1 2 3 4 5 6 7 8 9 \n");
    ("safe_div.hs", "", "20\n!\n9\n!\n7\n");
    ("echo.hs", "abc", "cba\n");
    ("fork_mvar.hs", "", "42");
  ]

let suite =
  [
    tc "programs produce their expected output (semantic IO)" (fun () ->
        List.iter
          (fun (name, input, expected) ->
            let prog = parse_program (load name) in
            let r = Conc.run ~input ~max_steps:1_000_000 prog in
            (match r.Conc.outcome with
            | Conc.Done _ -> ()
            | o -> Alcotest.failf "%s: %a" name Conc.pp_outcome o);
            Alcotest.(check string) name expected (Conc.output_string_of r))
          expected_outputs);
    tc "programs produce the same output on the machine" (fun () ->
        List.iter
          (fun (name, input, expected) ->
            let prog = parse_program (load name) in
            let config = { Machine.default_config with fuel = 50_000_000 } in
            let r =
              Machine_conc.run ~config ~input ~max_transitions:1_000_000 prog
            in
            (match r.Machine_conc.outcome with
            | Machine_conc.Done _ -> ()
            | o -> Alcotest.failf "%s: %a" name Machine_conc.pp_outcome o);
            Alcotest.(check string) name expected r.Machine_conc.output)
          expected_outputs);
    tc "programs all type-check with main :: IO t" (fun () ->
        List.iter
          (fun (name, _, _) ->
            let prog = Parser.parse_program (load name) in
            match Infer.infer_program prog with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: %a" name Infer.pp_error e)
          expected_outputs);
    tc "programs survive the optimisation pipeline" (fun () ->
        List.iter
          (fun (name, input, expected) ->
            let prog = parse_program (load name) in
            let optimised, _ = Pipeline.optimize Pipeline.Imprecise prog in
            let r = Conc.run ~input ~max_steps:1_000_000 optimised in
            Alcotest.(check string)
              (name ^ " optimised")
              expected
              (Conc.output_string_of r))
          expected_outputs);
    tc "programs run under the concurrent scheduler too" (fun () ->
        (* The same table with the scheduler's index invariants checked
           every round, on both layers. *)
        List.iter
          (fun (name, input, expected) ->
            let prog = parse_program (load name) in
            let r = Conc.run ~input ~check_invariants:true ~max_steps:1_000_000 prog in
            Alcotest.(check string)
              (name ^ " conc")
              expected
              (Conc.output_string_of r);
            let config = { Machine.default_config with fuel = 50_000_000 } in
            let m =
              Machine_conc.run ~config ~input ~check_invariants:true
                ~max_transitions:1_000_000 prog
            in
            Alcotest.(check string) (name ^ " machine conc") expected m.Machine_conc.output)
          expected_outputs);
    tc "machine with periodic GC matches" (fun () ->
        List.iter
          (fun (name, input, expected) ->
            let prog = parse_program (load name) in
            let config = { Machine.default_config with fuel = 50_000_000 } in
            let r =
              Machine_conc.run ~config ~input ~gc_every:5
                ~max_transitions:1_000_000 prog
            in
            Alcotest.(check string)
              (name ^ " gc")
              expected r.Machine_conc.output)
          expected_outputs);
      tc "impexn run's drivers run concurrent programs" (fun () ->
        (* [run_io] and [run_io_machine] are what [impexn run] and [impexn
           run --machine] call: a forkIO program is the many-thread run of
           the same transition system. *)
        let prog = parse_program (load "fork_mvar.hs") in
        let sem = run_io prog and mach = run_io_machine prog in
        (match (sem.Conc.outcome, mach.Machine_conc.outcome) with
        | Conc.Done _, Conc.Done _ -> ()
        | o1, o2 -> Alcotest.failf "%a / %a" Conc.pp_outcome o1 Conc.pp_outcome o2);
        Alcotest.(check string) "semantic" "42" (Conc.output_string_of sem);
        Alcotest.(check string) "machine" "42" mach.Machine_conc.output);
]

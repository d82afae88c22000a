open Imprecise
open Helpers

(* C13: the implementations refine the denotational semantics. Every
   exception an implementation actually reports must be a member of the
   semantic exception set, and normal results must agree exactly. *)

let machine_config = { Machine.default_config with fuel = 2_000_000 }
let denot_config = Denot.with_fuel 20_000

let machine_deep e =
  let d, _ = Machine.run_deep ~config:machine_config ~depth:24 e in
  d

let denot_deep e = Denot.run_deep ~config:denot_config ~depth:24 e

(* The semantic and machine IO drivers on one program: [None] when the
   machine's run is one the semantics allows. On uncaught/divergent runs
   the two may cut the write trace at slightly different points, so one
   output must be a prefix of the other. A semantic run whose oracle
   picked from bottom owes nothing on its final value: Section 5.3 lets
   that pick be any exception, and the machine raised a particular
   one. *)
let io_disagreement prog =
  let w = Prelude.wrap prog in
  (* Generous budgets so fuel exhaustion cannot masquerade as a semantic
     disagreement. *)
  let sem = Conc.run ~config:(Denot.with_fuel 100_000) w in
  let mach = Machine_conc.run ~config:machine_config w in
  let a = Conc.output_string_of sem and b = mach.Machine_conc.output in
  let output_ok =
    let shorter, longer = if String.length a <= String.length b then (a, b) else (b, a) in
    String.equal shorter (String.sub longer 0 (String.length shorter))
  in
  let outcome_ok =
    sem.Conc.counters.Conc.bottom_picks > 0
    ||
    match (sem.Conc.outcome, mach.Machine_conc.outcome) with
    | Conc.Done d1, Conc.Done d2 ->
        (* The returned value may itself be exceptional: the machine
           reports a representative of the semantic set. *)
        implements d2 d1
    | Conc.Uncaught _, Conc.Uncaught _ | Conc.Stuck _, Conc.Stuck _ -> true
    | Conc.Diverged, _ | _, Conc.Diverged -> true (* fuel budgets differ *)
    | _ -> false
  in
  if output_ok && outcome_ok then None
  else
    Some
      (Fmt.str "sem: %a out=%S@.mach: %a out=%S" Conc.pp_outcome sem.Conc.outcome a
         Conc.pp_outcome mach.Machine_conc.outcome b)

let suite =
  [
    qtest ~count:150 "machine refines denotation on int terms"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        implements (machine_deep w) (denot_deep w));
    qtest ~count:100 "machine refines denotation on list terms"
      (Gen.gen_list ())
      (fun e ->
        let w = Prelude.wrap e in
        implements (machine_deep w) (denot_deep w));
    qtest ~count:80 "machine agrees exactly with fixed-order L2R"
      (Gen.gen_int ())
      (fun e ->
        (* Both are deterministic left-to-right call-by-need evaluators,
           so they should report the *same* representative. *)
        let w = Prelude.wrap e in
        let md = machine_deep w in
        let fd =
          Fixed.outcome_to_deep
            (Fixed.run_deep ~fuel:1_000_000 ~depth:24 Fixed.Left_to_right w)
        in
        match (md, fd) with
        | Value.DBad s, _ when Exn_set.is_all s -> true
        | _, Value.DBad s when Exn_set.is_all s -> true
        | _ -> Value.deep_equal md fd);
    qtest ~count:60 "denotation is deterministic"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        Value.deep_equal (denot_deep w) (denot_deep w));
    qtest ~count:80 "terms whose denotation is exception-free agree \
                      exactly across all engines"
      (Gen.gen ~cfg:Gen.pure_cfg Gen.T_int)
      (fun e ->
        (* pure_cfg rules out raise sites and division, but Prelude
           partiality (head, index) and overflow can still produce
           exceptional denotations; exact three-way agreement is required
           only when the denotation is exception-free. *)
        let rec has_bad = function
          | Value.DBad _ -> true
          | Value.DCon (_, ds) -> List.exists has_bad ds
          | Value.DInt _ | Value.DChar _ | Value.DString _ | Value.DFun
          | Value.DCut ->
              false
        in
        let w = Prelude.wrap e in
        let dd = denot_deep w in
        let md = machine_deep w in
        let fd =
          Fixed.outcome_to_deep
            (Fixed.run_deep ~fuel:1_000_000 ~depth:24 Fixed.Left_to_right w)
        in
        if has_bad dd then implements md dd
        else Value.deep_equal dd md && Value.deep_equal md fd);
    qtest ~count:60 "optimised terms refine the original denotation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let optimised, _ = Pipeline.optimize Pipeline.Imprecise w in
        Value.deep_leq (denot_deep w) (denot_deep optimised));
    qtest ~count:60 "machine still refines after optimisation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let optimised, _ = Pipeline.optimize Pipeline.Imprecise w in
        implements (machine_deep optimised) (denot_deep w)
        || implements (machine_deep optimised) (denot_deep optimised));
    qtest ~count:80 "semantic and machine IO drivers agree on programs"
      (Gen.gen_io ())
      (fun prog ->
        match io_disagreement prog with
        | None -> true
        | Some msg -> QCheck2.Test.fail_reportf "%s" msg);
    tc "a pick from bottom leaves the final value unconstrained" (fun () ->
        (* S[[putInt (raise GenExnA)]] is {ALL}: exception-finding mode
           never converges through showInt's recursion. The first oracle
           picks DivideByZero, so the arithmetic handler answers 1; the
           machine raises GenExnA and the catch-all answers 2. Both are
           allowed (Section 5.3). *)
        let prog =
          parse_raw
            "return 0 >>= \\a -> catches (return 0 >>= \\b -> putInt (let c = \
             0 in raise GenExnA) >>= \\u -> return 0) [handler matchArith \
             (\\e -> return 1), handler matchAny (\\e -> return 2)]"
        in
        let sem = Conc.run ~config:(Denot.with_fuel 100_000) (Prelude.wrap prog) in
        Alcotest.(check bool) "picked from bottom" true (sem.Conc.counters.Conc.bottom_picks > 0);
        Alcotest.(check (option string)) "agree" None (io_disagreement prog));
    tc "mapException of a non-function: every evaluator reports one error"
      (fun () ->
        (* A fuzz-found witness (EXPERIMENTS bugs table, row 11) and
           variants: the fixed-order evaluators must raise the
           denotation's TypeError, "application of a non-function". *)
        let held = Differ.held_prelude () in
        List.iter
          (fun src ->
            let r =
              Differ.check_pure ~held Differ.default_vconfig (parse_raw src)
            in
            Alcotest.(check (list string))
              (src ^ ": no violations") []
              (List.map
                 (fun v -> Fmt.str "%a" Differ.pp_violation v)
                 r.Differ.violations))
          [
            "mapException 1 (1 / 0)";
            "mapException True (error \"Urk\")";
            "mapException 'c' (head [])";
          ]);
    qtest ~count:50 "rule rewrites preserve or refine denotations"
      (Gen.gen_int ())
      (fun e ->
        (* Apply every claimed-valid rule anywhere it fires and check the
           result against the claim. *)
        let w = Prelude.wrap e in
        List.for_all
          (fun (r : Rules.rule) ->
            match r.Rules.imprecise with
            | Rules.Invalid -> true
            | Rules.Identity | Rules.Refinement -> (
                match Rewrite.first_site r.Rules.applies w with
                | None -> true
                | Some w' ->
                    Value.deep_leq (denot_deep w) (denot_deep w')))
          [
            Rules.beta;
            Rules.let_inline;
            Rules.plus_commute;
            Rules.case_of_known_constructor;
            Rules.dead_let;
            Rules.case_of_case;
            Rules.strictness_cbv;
          ]);
  ]

open Imprecise
open Helpers
open Syntax
module B = Builder
module E = Exn

let suite =
  [
    tc "beta applies" (fun () ->
        match Rules.beta.Rules.applies (App (B.lam "x" B.(var "x" + int 1), B.int 2)) with
        | Some r -> Alcotest.check expr "beta" B.(int 2 + int 1) r
        | None -> Alcotest.fail "should apply");
    tc "beta does not apply to non-redexes" (fun () ->
        Alcotest.(check bool)
          "no" true
          (Rules.beta.Rules.applies (B.int 1) = None));
    tc "plus_commute swaps" (fun () ->
        match Rules.plus_commute.Rules.applies B.(int 1 + int 2) with
        | Some r -> Alcotest.check expr "swap" B.(int 2 + int 1) r
        | None -> Alcotest.fail "should apply");
    tc "case_switch pushes the application in" (fun () ->
        let lhs =
          App
            ( Case
                ( B.true_,
                  [
                    { pat = Pcon ("True", []); rhs = Var "f" };
                    { pat = Pcon ("False", []); rhs = Var "g" };
                  ] ),
              Var "x" )
        in
        match Rules.case_switch.Rules.applies lhs with
        | Some (Case (_, alts)) ->
            Alcotest.(check int) "two alts" 2 (List.length alts);
            List.iter
              (fun a ->
                match a.rhs with
                | App (_, Var "x") -> ()
                | _ -> Alcotest.fail "expected pushed application")
              alts
        | _ -> Alcotest.fail "should apply");
    tc "case_switch refuses capture" (fun () ->
        let lhs =
          App
            ( Case
                ( B.true_,
                  [ { pat = Pcon ("Just", [ "x" ]); rhs = Var "x" } ] ),
              Var "x" )
        in
        Alcotest.(check bool)
          "refuses" true
          (Rules.case_switch.Rules.applies lhs = None));
    tc "paper 4.5: case_switch loses exactly the argument's exceptions"
      (fun () ->
        (* lhs = (case raise E of {...->\v.1}) (raise X): Bad {E, X}
           rhs = case raise E of {...-> (\v.1) (raise X)}: Bad {E}. *)
        let lhs = List.hd Rules.case_switch.Rules.instances in
        let rhs = Option.get (Rules.case_switch.Rules.applies lhs) in
        Alcotest.check exn_set "lhs"
          (Exn_set.of_list [ E.User_error "E"; E.User_error "X" ])
          (Denot.exception_set lhs);
        Alcotest.check exn_set "rhs"
          (Exn_set.of_list [ E.User_error "E" ])
          (Denot.exception_set rhs);
        Alcotest.check verdict "refines" Refine.Refines
          (Refine.compare_denot lhs rhs));
    tc "case_commute swaps independent scrutinees" (fun () ->
        let lhs = List.hd Rules.case_commute.Rules.instances in
        match Rules.case_commute.Rules.applies lhs with
        | Some (Case (s2, _)) ->
            Alcotest.check expr "outer is y" (B.pair (B.int 3) (B.int 4)) s2
        | _ -> Alcotest.fail "should apply");
    tc "error_collapse is invalid (the lost law)" (fun () ->
        let lhs = B.error "This" in
        let rhs = Option.get (Rules.error_collapse.Rules.applies lhs) in
        Alcotest.check verdict "incomparable" Refine.Incomparable
          (Refine.compare_denot lhs rhs));
    tc "case_of_known_constructor selects and binds lazily" (fun () ->
        let lhs =
          Case
            ( B.pair (B.int 1) B.(int 1 / int 0),
              [ { pat = Pcon ("Pair", [ "a"; "b" ]); rhs = Var "a" } ] )
        in
        let rhs = Option.get (Rules.case_of_known_constructor.Rules.applies lhs) in
        Alcotest.check deep "lazy fields" (dint 1) (Denot.run_deep rhs));
    tc "dead_let drops" (fun () ->
        let lhs = Let ("x", B.loop, B.int 1) in
        Alcotest.check expr "drop" (B.int 1)
          (Option.get (Rules.dead_let.Rules.applies lhs)));
    tc "dead_let keeps used bindings" (fun () ->
        Alcotest.(check bool)
          "keeps" true
          (Rules.dead_let.Rules.applies (Let ("x", B.int 1, Var "x")) = None));
    tc "strictness_cbv converts demanded lets to case" (fun () ->
        let lhs = Let ("x", B.int 1, B.(var "x" + int 2)) in
        match Rules.strictness_cbv.Rules.applies lhs with
        | Some (Case (Lit (Lit_int 1), [ { pat = Pany (Some "x"); _ } ])) ->
            ()
        | _ -> Alcotest.fail "expected let-to-case");
    tc "strictness_cbv skips lazy bindings" (fun () ->
        Alcotest.(check bool)
          "skips" true
          (Rules.strictness_cbv.Rules.applies
             (Let ("x", B.int 1, B.int 2))
          = None));
    tc "every rule's instances fire at the root" (fun () ->
        List.iter
          (fun (r : Rules.rule) ->
            List.iter
              (fun inst ->
                if r.Rules.applies inst = None then
                  Alcotest.failf "rule %s: instance does not fire"
                    r.Rules.name)
              r.Rules.instances)
          Rules.all);
    (* Rewrite combinators. *)
    tc "bottom_up counts sites" (fun () ->
        let e = B.(int 1 + int 2 + (int 3 + int 4)) in
        let _, n = Rewrite.bottom_up Rules.plus_commute.Rules.applies e in
        Alcotest.(check int) "three" 3 n);
    tc "fixpoint terminates on non-confluent rules" (fun () ->
        (* plus_commute flips forever; max_rounds bounds it. *)
        let e = B.(int 1 + int 2) in
        let _, n =
          Rewrite.fixpoint ~max_rounds:4 Rules.plus_commute.Rules.applies e
        in
        Alcotest.(check int) "rounds" 4 n);
    tc "first_site rewrites exactly one site" (fun () ->
        let e = B.(int 1 + int 2 + (int 3 + int 4)) in
        match Rewrite.first_site Rules.plus_commute.Rules.applies e with
        | Some e' ->
            let _, remaining =
              Rewrite.bottom_up Rules.plus_commute.Rules.applies e'
            in
            Alcotest.(check int) "others untouched" 3 remaining
        | None -> Alcotest.fail "should fire");
    tc "subterms includes the root" (fun () ->
        let e = B.(int 1 + int 2) in
        Alcotest.(check int) "count" 3 (List.length (Rewrite.subterms e)));
    (* Pipeline. *)
    tc "simplify removes beta redexes and dead lets" (fun () ->
        let e =
          Let
            ( "dead",
              B.loop,
              App (B.lam "x" B.(var "x" + int 1), B.int 41) )
        in
        let e', n = Pipeline.simplify_pass e in
        Alcotest.(check bool) "fired" true (n >= 2);
        Alcotest.check deep "meaning" (dint 42) (Denot.run_deep e'));
    tc "cbv pass counts applied and blocked sites" (fun () ->
        let e =
          Let
            ( "a",
              B.(int 1 / int 0),
              Let ("b", B.int 2, B.(var "a" + var "b")) )
        in
        let _, applied_imp, blocked_imp = Pipeline.cbv_pass Pipeline.Imprecise e in
        let _, applied_fix, blocked_fix =
          Pipeline.cbv_pass Pipeline.Fixed_order_with_effect_analysis e
        in
        Alcotest.(check int) "imprecise applies both" 2 applied_imp;
        Alcotest.(check int) "imprecise blocks none" 0 blocked_imp;
        (* Fixed order can only move the provably pure binding b; 1/0 is
           blocked. b = 2 is a literal... bound to 2, pure. *)
        Alcotest.(check int) "fixed applies one" 1 applied_fix;
        Alcotest.(check int) "fixed blocks one" 1 blocked_fix);
    tc "imprecise pipeline preserves meaning on goldens" (fun () ->
        let goldens =
          [
            ("sum (enumFromTo 1 20)", dint 210);
            ("let x = 2 + 3 in x * x", dint 25);
            ("zipWith (\\a b -> a + b) [1,2] [10,20]", dints [ 11; 22 ]);
            ("1/0 + error \"Urk\"",
             dbad [ E.Divide_by_zero; E.User_error "Urk" ]);
          ]
        in
        List.iter
          (fun (src, expected) ->
            let e = parse src in
            let e', _ = Pipeline.optimize Pipeline.Imprecise e in
            Alcotest.(check bool)
              (Printf.sprintf "refines: %s" src)
              true
              (Value.deep_leq expected (Denot.run_deep e')))
          goldens);
    tc "count_cbv_opportunities: imprecise >= fixed" (fun () ->
        let e =
          parse
            "let a = sum (enumFromTo 1 10) in\n\
             let b = 1 in\n\
             a + b"
        in
        let imp, fix = Pipeline.count_cbv_opportunities e in
        Alcotest.(check bool)
          (Printf.sprintf "imp %d >= fix %d" imp fix)
          true (imp >= fix));
    tc "count_cbv_opportunities equals the reports' own cbv sites" (fun () ->
        (* The headline C8 numbers are read off the optimize reports, so
           they can never drift from the pipeline's own accounting. *)
        let e =
          parse "let a = sum (enumFromTo 1 10) in let b = 1 in a + b"
        in
        let imp, fix = Pipeline.count_cbv_opportunities e in
        let _, ri = Pipeline.optimize ~lint:false Pipeline.Imprecise e in
        let _, rf =
          Pipeline.optimize ~lint:false
            Pipeline.Fixed_order_with_effect_analysis e
        in
        Alcotest.(check int)
          "imprecise" (List.assoc "cbv" ri.Pipeline.sites) imp;
        Alcotest.(check int) "fixed" (List.assoc "cbv" rf.Pipeline.sites) fix);
    tc "report counts the rounds actually executed" (fun () ->
        (* A literal program: round 1 prunes the prelude away, round 2
           is the no-change round that stops the driver. *)
        let _, r = Pipeline.optimize Pipeline.Imprecise (parse "42") in
        Alcotest.(check int) "literal takes two rounds" 2 r.Pipeline.rounds;
        let _, r =
          Pipeline.optimize Pipeline.Imprecise (parse "sum (enumFromTo 1 20)")
        in
        Alcotest.(check bool)
          (Printf.sprintf "bounded rounds (got %d)" r.Pipeline.rounds)
          true
          (r.Pipeline.rounds >= 2 && r.Pipeline.rounds <= 8));
    tc "optimizer idempotence: a fixpoint re-optimises to itself" (fun () ->
        List.iter
          (fun src ->
            let e = parse src in
            let o1, _ = Pipeline.optimize Pipeline.Imprecise e in
            let o2, _ = Pipeline.optimize Pipeline.Imprecise o1 in
            Alcotest.check expr (Printf.sprintf "idempotent: %s" src) o1 o2)
          [
            "sum (enumFromTo 1 20)";
            "let x = 2 + 3 in x * x";
            "zipWith (\\a b -> a + b) [1,2] [10,20]";
            "case (1 / 0, 2) of { Pair a b -> b }";
          ]);
    tc "lint ablations: every broken pass is caught and blamed by name"
      (fun () ->
        let cases =
          [
            ("unbind-var", "scope", "let x = sum (enumFromTo 1 3) in x + x");
            ("drop-con-arg", "arity", "1 : 2 : []");
            ( "dup-pattern-binder",
              "binder-uniqueness",
              "case enumFromTo 1 2 of { Cons h t -> h; Nil -> 0 }" );
            ("int-to-string", "type-preservation", "sum (enumFromTo 1 3)");
          ]
        in
        List.iter
          (fun (abl, cat, src) ->
            Alcotest.(check bool)
              (abl ^ " is a published ablation")
              true
              (List.mem abl Pipeline.ablations);
            match
              Pipeline.optimize ~break_pass:abl Pipeline.Imprecise (parse src)
            with
            | exception Lint.Lint_error { pass; violations; _ } ->
                Alcotest.(check string) (abl ^ ": blamed pass") abl pass;
                Alcotest.(check bool)
                  (Printf.sprintf "%s: fires the %s check" abl cat)
                  true
                  (List.exists (fun v -> String.equal v.Lint.check cat)
                     violations)
            | _ -> Alcotest.failf "%s: lint did not fire" abl)
          cases);
    tc "case-of-known skips a same-name wrong-arity alternative" (fun () ->
        (* A [Pcon] alternative at the wrong arity is legal unreachable
           input: the machines fall through it, so case-of-known must
           too — and the linter must tolerate it. *)
        let scrut = Con ("Cons", [ B.int 7; Con ("Nil", []) ]) in
        let wrong = { pat = Pcon ("Cons", [ "h" ]); rhs = Var "h" } in
        let deflt = { pat = Pany None; rhs = B.int 99 } in
        let right = { pat = Pcon ("Cons", [ "h"; "t" ]); rhs = Var "h" } in
        let to_default = Case (scrut, [ wrong; deflt ]) in
        let to_right = Case (scrut, [ wrong; right; deflt ]) in
        List.iter
          (fun (name, e, expected) ->
            let e', n = Pipeline.simplify_pass e in
            Alcotest.(check bool) (name ^ ": fired") true (n > 0);
            Alcotest.check deep (name ^ ": matches the machines") expected
              (Denot.run_deep e');
            Alcotest.check deep (name ^ ": meaning unchanged")
              (Denot.run_deep e) (Denot.run_deep e');
            (* The full linted pipeline accepts the wrong-arity input. *)
            let o, _ = Pipeline.optimize Pipeline.Imprecise e in
            Alcotest.check deep (name ^ ": linted pipeline agrees") expected
              (Denot.run_deep o))
          [
            ("falls to default", to_default, dint 99);
            ("falls to matching alt", to_right, dint 7);
          ]);
    tc "check_group: the kept Prelude group binds what is used, once"
      (fun () ->
        let body = parse_raw "sum (enumFromTo 1 3)" in
        let st = Lint.snapshot body in
        let group = Analysis.Occurrence.reachable_bindings Prelude.defs body in
        Lint.check_group ~pass:"prune" st group;
        let without x = List.filter (fun (y, _) -> y <> x) group in
        let fails what cat g =
          match Lint.check_group ~pass:"prune" st g with
          | () -> Alcotest.failf "%s: lint did not fire" what
          | exception Lint.Lint_error { pass; violations; _ } ->
              Alcotest.(check string) (what ^ ": blamed pass") "prune" pass;
              Alcotest.(check bool)
                (Printf.sprintf "%s: fires the %s check" what cat)
                true
                (List.exists (fun v -> String.equal v.Lint.check cat)
                   violations)
        in
        fails "dropping sum, which the body uses" "scope" (without "sum");
        fails "dropping foldl, which only sum uses" "scope" (without "foldl");
        fails "binding sum twice" "binder-uniqueness"
          (List.find (fun (x, _) -> x = "sum") group :: group));
    tc "every Prelude binding is a fixpoint of every pass, in both modes"
      (fun () ->
        (* The optimiser rewrites only a wrapped program's body and
           trims the Prelude group around it; that is the same output
           only while no pass would rewrite a Prelude binding. *)
        let passes mode =
          [
            ("prune", Pipeline.prune_pass);
            ("simplify", Pipeline.simplify_pass);
            ("inline", Pipeline.inline_pass);
            ("case-of-case", Pipeline.case_of_case_pass);
            ( "case-commute",
              fun e ->
                let e', n, b = Pipeline.case_commute_pass mode e in
                (e', n + b) );
            ( "cbv",
              fun e ->
                let e', n, b = Pipeline.cbv_pass mode e in
                (e', n + b) );
          ]
        in
        List.iter
          (fun mode ->
            List.iter
              (fun (pass, run) ->
                List.iter
                  (fun (x, rhs) ->
                    let rhs', n = run rhs in
                    if n <> 0 || rhs' != rhs then
                      Alcotest.failf "%s rewrites the Prelude's %s" pass x)
                  Prelude.defs)
              (passes mode))
          [ Pipeline.Imprecise; Pipeline.Fixed_order_with_effect_analysis ]);
    tc "optimiser reports on the pure corpus are pinned, in both modes"
      (fun () ->
        (* rounds, sites per pass (prune, simplify, inline, case-of-case,
           case-commute, cbv), size before, size after, lint checks. *)
        let pinned =
          [
            ( "black-hole",
              "2 125 0 0 0 0 0 1992 5 1",
              "2 125 0 0 0 0 0 1992 5 1" );
            ( "case-exceptional-scrutinee",
              "2 125 3 0 0 0 0 1994 1 2",
              "2 125 3 0 0 0 0 1994 1 2" );
            ( "div-plus-error",
              "2 125 0 0 0 0 0 1994 7 1",
              "2 125 0 0 0 0 0 1994 7 1" );
            ( "gen-000075",
              "3 125 0 0 1 0 2 1998 11 3",
              "2 125 0 0 0 0 0 1998 11 1" );
            ( "gen-000086",
              "2 118 0 1 0 0 1 2054 156 3",
              "2 118 0 1 0 0 0 2054 156 2" );
            ( "gen-000090",
              "2 121 0 0 0 0 1 2011 85 2",
              "2 121 0 0 0 0 0 2011 85 1" );
            ( "gen-000092",
              "2 120 0 0 0 0 0 2033 121 1",
              "2 120 0 0 0 0 0 2033 121 1" );
            ( "gen-000096",
              "2 124 0 0 0 0 0 1992 22 1",
              "2 124 0 0 0 0 0 1992 22 1" );
            ( "gen-000121",
              "2 122 1 0 0 0 0 2018 69 2",
              "2 122 1 0 0 0 0 2018 69 2" );
            ( "gen-000367",
              "2 117 1 0 0 0 0 2035 148 2",
              "2 117 1 0 0 0 0 2035 148 2" );
            ( "head-nil",
              "2 124 0 0 0 0 0 1990 11 1",
              "2 124 0 0 0 0 0 1990 11 1" );
            ( "map-exception-non-function",
              "2 125 0 0 0 0 0 1992 5 1",
              "2 125 0 0 0 0 0 1992 5 1" );
            ( "map-exception",
              "2 125 0 0 0 0 0 1997 10 1",
              "2 125 0 0 0 0 0 1997 10 1" );
            ( "prelude-sum",
              "2 122 0 0 0 0 0 1994 53 1",
              "2 122 0 0 0 0 0 1994 53 1" );
            ( "rule-beta-1",
              "2 125 0 0 0 0 0 1993 6 1",
              "2 125 0 0 0 0 0 1993 6 1" );
            ( "rule-dead_let-0",
              "2 125 1 0 0 0 0 1992 1 2",
              "2 125 1 0 0 0 0 1992 1 2" );
            ( "seq-error",
              "2 125 0 0 0 0 0 1992 5 1",
              "2 125 0 0 0 0 0 1992 5 1" );
            ( "shared-exceptional-list",
              "2 125 0 0 0 0 0 1996 9 1",
              "2 125 0 0 0 0 0 1996 9 1" );
            ( "shared-poison",
              "2 125 0 0 0 0 1 1994 7 2",
              "2 125 0 0 0 0 0 1994 7 1" );
          ]
        in
        let corpus =
          Corpus.pure (fst (Corpus.load_dir (Lazy.force corpus_dir)))
        in
        Alcotest.(check (list string))
          "the pinned programs are the pure corpus"
          (List.map (fun (n, _, _) -> n) pinned)
          (List.map (fun e -> e.Corpus.name) corpus);
        List.iter2
          (fun (name, imp, fix) e ->
            List.iter
              (fun (mode, want) ->
                let e', r =
                  Pipeline.optimize mode (Prelude.wrap e.Corpus.expr)
                in
                Alcotest.(check string)
                  (Fmt.str "%s [%a]" name Pipeline.pp_report r)
                  want
                  (String.concat " "
                     (List.map string_of_int
                        ((r.Pipeline.rounds :: List.map snd r.Pipeline.sites)
                        @ [
                            r.Pipeline.size_before;
                            r.Pipeline.size_after;
                            r.Pipeline.lint_checks;
                          ])));
                (* No body here has a [letrec] that prune trims, so
                   prune's sites are the group's dropped bindings; an
                   emptied group leaves the bare body. *)
                let kept =
                  List.length Prelude.defs - List.assoc "prune" r.Pipeline.sites
                in
                if kept > 0 then
                  match e' with
                  | Letrec (group, _) ->
                      Alcotest.(check int) (name ^ ": kept") kept
                        (List.length group);
                      List.iter
                        (fun ((x, _) as d) ->
                          if not (List.memq d Prelude.defs) then
                            Alcotest.failf "%s: kept %s is not a Prelude pair"
                              name x)
                        group
                  | _ -> Alcotest.failf "%s: the group is gone" name)
              [
                (Pipeline.Imprecise, imp);
                (Pipeline.Fixed_order_with_effect_analysis, fix);
              ])
          pinned corpus);
  ]

open Imprecise
open Helpers
module B = Builder
module E = Exn

(* The paper justifies three design decisions by pointing at what breaks
   without them. Each is implemented as an ablation flag; these tests
   reproduce the breakage, i.e. they check that the REJECTED designs fail
   exactly as the paper says. *)

let ablated_app =
  { Denot.default_config with app_union = false }

let ablated_case =
  { Denot.default_config with case_finding = false }

let suite =
  [
    (* Section 4.2: "we must union its exception set with that of its
       argument, because under some circumstances (notably if the function
       is strict) we might legitimately evaluate the argument first; if we
       neglected to union in the argument's exceptions, the semantics
       would not allow this standard optimisation." *)
    tc "4.2 ablation: without app-union the sets differ" (fun () ->
        let e = parse "(error \"f\") (error \"a\")" in
        Alcotest.check deep "faithful"
          (dbad [ E.User_error "f"; E.User_error "a" ])
          (Denot.run_deep e);
        Alcotest.check deep "ablated"
          (dbad [ E.User_error "f" ])
          (Denot.run_deep ~config:ablated_app e));
    tc "4.2 ablation: argument pre-evaluation becomes invalid" (fun () ->
        (* A strict-function optimisation: f a  ==>  seq a (f a). Valid in
           the faithful semantics even when f is exceptional; invalid in
           the ablated one. *)
        let lhs = parse "(error \"f\") (error \"a\")" in
        let rhs = parse "seq (error \"a\") ((error \"f\") (error \"a\"))" in
        let faithful l r =
          Value.deep_equal (Denot.run_deep l) (Denot.run_deep r)
        in
        let ablated l r =
          Value.deep_equal
            (Denot.run_deep ~config:ablated_app l)
            (Denot.run_deep ~config:ablated_app r)
        in
        Alcotest.(check bool) "faithful: identity" true (faithful lhs rhs);
        Alcotest.(check bool) "ablated: broken" false (ablated lhs rhs));
    (* Section 4.3: "If the scrutinee turns out to be a set of exceptions
       the obvious thing to do is to return just that set — but doing so
       would invalidate the case-switching transformation." *)
    tc "4.3 ablation: returning just the scrutinee's set breaks \
        case-commuting"
      (fun () ->
        (* The Section 4 motivating equation: swap two independent cases.
           With exception-finding mode the two orders denote the same set;
           with the ablated rule each order sees only its own scrutinee's
           exceptions, so the law is lost. *)
        let lhs =
          List.find
            (fun inst ->
              (* the instance whose BOTH scrutinees raise *)
              Exn_set.equal (Denot.exception_set inst)
                (Exn_set.of_list [ E.User_error "X"; E.User_error "Y" ]))
            Rules.case_commute.Rules.instances
        in
        let rhs = Option.get (Rules.case_commute.Rules.applies lhs) in
        (* Faithful: identity. *)
        Alcotest.check verdict "faithful identity" Refine.Equal
          (Refine.compare_denot lhs rhs);
        (* Ablated: the two orders report different exceptions. *)
        let dl = Denot.run_deep ~config:ablated_case lhs
        and dr = Denot.run_deep ~config:ablated_case rhs in
        Alcotest.check deep "ablated lhs sees only X"
          (dbad [ E.User_error "X" ])
          dl;
        Alcotest.check deep "ablated rhs sees only Y"
          (dbad [ E.User_error "Y" ])
          dr;
        match Refine.compare_deep dl dr with
        | Refine.Equal | Refine.Refines ->
            Alcotest.fail "ablated semantics should not license it"
        | Refine.Refined_by | Refine.Incomparable -> ());
    tc "4.3 ablation: exception-finding mode off" (fun () ->
        let e =
          parse "case 1/0 of { Nil -> error \"a\"; Cons x xs -> raise Overflow }"
        in
        Alcotest.check deep "faithful"
          (dbad [ E.Divide_by_zero; E.User_error "a"; E.Overflow ])
          (Denot.run_deep e);
        Alcotest.check deep "ablated"
          (dbad [ E.Divide_by_zero ])
          (Denot.run_deep ~config:ablated_case e));
    (* Section 3.3 footnote 3: thunks abandoned by an unwinding must be
       overwritten with [raise ex]; a bare black hole gives the wrong
       answer on re-evaluation. *)
    tc "3.3 ablation: without poisoning, re-evaluation is wrong" (fun () ->
        let src = "1/0" in
        (* Faithful machine: both catches see DivideByZero. *)
        let m = Machine.create () in
        let x = Machine.alloc m (parse src) in
        (match Machine.force_catch m x with
        | Error (Machine.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "first catch");
        (match Machine.force_catch m x with
        | Error (Machine.Fail_exn E.Divide_by_zero) -> ()
        | r ->
            Alcotest.failf "faithful second catch: %s"
              (match r with
              | Ok _ -> "value"
              | Error f -> Fmt.str "%a" Runtime.pp_failure f));
        (* Ablated machine: the second catch hits a black hole. *)
        let config =
          {
            Machine.default_config with
            poison_thunks = false;
            blackhole_nontermination = true;
          }
        in
        let m2 = Machine.create ~config () in
        let y = Machine.alloc m2 (parse src) in
        (match Machine.force_catch m2 y with
        | Error (Machine.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "ablated first catch");
        match Machine.force_catch m2 y with
        | Error (Machine.Fail_exn E.Non_termination) -> ()
        | Error (Machine.Fail_exn e) ->
            Alcotest.failf "ablated second catch got %a" E.pp e
        | _ -> Alcotest.fail "ablated second catch should hit a black hole");
  ]

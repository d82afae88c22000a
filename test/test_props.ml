open Imprecise
open Helpers
module B = Builder
module E = Exn

(* Cross-cutting semantic properties (experiments C2, C4, C13). *)

let cfg20 = Denot.with_fuel 12_000

let eq_denot a b =
  Value.deep_equal
    (Denot.run_deep ~config:cfg20 a)
    (Denot.run_deep ~config:cfg20 b)

let suite =
  [
    (* C2: + is commutative under the imprecise semantics, on arbitrary
       exception-raising operands. *)
    qtest_gen ~count:150 ~print:print_expr_pair
      "+ is commutative (the paper's motivating law)"
      QCheck2.Gen.(pair (Gen.gen_int ()) (Gen.gen_int ()))
      (fun (a, b) ->
        eq_denot (Prelude.wrap B.(a + b)) (Prelude.wrap B.(b + a)));
    qtest_gen ~count:100 ~print:print_expr_pair
      "* is commutative"
      QCheck2.Gen.(pair (Gen.gen_int ()) (Gen.gen_int ()))
      (fun (a, b) ->
        eq_denot (Prelude.wrap B.(a * b)) (Prelude.wrap B.(b * a)));
    tc "+ is NOT associative (checked arithmetic, a deliberate non-law)"
      (fun () ->
        (* (big + big) + (-big) overflows on the left association only.
           The imprecise semantics is honest about this: the two
           groupings denote different values. *)
        let big = B.int 2000000000 and minus_big = B.int (-2000000000) in
        let lhs = B.(big + big + minus_big)
        and rhs = B.(big + (big + minus_big)) in
        Alcotest.check deep "lhs overflows" (dbad [ E.Overflow ])
          (Denot.run_deep lhs);
        Alcotest.check deep "rhs fine" (dint 2000000000)
          (Denot.run_deep rhs));
    (* C4: both-scrutinised case commuting. *)
    qtest_gen ~count:80 ~print:print_expr_pair
      "independent strict pairs commute (paper section 4)"
      QCheck2.Gen.(pair (Gen.gen_int ()) (Gen.gen_int ()))
      (fun (x, y) ->
        let nested a b inner =
          Syntax.Case
            ( B.pair a (B.int 0),
              [
                {
                  Syntax.pat = Syntax.Pcon ("Pair", [ "p1"; "q1" ]);
                  rhs =
                    Syntax.Case
                      ( B.pair b (B.int 0),
                        [
                          {
                            Syntax.pat = Syntax.Pcon ("Pair", [ "p2"; "q2" ]);
                            rhs = inner;
                          };
                        ] );
                };
              ] )
        in
        (* seq both pair components so the scrutinees' exceptions are
           actually demanded in both orders. *)
        let body1 = B.(seq (var "p1") (seq (var "p2") (int 1))) in
        let body2 = B.(seq (var "p2") (seq (var "p1") (int 1))) in
        eq_denot
          (Prelude.wrap (nested x y body1))
          (Prelude.wrap (nested y x body2)));
    (* Beta. *)
    qtest_gen ~count:100 ~print:print_expr_pair
      "beta reduction preserves the denotation"
      QCheck2.Gen.(pair (Gen.gen Gen.T_fun_ii) (Gen.gen_int ()))
      (fun (f, a) ->
        match f with
        | Syntax.Lam (x, body) ->
            eq_denot
              (Prelude.wrap (Syntax.App (f, a)))
              (Prelude.wrap (Subst.subst x a body))
        | _ -> true);
    (* Laziness. *)
    qtest ~count:100 "unused function arguments never matter"
      (Gen.gen_int ())
      (fun junk ->
        eq_denot
          (Prelude.wrap (Syntax.App (B.lam "ignored" (B.int 7), junk)))
          (B.int 7));
    qtest ~count:80 "constructors never raise at WHNF" (Gen.gen_int ())
      (fun e ->
        match Denot.run ~config:cfg20 (Prelude.wrap (B.cons e B.nil)) with
        | exception _ -> false
        | Value.Ok_v _ -> true
        | Value.Bad _ -> false);
    (* The semantic exception set only grows when raises are added. *)
    qtest ~count:80 "seq of a term with itself has the same set"
      (Gen.gen_int ())
      (fun e ->
        (* [seq e e] evaluates [e] twice, so near the fuel bound the two
           sides can disagree spuriously. Skip terms whose set has not
           converged (it still changes when the fuel doubles), and give
           the doubled term double fuel. *)
        let w = Prelude.wrap e in
        let s1 = Denot.exception_set ~config:cfg20 w in
        let s2 = Denot.exception_set ~config:(Denot.with_fuel 24_000) w in
        (not (Exn_set.equal s1 s2))
        || Exn_set.equal s2
             (Denot.exception_set
                ~config:(Denot.with_fuel 48_000)
                (Prelude.wrap (B.seq e e))));
    (* getException in the IO monad restores beta (Section 3.5): the
       substituted and shared forms perform identically under the same
       oracle. *)
    qtest_gen ~count:60
      ~print:QCheck2.Print.int
      "IO-monad getException makes the paper's beta example deterministic"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let shared =
          parse
            "let x = (1/0) + error \"Urk\" in\n\
             getException x >>= \\v1 ->\n\
             getException x >>= \\v2 ->\n\
             return (eqExVal (\\a b -> a == b) v1 v2)"
        in
        let substituted =
          parse
            "getException ((1/0) + error \"Urk\") >>= \\v1 ->\n\
             getException ((1/0) + error \"Urk\") >>= \\v2 ->\n\
             return (eqExVal (\\a b -> a == b) v1 v2)"
        in
        let run e = Conc.run ~oracle:(Oracle.create ~seed) e in
        let outcome e = Fmt.str "%a" Conc.pp_outcome (run e).Conc.outcome in
        (* β holds: same oracle sequence, same answers. *)
        String.equal (outcome shared) (outcome substituted));
    (* The machine's chosen representative is always in the semantic set
       (the Section 3.5 "single member" claim). *)
    qtest ~count:100 "machine exception is a member of the semantic set"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        match Machine.run_expr w with
        | Error (Machine.Fail_exn exn), _ ->
            Exn_set.mem exn (Denot.exception_set ~config:cfg20 w)
            || Exn_set.is_all (Denot.exception_set ~config:cfg20 w)
        | (Ok _ | Error _), _ -> true);
  ]

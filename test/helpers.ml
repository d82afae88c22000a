(* Shared helpers for the test suites. *)
open Imprecise

let parse = Imprecise.parse
let parse_raw = Imprecise.parse_raw

(* The committed fuzz corpus directory. *)
let corpus_dir =
  lazy
    (match Corpus.find_dir () with
    | Ok d -> d
    | Error tried ->
        Alcotest.failf "fuzz/corpus not found; tried %s"
          (String.concat ", " tried))

(* Alcotest testables *)

let deep : Value.deep Alcotest.testable =
  Alcotest.testable Value.pp_deep Value.deep_equal

let expr : Syntax.expr Alcotest.testable =
  Alcotest.testable Pretty.pp_expr Syntax.equal

let expr_alpha : Syntax.expr Alcotest.testable =
  Alcotest.testable Pretty.pp_expr Subst.alpha_equal

let exn_set : Exn_set.t Alcotest.testable =
  Alcotest.testable Exn_set.pp Exn_set.equal

let fixed_outcome : Fixed.outcome Alcotest.testable =
  Alcotest.testable Fixed.pp_outcome Fixed.outcome_equal

let verdict : Refine.verdict Alcotest.testable =
  Alcotest.testable Refine.pp_verdict Refine.verdict_equal

let status : Rules.status Alcotest.testable =
  Alcotest.testable Rules.pp_status Rules.status_equal

(* Deep-evaluation shorthands *)

let ev ?config ?depth src = Denot.run_deep ?config ?depth (parse src)
let ev_expr ?config ?depth e = Denot.run_deep ?config ?depth e

let dint n = Value.DInt n
let dbad es = Value.DBad (Exn_set.of_list es)
let dbad_all = Value.DBad Exn_set.All
let dtrue = Value.DCon ("True", [])
let dfalse = Value.DCon ("False", [])

let rec dlist = function
  | [] -> Value.DCon ("Nil", [])
  | d :: rest -> Value.DCon ("Cons", [ d; dlist rest ])

let dints ns = dlist (List.map dint ns)

let check_ev ?config msg expected src =
  Alcotest.check deep msg expected (ev ?config src)

let tc name f = Alcotest.test_case name `Quick f

(* QCheck integration *)

let qtest_gen ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen prop)

let qtest ?count name gen prop =
  qtest_gen ?count ~print:Gen.print_expr name gen prop

let print_expr_pair = QCheck2.Print.pair Gen.print_expr Gen.print_expr

(* The "implements" relation between a machine/fixed result and the
   imprecise denotation (C13) — promoted to the library proper so tests
   and the fuzzer share one checker. *)
let implements = Refine.implements_deep

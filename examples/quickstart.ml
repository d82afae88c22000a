(* Quickstart: parse a program in the paper's lazy language, evaluate it
   under the imprecise denotational semantics, observe the exception *set*,
   then catch one member of the set through the IO-monad getException —
   exactly the Section 3 design.

   Run with: dune exec examples/quickstart.exe *)

open Imprecise

let () =
  (* 1. A pure value. *)
  let forty_two = eval_string "6 * 7" in
  Fmt.pr "6 * 7                         = %a@." Value.pp_deep forty_two;

  (* 2. The paper's motivating expression: both operands raise. The
     denotation carries BOTH exceptions, so the compiler may evaluate the
     sum in either order. *)
  let both = eval_string "(1/0) + error \"Urk\"" in
  Fmt.pr "(1/0) + error \"Urk\"          = %a@." Value.pp_deep both;

  (* 3. Commuting the operands does not change the denotation. *)
  let swapped = eval_string "error \"Urk\" + (1/0)" in
  Fmt.pr "error \"Urk\" + (1/0)          = %a@." Value.pp_deep swapped;

  (* 4. Exceptional values hide inside lazy structures (Section 3.2). *)
  let lazy_list = eval_string "zipWith (\\a b -> a / b) [6, 7] [3, 0]" in
  Fmt.pr "zipWith (/) [6,7] [3,0]       = %a@." Value.pp_deep lazy_list;

  (* 5. getException lives in the IO monad and returns ONE member of the
     set; different oracles may pick different members, but the choice is
     confined to IO (Section 3.5). *)
  let program =
    parse
      "getException ((1/0) + error \"Urk\") >>= \\v ->\n\
       case v of { OK x -> putLine (showInt x);\n\
       Bad e -> case e of\n\
       { DivideByZero -> putList (showInt 0);\n\
       z -> putList [chr 63] } }"
  in
  let r1 = run_io program in
  let r2 = run_io ~oracle:(Oracle.create ~seed:7) program in
  Fmt.pr "catch, oracle A               -> output %S@."
    (Conc.output_string_of r1);
  Fmt.pr "catch, oracle B               -> output %S@."
    (Conc.output_string_of r2);

  (* 6. The same program on the real implementation: the stack-trimming
     abstract machine (Section 3.3). *)
  let m = run_io_machine program in
  Fmt.pr "catch, abstract machine       -> output %S (%d steps)@."
    m.Machine_conc.output m.Machine_conc.stats.Stats.steps;

  (* 7. try_eval: the one-shot catch convenience. *)
  (match try_eval (parse "head []") with
  | Error (Some e) -> Fmt.pr "head []                       raised %a@." Exn.pp e
  | Error None -> Fmt.pr "head [] diverged?!@."
  | Ok d -> Fmt.pr "head [] = %a?!@." Value.pp_deep d);

  (* 8. A whole program with declarations. *)
  let prog =
    parse_program
      "squares n = map (\\x -> x * x) (enumFromTo 1 n);\n\
       main = putLine (showInt (sum (squares 10)));"
  in
  Fmt.pr "sum of squares program        -> output %S@."
    (Conc.output_string_of (run_io prog))

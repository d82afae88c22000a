(* The Section 3.2 story, end to end: "it is values not calls that may be
   exceptional, and exceptional values may hide inside lazy data
   structures."

   The paper's three zipWith behaviours are reproduced, then seq/forceList
   are used to flush hidden exceptional values out — with the imprecise
   set semantics on one side and the stack-trimming machine on the other.

   Run with: dune exec examples/zipwith_lazy.exe *)

open Imprecise

let show src =
  let d = eval_string src in
  Fmt.pr "  %-48s = %a@." src Value.pp_deep d

let show_machine src =
  let d, stats = eval_machine (parse src) in
  Fmt.pr "  %-48s = %a  [%d steps]@." src Value.pp_deep d
    stats.Stats.steps

let () =
  Fmt.pr "zipWith may return an exceptional value directly:@.";
  show "zipWith (\\a b -> a + b) (error \"whole\") []";

  Fmt.pr "@.... or a list with an exceptional value at the end:@.";
  show "zipWith (\\a b -> a + b) [1] [1, 2]";

  Fmt.pr
    "@.... or a fully-defined spine with exceptional *elements* \
     (paper: zipWith (/) [1,2] [1,0]):@.";
  show "zipWith (\\a b -> a / b) [1, 2] [1, 0]";

  Fmt.pr "@.The spine can be consumed without touching the elements:@.";
  show "length (zipWith (\\a b -> a / b) [1, 2] [1, 0])";
  show "sum (forceSpine [10, 20, 30])";

  Fmt.pr
    "@.seq flushes exceptions out of elements (the paper's advice: \"one \
     must force evaluation of all the elements\"):@.";
  show "head (forceList (zipWith (\\a b -> a / b) [1] [0]))";

  Fmt.pr "@.Infinite structures stay fine as long as you stay lazy:@.";
  show "take 4 (map (\\x -> 100 / x) (iterate (\\x -> x - 1) 2))";

  Fmt.pr "@.And the abstract machine implements all of it:@.";
  show_machine "zipWith (\\a b -> a / b) [1, 2] [1, 0]";
  show_machine "length (zipWith (\\a b -> a / b) [1, 2] [1, 0])";

  Fmt.pr
    "@.An IO program that walks the list and recovers per element \
     (disaster recovery confined to IO):@.";
  let program =
    parse
      "mapM (\\x -> getException x) (zipWith (\\a b -> a / b) [6, 7] [3, 0])\n\
       >>= \\results ->\n\
       mapM2 (\\r -> case r of { OK v -> putLine (showInt v);\n\
       Bad e -> putLine [chr 63] }) results"
  in
  let r = run_io program in
  Fmt.pr "  per-element recovery output: %S@." (Conc.output_string_of r)

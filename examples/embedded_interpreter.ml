(* A realistic object-language program: an interpreter for a small
   arithmetic expression tree, written *in* the paper's lazy language,
   using a user-declared data type.

   This is the paper's modularity argument made concrete (Section 2.2,
   "loss of modularity"): the evaluator is written with NO error handling
   at all — division by zero, unbound variables and overflow simply
   become exceptional values — and one getException at the driver level
   recovers from failures in any sub-component. The same program under
   the explicit ExVal encoding is also run, to show what the evaluator
   would have to look like cost-wise without native exceptions.

   Run with: dune exec examples/embedded_interpreter.exe *)

open Imprecise

let program_src =
  {|
data Aexp = Num Int
          | Add2 Aexp Aexp
          | Sub2 Aexp Aexp
          | Mul2 Aexp Aexp
          | Div2 Aexp Aexp
          | Let2 Int Aexp Aexp
          | Ref Int;

lookupEnv env k = case lookupInt k env of
  { Nothing -> raise (UserError "unbound variable")
  ; Just v -> v };

evalA env e = case e of
  { Num n -> n
  ; Add2 a b -> evalA env a + evalA env b
  ; Sub2 a b -> evalA env a - evalA env b
  ; Mul2 a b -> evalA env a * evalA env b
  ; Div2 a b -> evalA env a / evalA env b
  ; Let2 k rhs body -> evalA ((k, evalA env rhs) : env) body
  ; Ref k -> lookupEnv env k };

samples =
  [ Add2 (Num 2) (Mul2 (Num 3) (Num 4))
  , Let2 0 (Num 10) (Mul2 (Ref 0) (Ref 0))
  , Div2 (Num 1) (Sub2 (Num 5) (Num 5))
  , Ref 42
  , Let2 0 (Div2 (Num 1) (Num 0)) (Num 99)
  , Mul2 (Num 100000000) (Mul2 (Num 100000000) (Num 100000000))
  ];

report r = case r of
  { OK v -> putLine (showInt v)
  ; Bad e -> case e of
    { DivideByZero -> putLine [chr 47, chr 48]
    ; UserError msg -> putLine [chr 63, chr 118]
    ; Overflow -> putLine [chr 94, chr 94]
    ; z -> putLine [chr 63] } };

main = mapM (\s -> getException (evalA [] s)) samples
       >>= \results -> mapM2 report results;
|}

let labels =
  [
    "2 + 3 * 4";
    "let x = 10 in x * x";
    "1 / (5 - 5)";
    "unbound reference";
    "lazy: unused division by zero";
    "10^8 * 10^8 * 10^8";
  ]

let () =
  let program = parse_program program_src in

  Fmt.pr "evaluator with native imprecise exceptions:@.";
  let r = run_io program in
  List.iteri
    (fun i line ->
      if line <> "" then
        Fmt.pr "  %-32s -> %s@."
          (try List.nth labels i with _ -> "?")
          line)
    (String.split_on_char '\n' (Conc.output_string_of r));

  (* Note sample #5: the paper's laziness story. [Let2] binds the
     division eagerly in evalA (evalA env rhs is evaluated when the
     binding is *used*, not made — the object language is lazy), so the
     unused 1/0 never raises. *)

  Fmt.pr "@.the same program on the abstract machine:@.";
  let m = run_io_machine program in
  List.iteri
    (fun i line ->
      if line <> "" then
        Fmt.pr "  %-32s -> %s@."
          (try List.nth labels i with _ -> "?")
          line)
    (String.split_on_char '\n' m.Machine_conc.output);
  Fmt.pr "  (%d machine steps, %d allocations)@."
    m.Machine_conc.stats.Stats.steps m.Machine_conc.stats.Stats.allocations;

  (* What the Section 2 encoding costs for this program. *)
  let as_expr = parse_program program_src in
  Fmt.pr "@.explicit ExVal encoding of the same program: code size x%.2f@."
    (Exval.code_blowup as_expr)

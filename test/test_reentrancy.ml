open Imprecise
open Helpers

(* Re-entrancy: the serve daemon interleaves many paused machines in
   one process, so nothing machine-level may live in hidden module
   globals. Two machines paused and resumed in alternation must behave
   exactly like each running alone, and two resolution contexts must
   never bleed constructor tags into each other. *)

(* Run [src] to completion on a fresh machine, pausing it [pauses]
   times via injected slice interrupts, optionally calling [between]
   at every pause (this is where the interleaved other machine runs).
   Returns the deep value and the machine's final stats. *)
let run_sliced ?(pauses = 0) ?(slice = 500) ?(between = fun () -> ()) src =
  let m = Machine.create () in
  let a = Machine.alloc m (parse src) in
  let rec go remaining =
    if remaining > 0 then
      Runtime.inject_async m
        ~at_step:((Machine.stats m).Stats.steps + slice)
        Exn.Timeout;
    match Machine.force_catch m a with
    | Ok _ -> (Machine.deep m a, Machine.stats m)
    | Error (Machine.Fail_async Exn.Timeout) when remaining > 0 ->
        between ();
        go (remaining - 1)
    | Error f -> Alcotest.failf "unexpected failure: %a" Runtime.pp_failure f
  in
  go pauses

(* The spec array of a wrapped program's Prelude letrec. *)
let prelude_specs = function
  | Resolve.RLetrec (specs, _) -> specs
  | _ -> Alcotest.fail "a wrapped program resolves to a letrec"

(* The full resolution of a wrapped program: a copy of the bindings
   list is not physically [Prelude.defs], so no context's held Prelude
   applies. *)
let resolve_full = function
  | Syntax.Letrec (defs, body) ->
      Resolve.expr (Syntax.Letrec (List.map Fun.id defs, body))
  | _ -> Alcotest.fail "not a wrapped program"

let suite =
  [
    tc "two interleaved paused machines match their solo baselines"
      (fun () ->
        (* Baselines: each program alone, no pausing. *)
        let v1_solo, s1_solo = run_sliced "sum (enumFromTo 1 300)" in
        let v2_solo, s2_solo =
          run_sliced "length (filter (\\x -> x > 5) (enumFromTo 1 40))"
        in
        (* Interleaved: machine 1 pauses five times; at every pause,
           machine 2 runs a full sliced evaluation of its own. *)
        let inner = ref [] in
        let v1, s1 =
          run_sliced ~pauses:5
            ~between:(fun () ->
              inner :=
                run_sliced ~pauses:2
                  "length (filter (\\x -> x > 5) (enumFromTo 1 40))"
                :: !inner)
            "sum (enumFromTo 1 300)"
        in
        Alcotest.check deep "outer value unchanged" v1_solo v1;
        List.iter
          (fun (v2, s2) ->
            Alcotest.check deep "inner value unchanged" v2_solo v2;
            Alcotest.(check int) "inner heap counter isolated"
              s2_solo.Stats.allocations s2.Stats.allocations)
          !inner;
        Alcotest.(check int) "five inner runs happened" 5
          (List.length !inner);
        (* The outer machine's work is its own: pausing adds only the
           bounded unwind/rebuild cost, never the other machine's
           steps. Allocations are exactly identical — pause cells are
           heap-free bookkeeping on the paused stack. *)
        Alcotest.(check int) "outer allocations unchanged"
          s1_solo.Stats.allocations s1.Stats.allocations;
        Alcotest.(check bool) "outer steps within pause overhead" true
          (s1.Stats.steps >= s1_solo.Stats.steps
          && s1.Stats.steps <= s1_solo.Stats.steps + (5 * 100)));
    tc "resolution contexts do not bleed constructor tags" (fun () ->
        let c1 = Resolve.new_context () in
        let c2 = Resolve.new_context () in
        (* Fresh names interned in one context in one order... *)
        let a1 = Resolve.con_tag ~ctx:c1 "Alpha" in
        let b1 = Resolve.con_tag ~ctx:c1 "Beta" in
        (* ...and the opposite order in the other. *)
        let b2 = Resolve.con_tag ~ctx:c2 "Beta" in
        let a2 = Resolve.con_tag ~ctx:c2 "Alpha" in
        Alcotest.(check bool) "c1 ordering" true (a1 < b1);
        Alcotest.(check bool) "c2 ordering" true (b2 < a2);
        Alcotest.(check int) "first fresh tag identical" a1 b2;
        Alcotest.(check string) "c1 names its own tags" "Alpha"
          (Resolve.con_name ~ctx:c1 a1);
        Alcotest.(check string) "c2 names its own tags" "Beta"
          (Resolve.con_name ~ctx:c2 b2);
        (* Builtins are pre-interned identically everywhere, so machine
           drivers can rely on the t_* tags in any context. *)
        Alcotest.(check int) "builtin tags stable across contexts"
          (Resolve.con_tag ~ctx:c1 "Cons")
          (Resolve.con_tag ~ctx:c2 "Cons");
        Alcotest.(check int) "and equal to the global ones"
          Resolve.t_cons
          (Resolve.con_tag ~ctx:c1 "Cons"));
    tc "resolution is deterministic: same source, identical IR" (fun () ->
        (* The compiled-program cache substitutes a cached IR for a
           fresh resolution, so resolving twice must yield structurally
           identical results — including raise-site numbering, which
           restarts per call. *)
        List.iter
          (fun src ->
            let e = parse src in
            let r1 = Resolve.expr e and r2 = Resolve.expr e in
            Alcotest.(check bool)
              (Printf.sprintf "deterministic: %s" src)
              true (r1 = r2))
          [
            "sum (enumFromTo 1 10)";
            "1/0 + error \"Urk\"";
            "case unsafeGetException (head Nil) of { OK v -> v; Bad e -> 0 }";
            "let rec go n = if n > 0 then go (n - 1) else 0 in go 3";
          ];
        (* A context resolves the Prelude once: different wrapped
           programs share its spec array, and each is still exactly the
           IR of a full resolution, in a fresh context and from a copy
           of the bindings list. *)
        let p1 = parse "sum (enumFromTo 1 10)" in
        let p2 = parse "length (Cons 1 (Cons 2 Nil))" in
        let r1 = Resolve.expr p1 and r2 = Resolve.expr p2 in
        Alcotest.(check bool) "two programs share one Prelude spec array"
          true
          (prelude_specs r1 == prelude_specs r2);
        Alcotest.(check bool) "a copied bindings list takes the full path"
          true
          (prelude_specs (resolve_full p1) != prelude_specs r1);
        List.iter
          (fun (e, r) ->
            Alcotest.(check bool) "equals a fresh context's resolution" true
              (r = Resolve.expr ~ctx:(Resolve.new_context ()) e);
            Alcotest.(check bool) "equals a full resolution" true
              (r = resolve_full e))
          [ (p1, r1); (p2, r2) ];
        (* The body's raise sites number on from the Prelude's. *)
        let body_raise = function
          | Resolve.RLetrec (_, Resolve.RRaise (label, _)) -> label
          | _ -> Alcotest.fail "expected a raise at the body's root"
        in
        let e = parse "raise (UserError \"body\")" in
        Alcotest.(check string) "a body raise has the same label both ways"
          (body_raise (resolve_full e))
          (body_raise (Resolve.expr e)));
    tc "held Prelude resolves every corpus entry and example program \
        like the full path" (fun () ->
        let entries, _ = Corpus.load_dir (Lazy.force corpus_dir) in
        let dir = Lazy.force Test_programs.program_dir in
        let programs =
          List.map
            (fun e -> (e.Corpus.name, Prelude.wrap e.Corpus.expr))
            entries
          @ List.map
              (fun f -> (f, parse_program (Test_programs.load f)))
              (List.sort compare (Array.to_list (Sys.readdir dir)))
        in
        Alcotest.(check bool) "corpus and programs found" true
          (List.length programs >= 30);
        List.iter
          (fun (name, e) ->
            Alcotest.(check bool) name true
              (Resolve.expr e = resolve_full e))
          programs);
    tc "a new context holds its own Prelude" (fun () ->
        let e = parse "sum (enumFromTo 1 10)" in
        let ctx = Resolve.new_context () in
        let own = prelude_specs (Resolve.expr ~ctx e) in
        Alcotest.(check bool) "not the global context's spec array" true
          (own != prelude_specs (Resolve.expr e));
        Alcotest.(check bool) "shared within the new context" true
          (own == prelude_specs (Resolve.expr ~ctx (parse "length Nil"))));
    tc "machines on distinct contexts evaluate independently" (fun () ->
        (* A machine carries its resolution context: two machines on two
           fresh contexts, each using constructors the other also
           interned (in a different order), both answer correctly. *)
        let eval_in ctx src =
          let m = Machine.create ~rctx:ctx () in
          let a = Machine.alloc_resolved m (Resolve.expr ~ctx (parse src)) in
          match Machine.force_catch m a with
          | Ok _ -> Machine.deep m a
          | Error f ->
              Alcotest.failf "unexpected failure: %a" Runtime.pp_failure f
        in
        let c1 = Resolve.new_context () in
        let c2 = Resolve.new_context () in
        (* Skew the fresh-tag numbering between the contexts first. *)
        ignore (Resolve.con_tag ~ctx:c2 "Skew");
        let src = "case Just 7 of { Just x -> x + 1; Nothing -> 0 }" in
        Alcotest.check deep "c1" (dint 8) (eval_in c1 src);
        Alcotest.check deep "c2" (dint 8) (eval_in c2 src));
  ]

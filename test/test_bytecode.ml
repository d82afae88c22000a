open Imprecise
open Helpers
module E = Exn
module M = Machine
module B = Bytecode

(* Differential suite for the flat bytecode backend: compiled dispatch
   with superinstructions and inline caches must be observationally
   identical to the slot machine (both are deterministic left-to-right
   call-by-need evaluators of the same resolved IR) and must still
   refine the denotational semantics. The satellite checks ride along:
   the new [Stats] counters are zero on every non-bytecode machine, the
   heap latch recovers in-request, and interrupt/resume works
   mid-dispatch. *)

let config = { M.default_config with M.fuel = 2_000_000 }
let denot_config = Denot.with_fuel 20_000

let bc_machine e =
  let m = B.create ~config (B.compile_expr e) in
  (m, B.entry m)

let bc_deep e =
  let m, a = bc_machine e in
  (B.deep ~depth:24 m a, B.stats m)

let slot_deep e = M.run_deep ~config ~depth:24 e
let denot_deep e = Denot.run_deep ~config:denot_config ~depth:24 e

let rec mentions_all = function
  | Value.DBad s -> Exn_set.is_all s
  | Value.DCon (_, ds) -> List.exists mentions_all ds
  | Value.DInt _ | Value.DChar _ | Value.DString _ | Value.DFun | Value.DCut
    ->
      false

(* The exception machinery must fire identically: same catch marks, same
   thunks poisoned while unwinding, same async deliveries. (Dispatch
   counts differ by design — superinstructions fuse transitions — so
   step-dependent counters are not compared on arbitrary terms.) *)
let check_stats_parity (stb : Stats.t) (sts : Stats.t) =
  let pair name a b =
    if a <> b then
      QCheck2.Test.fail_reportf "stats parity: %s %d (bytecode) vs %d (slot)"
        name a b
    else true
  in
  pair "catches" stb.Stats.catches sts.Stats.catches
  && pair "thunks_poisoned" stb.Stats.thunks_poisoned
       sts.Stats.thunks_poisoned
  && pair "async_delivered" stb.Stats.async_delivered
       sts.Stats.async_delivered

let machines_agree w =
  let db, stb = bc_deep w in
  let ds, sts = slot_deep w in
  (* Every transition must be accounted as a dispatch. *)
  if stb.Stats.bc_dispatches <> stb.Stats.steps then
    QCheck2.Test.fail_reportf "dispatches %d <> steps %d"
      stb.Stats.bc_dispatches stb.Stats.steps;
  if mentions_all db || mentions_all ds then true
  else if Value.deep_equal db ds then check_stats_parity stb sts
  else
    QCheck2.Test.fail_reportf "bytecode: %a@.slot:     %a" Value.pp_deep db
      Value.pp_deep ds

(* The six PR 4 bug classes, replayed against the new backend: each of
   these programs caught a real divergence between evaluators once, so
   the bytecode machine must reproduce today's agreed-on answer exactly. *)
let pr4_reproducers =
  [
    (* Raise-message skew: a non-exception payload must report the
       denotational semantics' uniform message. *)
    "raise 42";
    (* Exceptional raise payloads must propagate their own exception,
       not be squashed into the outer raise. *)
    "raise (UserError (error \"inner\"))";
    (* Prim type errors must unwind like ordinary raises — visible to
       mapException and to poisoning. *)
    "mapException (\\e -> UserError \"wrapped\") (head 5)";
    (* Nullary constructors compare by name (interning order is not
       lexicographic) — the pretty-printer bug's machine-side twin. *)
    "if False < True then 1 else 2";
    (* case_switch's latent-lambda exceptions: a raising scrutinee under
       an applied case. *)
    "(case 1 / 0 of { x -> \\y -> y + x }) 3";
    (* Case match failure applies the Section 4.3 finding union: the
       scrutinee's exceptions join PatternMatchFail. *)
    "case Just (1 / 0) of { Nothing -> 0 }";
  ]

let interrupted_resume_agree src =
  let expected, _ = M.run_deep (parse src) in
  let m, a = bc_machine (parse src) in
  Runtime.inject_async m ~at_step:50 E.Interrupt;
  (match B.force_catch m a with
  | Error (Runtime.Fail_async E.Interrupt) -> ()
  | Ok _ -> Alcotest.fail "bytecode: expected interruption"
  | Error f -> Alcotest.failf "bytecode: unexpected %a" Runtime.pp_failure f);
  Alcotest.(check bool)
    "bytecode machine paused work" true
    ((B.stats m).Stats.thunks_paused > 0);
  match B.force_catch m a with
  | Ok _ -> Alcotest.check deep "resume = uninterrupted" expected (B.deep m a)
  | Error f -> Alcotest.failf "bytecode: resume failed: %a" Runtime.pp_failure f

let suite =
  [
    qtest ~count:200 "bytecode agrees with the slot machine (int)"
      (Gen.gen_int ())
      (fun e -> machines_agree (Prelude.wrap e));
    qtest ~count:120 "bytecode agrees with the slot machine (list)"
      (Gen.gen_list ())
      (fun e -> machines_agree (Prelude.wrap e));
    qtest ~count:120 "bytecode refines the denotation"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let d, _ = bc_deep w in
        implements d (denot_deep w));
    qtest ~count:100 "machines report the same caught representative"
      (Gen.gen_int ())
      (fun e ->
        let w = Prelude.wrap e in
        let rb =
          let m, a = bc_machine w in
          B.force_catch m a
        in
        let rs =
          let m = M.create ~config () in
          M.force_catch m (M.alloc m w)
        in
        match (rb, rs) with
        | Error (Runtime.Fail_exn e1), Error (M.Fail_exn e2) -> E.equal e1 e2
        | Error Runtime.Fail_diverged, _ | _, Error M.Fail_diverged -> true
        | Ok _, Ok _ -> true
        | _ -> false);
    tc "fuzz-found bug reproducers: bytecode vs slot vs denot" (fun () ->
        List.iter
          (fun src ->
            let w = parse src in
            let db, _ = bc_deep w in
            let ds, _ = slot_deep w in
            Alcotest.check deep (src ^ ": bytecode = slot") ds db;
            Alcotest.(check bool)
              (src ^ ": bytecode ⊑ denot")
              true
              (implements db (denot_deep w)))
          pr4_reproducers);
    tc "stats: non-bytecode machines report zero bytecode counters"
      (fun () ->
        (* Satellite parity: [bc_dispatches]/[ic_hits]/[ic_misses] are
           the bytecode backend's own; every other machine must leave
           them at exactly zero, while the bytecode machine accounts
           every transition as a dispatch. *)
        let src = "sum (map (\\x -> x * x) (enumFromTo 1 50))" in
        let _, sts = slot_deep (parse src) in
        Alcotest.(check int) "slot dispatches" 0 sts.Stats.bc_dispatches;
        Alcotest.(check int) "slot ic hits" 0 sts.Stats.ic_hits;
        Alcotest.(check int) "slot ic misses" 0 sts.Stats.ic_misses;
        let _, stb = bc_deep (parse src) in
        Alcotest.(check bool) "bytecode dispatched" true
          (stb.Stats.bc_dispatches > 0);
        Alcotest.(check int) "dispatches = steps" stb.Stats.steps
          stb.Stats.bc_dispatches;
        Alcotest.(check bool) "inline caches hit" true
          (stb.Stats.ic_hits > stb.Stats.ic_misses));
    tc "heap latch: catchable overflow, in-request recovery" (fun () ->
        (* The latch fires once, the raise is caught in-program by
           unsafeGetException, and the handler arm keeps allocating —
           mirroring the serve daemon's quota-recovery bar. *)
        let cfg = { config with M.heap_limit = Some 2_000 } in
        let src =
          "case unsafeGetException (length (replicate 100000 1)) of { OK n \
           -> 0 - 1; Bad e -> 40 + 2 }"
        in
        let m = B.create ~config:cfg (B.compile_expr (parse src)) in
        let a = B.entry m in
        (match B.force_catch m a with
        | Ok (Runtime.MInt 42) -> ()
        | Ok _ -> Alcotest.fail "expected 42"
        | Error f -> Alcotest.failf "unexpected %a" Runtime.pp_failure f);
        Alcotest.(check bool) "latch fired once" true
          ((B.stats m).Stats.heap_overflows = 1);
        (* After collection brings the heap back under the limit, the
           latch is re-armed and fires again on the next bomb. *)
        let roots = B.gc m ~roots:[] in
        Alcotest.(check (list int)) "no roots survive" [] roots;
        let b = B.entry m in
        (match B.force_catch m b with
        | Ok (Runtime.MInt 42) -> ()
        | Ok _ -> Alcotest.fail "expected 42 after gc"
        | Error f -> Alcotest.failf "after gc: %a" Runtime.pp_failure f);
        Alcotest.(check int) "latch re-armed and fired again" 2
          (B.stats m).Stats.heap_overflows);
    tc "stack latch agrees with the slot machine" (fun () ->
        let cfg = { config with M.stack_limit = Some 400 } in
        let src = "sum (enumFromTo 1 20000)" in
        let rb =
          let m = B.create ~config:cfg (B.compile_expr (parse src)) in
          B.force_catch m (B.entry m)
        in
        let rs =
          let m = M.create ~config:cfg () in
          M.force_catch m (M.alloc m (parse src))
        in
        match (rb, rs) with
        | Error (Runtime.Fail_exn e1), Error (M.Fail_exn e2) ->
            Alcotest.(check bool)
              (Fmt.str "both overflow: %a vs %a" E.pp e1 E.pp e2)
              true
              (E.equal e1 e2 && E.equal e1 E.Stack_overflow_exn)
        | _ -> Alcotest.fail "expected StackOverflow from both machines");
    tc "async interruption and resume mid-dispatch" (fun () ->
        interrupted_resume_agree "product (enumFromTo 1 10)");
    tc "async interruption under a deeper pipeline" (fun () ->
        interrupted_resume_agree
          "sum (map (\\x -> x * x) (enumFromTo 1 40))");
    tc "pause cells survive a collection" (fun () ->
        let m, a = bc_machine (parse "sum (enumFromTo 1 3000)") in
        Runtime.inject_async m ~at_step:2_000 E.Interrupt;
        (match B.force_catch m a with
        | Error (Runtime.Fail_async E.Interrupt) -> ()
        | r ->
            Alcotest.failf "expected interruption, got %a"
              Fmt.(result ~ok:nop ~error:Runtime.pp_failure)
              (Result.map ignore r));
        let before = Runtime.heap_size m in
        (match B.gc m ~roots:[ a ] with
        | [ a' ] ->
            Alcotest.(check bool) "collection shrank the heap" true
              (Runtime.heap_size m <= before);
            (match B.force_catch m a' with
            | Ok _ ->
                Alcotest.check deep "resumed across gc"
                  (Value.DInt 4_501_500) (B.deep m a')
            | Error f -> Alcotest.failf "resume failed: %a" Runtime.pp_failure f)
        | _ -> Alcotest.fail "root count");
        ());
    tc "exception-path stats match across machines" (fun () ->
        (* Curated exception paths with identical stack shapes: the
           unwinding machinery must do exactly the same amount of work
           on both backends — frames trimmed, thunks poisoned, catch
           marks consulted, async events delivered. *)
        List.iter
          (fun (src, async) ->
            let run_bc () =
              let m, a = bc_machine (parse src) in
              Option.iter
                (fun (k, x) -> Runtime.inject_async m ~at_step:k x)
                async;
              ignore (B.force_catch m a);
              B.stats m
            in
            let run_slot () =
              let m = M.create ~config () in
              Option.iter
                (fun (k, x) -> Runtime.inject_async m ~at_step:k x)
                async;
              ignore (M.force_catch m (M.alloc m (parse src)));
              M.stats m
            in
            let stb = run_bc () and sts = run_slot () in
            let check name a b =
              Alcotest.(check int) (Printf.sprintf "%s: %s" src name) b a
            in
            check "catches" stb.Stats.catches sts.Stats.catches;
            check "thunks_poisoned" stb.Stats.thunks_poisoned
              sts.Stats.thunks_poisoned;
            check "async_delivered" stb.Stats.async_delivered
              sts.Stats.async_delivered)
          [
            ("1/0", None);
            ("head []", None);
            ("sum [1, 2, 1/0, 4]", None);
            ("let rec go n = if n == 0 then error \"deep\" \
              else 1 + go (n - 1) in go 500", None);
            ("sum (enumFromTo 1 3000)", Some (2_000, E.Timeout));
          ]);
    tc "inline caches: monomorphic sites hit after the first miss"
      (fun () ->
        let _, st = bc_deep (parse "sum (enumFromTo 1 500)") in
        Alcotest.(check bool)
          (Printf.sprintf "hits %d > 10 * misses %d" st.Stats.ic_hits
             st.Stats.ic_misses)
          true
          (st.Stats.ic_hits > 10 * st.Stats.ic_misses));
    tc "compile once, run on many machines (shared program + caches)"
      (fun () ->
        (* The program (with its inline caches) is shared: a second
           machine starts with warm caches and must answer the same. *)
        let prog = B.compile_expr (parse "sum (enumFromTo 1 200)") in
        let run () =
          let m = B.create ~config prog in
          (B.deep m (B.entry m), (B.stats m).Stats.ic_misses)
        in
        let d1, misses1 = run () in
        let d2, misses2 = run () in
        Alcotest.check deep "same answer" d1 d2;
        Alcotest.check deep "right answer" (Value.DInt 20_100) d1;
        Alcotest.(check bool)
          (Printf.sprintf "second run misses %d <= first run misses %d"
             misses2 misses1)
          true (misses2 <= misses1));
  ]

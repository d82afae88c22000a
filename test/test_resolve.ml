open Imprecise
open Helpers
module E = Exn
module M = Machine
module B = Bytecode

(* Suite for the compile-to-slots pass: resolution is total, and the
   slot-compiled machine's pause cells and unwinding work over the
   resolved IR's array frames. Agreement of the slot machine with the
   denotation, with fixed-order evaluation and with the bytecode backend
   on generated terms is checked in test_diff and test_bytecode. *)

let config_m = { M.default_config with fuel = 2_000_000 }

(* Interrupt the slot machine mid-evaluation, resume, and require the
   resumed value to equal the uninterrupted one: pause cells closing
   over array frames must preserve exactly as much work. *)
let interrupted_resume_agree src =
  let expected, _ = M.run_deep (parse src) in
  let m = M.create () in
  Runtime.inject_async m ~at_step:50 E.Interrupt;
  let a = M.alloc m (parse src) in
  (match M.force_catch m a with
  | Error (M.Fail_async E.Interrupt) -> ()
  | Ok _ -> Alcotest.fail "slot: expected interruption"
  | Error f -> Alcotest.failf "slot: unexpected %a" Runtime.pp_failure f);
  Alcotest.(check bool)
    "slot machine paused work" true
    ((M.stats m).Stats.thunks_paused > 0);
  let resumed =
    match M.force_catch m a with
    | Ok v -> M.deep m (Runtime.alloc_value m v)
    | Error f -> Alcotest.failf "slot: resume failed: %a" Runtime.pp_failure f
  in
  Alcotest.check deep "slot resume = uninterrupted" expected resumed

let suite =
  [
    qtest ~count:80 "resolution is total and accounted"
      (Gen.gen_int ())
      (fun e ->
        (* Every node of the source term is visited exactly once by the
           resolver, and closed terms resolve with no unbound leftovers. *)
        let w = Prelude.wrap e in
        let r = Resolve.expr w in
        Resolve.count_nodes r > 0 && Resolve.unbound r = []);
    tc "async interruption and resume agree with the uninterrupted run"
      (fun () ->
        interrupted_resume_agree "product (enumFromTo 1 10)");
    tc "async interruption under a deeper pipeline" (fun () ->
        interrupted_resume_agree
          "sum (map (\\x -> x * x) (enumFromTo 1 40))");
    tc "exception-path stats match across machines" (fun () ->
        (* Same raise under a catch on curated programs: the unwinding
           machinery must do exactly the same amount of work on the slot
           machine and the bytecode backend — frames trimmed, thunks
           poisoned, catch marks consulted, async events delivered. *)
        List.iter
          (fun (src, async) ->
            let run_slot () =
              let m = M.create ~config:config_m () in
              Option.iter
                (fun (k, x) -> Runtime.inject_async m ~at_step:k x)
                async;
              ignore (M.force_catch m (M.alloc m (parse src)));
              M.stats m
            in
            let run_bc () =
              let m = B.create ~config:config_m (B.compile_expr (parse src)) in
              Option.iter
                (fun (k, x) -> Runtime.inject_async m ~at_step:k x)
                async;
              ignore (B.force_catch m (B.entry m));
              B.stats m
            in
            let sts = run_slot () and stb = run_bc () in
            let check name a b =
              Alcotest.(check int) (Printf.sprintf "%s: %s" src name) b a
            in
            check "catches" sts.Stats.catches stb.Stats.catches;
            check "thunks_poisoned" sts.Stats.thunks_poisoned
              stb.Stats.thunks_poisoned;
            check "async_delivered" sts.Stats.async_delivered
              stb.Stats.async_delivered;
            check "frames_trimmed" sts.Stats.frames_trimmed
              stb.Stats.frames_trimmed)
          [
            ("1/0", None);
            ("head []", None);
            ("sum [1, 2, 1/0, 4]", None);
            ("let rec go n = if n == 0 then error \"deep\" \
              else 1 + go (n - 1) in go 500", None);
            ("sum (enumFromTo 1 3000)", Some (2_000, E.Timeout));
          ]);
  ]

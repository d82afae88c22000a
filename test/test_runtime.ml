open Imprecise
open Helpers
module E = Exn
module M = Machine
module B = Bytecode

(* The two dispatch loops share one runtime. These tests pin what that
   runtime counts, on both machines, against literals: Table F's four raw
   workloads (the program compiled fresh for every run, because inline
   caches live in the program), and an interrupt -> collection -> resume
   scenario that exercises pause cells, async delivery and the
   collector's counters. A refactor of either loop or of the runtime
   must leave every figure as it is. *)

let fib n =
  Printf.sprintf
    "let rec fib k = if k < 2 then k else fib (k - 1) + fib (k - 2) in fib %d"
    n

let sum_to n = Printf.sprintf "sum (enumFromTo 1 %d)" n

let pipeline n =
  Printf.sprintf
    "sum (map (\\x -> x * x) (filter (\\x -> x %% 2 == 0) (enumFromTo 1 %d)))"
    n

let raise_at_depth d =
  Printf.sprintf
    "let rec go n = if n == 0 then error \"deep\" else 1 + go (n - 1)\n\
     in go %d"
    d

let big = { M.default_config with M.fuel = 50_000_000 }

(* Every [Stats] field, in declaration order. *)
let check_stats what (expected : (string * int) list) (st : Stats.t) =
  Alcotest.(check (list (pair string int))) what expected (Stats.fields st)

let stats_of ~steps ~allocations ~updates ~max_stack ?(frames_trimmed = 0)
    ?(thunks_poisoned = 0) ?(thunks_paused = 0) ?(catches = 0)
    ?(collections = 0) ?(live_copied = 0) ?(async_delivered = 0)
    ?(bc_dispatches = 0) ?(ic = (0, 0)) () =
  [
    ("steps", steps);
    ("allocations", allocations);
    ("updates", updates);
    ("max_stack", max_stack);
    ("frames_trimmed", frames_trimmed);
    ("thunks_poisoned", thunks_poisoned);
    ("thunks_paused", thunks_paused);
    ("catches", catches);
    ("collections", collections);
    ("live_copied", live_copied);
    ("async_delivered", async_delivered);
    ("heap_overflows", 0);
    ("stack_overflows", 0);
    ("bc_dispatches", bc_dispatches);
    ("ic_hits", fst ic);
    ("ic_misses", snd ic);
  ]

let run_slot src ~catch =
  let m = M.create ~config:big () in
  let a = M.alloc_resolved m (Resolve.expr (parse src)) in
  ignore (if catch then M.force_catch m a else M.force m a);
  M.stats m

let run_bc src ~catch =
  let m = B.create ~config:big (B.compile (Resolve.expr (parse src))) in
  let a = B.entry m in
  ignore (if catch then B.force_catch m a else B.force m a);
  B.stats m

(* (workload, source, raises, slot steps, bytecode dispatches, IC
   hits/misses, allocations, updates, max stack) *)
let table_f =
  [
    ("fib 16", fib 16, false, 68_650, 43_108, (1_973, 1_220), 3_320, 3_195, 20);
    ( "sum 1..5000", sum_to 5000, false, 270_055, 175_040, (9_998, 4), 15_131,
      15_009, 10_002 );
    ( "map/filter 1..2000", pipeline 2000, false, 160_089, 100_064,
      (5_996, 2_008), 8_135, 8_015, 2_004 );
    ( "raise at 5000", raise_at_depth 5000, true, 110_031, 70_022, (4_999, 2),
      5_129, 5_004, 5_005 );
  ]

(* Interrupt at step 2,000, collect with the root held, resume, then
   read the answer back: one pause cell chain survives the collection. *)
let interrupt_gc_resume ~force_catch ~gc ~deep:force_deep m a =
  Runtime.inject_async m ~at_step:2_000 E.Interrupt;
  (match force_catch m a with
  | Error (Runtime.Fail_async E.Interrupt) -> ()
  | r ->
      Alcotest.failf "expected the interrupt, got %a"
        Fmt.(result ~ok:nop ~error:Runtime.pp_failure)
        (Result.map ignore r));
  match gc m ~roots:[ a ] with
  | [ a' ] ->
      (match force_catch m a' with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "resume failed: %a" Runtime.pp_failure f);
      Alcotest.check deep "resumed answer" (Value.DInt 4_501_500)
        (force_deep m a')
  | _ -> Alcotest.fail "root count"

(* Mask depth reaches the loop: an event due at step 0 stays pending
   through a masked catch, and is delivered to the next unmasked one. *)
let masked_then_delivered ~force_catch m a =
  Runtime.inject_async m ~at_step:0 E.Interrupt;
  Runtime.set_mask_depth m 1;
  (match force_catch m a with
  | Ok (Runtime.MInt 5050) -> ()
  | Ok _ -> Alcotest.fail "masked run: wrong value"
  | Error f -> Alcotest.failf "masked run: %a" Runtime.pp_failure f);
  Alcotest.(check int) "still pending" 1 (List.length m.Runtime.async);
  Alcotest.(check int) "not delivered" 0
    (Runtime.stats m).Stats.async_delivered;
  Runtime.set_mask_depth m 0;
  match force_catch m a with
  | Error (Runtime.Fail_async E.Interrupt) ->
      Alcotest.(check int) "delivered once" 1
        (Runtime.stats m).Stats.async_delivered
  | r ->
      Alcotest.failf "unmasked run: expected the interrupt, got %a"
        Fmt.(result ~ok:nop ~error:Runtime.pp_failure)
        (Result.map ignore r)

(* The queue is polled at its head only: a Timeout due at step 100,
   injected after an Interrupt due at step 1,500, waits for the
   interrupt and fires on the step after it. *)
let queue_order ~force_catch m a =
  Runtime.inject_async m ~at_step:1_500 E.Interrupt;
  Runtime.inject_async m ~at_step:100 E.Timeout;
  let delivery what x step =
    match force_catch m a with
    | Error (Runtime.Fail_async y) ->
        Alcotest.(check bool) (what ^ " delivered") true (E.equal x y);
        Alcotest.(check int) (what ^ " step") step
          (Runtime.stats m).Stats.steps
    | _ -> Alcotest.failf "expected %s" what
  in
  delivery "the interrupt" E.Interrupt 1_500;
  delivery "the timeout" E.Timeout 1_501

(* Entering a run allocates its state record and little else: 1,000
   forces of a cell that is already a value, read with
   [Gc.minor_words]. A closure built inside either loop's [run] shows up
   here. *)
let entry_words ~force m a =
  ignore (force m a);
  let forces = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to forces do
    ignore (force m a)
  done;
  let per = (Gc.minor_words () -. w0) /. float forces in
  if per > 16. then
    Alcotest.failf
      "forcing an evaluated cell allocated %.1f words (want at most 16)" per

let suite =
  List.concat_map
    (fun (name, src, raises, steps, dispatches, ic, allocations, updates,
          max_stack) ->
      (* The raise trims 5,001 frames and poisons the one thunk under
         evaluation, caught by the one mark. *)
      let frames_trimmed, thunks_poisoned, catches =
        if raises then (5_001, 1, 1) else (0, 0, 0)
      in
      [
        tc ("slot counters: " ^ name) (fun () ->
            check_stats name
              (stats_of ~steps ~allocations ~updates ~max_stack
                 ~frames_trimmed ~thunks_poisoned ~catches ())
              (run_slot src ~catch:raises));
        tc ("bytecode counters: " ^ name) (fun () ->
            check_stats name
              (stats_of ~steps:dispatches ~allocations ~updates ~max_stack
                 ~frames_trimmed ~thunks_poisoned ~catches
                 ~bc_dispatches:dispatches ~ic ())
              (run_bc src ~catch:raises));
      ])
    table_f
  @ [
      tc "slot counters: interrupt, collect, resume" (fun () ->
          let m = M.create () in
          interrupt_gc_resume ~force_catch:M.force_catch ~gc:M.gc
            ~deep:M.deep m
            (M.alloc m (parse (sum_to 3000)));
          check_stats "interrupt-gc-resume"
            (stats_of ~steps:162_058 ~allocations:9_131 ~updates:9_009
               ~max_stack:6_002 ~thunks_paused:1 ~catches:2 ~collections:1
               ~live_copied:109 ~async_delivered:1 ())
            (M.stats m));
      tc "bytecode counters: interrupt, collect, resume" (fun () ->
          let m = B.create (B.compile (Resolve.expr (parse (sum_to 3000)))) in
          interrupt_gc_resume ~force_catch:B.force_catch ~gc:B.gc
            ~deep:B.deep m (B.entry m);
          check_stats "interrupt-gc-resume"
            (stats_of ~steps:105_044 ~allocations:9_131 ~updates:9_009
               ~max_stack:6_002 ~thunks_paused:2 ~catches:2 ~collections:1
               ~live_copied:166 ~async_delivered:1 ~bc_dispatches:105_044
               ~ic:(5_998, 4) ())
            (B.stats m));
      tc "slot: a masked catch defers an event, an unmasked one takes it"
        (fun () ->
          let m = M.create () in
          masked_then_delivered ~force_catch:M.force_catch m
            (M.alloc m (parse (sum_to 100))));
      tc "bytecode: a masked catch defers an event, an unmasked one takes it"
        (fun () ->
          let m = B.create (B.compile_expr (parse (sum_to 100))) in
          masked_then_delivered ~force_catch:B.force_catch m (B.entry m));
      tc "slot: forcing an evaluated cell allocates at most 16 words"
        (fun () ->
          let m = M.create () in
          entry_words ~force:M.force m
            (M.alloc m (parse "enumFromTo 1 50")));
      tc "bytecode: forcing an evaluated cell allocates at most 16 words"
        (fun () ->
          let m = B.create (B.compile_expr (parse "enumFromTo 1 50")) in
          entry_words ~force:B.force m (B.entry m));
      tc "slot: async events are delivered in injection order" (fun () ->
          let m = M.create () in
          queue_order ~force_catch:M.force_catch m
            (M.alloc m (parse (sum_to 3000))));
      tc "bytecode: async events are delivered in injection order"
        (fun () ->
          let m = B.create (B.compile_expr (parse (sum_to 3000))) in
          queue_order ~force_catch:B.force_catch m (B.entry m));
    ]

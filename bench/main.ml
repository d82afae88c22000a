(* The benchmark harness: regenerates every empirical claim in the paper
   (see DESIGN.md section 5 and EXPERIMENTS.md).

   The paper has no numeric tables; its claims are about (a) which laws
   hold (Table L below = the Section 4.5 discussion), (b) the cost of the
   explicit ExVal encoding (Section 2.2), (c) the zero-cost of the
   stack-trimming implementation when no exception occurs and the
   trim-to-handler cost when one does (Section 3.3), (d) the optimisation
   sites a fixed-order compiler loses (Section 3.4), and (e) the work
   saved by resumable async unwinding (Section 5.1).

   The deterministic counters (machine steps, dispatches, inline-cache
   hits, events, threads) are the reproducible "numbers" recorded in
   EXPERIMENTS.md; every wall-clock column comes from one timer,
   {!time_pair}. *)

open Imprecise

let line = String.make 78 '-'

let header title =
  Fmt.pr "@.%s@.%s@.%s@." line title line

(* ------------------------------------------------------------------ *)
(* Wall-clock timing                                                   *)
(* ------------------------------------------------------------------ *)

type timing = { mean_ns : float; sd_ns : float; min_ns : float; trials : int }

(* Paired timing for a head-to-head comparison: the two thunks take
   their trials interleaved, with the order flipped every round, so a
   noisy shared runner (frequency scaling, a neighbour burning CPU mid-
   table) degrades both sides alike instead of whichever happened to run
   second. The estimator is min-of-trials — the standard robust
   statistic for wall-clock microbenchmarks, since interference only
   ever adds time; mean and standard deviation ride along in the JSON
   files. *)
let time_pair ?(warmup = 2) ?(trials = 7) (f : unit -> unit)
    (g : unit -> unit) : timing * timing =
  for _ = 1 to warmup do
    f ();
    g ()
  done;
  let sample h =
    let t0 = Monotonic_clock.now () in
    h ();
    let t1 = Monotonic_clock.now () in
    Int64.to_float (Int64.sub t1 t0)
  in
  let fs = ref [] and gs = ref [] in
  for i = 1 to trials do
    if i land 1 = 1 then begin
      fs := sample f :: !fs;
      gs := sample g :: !gs
    end
    else begin
      gs := sample g :: !gs;
      fs := sample f :: !fs
    end
  done;
  let stat samples =
    let n = float_of_int trials in
    let mean = List.fold_left ( +. ) 0.0 samples /. n in
    let var =
      List.fold_left
        (fun a s -> a +. (((s -. mean) ** 2.0) /. n))
        0.0 samples
    in
    let mn = List.fold_left min infinity samples in
    { mean_ns = mean; sd_ns = sqrt var; min_ns = mn; trials }
  in
  (stat !fs, stat !gs)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

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

let cbv_workload n =
  Printf.sprintf
    "let go = \\n ->\n\
    \  let square = n * n in\n\
    \  let cube = square * n in\n\
    \  let norm = cube %% 1000 in\n\
    \  norm + square\n\
     in sum (map go (enumFromTo 1 %d))"
    n

let machine_steps ?(config = Machine.default_config) e =
  let _, stats = Machine.run_deep ~config e in
  stats.Stats.steps

(* The pure programs of the committed fuzz corpus, which Tables O and S
   replay, found by {!Corpus.find_dir} so the tables read the same
   programs wherever the binary is started. A missing corpus, an empty
   one or an entry that does not parse ends the run. *)
let pure_corpus =
  lazy
    (let fail fmt =
       Fmt.kstr
         (fun msg ->
           Fmt.epr "bench: %s@." msg;
           exit 1)
         fmt
     in
     match Corpus.find_dir () with
     | Error tried ->
         fail "no fuzz/corpus directory; tried %s" (String.concat ", " tried)
     | Ok dir -> (
         match Corpus.load_dir dir with
         | _, (_ :: _ as errors) ->
             fail "%s: %s" dir
               (String.concat "; "
                  (List.map (fun (f, e) -> f ^ ": " ^ e) errors))
         | entries, [] -> (
             match Corpus.pure entries with
             | [] -> fail "%s holds no pure program" dir
             | pure -> pure)))

(* ------------------------------------------------------------------ *)
(* Table L — the Section 4.5 law table (claim C5/E6)                   *)
(* ------------------------------------------------------------------ *)

let table_laws () =
  header "Table L (Section 4.5): transformation validity by design";
  let rows = Laws.table () in
  Fmt.pr "%a" Laws.pp_table rows;
  Fmt.pr "claims verified: %d/%d@."
    (List.length (List.filter Laws.matches_claim rows))
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* Table E — ExVal encoding overhead (claim C6, Section 2.2)           *)
(* ------------------------------------------------------------------ *)

(* The time column runs both programs on the slot machine, each
   resolved once outside the timed thunk, and divides the encoded
   program's min-of-trials time by the direct one's. *)
let table_exval () =
  header
    "Table E (Section 2.2): explicit ExVal encoding vs native exceptions \
     (machine steps; exception-free runs)";
  Fmt.pr "%-22s %12s %12s %8s %12s %8s@." "workload" "direct" "encoded"
    "steps x" "code-size x" "time x";
  let big_fuel = { Machine.default_config with fuel = 50_000_000 } in
  List.iter
    (fun (name, src) ->
      let e = parse src in
      let encoded = Exval.encode e in
      let direct = machine_steps ~config:big_fuel e in
      let enc = machine_steps ~config:big_fuel encoded in
      let run r () =
        let m = Machine.create ~config:big_fuel () in
        ignore (Machine.deep m (Machine.alloc_resolved m r))
      in
      let t_direct, t_enc =
        time_pair (run (Resolve.expr e)) (run (Resolve.expr encoded))
      in
      Fmt.pr "%-22s %12d %12d %8.2f %12.2f %8.2f@." name direct enc
        (float_of_int enc /. float_of_int direct)
        (Exval.code_blowup e)
        (t_enc.min_ns /. t_direct.min_ns))
    [
      ("fib 14", fib 14);
      ("sum 1..2000", sum_to 2000);
      ("map/filter 1..500", pipeline 500);
    ]

(* ------------------------------------------------------------------ *)
(* Table N — no-exception cost of the catch frame (claim C6b, 3.3)     *)
(* ------------------------------------------------------------------ *)

let table_no_exn () =
  header
    "Table N (Section 3.3): cost of an installed handler when no \
     exception occurs (machine steps)";
  Fmt.pr "%-22s %14s %14s %10s@." "workload" "no handler" "with handler"
    "overhead";
  List.iter
    (fun (name, src) ->
      let e = parse src in
      let without =
        let m = Machine.create () in
        let a = Machine.alloc m e in
        ignore (Machine.force m a);
        (Machine.stats m).Stats.steps
      in
      let with_catch =
        let m = Machine.create () in
        let a = Machine.alloc m e in
        ignore (Machine.force_catch m a);
        (Machine.stats m).Stats.steps
      in
      Fmt.pr "%-22s %14d %14d %10d@." name without with_catch
        (with_catch - without))
    [
      ("fib 12", fib 12);
      ("sum 1..1000", sum_to 1000);
      ("map/filter 1..300", pipeline 300);
    ]

(* ------------------------------------------------------------------ *)
(* Table R — raise cost is distance to handler (claim C7, 3.3)         *)
(* ------------------------------------------------------------------ *)

let table_raise () =
  header
    "Table R (Section 3.3): raise trims the stack to the handler — cost \
     scales with distance, not program size";
  Fmt.pr "%-12s %12s %16s %16s@." "depth" "steps" "frames trimmed"
    "thunks poisoned";
  List.iter
    (fun d ->
      let m = Machine.create () in
      let a = Machine.alloc m (parse (raise_at_depth d)) in
      (match Machine.force_catch m a with
      | Error (Machine.Fail_exn _) -> ()
      | _ -> failwith "expected a caught raise");
      let s = Machine.stats m in
      Fmt.pr "%-12d %12d %16d %16d@." d s.Stats.steps s.Stats.frames_trimmed
        s.Stats.thunks_poisoned)
    [ 10; 100; 1_000; 5_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* Table O — optimisation sites: imprecise vs fixed order (C8, 3.4)    *)
(* ------------------------------------------------------------------ *)

let table_opt () =
  header
    "Table O (Section 3.4): strictness-driven call-by-value sites \
     enabled, and machine steps after optimisation";
  Fmt.pr "%-18s %10s %10s %12s %12s %12s@." "workload" "imp sites"
    "fix sites" "steps orig" "steps imp" "steps fix";
  List.iter
    (fun (name, src) ->
      let e = parse src in
      let imp_sites, fix_sites = Pipeline.count_cbv_opportunities e in
      let imp_e, _ = Pipeline.optimize Pipeline.Imprecise e in
      let fix_e, _ =
        Pipeline.optimize Pipeline.Fixed_order_with_effect_analysis e
      in
      Fmt.pr "%-18s %10d %10d %12d %12d %12d@." name imp_sites fix_sites
        (machine_steps e) (machine_steps imp_e) (machine_steps fix_e))
    [
      ("cbv 1..200", cbv_workload 200);
      ("cbv 1..1000", cbv_workload 1000);
      ("fib 12", fib 12);
    ];
  (* End-to-end (claim C23): the serve corpus optimised before
     compilation, exactly as [impexn serve --optimize] does it — total
     slot-machine steps and bytecode dispatches, original vs optimised,
     plus the linter's share of pipeline wall time. The reductions and
     the lint-overhead bound are asserted, not just printed. *)
  let pure = Lazy.force pure_corpus in
  let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9 in
  let lint_time = ref 0.0 and lint_checks = ref 0 in
  let run_once () =
    List.map
      (fun e ->
        let w = Prelude.wrap e.Corpus.expr in
        let wo, (r : Pipeline.report) =
          Pipeline.optimize Pipeline.Imprecise w
        in
        lint_time := !lint_time +. r.Pipeline.lint_time;
        lint_checks := !lint_checks + r.Pipeline.lint_checks;
        (w, wo))
      pure
  in
  (* Warm the linter's cached prelude facts and the allocator, then
     time several repetitions — a single corpus pass is a couple of
     milliseconds, too short to divide meaningfully. Scheduler noise on
     this box swings a batch by ±15%, and a descheduling or GC pause
     that lands inside one of the linter's fine-grained brackets
     inflates the numerator far more than the (much longer) denominator
     — noise only ever pushes the ratio {e up}. The intrinsic overhead
     is therefore estimated as the minimum share over several batches,
     numerator and denominator taken from the same batch. *)
  ignore (run_once ());
  let reps = 20 and batches = 8 in
  let pairs = ref [] in
  let best_share = ref infinity
  and best_wall = ref 0.0
  and best_lint = ref 0.0
  and best_checks = ref 0 in
  for _ = 1 to batches do
    lint_time := 0.0;
    lint_checks := 0;
    let t0 = now_s () in
    for _ = 1 to reps do
      pairs := run_once ()
    done;
    let wall = now_s () -. t0 in
    let share = if wall > 0.0 then !lint_time /. wall else 0.0 in
    if share < !best_share then begin
      best_share := share;
      best_wall := wall;
      best_lint := !lint_time;
      best_checks := !lint_checks
    end
  done;
  let opt_time = !best_wall /. float_of_int reps in
  let pairs = !pairs in
  let lint_time = ref (!best_lint /. float_of_int reps) in
  let lint_checks = ref (!best_checks / reps) in
  let sum f = List.fold_left (fun a p -> a + f p) 0 pairs in
  let steps_orig = sum (fun (w, _) -> machine_steps w) in
  let steps_opt = sum (fun (_, wo) -> machine_steps wo) in
  let disp_of e =
    let _, st = Bytecode.run_deep e in
    st.Stats.bc_dispatches
  in
  let disp_orig = sum (fun (w, _) -> disp_of w) in
  let disp_opt = sum (fun (_, wo) -> disp_of wo) in
  let pct a b =
    if a > 0 then 100.0 *. float_of_int (a - b) /. float_of_int a else 0.0
  in
  let lint_share = if opt_time > 0.0 then !lint_time /. opt_time else 0.0 in
  Fmt.pr "@.serve corpus, %d programs, optimised end-to-end:@."
    (List.length pairs);
  Fmt.pr "%-26s %12s %12s %10s@." "metric" "original" "optimised" "saved";
  Fmt.pr "%-26s %12d %12d %9.1f%%@." "slot-machine steps" steps_orig
    steps_opt (pct steps_orig steps_opt);
  Fmt.pr "%-26s %12d %12d %9.1f%%@." "bytecode dispatches" disp_orig
    disp_opt (pct disp_orig disp_opt);
  Fmt.pr "%-26s %12.2f ms wall (%d lint checks, %.1f%% of pipeline)@."
    "lint overhead" (!lint_time *. 1000.) !lint_checks
    (100.0 *. lint_share);
  let json =
    Printf.sprintf
      "{\"bench\":\"opt_serve\",\"wallclock\":true,\"programs\":%d,\"steps_orig\":%d,\"steps_opt\":%d,\"step_reduction_pct\":%.2f,\"bc_dispatches_orig\":%d,\"bc_dispatches_opt\":%d,\"dispatch_reduction_pct\":%.2f,\"optimize_wall_s\":%.5f,\"lint_wall_s\":%.5f,\"lint_share\":%.4f,\"lint_checks\":%d}\n"
      (List.length pairs) steps_orig steps_opt (pct steps_orig steps_opt)
      disp_orig disp_opt (pct disp_orig disp_opt) opt_time !lint_time
      lint_share !lint_checks
  in
  let oc = open_out "BENCH_O.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_O.json written)@.";
  if steps_opt >= steps_orig then begin
    Fmt.epr
      "table_opt: optimisation saved no slot steps on the corpus (%d -> \
       %d)@."
      steps_orig steps_opt;
    exit 1
  end;
  if disp_opt >= disp_orig then begin
    Fmt.epr
      "table_opt: optimisation saved no bytecode dispatches on the corpus \
       (%d -> %d)@."
      disp_orig disp_opt;
    exit 1
  end;
  if lint_share >= 0.10 then begin
    Fmt.epr "table_opt: lint overhead %.1f%% exceeds the 10%% budget@."
      (100.0 *. lint_share);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table A — async interruption and resumption (claim C10, 5.1)        *)
(* ------------------------------------------------------------------ *)

let table_async () =
  header
    "Table A (Section 5.1): resumable pause cells — steps to finish \
     after an interrupt vs restarting from scratch";
  Fmt.pr "%-14s %14s %14s %14s %12s@." "interrupt at" "scratch" "prefix"
    "resume" "saved";
  let src = sum_to 3000 in
  let scratch = machine_steps (parse src) in
  List.iter
    (fun k ->
      let m = Machine.create () in
      Runtime.inject_async m ~at_step:k Exn.Timeout;
      let a = Machine.alloc m (parse src) in
      (match Machine.force_catch m a with
      | Error (Machine.Fail_async _) -> ()
      | _ -> failwith "expected interruption");
      let prefix = (Machine.stats m).Stats.steps in
      (match Machine.force_catch m a with
      | Ok _ -> ()
      | Error f -> Fmt.failwith "resume failed: %a" Runtime.pp_failure f);
      let total = (Machine.stats m).Stats.steps in
      let resume = total - prefix in
      Fmt.pr "%-14d %14d %14d %14d %11d%%@." k scratch prefix resume
        (100 * (scratch - resume) / scratch))
    [ 2_000; 8_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* Table M — exception-finding mode cost (Section 4.3, discussion)     *)
(* ------------------------------------------------------------------ *)

let table_finding () =
  header
    "Table M (Section 4.3): the semantics explores all case \
     alternatives on exceptional scrutinees; the implementation does \
     not (denotational fuel used vs machine steps)";
  Fmt.pr "%-34s %14s %14s@." "expression" "denot fuel" "machine steps";
  List.iter
    (fun (name, src) ->
      let e = parse src in
      let fuel0 = 1_000_000 in
      let config = Denot.with_fuel fuel0 in
      ignore (Denot.run_deep ~config e);
      (* Fuel used is not directly observable; re-run with decreasing
         budgets to bracket it cheaply instead. *)
      let rec used lo hi =
        if hi - lo <= Stdlib.max 1 (lo / 20) then hi
        else
          let mid = (lo + hi) / 2 in
          let d = Denot.run_deep ~config:(Denot.with_fuel mid) e in
          match d with
          | Value.DBad s when Exn_set.is_all s -> used mid hi
          | _ -> used lo mid
      in
      let approx = used 1 fuel0 in
      Fmt.pr "%-34s %14d %14d@." name approx (machine_steps e))
    [
      ("case (1/0) of 2 alts", "case 1/0 of { Nil -> 1; Cons h t -> 2 }");
      ( "case (1/0) of heavy alts",
        "case 1/0 of { Nil -> sum (enumFromTo 1 500);\n\
         Cons h t -> product (enumFromTo 1 10) }" );
      ("head of exceptional list", "head (forceList [1/0, 5])");
    ]

(* ------------------------------------------------------------------ *)
(* Table G — heap residency under the copying collector                 *)
(* ------------------------------------------------------------------ *)

let table_gc () =
  header
    "Table G (substrate): heap cells before/after a copying collection      (root: the final value)";
  Fmt.pr "%-24s %12s %12s %10s@." "workload" "allocated" "live" "survival";
  List.iter
    (fun (name, src) ->
      let m = Machine.create () in
      let a = Machine.alloc m (parse src) in
      (match Machine.force m a with Ok _ -> () | Error _ -> ());
      let before = Runtime.heap_size m in
      (match Machine.gc m ~roots:[ a ] with
      | [ _ ] -> ()
      | _ -> failwith "gc roots");
      let after = Runtime.heap_size m in
      Fmt.pr "%-24s %12d %12d %9.1f%%@." name before after
        (100.0 *. float_of_int after /. float_of_int before))
    [
      ("sum 1..2000 (scalar)", sum_to 2000);
      ("fib 14 (scalar)", fib 14);
      ("map/filter 1..500", pipeline 500);
      ("take 20 infinite", "take 20 (iterate (\\x -> x + 1) 0)");
    ]

(* ------------------------------------------------------------------ *)
(* Table C — concurrency scheduler characteristics (Section 4.4 rem.)   *)
(* ------------------------------------------------------------------ *)

let table_conc () =
  header
    "Table C (Section 4.4 closing remark): forkIO/MVar programs on the      concurrent LTS";
  Fmt.pr "%-28s %10s %12s %14s@." "program" "threads" "switches" "outcome";
  List.iter
    (fun (name, src) ->
      let r = Conc.run (parse src) in
      Fmt.pr "%-28s %10d %12d %14s@." name r.Conc.threads_spawned
        r.Conc.context_switches
        (Fmt.str "%a" Conc.pp_outcome r.Conc.outcome))
    [
      ( "2-thread interleave",
        "forkIO (putChar 'a' >> putChar 'b') >> putChar 'x' >> return 0" );
      ( "MVar rendezvous",
        "newEmptyMVar >>= \\mv -> forkIO (putMVar mv 42) >>\n\
         takeMVar mv >>= \\v -> return v" );
      ( "worker pool (3)",
        "newEmptyMVar >>= \\mv ->\n\
         forkIO (putMVar mv (sum (enumFromTo 1 100))) >>\n\
         forkIO (putMVar mv (sum (enumFromTo 1 200))) >>\n\
         forkIO (putMVar mv (sum (enumFromTo 1 300))) >>\n\
         takeMVar mv >>= \\a -> takeMVar mv >>= \\b ->\n\
         takeMVar mv >>= \\c -> return (a + b + c)" );
      ("deadlock", "newEmptyMVar >>= \\mv -> takeMVar mv");
    ]

(* ------------------------------------------------------------------ *)
(* Table H — open exception vocabulary and supervision overhead        *)
(* ------------------------------------------------------------------ *)

(* The extensible-hierarchy PR's costs, both asserted:

   - a closed-vocabulary program (only builtin exceptions) executes the
     IDENTICAL number of machine steps whether the global registry
     holds zero or 64 user-declared constructors — dispatch is by
     constructor name in the term, never a search of the vocabulary, so
     the open hierarchy is free for programs that don't use it;

   - [catches] handler dispatch costs per *handler tried*, not per
     declared exception: steps grow with the fall-through distance down
     the handler list;

   - supervision overhead: the marginal schedule length per restart is
     a small constant (asserted stable within 2x between the 1-restart
     and 4-restart trees on both concurrent layers). *)
let table_hierarchy () =
  header
    "Table H (extensible hierarchy): dispatch cost of the open vocabulary   and supervision overhead per restart";
  (* A closed-vocabulary workload: 60 throwIO/catches round trips over
     builtin exceptions only, measured on the sequential machine. *)
  let closed_src =
    "mapM2 (\\i -> catches\n\
    \         (if i % 2 == 0 then throwIO DivideByZero\n\
    \          else throwIO (UserError \"urk\"))\n\
    \         [ handler matchArith (\\e -> return 1),\n\
    \           handler matchAny (\\e -> return 2) ])\n\
    \      (enumFromTo 1 60) >>= \\u -> putInt 0"
  in
  let machine_steps e =
    let r = Machine_conc.run e in
    (match r.Machine_conc.outcome with
    | Machine_conc.Done _ -> ()
    | o ->
        Fmt.epr "table_hierarchy: closed workload %a@." Machine_conc.pp_outcome
          o;
        exit 1);
    r.Machine_conc.stats.Stats.steps
  in
  let e_closed = parse closed_src in
  let before = machine_steps e_closed in
  (* Grow the vocabulary (the registry is global and monotone; bench
     names are namespaced so reruns are idempotent). *)
  for i = 1 to 64 do
    Lang.Exn.declare (Printf.sprintf "BenchExn%d" i) Lang.Exn.K_int
  done;
  (* Re-parse: same source, now under the larger constructor table. *)
  let after = machine_steps (parse closed_src) in
  Fmt.pr "closed-vocabulary steps: %d with 0 user decls, %d with 64@." before
    after;
  if before <> after then begin
    Fmt.epr
      "table_hierarchy: declaring exceptions changed a closed program's \
       step count (%d -> %d)@."
      before after;
    exit 1
  end;
  (* Fall-through distance: the matching handler sits at position k. *)
  let dispatch_src k =
    let miss = "handler matchArith (\\e -> return 0)" in
    let hit = "handler matchUserError (\\e -> return 1)" in
    let hs = List.init k (fun i -> if i = k - 1 then hit else miss) in
    Printf.sprintf
      "mapM2 (\\i -> catches (throwIO (UserError \"u\")) [%s])\n\
       (enumFromTo 1 60) >>= \\u -> putInt 0"
      (String.concat ", " hs)
  in
  Fmt.pr "%-24s %12s@." "handler position" "steps";
  let dispatch_rows =
    List.map
      (fun k ->
        let s = machine_steps (parse (dispatch_src k)) in
        Fmt.pr "%-24d %12d@." k s;
        (k, s))
      [ 1; 2; 4; 8 ]
  in
  (* Supervision: a single child that fails exactly [k] times, so the
     tree performs [k] restarts and then comes down cleanly. *)
  let tree_src k =
    Printf.sprintf
      "newEmptyMVar >>= \\c -> putMVar c 0 >>= \\u ->\n\
       supervisorTree OneForOne %d 1000\n\
       [ takeMVar c >>= \\n -> putMVar c (n + 1) >>= \\u2 ->\n\
       if n < %d then throwIO DivideByZero else return 1 ]"
      (k + 1) k
  in
  Fmt.pr "%-10s %14s %20s@." "restarts" "conc switches" "machine transitions";
  let tree_rows =
    List.map
      (fun k ->
        let e = parse (tree_src k) in
        let r = Conc.run e in
        let m = Machine_conc.run e in
        (match (r.Conc.outcome, m.Machine_conc.outcome) with
        | Conc.Done _, Machine_conc.Done _ -> ()
        | o1, o2 ->
            Fmt.epr "table_hierarchy: k=%d conc %a, machine %a@." k
              Conc.pp_outcome o1 Machine_conc.pp_outcome o2;
            exit 1);
        (k, r.Conc.context_switches, m.Machine_conc.transitions))
      [ 0; 1; 2; 4 ]
  in
  let base_conc, base_mach =
    match tree_rows with
    | (0, c, m) :: _ -> (c, m)
    | _ -> assert false
  in
  let per_restart =
    List.filter_map
      (fun (k, c, m) ->
        if k = 0 then begin
          Fmt.pr "%-10d %14d %20d@." k c m;
          None
        end
        else begin
          let pc = float_of_int (c - base_conc) /. float_of_int k in
          let pm = float_of_int (m - base_mach) /. float_of_int k in
          Fmt.pr "%-10d %14d %20d   (%.1f / %.1f per restart)@." k c m pc pm;
          Some (k, pc, pm)
        end)
      tree_rows
  in
  (match (per_restart, List.rev per_restart) with
  | (k1, pc1, pm1) :: _, (kn, pcn, pmn) :: _ when k1 <> kn ->
      if pc1 <= 0. || pm1 <= 0. || pcn /. pc1 > 2. || pmn /. pm1 > 2. then begin
        Fmt.epr
          "table_hierarchy: per-restart overhead is not a stable constant \
           (conc %.1f -> %.1f, machine %.1f -> %.1f)@."
          pc1 pcn pm1 pmn;
        exit 1
      end
  | _ -> ());
  let json =
    Printf.sprintf
      "{\"bench\":\"exn_hierarchy\",\"closed_vocab\":{\"steps_no_decls\":%d,\"steps_64_decls\":%d,\"zero_dispatch_cost\":%b},\"dispatch\":[%s],\"supervision\":[%s]}\n"
      before after (before = after)
      (String.concat ","
         (List.map
            (fun (k, s) ->
              Printf.sprintf "{\"handler_position\":%d,\"steps\":%d}" k s)
            dispatch_rows))
      (String.concat ","
         (List.map
            (fun (k, c, m) ->
              Printf.sprintf
                "{\"restarts\":%d,\"conc_switches\":%d,\"machine_transitions\":%d}"
                k c m)
            tree_rows))
  in
  let oc = open_out "BENCH_H.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_H.json written)@."

(* ------------------------------------------------------------------ *)
(* Table C' — scheduler scaling on producer/consumer networks          *)
(* ------------------------------------------------------------------ *)

(* The PR-9 tentpole measured: [n] forked producers write through a
   bounded channel, the main thread drains. Schedule length (one count
   per thread-step; identical by construction on both layers) must grow
   linearly in [n] — the indexed runtime's O(1) scheduling, waiter
   queues and incremental blocked-on graph are exactly what removes the
   seed's O(n) per-step scans. Asserted (not just printed): the
   schedule-count ratio between decade sizes stays within 1.3x of
   linear, and the two layers' counts agree exactly. Emitted as
   machine-readable BENCH_C.json; smoke mode runs 1k/10k, the full mode
   adds 100k. *)
let table_conc_scale ~smoke () =
  header
    "Table C' (scheduler scaling): n producers through a bounded channel    (indexed runtime)";
  let sizes = if smoke then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let src n =
    Printf.sprintf
      "newChan 64 >>= \\ch ->\n\
       mapM2 (\\i -> forkIO (writeChan ch i)) (enumFromTo 1 %d) >>= \\u ->\n\
       mapM2 (\\i -> readChan ch) (enumFromTo 1 %d) >>= \\u2 ->\n\
       putInt 0" n n
  in
  let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9 in
  Fmt.pr "%-10s %10s %12s %12s %10s %10s@." "threads" "spawned" "switches"
    "transitions" "conc s" "machine s";
  let rows =
    List.map
      (fun n ->
        let e = parse (src n) in
        let budget = 60 * (n + 1) in
        let t0 = now_s () in
        let r = Conc.run ~max_steps:budget e in
        let t1 = now_s () in
        let m = Machine_conc.run ~max_transitions:budget e in
        let t2 = now_s () in
        (match (r.Conc.outcome, m.Machine_conc.outcome) with
        | Conc.Done _, Machine_conc.Done _ -> ()
        | o1, o2 ->
            Fmt.epr "table_conc_scale: n=%d conc %a, machine %a@." n
              Conc.pp_outcome o1 Machine_conc.pp_outcome o2;
            exit 1);
        Fmt.pr "%-10d %10d %12d %12d %10.3f %10.3f@." n
          r.Conc.threads_spawned r.Conc.context_switches
          m.Machine_conc.transitions (t1 -. t0) (t2 -. t1);
        (n, r.Conc.threads_spawned, r.Conc.context_switches,
         m.Machine_conc.transitions, t1 -. t0, t2 -. t1))
      sizes
  in
  let ratios =
    let rec pair = function
      | (n1, _, s1, _, _, _) :: ((n2, _, s2, _, _, _) :: _ as rest) ->
          let linear = float_of_int n2 /. float_of_int n1 in
          let actual = float_of_int s2 /. float_of_int s1 in
          (n1, n2, actual /. linear) :: pair rest
      | _ -> []
    in
    pair rows
  in
  List.iter
    (fun (n1, n2, r) ->
      Fmt.pr "scaling %dk -> %dk: %.3fx linear@." (n1 / 1000) (n2 / 1000) r)
    ratios;
  let json =
    Printf.sprintf
      "{\"bench\":\"conc_scale\",\"wallclock\":true,\"smoke\":%b,\"rows\":[%s],\"scaling\":[%s]}\n"
      smoke
      (String.concat ","
         (List.map
            (fun (n, sp, sw, trn, cs, ms) ->
              Printf.sprintf
                "{\"threads\":%d,\"spawned\":%d,\"switches\":%d,\"transitions\":%d,\"conc_wall_s\":%.4f,\"machine_wall_s\":%.4f}"
                n sp sw trn cs ms)
            rows))
      (String.concat ","
         (List.map
            (fun (n1, n2, r) ->
              Printf.sprintf
                "{\"from\":%d,\"to\":%d,\"ratio_vs_linear\":%.4f}" n1 n2 r)
            ratios))
  in
  let oc = open_out "BENCH_C.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_C.json written)@.";
  List.iter
    (fun (_, _, sw, trn, _, _) ->
      if sw <> trn then begin
        Fmt.epr
          "table_conc_scale: schedule lengths diverged (conc %d, machine \
           %d)@."
          sw trn;
        exit 1
      end)
    rows;
  List.iter
    (fun (n1, n2, r) ->
      if r > 1.3 then begin
        Fmt.epr
          "table_conc_scale: %d -> %d schedule count is %.2fx linear \
           (budget 1.3x)@."
          n1 n2 r;
        exit 1
      end)
    ratios

(* ------------------------------------------------------------------ *)
(* Table B — bracket/mask hot-path overhead (robustness layer)          *)
(* ------------------------------------------------------------------ *)

(* The exception-safety combinators must be pay-as-you-go: wrapping a
   loop that never raises in [bracket] or [mask] should cost a constant
   number of IO transitions, not a per-iteration tax. Deterministic
   machine-step counts, plus BENCH_B.json for trend tracking. *)
let fault_base = "mapM (\\x -> return (x + 1)) (enumFromTo 1 200)"

let fault_scenarios =
  [
    ("baseline", fault_base);
    ( "bracket",
      Printf.sprintf
        "bracket (return 0) (\\r -> return Unit) (\\r -> %s)" fault_base );
    ("mask", Printf.sprintf "mask (%s)" fault_base);
    ( "bracket+mask",
      Printf.sprintf
        "mask (bracket (return 0) (\\r -> return Unit) (\\r -> %s))"
        fault_base );
  ]

let table_fault () =
  header
    "Table B (robustness): bracket/mask hot-path overhead                   (machine steps, no exception raised)";
  let steps_of src =
    let r = Machine_conc.run (parse src) in
    (match r.Machine_conc.outcome with
    | Machine_conc.Done _ -> ()
    | o -> Fmt.failwith "bench scenario failed: %a" Machine_conc.pp_outcome o);
    r.Machine_conc.stats.Stats.steps
  in
  let base_steps = steps_of fault_base in
  Fmt.pr "%-16s %12s %10s@." "scenario" "steps" "overhead";
  let rows =
    List.map
      (fun (name, src) ->
        let s = steps_of src in
        let pct =
          100.0 *. float_of_int (s - base_steps) /. float_of_int base_steps
        in
        Fmt.pr "%-16s %12d %9.2f%%@." name s pct;
        (name, s, pct))
      fault_scenarios
  in
  let oc = open_out "BENCH_B.json" in
  Printf.fprintf oc
    "{\"bench\":\"bracket_mask_overhead\",\"base_steps\":%d,\"scenarios\":[%s]}\n"
    base_steps
    (String.concat ","
       (List.map
          (fun (n, s, p) ->
            Printf.sprintf
              "{\"name\":%S,\"steps\":%d,\"overhead_pct\":%.2f}" n s p)
          rows));
  close_out oc;
  Fmt.pr "@.(BENCH_B.json written)@."

(* ------------------------------------------------------------------ *)
(* Raw machine workloads, shared by Tables F and T                     *)
(* ------------------------------------------------------------------ *)

(* Four pure programs run straight on a machine, compiled once outside
   the timed thunk: an arithmetic-bound recursion, a long strict fold,
   an allocation-heavy list pipeline, and a raise 5000 frames deep
   (run under a catch). *)
let slot_workloads =
  [
    ("fib 16", fib 16, false);
    ("sum 1..5000", sum_to 5000, false);
    ("map/filter 1..2000", pipeline 2000, false);
    ("raise at 5000", raise_at_depth 5000, true);
  ]

(* ------------------------------------------------------------------ *)
(* Table F — the flat bytecode backend vs the slot machine             *)
(* ------------------------------------------------------------------ *)

(* The bytecode backend measured: the raw workloads, slot machine vs
   the flat bytecode backend (contiguous instruction array,
   threaded dispatch, superinstructions, per-case-site inline caches).
   Compilation sits outside the timed thunk on both sides — compile
   once, run many is each backend's contract. Alongside the wall-clock
   columns the table reports what the speedup is made of: dispatch
   counts (superinstructions fuse transitions, so bytecode dispatches <
   slot steps) and the inline-cache hit rate. The wall-clock columns are
   min-of-trials from the paired interleaved timer ({!time_pair}) — the
   noise-robust estimator, since runner interference only adds time —
   over 21 trials: with 7, a shared runner's noise pushed the best
   speedup under the bar in about one run in sixteen. The best-workload
   speedup is asserted >= 1.3x (CI smoke runs this table), and the whole
   table is emitted as BENCH_F.json. *)
let table_bytecode () =
  header
    "Table F (flat bytecode): compiled instruction array + \
     superinstructions + inline caches vs the slot machine";
  Fmt.pr "%-20s %12s %12s %12s %10s %10s %10s %8s@." "workload" "slot steps"
    "bc dispatch" "ic hit/miss" "ic rate" "slot ns" "bc ns" "speedup";
  let big = { Machine.default_config with fuel = 50_000_000 } in
  let rows =
    List.map
      (fun (name, src, raises) ->
        let e = parse src in
        let r = Resolve.expr e in
        let prog = Bytecode.compile r in
        let run_slot () =
          let m = Machine.create ~config:big () in
          let a = Machine.alloc_resolved m r in
          if raises then ignore (Machine.force_catch m a)
          else ignore (Machine.force m a);
          Machine.stats m
        in
        let run_bc () =
          let m = Bytecode.create ~config:big prog in
          let a = Bytecode.entry m in
          if raises then ignore (Bytecode.force_catch m a)
          else ignore (Bytecode.force m a);
          Bytecode.stats m
        in
        let sts = run_slot () in
        let stb = run_bc () in
        if stb.Stats.bc_dispatches <> stb.Stats.steps then
          Fmt.failwith "bytecode dispatch accounting is off on %s" name;
        let t_slot, t_bc =
          time_pair ~trials:21
            (fun () -> ignore (run_slot ()))
            (fun () -> ignore (run_bc ()))
        in
        let speedup =
          if t_bc.min_ns > 0.0 then t_slot.min_ns /. t_bc.min_ns else 0.0
        in
        let ic_total = stb.Stats.ic_hits + stb.Stats.ic_misses in
        let ic_rate =
          if ic_total > 0 then
            float_of_int stb.Stats.ic_hits /. float_of_int ic_total
          else 1.0
        in
        Fmt.pr "%-20s %12d %12d %12s %9.3f %10.0f %10.0f %7.2fx@." name
          sts.Stats.steps stb.Stats.bc_dispatches
          (Printf.sprintf "%d/%d" stb.Stats.ic_hits stb.Stats.ic_misses)
          ic_rate t_slot.min_ns t_bc.min_ns speedup;
        (name, sts, stb, ic_rate, t_slot, t_bc, speedup))
      slot_workloads
  in
  let best =
    List.fold_left (fun a (_, _, _, _, _, _, sp) -> max a sp) 0.0 rows
  in
  Fmt.pr "@.best speedup %.2fx@." best;
  let json =
    Printf.sprintf
      "{\"bench\":\"bytecode\",\"wallclock\":true,\"best_speedup\":%.2f,\"rows\":[%s]}\n"
      best
      (String.concat ","
         (List.map
            (fun (name, (sts : Stats.t), (stb : Stats.t), ic_rate, ts, tb,
                  sp) ->
              Printf.sprintf
                "{\"workload\":%S,\"steps_slot\":%d,\"bc_dispatches\":%d,\"ic_hits\":%d,\"ic_misses\":%d,\"ic_hit_rate\":%.4f,\"ns_slot\":%.1f,\"ns_slot_sd\":%.1f,\"ns_slot_mean\":%.1f,\"ns_bytecode\":%.1f,\"ns_bytecode_sd\":%.1f,\"ns_bytecode_mean\":%.1f,\"trials\":%d,\"speedup\":%.2f}"
                name sts.Stats.steps stb.Stats.bc_dispatches
                stb.Stats.ic_hits stb.Stats.ic_misses ic_rate ts.min_ns
                ts.sd_ns ts.mean_ns tb.min_ns tb.sd_ns tb.mean_ns ts.trials
                sp)
            rows))
  in
  let oc = open_out "BENCH_F.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_F.json written)@.";
  (* The CI assertion, with slack: the tentpole claims a multi-x
     speedup; the smoke bar is a conservative 1.3x on at least one
     workload so shared-runner noise cannot flake the build. *)
  if best < 1.3 then begin
    Fmt.epr
      "table_bytecode FAIL: best speedup %.2fx < 1.3x over the slot \
       machine@."
      best;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table T — flight-recorder overhead (observability layer)            *)
(* ------------------------------------------------------------------ *)

(* The recorder's contract: OFF it records nothing and leaves the
   machine's step counts untouched (asserted, not assumed — including
   under [--smoke]); ON it pays only on the exceptional/administrative
   transitions, never on plain steps, so exception-free workloads record
   zero events even when enabled. Wall-clock columns are min-of-trials
   from the paired timer ({!time_pair}), filled in every mode. *)
let table_tracing () =
  header
    "Table T (observability): flight recorder off vs on                      (slot machine, Table F workloads)";
  Fmt.pr "%-20s %12s %10s %10s %10s %9s@." "workload" "steps" "events on"
    "off ns" "on ns" "overhead";
  let big = { Machine.default_config with fuel = 50_000_000 } in
  List.iter
    (fun (name, src, raises) ->
      let e = parse src in
      let r = Resolve.expr e in
      let run ~on () =
        let tr = Obs.create ~capacity:256 ~on () in
        let m = Machine.create ~config:big ~trace:tr () in
        let a = Machine.alloc_resolved m r in
        if raises then ignore (Machine.force_catch m a)
        else ignore (Machine.force m a);
        (Machine.stats m, tr)
      in
      let s_off, tr_off = run ~on:false () in
      let s_on, tr_on = run ~on:true () in
      if Obs.seen tr_off <> 0 then
        Fmt.failwith "tracing-off recorded %d events on %s"
          (Obs.seen tr_off) name;
      if s_off.Stats.steps <> s_on.Stats.steps then
        Fmt.failwith
          "tracing changed the step count on %s: %d off vs %d on" name
          s_off.Stats.steps s_on.Stats.steps;
      let t_off, t_on =
        time_pair
          (fun () -> ignore (run ~on:false ()))
          (fun () -> ignore (run ~on:true ()))
      in
      let overhead =
        if t_off.min_ns > 0.0 then
          Printf.sprintf "%+.1f%%"
            (100.0 *. (t_on.min_ns -. t_off.min_ns) /. t_off.min_ns)
        else "-"
      in
      Fmt.pr "%-20s %12d %10d %10.0f %10.0f %9s@." name s_off.Stats.steps
        (Obs.seen tr_on) t_off.min_ns t_on.min_ns overhead)
    slot_workloads;
  Fmt.pr "(asserted: tracing off records 0 events and identical steps)@."

(* ------------------------------------------------------------------ *)
(* Table K — asynchronous thread-to-thread exceptions (Section 5.1)    *)
(* ------------------------------------------------------------------ *)

(* The async-exception runtime's contract: a kill schedule that never
   fires is free — identical machine step counts and zero deliveries,
   asserted (not assumed) including under [--smoke] — and a used one
   pays a bounded per-delivery cost, reported here as machine steps per
   delivered throwTo. Wall-clock columns are min-of-trials from the
   paired timer ({!time_pair}), plain against faulted, filled in every
   mode. The table is emitted as machine-readable BENCH_K.json. *)

let k_pingpong =
  "newEmptyMVar >>= \\a -> newEmptyMVar >>= \\b ->\n\
   forkIO (takeMVar a >>= \\x -> putMVar b (x + 1)) >>\n\
   putMVar a 41 >> takeMVar b >>= \\r -> return r"

let k_worker =
  "superviseWorker 3\n\
  \  (putInt (sum (enumFromTo 1 200)) >>= \\u -> return 9)\n\
  \  (return 0)\n\
   >>= \\v -> putChar 'S' >>= \\u -> return v"

let k_worker_kills =
  [ (6, 1, Exn.Thread_killed); (8, 1, Exn.Thread_killed);
    (10, 1, Exn.Thread_killed); (30, 2, Exn.Thread_killed);
    (35, 2, Exn.Thread_killed); (40, 2, Exn.Thread_killed) ]

(* Fifty delivered self-throws against the same loop without them: the
   difference, divided by fifty, is the per-delivery machine cost. *)
let k_selfthrow =
  "mapM2 (\\i -> getException (myThreadId >>= \\t -> killThread t) >>= \
   \\u -> return Unit) (enumFromTo 1 50)"

let k_selfbase =
  "mapM2 (\\i -> getException (return i) >>= \\u -> return Unit) \
   (enumFromTo 1 50)"

let table_asyncexn () =
  header
    "Table K (Section 5.1): throwTo/killThread — free when unused,          bounded steps per delivery";
  Fmt.pr "%-18s %12s %12s %10s %10s %12s %10s %10s@." "workload" "steps"
    "steps armed" "delivered" "recovered" "per-deliver" "plain ns"
    "faulted ns";
  let run ?(kills = []) src = Machine_conc.run ~kills (parse src) in
  (* Row 1: an unused schedule must not cost a single machine step. The
     armed run carries kill entries aimed at a tid that never spawns. *)
  let plain = run k_pingpong in
  let armed =
    run ~kills:[ (5, 99, Exn.Thread_killed); (9, 99, Exn.Interrupt) ]
      k_pingpong
  in
  if
    plain.Machine_conc.stats.Stats.steps
    <> armed.Machine_conc.stats.Stats.steps
  then
    Fmt.failwith "an unused kill schedule changed the step count: %d vs %d"
      plain.Machine_conc.stats.Stats.steps
      armed.Machine_conc.stats.Stats.steps;
  if armed.Machine_conc.counters.Machine_conc.throwtos_delivered <> 0 then
    Fmt.failwith "an unused kill schedule delivered %d exceptions"
      armed.Machine_conc.counters.Machine_conc.throwtos_delivered;
  let t_plain, t_armed =
    time_pair
      (fun () -> ignore (run k_pingpong))
      (fun () ->
        ignore (run ~kills:[ (5, 99, Exn.Thread_killed) ] k_pingpong))
  in
  Fmt.pr "%-18s %12d %12d %10d %10d %12s %10.0f %10.0f@." "pingpong"
    plain.Machine_conc.stats.Stats.steps armed.Machine_conc.stats.Stats.steps
    0 0 "-" t_plain.min_ns t_armed.min_ns;
  (* Row 2: a supervised worker murdered twice; the supervisor restarts
     it and the third incarnation finishes. *)
  let wplain = run k_worker in
  let wkill = run ~kills:k_worker_kills k_worker in
  let delivered = wkill.Machine_conc.counters.Machine_conc.throwtos_delivered in
  let recovered = wkill.Machine_conc.counters.Machine_conc.blocked_recoveries in
  if delivered = 0 then
    Fmt.failwith "the worker kill schedule delivered nothing";
  let t_wplain, t_wkill =
    time_pair
      (fun () -> ignore (run k_worker))
      (fun () -> ignore (run ~kills:k_worker_kills k_worker))
  in
  Fmt.pr "%-18s %12d %12d %10d %10d %12s %10.0f %10.0f@." "worker-killed"
    wplain.Machine_conc.stats.Stats.steps
    wkill.Machine_conc.stats.Stats.steps delivered recovered "-"
    t_wplain.min_ns t_wkill.min_ns;
  (* Row 3: per-delivery machine steps, from 50 self-throws. *)
  let sthrow = run k_selfthrow in
  let sbase = run k_selfbase in
  if sthrow.Machine_conc.counters.Machine_conc.throwtos_delivered <> 50 then
    Fmt.failwith "expected 50 self-deliveries, saw %d"
      sthrow.Machine_conc.counters.Machine_conc.throwtos_delivered;
  let per_delivery =
    float_of_int
      (sthrow.Machine_conc.stats.Stats.steps
      - sbase.Machine_conc.stats.Stats.steps)
    /. 50.0
  in
  let t_sbase, t_sthrow =
    time_pair
      (fun () -> ignore (run k_selfbase))
      (fun () -> ignore (run k_selfthrow))
  in
  Fmt.pr "%-18s %12d %12d %10d %10d %12.1f %10.0f %10.0f@." "selfthrow-x50"
    sbase.Machine_conc.stats.Stats.steps
    sthrow.Machine_conc.stats.Stats.steps 50
    sthrow.Machine_conc.counters.Machine_conc.blocked_recoveries per_delivery
    t_sbase.min_ns t_sthrow.min_ns;
  Fmt.pr
    "(asserted: an unused schedule leaves steps identical and delivers \
     nothing)@.";
  let json =
    Printf.sprintf
      "{\"bench\":\"async_exceptions\",\"wallclock\":true,\"rows\":[%s]}\n"
      (String.concat ","
         [
           Printf.sprintf
             "{\"workload\":\"pingpong\",\"steps_plain\":%d,\"steps_armed\":%d,\"delivered\":0,\"recovered\":0,\"per_delivery_steps\":null,\"ns_plain\":%.1f,\"ns_plain_sd\":%.1f,\"ns_faulted\":%.1f,\"ns_faulted_sd\":%.1f,\"trials\":%d}"
             plain.Machine_conc.stats.Stats.steps
             armed.Machine_conc.stats.Stats.steps t_plain.min_ns
             t_plain.sd_ns t_armed.min_ns t_armed.sd_ns t_plain.trials;
           Printf.sprintf
             "{\"workload\":\"worker-killed\",\"steps_plain\":%d,\"steps_armed\":%d,\"delivered\":%d,\"recovered\":%d,\"per_delivery_steps\":null,\"ns_plain\":%.1f,\"ns_plain_sd\":%.1f,\"ns_faulted\":%.1f,\"ns_faulted_sd\":%.1f,\"trials\":%d}"
             wplain.Machine_conc.stats.Stats.steps
             wkill.Machine_conc.stats.Stats.steps delivered recovered
             t_wplain.min_ns t_wplain.sd_ns t_wkill.min_ns t_wkill.sd_ns
             t_wplain.trials;
           Printf.sprintf
             "{\"workload\":\"selfthrow-x50\",\"steps_plain\":%d,\"steps_armed\":%d,\"delivered\":50,\"recovered\":%d,\"per_delivery_steps\":%.1f,\"ns_plain\":%.1f,\"ns_plain_sd\":%.1f,\"ns_faulted\":%.1f,\"ns_faulted_sd\":%.1f,\"trials\":%d}"
             sbase.Machine_conc.stats.Stats.steps
             sthrow.Machine_conc.stats.Stats.steps
             sthrow.Machine_conc.counters.Machine_conc.blocked_recoveries per_delivery
             t_sbase.min_ns t_sbase.sd_ns t_sthrow.min_ns t_sthrow.sd_ns
             t_sbase.trials;
         ])
  in
  let oc = open_out "BENCH_K.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_K.json written)@."

(* ---- Table S: evaluation-as-a-service under load ------------------ *)

(* Replays the pure programs of the fuzz corpus through one serve
   engine — every program twice, so the second round
   exercises the compiled-program cache — measuring per-request
   wall-clock latency and overall throughput. A second, fault-mode
   round mixes the five canonical killers (heap bomb, stack bomb, fuel
   burner, black hole, spinner-with-timeout) with well-behaved
   requests and asserts the latter still succeed: degradation is
   per-request, never service-wide. Two front-end rows follow, each on
   the largest pure corpus program and each gated at 1/20: what
   resolving it costs in a fresh context and in a context that already
   holds the resolved Prelude, and the code words its bytecode compile
   emits in full and against the held Prelude segment. Last, what a
   cache-hit request costs the major heap on each backend, gated at no
   word allocated there directly and at most 128 promoted, with its
   minor words beside them; and the machine cells a cache hit for [1]
   allocates, gated at 1, its root (the Prelude's cells come from the
   engine's image). Emitted as BENCH_S.json. *)
let table_serve () =
  header
    "Table S: serve daemon under corpus replay + fault mix, both backends";
  let pure = Lazy.force pure_corpus in
  let submit sess id opts src =
    Serve.feed sess
      (if opts = "" then Printf.sprintf "eval %s" id
       else Printf.sprintf "eval %s %s" id opts);
    List.iter (Serve.feed sess) (String.split_on_char '\n' src);
    Serve.feed sess "."
  in
  (* One full load-generator round — corpus replay (twice, so the
     compiled-program cache must hit) plus the fault mix — against one
     engine running the given backend. The serve differential test
     already proves the two backends answer alike; here we measure what
     that agreement costs on each. *)
  let serve_round backend =
  let engine =
    Serve.create ~config:{ Serve.default_config with Serve.backend } ()
  in
  let sess = Serve.session engine in
  let submit = submit sess in
  (* Round-trip load generator: submit, run to completion, drain; the
     latency of one request is the full submit-to-reply wall time. *)
  let latencies = ref [] in
  let t_start = Monotonic_clock.now () in
  List.iter
    (fun round ->
      List.iteri
        (fun i e ->
          let src = Pretty.expr_to_string e.Corpus.expr in
          let t0 = Monotonic_clock.now () in
          submit (Printf.sprintf "%s%d" round i) "" src;
          Serve.run_all engine;
          ignore (Serve.drain sess);
          let t1 = Monotonic_clock.now () in
          latencies := Int64.to_float (Int64.sub t1 t0) :: !latencies)
        pure)
    [ "a"; "b" ];
  let total_ns =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_start)
  in
  let n_requests = 2 * List.length pure in
  let rps =
    if total_ns > 0.0 then float_of_int n_requests /. (total_ns /. 1e9)
    else 0.0
  in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let pct p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) k))
  in
  let p50 = pct 50.0 and p99 = pct 99.0 in
  (* Fault mode: the killers interleaved with survivors; every
     survivor must still answer [ok]. *)
  let killers =
    [
      ("heap=2000", "length (replicate 100000 1)");
      ("stack=500 fuel=5000000 heap=2000000", "sum (enumFromTo 1 20000)");
      ("fuel=20000", "sum (enumFromTo 1 200000)");
      ("", "let rec black = black + 1 in black");
      ( "fuel=1000000000 timeout=200",
        "let rec go n = if n > 0 then go n else 0 in go 1" );
    ]
  in
  let fault_ok = ref true in
  List.iteri
    (fun i (opts, src) ->
      submit (Printf.sprintf "kill%d" i) opts src;
      submit (Printf.sprintf "good%d" i) "" "sum (enumFromTo 1 100)";
      Serve.run_all engine;
      List.iter
        (fun reply ->
          match String.split_on_char ' ' reply with
          | "err" :: id :: _ when String.length id >= 4
                                  && String.sub id 0 4 = "good" ->
              fault_ok := false;
              Fmt.epr "table_serve FAULT-MODE FAIL: %s@." reply
          | _ -> ())
        (Serve.drain sess))
    killers;
  let c = Serve.counters engine in
  let hits = c.Serve.cache_hits and misses = c.Serve.cache_misses in
  let hit_rate =
    if hits + misses > 0 then
      float_of_int hits /. float_of_int (hits + misses)
    else 0.0
  in
  if c.Serve.crashes > 0 then
    Fmt.epr "table_serve: unexpected crashes: %d@." c.Serve.crashes;
  (n_requests, rps, p50, p99, hit_rate, c, !fault_ok)
  in
  let rounds =
    [
      ("slot", serve_round Serve.Slot);
      ("bytecode", serve_round Serve.Bytecode);
    ]
  in
  Fmt.pr "%-26s %12s %12s@." "metric" "slot" "bytecode";
  let col f = List.map (fun (_, r) -> f r) rounds in
  (match
     ( col (fun (n, _, _, _, _, _, _) -> float_of_int n),
       col (fun (_, rps, _, _, _, _, _) -> rps),
       col (fun (_, _, p50, _, _, _, _) -> p50),
       col (fun (_, _, _, p99, _, _, _) -> p99),
       col (fun (_, _, _, _, hr, _, _) -> hr) )
   with
  | [ n1; n2 ], [ r1; r2 ], [ f1; f2 ], [ n991; n992 ], [ h1; h2 ] ->
      Fmt.pr "%-26s %12.0f %12.0f@." "requests (replay)" n1 n2;
      Fmt.pr "%-26s %12.1f %12.1f@." "requests/sec" r1 r2;
      Fmt.pr "%-26s %12.0f %12.0f@." "p50 latency (ns)" f1 f2;
      Fmt.pr "%-26s %12.0f %12.0f@." "p99 latency (ns)" n991 n992;
      Fmt.pr "%-26s %12.2f %12.2f@." "cache hit rate" h1 h2
  | _ -> ());
  List.iter
    (fun (bname, (_, _, _, _, _, (c : Serve.counters), fault_ok)) ->
      Fmt.pr "%-26s %12d (%s)@." "quota kills"
        (c.Serve.quota_heap + c.Serve.quota_stack + c.Serve.quota_fuel)
        bname;
      Fmt.pr "%-26s %12s (%s)@." "fault-mode survivors"
        (if fault_ok then "all ok" else "FAILED")
        bname)
    rounds;
  (* Resolve's fixed cost: a fresh context resolves all of the Prelude's
     bindings, a context that already holds them only the body. The
     probe is the largest pure corpus program, the least favourable
     ratio. The words are minor-heap allocation, a deterministic count;
     the times are [time_pair]'s, context creation included on the
     fresh side. *)
  let probe =
    List.fold_left
      (fun a e ->
        if Syntax.size e.Corpus.expr > Syntax.size a.Corpus.expr then e
        else a)
      (List.hd pure) pure
  in
  let wrapped = Prelude.wrap probe.Corpus.expr in
  let fresh () = ignore (Resolve.expr ~ctx:(Resolve.new_context ()) wrapped) in
  let held = Resolve.new_context () in
  let memo () = ignore (Resolve.expr ~ctx:held wrapped) in
  memo ();
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let fresh_words = words fresh and memo_words = words memo in
  let t_fresh, t_memo = time_pair fresh memo in
  let ratio = t_fresh.min_ns /. t_memo.min_ns in
  Fmt.pr "@.resolve %s (wrapped):@." probe.Corpus.name;
  Fmt.pr "%-26s %12s %12s@." "metric" "fresh ctx" "Prelude held";
  Fmt.pr "%-26s %12.0f %12.0f@." "resolve minor words" fresh_words
    memo_words;
  Fmt.pr "%-26s %12.0f %12.0f  (fresh/held %.0fx)@." "resolve time (min ns)"
    t_fresh.min_ns t_memo.min_ns ratio;
  (* Bytecode compile's fixed cost: a full compile emits every Prelude
     binding again, a compile against the held segment only the body.
     The words are the code words one miss emits, a deterministic count;
     the segment is built once, outside the timed thunk, as a serve
     engine builds it once. *)
  let rx = Resolve.expr wrapped in
  let segment = (Differ.held_prelude ()).Differ.segment in
  let full () = Bytecode.compile rx and appended () = Bytecode.compile ~segment rx in
  let full_code = Bytecode.emitted_words (full ())
  and held_code = Bytecode.emitted_words (appended ()) in
  let t_full, t_held =
    time_pair (fun () -> ignore (full ())) (fun () -> ignore (appended ()))
  in
  let compile_ratio = t_full.min_ns /. t_held.min_ns in
  Fmt.pr "@.bytecode compile %s (wrapped):@." probe.Corpus.name;
  Fmt.pr "%-26s %12s %12s@." "metric" "fresh" "Prelude held";
  Fmt.pr "%-26s %12d %12d@." "code words emitted" full_code held_code;
  Fmt.pr "%-26s %12.0f %12.0f  (fresh/held %.0fx)@." "compile time (min ns)"
    t_full.min_ns t_held.min_ns compile_ratio;
  (* What a cache-hit request leaves to the major heap: one engine per
     backend with every pure program cached, then [major_requests]
     requests round-robin from an empty minor heap. Words allocated
     directly in the major heap are the major delta less the promoted
     delta. [Gc.counters], not [Gc.quick_stat], whose word counts only
     move at a collection. A full major cycle rather than a minor
     collection starts the run, because the end of a major cycle also
     empties the minor heap: left mid-cycle by the timed tables above,
     it would move the promoted count from run to run. *)
  let major_requests = 2_000 and promoted_bound = 128. in
  let sources =
    Array.of_list (List.map (fun e -> Pretty.expr_to_string e.Corpus.expr) pure)
  in
  (* The same engines then answer [1] twice: the second, a cache hit,
     must allocate its root alone, its Prelude cells being a copy of
     the engine's image ([Stats.allocations] from the machine totals,
     an exact count; 126 when every request built the group). The
     minor words are the loop's, from [Gc.minor_words]. *)
  let cells_bound = 1 in
  let major_heap backend =
    let engine =
      Serve.create ~config:{ Serve.default_config with Serve.backend } ()
    in
    let sess = Serve.session engine in
    let request src =
      submit sess "m" "" src;
      Serve.run_all engine;
      ignore (Serve.drain sess)
    in
    let corpus i = request sources.(i mod Array.length sources) in
    Array.iteri (fun i _ -> corpus i) sources;
    Gc.full_major ();
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    for i = 0 to major_requests - 1 do
      corpus i
    done;
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    let per x = x /. float_of_int major_requests in
    let promoted = promoted1 -. promoted0 in
    request "1";
    let allocations () = (Serve.machine_totals engine).Stats.allocations in
    let a0 = allocations () in
    request "1";
    ( per (major1 -. major0 -. promoted),
      per promoted,
      per (minor1 -. minor0),
      allocations () - a0 )
  in
  let majors =
    [ ("slot", major_heap Serve.Slot); ("bytecode", major_heap Serve.Bytecode) ]
  in
  Fmt.pr "@.major heap per cache-hit request (%d requests, %d programs):@."
    major_requests (List.length pure);
  Fmt.pr "%-26s %12s %12s@." "metric" "slot" "bytecode";
  (match majors with
  | [ (_, (d1, p1, m1, c1)); (_, (d2, p2, m2, c2)) ] ->
      Fmt.pr "%-26s %12.1f %12.1f@." "direct major words" d1 d2;
      Fmt.pr "%-26s %12.1f %12.1f@." "promoted words" p1 p2;
      Fmt.pr "%-26s %12.1f %12.1f@." "minor words" m1 m2;
      Fmt.pr "@.Prelude cells per cache-hit request for 1:@.";
      Fmt.pr "%-26s %12s %12s@." "metric" "slot" "bytecode";
      Fmt.pr "%-26s %12d %12d@." "machine allocations" c1 c2
  | _ -> ());
  let json =
    Printf.sprintf
      "{\"bench\":\"serve\",\"wallclock\":true,\"resolve\":{\"program\":%S,\"fresh_minor_words\":%.0f,\"memo_minor_words\":%.0f,\"fresh_min_ns\":%.0f,\"memo_min_ns\":%.0f,\"fresh_over_memo\":%.1f,\"trials\":%d},\"compile\":{\"program\":%S,\"fresh_code_words\":%d,\"held_code_words\":%d,\"fresh_min_ns\":%.0f,\"held_min_ns\":%.0f,\"fresh_over_held\":%.1f,\"trials\":%d},\"major_heap\":{\"requests\":%d,\"programs\":%d,\"promoted_bound\":%.0f,\"backends\":[%s]},\"prelude_cells\":{\"program\":\"1\",\"bound\":%d,\"backends\":[%s]},\"backends\":[%s]}\n"
      probe.Corpus.name fresh_words memo_words t_fresh.min_ns t_memo.min_ns
      ratio t_fresh.trials probe.Corpus.name full_code held_code
      t_full.min_ns t_held.min_ns compile_ratio t_full.trials major_requests
      (List.length pure) promoted_bound
      (String.concat ","
         (List.map
            (fun (bname, (direct, promoted, minor, _)) ->
              Printf.sprintf
                "{\"backend\":%S,\"direct_major_words_per_request\":%.1f,\"promoted_words_per_request\":%.1f,\"minor_words_per_request\":%.1f}"
                bname direct promoted minor)
            majors))
      cells_bound
      (String.concat ","
         (List.map
            (fun (bname, (_, _, _, cells)) ->
              Printf.sprintf "{\"backend\":%S,\"allocations\":%d}" bname
                cells)
            majors))
      (String.concat ","
         (List.map
            (fun ( bname,
                   (n, rps, p50, p99, hit_rate, (c : Serve.counters),
                    fault_ok) ) ->
              Printf.sprintf
                "{\"backend\":%S,\"requests\":%d,\"requests_per_sec\":%.1f,\"p50_latency_ns\":%.0f,\"p99_latency_ns\":%.0f,\"cache_hit_rate\":%.3f,\"cache_hits\":%d,\"cache_misses\":%d,\"quota_heap\":%d,\"quota_stack\":%d,\"quota_fuel\":%d,\"timeouts\":%d,\"crashes\":%d,\"fault_mode_ok\":%b}"
                bname n rps p50 p99 hit_rate c.Serve.cache_hits
                c.Serve.cache_misses c.Serve.quota_heap c.Serve.quota_stack
                c.Serve.quota_fuel c.Serve.timeouts c.Serve.crashes fault_ok)
            rounds))
  in
  let oc = open_out "BENCH_S.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "(BENCH_S.json written)@.";
  if List.exists (fun (_, (_, _, _, _, _, _, ok)) -> not ok) rounds then
    exit 1;
  if memo_words *. 20. > fresh_words then begin
    Fmt.epr
      "table_serve: resolving with the Prelude held allocated %.0f words, \
       more than 1/20 of a fresh resolution's %.0f@."
      memo_words fresh_words;
    exit 1
  end;
  if held_code * 20 > full_code then begin
    Fmt.epr
      "table_serve: compiling against the held Prelude emitted %d code \
       words, more than 1/20 of a full compile's %d@."
      held_code full_code;
    exit 1
  end;
  List.iter
    (fun (bname, (direct, promoted, _, cells)) ->
      if direct > 0. || promoted > promoted_bound then begin
        Fmt.epr
          "table_serve: a cache-hit request on %s allocated %.1f words \
           directly in the major heap (want 0) and promoted %.1f (want at \
           most %.0f)@."
          bname direct promoted promoted_bound;
        exit 1
      end;
      if cells > cells_bound then begin
        Fmt.epr
          "table_serve: a cache-hit request for 1 on %s allocated %d \
           machine cells (want at most %d: the Prelude's come from the \
           engine's image)@."
          bname cells cells_bound;
        exit 1
      end)
    majors

let () =
  (* [--smoke]: the CI-sized run (Table C' stops at 10k threads). *)
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  Fmt.pr "imprecise-exceptions benchmark harness%s@."
    (if smoke then " (smoke mode)" else "");
  table_laws ();
  table_exval ();
  table_no_exn ();
  table_raise ();
  table_opt ();
  table_async ();
  table_finding ();
  table_gc ();
  table_conc ();
  table_conc_scale ~smoke ();
  table_hierarchy ();
  table_fault ();
  table_bytecode ();
  table_tracing ();
  table_asyncexn ();
  table_serve ();
  Fmt.pr "@.done.@."

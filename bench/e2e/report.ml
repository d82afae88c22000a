(* The metrics, by name and unit, and their values for one run.

   End-to-end metrics (untraced runs) are the ones a user of serve or of
   [impexn run] sees; every workload reports all of them. Per-layer
   metrics (traced runs) are named by module and come from spans timed
   around each layer's public function, plus each layer's own counters.
   BENCHMARK.json lists the same names; [check_manifest] keeps the two
   in step. *)

open Clock
open Workloads

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("ops_per_s", "1/s", Higher);
    ("p50_ms", "ms", Lower);
    ("p99_ms", "ms", Lower);
    ("heap_mb", "MB", Lower);
    ("alloc_kw_per_op", "kwords", Lower);
  ]

let per_layer =
  [
    ("parser.us.p50", "us", Lower);
    ("parser.us.p99", "us", Lower);
    ("prelude.us", "us", Lower);
    ("pipeline.us.p50", "us", Lower);
    ("pipeline.us.p99", "us", Lower);
    ("pipeline.lint_share", "ratio", Lower);
    ("pipeline.rounds", "count", Lower);
    ("resolve.us.p50", "us", Lower);
    ("resolve.us.p99", "us", Lower);
    ("resolve.minor_kw", "kwords", Lower);
    ("bytecode.compile_us.p50", "us", Lower);
    ("bytecode.compile_us.p99", "us", Lower);
    ("bytecode.code_words", "count", Lower);
    ("serve.cache_hit_rate", "ratio", Higher);
    ("serve.cache_evictions", "count", Lower);
    ("stg.exec_us.p50", "us", Lower);
    ("stg.exec_us.p99", "us", Lower);
    ("stg.steps", "count", Lower);
    ("stg.deep_us", "us", Lower);
    ("bytecode.exec_us.p50", "us", Lower);
    ("bytecode.exec_us.p99", "us", Lower);
    ("bytecode.dispatches", "count", Lower);
    ("bytecode.ic_hit_rate", "ratio", Higher);
    ("bytecode.deep_us", "us", Lower);
    ("sem_value.render_us", "us", Lower);
    ("gc.minor_kw_per_req", "kwords", Lower);
    ("gc.promoted_kw_per_req", "kwords", Lower);
    ("gc.minor_collections", "count/kop", Lower);
    ("gc.major_collections", "count/kop", Lower);
    ("gc.peak_heap_mb", "MB", Lower);
    ("gc.pause_share", "ratio", Lower);
    ("gc.pause_us.p99", "us", Lower);
    ("serve.submit_us", "us", Lower);
    ("serve.run_us.p50", "us", Lower);
    ("serve.run_us.p99", "us", Lower);
    ("serve.ticks_per_req", "count", Lower);
    ("serve.inflight_max", "count", Lower);
    ("serve.sheds", "count", Lower);
    ("serve.evictions", "count", Lower);
    ("serve.timeouts", "count", Lower);
    ("serve.quota_kills", "count", Lower);
    ("iosem.events", "count", Lower);
    ("iosem.run_us", "us", Lower);
    ("machine_io.steps", "count", Lower);
    ("machine_io.run_us", "us", Lower);
    ("machine_io.resolve_share", "ratio", Lower);
    ("conc.switches", "count", Lower);
    ("conc.run_us", "us", Lower);
    ("machine_conc.transitions", "count", Lower);
    ("machine_conc.run_us", "us", Lower);
    ("harness.gen_s", "s", Lower);
    ("harness.late_ms.p99", "ms", Lower);
    ("harness.alloc_kw", "kwords", Lower);
    ("harness.utilization", "ratio", Lower);
    ("trace.overhead", "ratio", Lower);
    ("trace.unattributed_share", "ratio", Lower);
    ("error_share", "ratio", Lower);
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (end_to_end @ per_layer) with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("unknown metric " ^ name)

let ms ns = ns /. 1e6
let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6
let us ns = ns /. 1e3
let ratio a b = if b > 0. then a /. b else 0.
(* The largest sampled heap of the window. The process's own peak
   (top_heap_words) is not used: it is reached while the harness
   generates inputs and reference answers, not by the workload. *)
let peak_heap_mb p = mb (Samples.rank (Samples.sorted p.heap_words) 1.)

(* Each lane's samples and length at the reference speed. *)
let lanes p =
  List.filter_map
    (fun (name, l) ->
      let k = Blocked.scale l in
      if Samples.count k.Blocked.scaled > 0 then Some (name, k) else None)
    p.lanes

(* Time metrics are at the reference speed ({!Clock.Speed}). [exec_ns]:
   from the launcher starting this process to [main] (exec, runtime and
   library initialisation), scaled by set-up's slowdown; set-up adds the
   median of the repeated engine set-up and warm-up passes. *)
let end_to_end_values ~exec_ns (r : run) =
  let p = r.main in
  let ls = lanes p in
  let count = List.fold_left (fun a (_, k) -> a + Samples.count k.Blocked.scaled) 0 ls in
  let len = List.fold_left (fun a (_, k) -> a +. k.Blocked.len) 0. ls in
  let each f = geomean (List.map (fun (_, k) -> ms (f k.Blocked.scaled)) ls) in
  [
    ("setup_s", ((exec_ns /. r.setup_slowdown) +. r.setup_ns) /. ns_per_s);
    ("ops_per_s", ratio (float_of_int count) (len /. ns_per_s));
    ("p50_ms", each Samples.median);
    ("p99_ms", each (fun s -> fst (Samples.tail s)));
    ("heap_mb", mb (ratio (Samples.sum p.heap_words) (float_of_int (Samples.count p.heap_words))));
    ("alloc_kw_per_op", ratio p.words (float_of_int p.ops) /. 1e3);
  ]

(* Per-engine (or per-layer) lines for humans: the end-to-end numbers
   before they are combined across engines, at the reference speed and
   as measured, with the host's mean slowdown. *)
let lane_notes ~exec_ns (r : run) =
  let p = r.main in
  List.concat_map
    (fun (name, (k : Blocked.scaled)) ->
      let tail, pct = Samples.tail k.scaled and raw_tail, _ = Samples.tail k.raw in
      let n = float_of_int (Samples.count k.scaled) in
      [
        ("ops_per_s." ^ name, ratio n (k.len /. ns_per_s), "1/s");
        ("p50_ms." ^ name, ms (Samples.median k.scaled), "ms");
        (Printf.sprintf "p%.1f_ms.%s" pct name, ms tail, "ms");
        ("n." ^ name, n, "count");
        ("slowdown." ^ name, k.slowdown, "ratio");
        ("raw.ops_per_s." ^ name, ratio n (k.raw_len /. ns_per_s), "1/s");
        ("raw.p50_ms." ^ name, ms (Samples.median k.raw), "ms");
        (Printf.sprintf "raw.p%.1f_ms.%s" pct name, ms raw_tail, "ms");
      ])
    (lanes p)
  @ [
      ("raw.exec_ms", ms exec_ns, "ms");
      ("setup_rep_ms", ms r.setup_ns, "ms");
      ("setup_slowdown", r.setup_slowdown, "ratio");
      ("peak_heap_mb", peak_heap_mb p, "MB");
      ("utilization", ratio p.busy_ns p.wall_ns, "ratio");
    ]
  @ r.notes

let per_layer_values (r : run) =
  let p, tr = Option.get r.traced in
  let d name = Spans.durations tr name in
  let p50 name = us (Samples.median (d name)) in
  let p99 name = us (fst (Samples.tail (d name))) in
  let sum = Spans.sum tr in
  let mean k n = ratio (sum k) (sum n) in
  let m = r.main in
  let per_op x = ratio x (float_of_int m.ops) in
  let layer_run l = p50 (l ^ ".run") in
  let untraced_rate = ratio (float_of_int m.ops) m.wall_ns in
  let traced_rate = ratio (float_of_int p.ops) (p.wall_ns -. p.replay_ns) in
  (* The operation's own span: a closed-loop request, an io-run run, or
     (open loop, where requests interleave) one scheduling quantum. *)
  let root =
    List.find
      (fun n -> Samples.count (d n) > 0)
      [ "request"; "run"; "serve.run" ]
  in
  [
    ("parser.us.p50", p50 "parser");
    ("parser.us.p99", p99 "parser");
    ("prelude.us", p50 "prelude");
    ("pipeline.us.p50", p50 "pipeline");
    ("pipeline.us.p99", p99 "pipeline");
    ("pipeline.lint_share", ratio (sum "pipeline.lint_ns") (Samples.sum (d "pipeline")));
    ("pipeline.rounds", mean "pipeline.rounds" "pipeline.n");
    ("resolve.us.p50", p50 "resolve");
    ("resolve.us.p99", p99 "resolve");
    ("resolve.minor_kw", mean "resolve.minor_words" "resolve.n" /. 1e3);
    ("bytecode.compile_us.p50", p50 "bytecode.compile");
    ("bytecode.compile_us.p99", p99 "bytecode.compile");
    ("bytecode.code_words", mean "bytecode.code_words" "bytecode.compile.n");
    ( "serve.cache_hit_rate",
      ratio (sum "serve.cache_hits") (sum "serve.cache_hits" +. sum "serve.cache_misses") );
    ("serve.cache_evictions", sum "serve.cache_evictions");
    ("stg.exec_us.p50", p50 "stg.exec");
    ("stg.exec_us.p99", p99 "stg.exec");
    ("stg.steps", mean "stg.steps" "stg.n");
    ("stg.deep_us", p50 "stg.deep");
    ("bytecode.exec_us.p50", p50 "bytecode.exec");
    ("bytecode.exec_us.p99", p99 "bytecode.exec");
    ("bytecode.dispatches", mean "bytecode.dispatches" "bytecode.n");
    ( "bytecode.ic_hit_rate",
      ratio (sum "bytecode.ic_hits") (sum "bytecode.ic_hits" +. sum "bytecode.ic_misses") );
    ("bytecode.deep_us", p50 "bytecode.deep");
    ("sem_value.render_us", p50 "sem_value.render");
    (* GC work is read over the untraced phase: the traced phase's
       replays would be counted against the operations otherwise. *)
    ("gc.minor_kw_per_req", per_op m.words /. 1e3);
    ("gc.promoted_kw_per_req", per_op m.promoted_words /. 1e3);
    ("gc.minor_collections", per_op (float_of_int m.minor_gcs) *. 1e3);
    ("gc.major_collections", per_op (float_of_int m.major_gcs) *. 1e3);
    ("gc.peak_heap_mb", peak_heap_mb m);
    ("gc.pause_share", ratio (Samples.sum (Spans.gc_times tr root)) (Samples.sum (d root)));
    ("gc.pause_us.p99", us (fst (Samples.tail (Spans.gc_times tr root))));
    ("serve.submit_us", p50 "serve.submit");
    ("serve.run_us.p50", p50 "serve.run");
    ("serve.run_us.p99", p99 "serve.run");
    ( "serve.ticks_per_req",
      ratio
        (float_of_int (Samples.count (d "serve.run")))
        (float_of_int (Samples.count (d "serve.submit"))) );
    ("serve.inflight_max", sum "serve.inflight_max");
    ("serve.sheds", sum "serve.sheds");
    ("serve.evictions", sum "serve.evictions");
    ("serve.timeouts", sum "serve.timeouts");
    ("serve.quota_kills", sum "serve.quota_kills");
    ("iosem.events", mean "iosem.work" "iosem.n");
    ("iosem.run_us", layer_run "iosem");
    ("machine_io.steps", mean "machine_io.work" "machine_io.n");
    ("machine_io.run_us", layer_run "machine_io");
    ( "machine_io.resolve_share",
      ratio (sum "machine_io.resolve_ns") (Samples.sum (d "machine_io.run")) );
    ("conc.switches", mean "conc.work" "conc.n");
    ("conc.run_us", layer_run "conc");
    ("machine_conc.transitions", mean "machine_conc.work" "machine_conc.n");
    ("machine_conc.run_us", layer_run "machine_conc");
    ("harness.gen_s", r.gen_ns /. ns_per_s);
    ("harness.late_ms.p99", ms (fst (Samples.tail m.late)));
    ("harness.alloc_kw", m.harness_words /. 1e3);
    ("harness.utilization", ratio m.busy_ns m.wall_ns);
    ("trace.overhead", ratio untraced_rate traced_rate);
    (* Defined where an operation has a span of its own: not for the
       open loop, whose requests interleave across quanta. *)
    ("trace.unattributed_share", if root = "serve.run" then 0. else Spans.unattributed tr ~root);
    ("error_share", ratio (float_of_int r.checks.failed) (float_of_int r.checks.attempted));
  ]

(* Every value exactly as measured: all seventeen significant digits. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_lines values =
  List.iter (fun (name, v) -> Printf.printf "%s %s %s\n" name (number v) (unit_of name)) values

let json_line (r : run) values =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.checks.failed = 0)
    (max 1 r.checks.attempted) r.checks.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) (unit_of name))
          values))

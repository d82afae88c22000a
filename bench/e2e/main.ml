(* The end-to-end benchmark's command line.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
     main.exe --all [...]          every workload, one process each
     main.exe --smoke [--bench BENCHMARK.json]
     main.exe compare PARENT CHANGE [--claim METRIC[@WORKLOAD]]... [--bench FILE]

   A workload runs in a child process (this program, re-executed), so
   that set-up time counts from process start and peak heap belongs to
   that workload alone. The child prints every metric as [name value
   unit], then one JSON result line, and exits non-zero if any answer
   was wrong. *)

let t_main = Clock.now_ns ()

type opts = {
  mutable workload : string option;
  mutable all : bool;
  mutable smoke : bool;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string;
  mutable out : string option;
  mutable bench : string option;
  mutable child : bool;
  mutable spawned_at : float;
  mutable claims : (string * string option) list;
  mutable positional : string list;
}

let usage () =
  prerr_endline
    "usage: main.exe (--workload W | --all | --smoke) [--seed N] [--seconds S]\n\
    \                [--trace 0|1|FILE] [--out FILE] [--bench BENCHMARK.json]\n\
    \       main.exe compare PARENT CHANGE [--claim METRIC[@WORKLOAD]]... [--bench FILE]\n\
     workloads: serve-hot serve-cold serve-faults io-run";
  exit 2

let parse_args argv =
  let o =
    {
      workload = None;
      all = false;
      smoke = false;
      seed = 1;
      seconds = 20.;
      trace = "0";
      out = None;
      bench = None;
      child = false;
      spawned_at = 0.;
      claims = [];
      positional = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--child" :: w :: rest -> o.workload <- Some w; o.child <- true; go rest
    | "--all" :: rest -> o.all <- true; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--seed" :: n :: rest -> o.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest -> o.seconds <- float_of_string s; go rest
    | "--trace" :: t :: rest -> o.trace <- t; go rest
    | "--out" :: f :: rest -> o.out <- Some f; go rest
    | "--bench" :: f :: rest -> o.bench <- Some f; go rest
    | "--spawned-at" :: t :: rest -> o.spawned_at <- float_of_string t; go rest
    | "--claim" :: c :: rest ->
        (match String.index_opt c '@' with
        | Some i ->
            o.claims <-
              (String.sub c 0 i, Some (String.sub c (i + 1) (String.length c - i - 1))) :: o.claims
        | None -> o.claims <- (c, None) :: o.claims);
        go rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
        o.positional <- o.positional @ [ a ];
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  o

(* BENCHMARK.json must list exactly the workloads and metrics this
   program runs and prints. *)
let check_manifest file =
  let j = Json.parse (Json.read_file file) in
  let entries key =
    List.map
      (fun m -> (Json.str (Json.member "name" m), Json.str (Json.member "unit" m),
                 Json.str (Json.member "better" m)))
      (Json.list (Json.member key j))
  in
  let ours l =
    List.map
      (fun (n, u, b) -> (n, u, match b with Report.Lower -> "lower" | Report.Higher -> "higher"))
      l
  in
  let workloads =
    List.map (fun w -> Json.str (Json.member "name" w)) (Json.list (Json.member "workloads" j))
  in
  let ok =
    entries "end_to_end" = ours Report.end_to_end
    && entries "per_layer" = ours Report.per_layer
    && workloads = Workloads.names
  in
  if not ok then begin
    prerr_endline
      ("bench/e2e: " ^ file ^ " does not match the metrics and workloads this program reports");
    exit 2
  end

let trace_file o name =
  match o.trace with
  | "0" -> None
  | "1" when o.smoke -> None
  | "1" ->
      (try Unix.mkdir ".bench_e2e" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Some (Printf.sprintf ".bench_e2e/%s.trace.jsonl" name)
  | f -> Some f

(* The child: run one workload and report it. *)
let child o name =
  let traced = o.trace <> "0" in
  let ctx = { Workloads.seed = o.seed; seconds = o.seconds; smoke = o.smoke; trace = traced } in
  let r = Workloads.run name ctx in
  let exec_ns = if o.spawned_at > 0. then t_main -. o.spawned_at else 0. in
  let values =
    if traced then Report.per_layer_values r else Report.end_to_end_values ~exec_ns r
  in
  Printf.printf "# %s seed=%d seconds=%g%s\n" name o.seed o.seconds
    (if traced then " traced" else "");
  List.iter
    (fun (lane, (l : Clock.Blocked.t)) ->
      if l.s.dropped > 0 then
        Printf.eprintf "bench/e2e: %s: %d samples beyond the buffer were dropped\n" lane
          l.s.dropped)
    r.Workloads.main.lanes;
  Option.iter
    (fun (_, (tr : Spans.t)) ->
      if tr.dropped > 0 then
        Printf.eprintf "bench/e2e: %d spans beyond the buffer were dropped\n" tr.dropped)
    r.Workloads.traced;
  Report.print_lines values;
  List.iter
    (fun (n, v, u) -> Printf.printf "# %s %s %s\n" n (Report.number v) u)
    (Report.lane_notes ~exec_ns r);
  (match r.Workloads.traced with
  | Some (_, tr) ->
      Printf.printf "# spans by self time: count, total ms, self ms, GC ms inside\n";
      List.iter
        (fun (n, c, total, self, gc) ->
          Printf.printf "#   %-22s %8d %12.3f %12.3f %12.3f\n" n c (total /. 1e6) (self /. 1e6)
            (gc /. 1e6))
        (List.sort
           (fun (_, _, _, a, _) (_, _, _, b, _) -> Float.compare b a)
           (Spans.self_times tr));
      Option.iter (Spans.write tr) (trace_file o name)
  | None -> ());
  let line = Report.json_line r values in
  Option.iter
    (fun f ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
      (* The result line, tagged with its workload and seed, for [compare]. *)
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %b, %s\n" name o.seed traced
        (String.sub line 1 (String.length line - 1));
      close_out oc)
    o.out;
  print_endline line;
  exit (if r.Workloads.checks.Workloads.failed = 0 then 0 else 1)

(* The launcher: one child process per workload, waited for. *)
let spawn o name =
  let args =
    [ "--child"; name; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
      "--trace"; o.trace ]
    @ (match o.out with Some f -> [ "--out"; f ] | None -> [])
    @ (if o.smoke then [ "--smoke" ] else [])
  in
  flush_all ();
  let at = Clock.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args @ [ "--spawned-at"; Printf.sprintf "%.0f" at ]))
      Unix.stdin Unix.stdout Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 1

let () =
  let o = parse_args Sys.argv in
  match o.positional with
  | [ "compare"; parent; change ] ->
      exit
        (Gate.run ~bench:(Option.value o.bench ~default:"BENCHMARK.json") ~claims:o.claims parent
           change)
  | _ :: _ -> usage ()
  | [] -> (
      Option.iter check_manifest o.bench;
      match o.workload with
      | Some name when not (List.mem name Workloads.names) -> usage ()
      | Some name when o.child -> child o name
      | Some name -> exit (spawn o name)
      | None when o.smoke ->
          (* Every workload briefly, then one traced run, checking every
             answer; about five seconds in all. *)
          o.seconds <- 0.25;
          let untraced = List.map (spawn o) Workloads.names in
          o.trace <- "1";
          let traced = spawn o "serve-cold" in
          exit (List.fold_left max traced untraced)
      | None when o.all -> exit (List.fold_left max 0 (List.map (spawn o) Workloads.names))
      | None -> usage ())

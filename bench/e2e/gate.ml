(* [main.exe compare PARENT CHANGE]: the acceptance gate for a change
   that claims a gain (choosing-metrics guide, section 8).

   PARENT and CHANGE are files of result lines written with [--out], one
   line per run, from at least ten runs of each side alternating which
   side runs first; the i-th runs of a workload on the two sides form a
   pair. A claimed metric counts as improved only if the change wins at
   least nine tenths of the pairs (ties count for neither) and the
   medians differ by more than the parent's interquartile range. Every
   other end-to-end metric must not be worse than the parent's median by
   more than its bound in BENCHMARK.json; a metric whose run-to-run
   spread is wider than its bound is [unresolved] unless every change
   run beats every parent run. A gain does not count when more
   operations fail than at the parent. *)

type run = { workload : string; failed : float; metrics : (string * float) list }

let read_runs file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse line in
         let metrics =
           match Json.member "metrics" j with
           | Some (Json.Obj kv) -> List.map (fun (k, v) -> (k, Json.num (Json.member "value" v))) kv
           | _ -> []
         in
         {
           workload = Json.str (Json.member "workload" j);
           failed = Json.num (Json.member "failed" j);
           metrics;
         })

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 2, q 3)

type bound = { name : string; higher_better : bool; bound : float }

let bounds bench =
  let j = Json.parse (Json.read_file bench) in
  List.map
    (fun m ->
      {
        name = Json.str (Json.member "name" m);
        higher_better = Json.str (Json.member "better" m) = "higher";
        bound = Json.num (Json.member "bound" m);
      })
    (Json.list (Json.member "end_to_end" j))

let run ~bench ~claims parent_file change_file =
  let parent = read_runs parent_file and change = read_runs change_file in
  let metrics = bounds bench in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) parent)
    |> List.filter (fun w -> List.exists (fun r -> r.workload = w) change)
  in
  let bad = ref false in
  Printf.printf "%-13s %-16s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric"
    "parent" "[q1, q3]" "change" "[q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun w ->
      let ps = List.filter (fun r -> r.workload = w) parent in
      let cs = List.filter (fun r -> r.workload = w) change in
      let pairs = min (List.length ps) (List.length cs) in
      let first rs = List.filteri (fun i _ -> i < pairs) rs in
      let ps = first ps and cs = first cs in
      if pairs < 10 then begin
        Printf.printf "%-13s needs at least 10 pairs, has %d\n" w pairs;
        bad := true
      end
      else
        let failures rs = List.fold_left (fun a r -> a +. r.failed) 0. rs in
        let more_failures = failures cs > failures ps in
        List.iter
          (fun m ->
            let vals rs = List.map (fun r -> List.assoc m.name r.metrics) rs in
            let pv = vals ps and cv = vals cs in
            let better c p = if m.higher_better then c > p else c < p in
            let pq1, pm, pq3 = quartiles pv and cq1, cm, cq3 = quartiles cv in
            let wins = List.length (List.filter Fun.id (List.map2 better cv pv)) in
            let worse = (if m.higher_better then pm -. cm else cm -. pm) /. pm in
            let spread = Float.max ((pq3 -. pq1) /. pm) ((cq3 -. cq1) /. cm) in
            let every_better =
              List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv
            in
            let claimed =
              List.exists (fun (n, wl) -> n = m.name && (wl = None || wl = Some w)) claims
            in
            let verdict =
              if claimed then
                if more_failures then "claim not met (more failures)"
                else if
                  10 * wins >= 9 * pairs && better cm pm && Float.abs (cm -. pm) > pq3 -. pq1
                then "improved"
                else "claim not met"
              else if spread > m.bound && not every_better then "unresolved"
              else if worse > m.bound then "REGRESSION"
              else "ok"
            in
            if verdict = "REGRESSION" || String.starts_with ~prefix:"claim not met" verdict then
              bad := true;
            Printf.printf "%-13s %-16s %12.6g %25s %12.6g %25s %+7.2f%% %3d/%-2d  %s\n" w m.name pm
              (Printf.sprintf "[%.6g, %.6g]" pq1 pq3)
              cm
              (Printf.sprintf "[%.6g, %.6g]" cq1 cq3)
              (100. *. (cm -. pm) /. pm)
              wins pairs verdict)
          metrics)
    workloads;
  if !bad then 1 else 0

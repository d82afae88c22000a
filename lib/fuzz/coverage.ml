let n_kinds = 18

let kind_of_event : Obs.event -> int = function
  | Obs.Ev_raise _ -> 0
  | Obs.Ev_rethrow _ -> 1
  | Obs.Ev_catch _ -> 2
  | Obs.Ev_poison _ -> 3
  | Obs.Ev_pause _ -> 4
  | Obs.Ev_resume _ -> 5
  | Obs.Ev_mask_push -> 6
  | Obs.Ev_mask_pop -> 7
  | Obs.Ev_async _ -> 8
  | Obs.Ev_gc _ -> 9
  | Obs.Ev_acquire -> 10
  | Obs.Ev_release -> 11
  | Obs.Ev_oracle_pick _ -> 12
  | Obs.Ev_io _ -> 13
  | Obs.Ev_throwto _ -> 14
  | Obs.Ev_kill_delivered _ -> 15
  | Obs.Ev_blocked_recover _ -> 16
  | Obs.Ev_lint_fail _ -> 17

let kind_name = function
  | 0 -> "raise"
  | 1 -> "rethrow"
  | 2 -> "catch"
  | 3 -> "poison"
  | 4 -> "pause"
  | 5 -> "resume"
  | 6 -> "mask-push"
  | 7 -> "mask-pop"
  | 8 -> "async"
  | 9 -> "gc"
  | 10 -> "acquire"
  | 11 -> "release"
  | 12 -> "oracle-pick"
  | 13 -> "io"
  | 14 -> "throwto"
  | 15 -> "kill-delivered"
  | 16 -> "blocked-recover"
  | 17 -> "lint-fail"
  | _ -> "?"

type t = {
  counts : int array;  (** events recorded, per kind *)
  buckets : (string * int, unit) Hashtbl.t;
}

let create () = { counts = Array.make n_kinds 0; buckets = Hashtbl.create 64 }

let note_event t ev =
  let k = kind_of_event ev in
  t.counts.(k) <- t.counts.(k) + 1

let note_events t evs = List.iter (note_event t) evs

(* Power-of-two bucketing: 0, 1, 2, 4, 8, ... collapse runs that differ
   only by noise, while order-of-magnitude jumps count as new. *)
let bucket v =
  if v <= 0 then 0
  else
    let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
    go 0 v

let note_counter t name v =
  let key = (name, bucket v) in
  if not (Hashtbl.mem t.buckets key) then Hashtbl.add t.buckets key ()

let note_stats t (s : Machine.Stats.t) =
  note_counter t "steps" s.steps;
  note_counter t "allocations" s.allocations;
  note_counter t "updates" s.updates;
  note_counter t "max_stack" s.max_stack;
  note_counter t "frames_trimmed" s.frames_trimmed;
  note_counter t "thunks_poisoned" s.thunks_poisoned;
  note_counter t "thunks_paused" s.thunks_paused;
  note_counter t "catches" s.catches;
  note_counter t "collections" s.collections;
  note_counter t "async_delivered" s.async_delivered

let note_io_counters t (c : Semantics.Conc.counters) =
  note_counter t "io.async_delivered" c.async_delivered;
  note_counter t "io.brackets_entered" c.brackets_entered;
  note_counter t "io.timeouts_fired" c.timeouts_fired;
  note_counter t "io.masked_sections" c.masked_sections;
  note_counter t "io.retries" c.retries;
  note_counter t "io.throwtos_delivered" c.throwtos_delivered;
  note_counter t "io.blocked_recoveries" c.blocked_recoveries

let kinds_hit t =
  Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 t.counts

let buckets_seen t = Hashtbl.length t.buckets
let signature t = (kinds_hit t, buckets_seen t)

(* lint-fail is a failure kind: a healthy campaign must never record
   it, so it does not count against (or toward) expected coverage. *)
let expected_in_clean_run k = k <> 17
let n_expected = n_kinds - 1

let kind_coverage t =
  let hit =
    Array.to_list t.counts
    |> List.filteri (fun k _ -> expected_in_clean_run k)
    |> List.fold_left (fun n c -> if c > 0 then n + 1 else n) 0
  in
  float_of_int hit /. float_of_int n_expected

let missing_kinds t =
  List.filteri
    (fun k _ -> expected_in_clean_run k && t.counts.(k) = 0)
    (List.init n_kinds kind_name)

let kind_counts t = List.init n_kinds (fun k -> (kind_name k, t.counts.(k)))

let pp ppf t =
  Fmt.pf ppf "event kinds: %d/%d (%.0f%%); stats buckets: %d@." (kinds_hit t)
    n_kinds
    (100. *. kind_coverage t)
    (buckets_seen t);
  List.iter
    (fun (name, c) ->
      Fmt.pf ppf "  %-12s %s@." name
        (if c = 0 then "MISSING" else string_of_int c))
    (kind_counts t)

(* The four workloads. Each runs alone in its own process and thread:
   one load generator drives the library's public functions ([Serve]'s
   feed/tick/drain, and each IO layer's [run]) and checks every answer.

   - serve-hot: closed loop, one client, default engine. A seeded pool
     that is cache-resident after the warm-up pass, so execution,
     deep-forcing, rendering the reply and GC do the work.
   - serve-cold: closed loop, one client, [optimize = true], default
     cache capacity. Every request is a unique source, so every request
     misses the cache (and, once it is full, evicts): the front end does
     the work.
   - serve-faults: open loop, seeded Poisson arrivals of well-behaved
     requests over 16 sessions plus one of each killer per second. Many
     requests are in flight at once, so slicing, pause/resume, admission
     and the run queue do work.
   - io-run: a fixed program mix from source to outcome on the IO layers,
     which do no work in the serve workloads.

   Serve workloads alternate the slot and bytecode engines in one-second
   blocks so that machine noise hits both alike. *)

open Imprecise
open Clock

(* The load generator's hot path. Modules are compiled separately, so a
   call into another module would box these floats; these local copies
   are inlined and allocate nothing. *)
let[@inline] now_ns () = Int64.to_float (mono_ns ())

let[@inline] sample (s : Samples.t) v =
  if s.n < Float.Array.length s.data then begin
    Float.Array.unsafe_set s.data s.n v;
    s.n <- s.n + 1
  end
  else s.dropped <- s.dropped + 1

(* An operation that started at [start] and ended at [stop], in [block]. *)
let[@inline] sample_in (l : Blocked.t) ~block ~start ~stop =
  if l.s.n < Array.length l.blk then l.blk.(l.s.n) <- block;
  if start < Float.Array.unsafe_get l.first block then Float.Array.unsafe_set l.first block start;
  if stop > Float.Array.unsafe_get l.last block then Float.Array.unsafe_set l.last block stop;
  sample l.s (stop -. start)

type checks = { mutable attempted : int; mutable failed : int; mutable reported : int }

let passed c = c.attempted <- c.attempted + 1

let failed c what =
  c.attempted <- c.attempted + 1;
  c.failed <- c.failed + 1;
  if c.reported < 5 then begin
    c.reported <- c.reported + 1;
    prerr_endline ("bench/e2e: wrong answer: " ^ what)
  end

(* One measured phase. [lanes] hold the latency samples, in ns: one lane
   per serve engine, one for all io-run runs. *)
type phase = {
  ops : int;
  wall_ns : float;
  busy_ns : float;  (** Time inside the system's calls. *)
  words : float;  (** Minor words the operations allocated inside the system's calls. *)
  harness_words : float;  (** Minor words allocated outside the system's calls. *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  late : Samples.t;  (** How late the generator issued each operation, ns. *)
  heap_words : Samples.t;  (** Major-heap size, sampled every 50 ms. *)
  lanes : (string * Blocked.t) list;
  replay_ns : float;  (** Traced phases: time spent replaying phases. *)
}

(* A phase in progress. The float fields sit in their own all-float
   record, which OCaml stores unboxed, so updating them allocates
   nothing. *)
type sums = {
  mutable busy : float;
  mutable words : float;
  mutable system_words : float;  (** All minor words inside the system's calls. *)
  mutable replay : float;
  mutable prev : float;
  mutable next_heap : float;
  mutable base : float;  (** The open loop's schedule starts here. *)
}

type acc = {
  mutable ops : int;
  s : sums;
  a_late : Samples.t;
  a_heap : Samples.t;
  t0 : float;
  w_start : float;
  g_start : Gc.stat;
}

let acc capacity =
  (* Start from a collected heap, so that set-up's garbage does not drain
     out of the heap samples during the window. *)
  Gc.full_major ();
  let t0 = now_ns () in
  {
    ops = 0;
    s = { busy = 0.; words = 0.; system_words = 0.; replay = 0.; prev = t0; next_heap = t0; base = t0 };
    a_late = Samples.create capacity;
    a_heap = Samples.create 4096;
    t0;
    w_start = Gc.minor_words ();
    g_start = Gc.quick_stat ();
  }

(* Account one call into the system that started at [t] and allocated
   since [w0]. *)
let[@inline] inside a ~t ~w0 =
  let w = Gc.minor_words () -. w0 in
  a.s.words <- a.s.words +. w;
  a.s.system_words <- a.s.system_words +. w;
  a.s.busy <- a.s.busy +. (now_ns () -. t)

(* The major heap's size, every 50 ms of the phase: often enough to
   average over the collector's cycles. Inlined, because a call would box
   [now] on every turn of the open loop's idle spin. *)
let[@inline] heap_sample a now =
  if now >= a.s.next_heap then begin
    sample a.a_heap (float_of_int (Gc.quick_stat ()).Gc.heap_words);
    a.s.next_heap <- now +. 0.05e9
  end

let finish a ?(wall_ns = now_ns () -. a.t0) lanes =
  heap_sample a (now_ns ());
  let g = Gc.quick_stat () in
  {
    ops = a.ops;
    wall_ns;
    busy_ns = a.s.busy;
    words = a.s.words;
    harness_words = Gc.minor_words () -. a.w_start -. a.s.system_words;
    promoted_words = g.Gc.promoted_words -. a.g_start.Gc.promoted_words;
    minor_gcs = g.Gc.minor_collections - a.g_start.Gc.minor_collections;
    major_gcs = g.Gc.major_collections - a.g_start.Gc.major_collections;
    late = a.a_late;
    heap_words = a.a_heap;
    lanes;
    replay_ns = a.s.replay;
  }

(* A serve window is cut into equal blocks of about half a second, and
   the two engines take turns every two blocks, so that each gets the
   same share of the window. *)
let blocks_in seconds = 4 * max 1 (int_of_float (Float.round (seconds /. 2.)))

let[@inline] block_at ~seconds ~blocks offset_ns =
  let b = int_of_float (offset_ns /. (seconds *. ns_per_s) *. float_of_int blocks) in
  min (blocks - 1) (max 0 b)

let lane_of_block b = (b / 2) land 1

let serve_lanes ?paced engines ~capacity ~seconds =
  Array.map (fun _ -> Blocked.create ?paced capacity (blocks_in seconds)) engines

(* Speed bursts ({!Clock.Speed}) run when a block begins and every
   [burst_every] ns within it: about 2% of the window. *)
let burst_every = 0.15e9

type pacer = { mutable at_block : int; mutable next : float }

let pacer () = { at_block = -1; next = 0. }

let[@inline] burst_due p block now = block <> p.at_block || now >= p.next

(* Run a burst in [block] of [lane]; returns the time it took. *)
let burst p lane block =
  let d = Blocked.burst lane block in
  p.at_block <- block;
  p.next <- now_ns () +. burst_every;
  d

type run = {
  checks : checks;
  gen_ns : float;  (** Seeded input generation and reference answers. *)
  setup_ns : float;  (** Median of the set-up repetitions, at the reference speed. *)
  setup_slowdown : float;  (** The host's median slowdown during set-up. *)
  main : phase;  (** The untraced measurement. *)
  traced : (phase * Spans.t) option;
  notes : (string * float * string) list;  (** Extra lines for humans. *)
}

type ctx = { seed : int; seconds : float; smoke : bool; trace : bool }

let time f =
  let a = now_ns () in
  let r = f () in
  (r, now_ns () -. a)

(* Set up (fresh engines and a warm-up pass) at least five times and
   for at least a second, at most 25 times (once in a smoke run), and
   keep the last. Each repetition is scaled by a speed burst run right
   after it, as a window's bursts run right after operations; report the
   median scaled duration and the median slowdown. A cheap set-up
   (serve-cold's takes about 50 ms) thus gets enough repetitions for a
   steady median. *)
let repeat_setup ctx f =
  let reps, min_ns = if ctx.smoke then (1, 0.) else (5, ns_per_s) in
  let durs = Samples.create 25 and slow = Samples.create 25 in
  let last = ref None and spent = ref 0. in
  while Samples.count durs < reps || (!spent < min_ns && Samples.count durs < 25) do
    let r, d = time f in
    let s = Speed.burst () in
    Samples.add durs (d /. s);
    Samples.add slow s;
    spent := !spent +. d;
    last := Some r
  done;
  (Option.get !last, Samples.median durs, Samples.median slow)

(* A traced run measures a quarter untraced (for trace.overhead) and
   traces the rest. *)
let split ctx =
  if ctx.trace then (ctx.seconds /. 4., ctx.seconds *. 0.75) else (ctx.seconds, 0.)

(* A span buffer for a traced phase of [seconds]: serve-hot, the busiest,
   records about 70k spans a second. *)
let spans_for seconds = Spans.create (int_of_float (Float.max 1. seconds *. 100_000.))

(* ------------------------------------------------------------------ *)
(* Serve engines                                                       *)
(* ------------------------------------------------------------------ *)

let tick_times = Float.Array.make 512 0.

type engine = {
  backend : Serve.backend;
  label : string;
  serve : Serve.t;
  sessions : Serve.session array;
}

let engine ?(optimize = false) ?(sessions = 1) backend =
  let serve =
    Serve.create ~config:{ Serve.default_config with Serve.backend; optimize } ()
  in
  {
    backend;
    label = (match backend with Serve.Slot -> "slot" | Serve.Bytecode -> "bytecode");
    serve;
    sessions = Array.init sessions (fun _ -> Serve.session serve);
  }

let submit (s : Serve.session) ?(pre = "") (r : Inputs.request) =
  Serve.feed s r.eval_line;
  if String.length pre > 0 then Serve.feed s pre;
  for i = 0 to Array.length r.lines - 1 do
    Serve.feed s r.lines.(i)
  done;
  Serve.feed s "."

(* Tick until the run queue is empty; each tick is one quantum. With
   [~timed:true] each tick's bounds are kept in [tick_times], to become
   [serve.run] spans once the caller's own timed window has closed. *)
let ticks ?(timed = false) e =
  let n = ref 0 and more = ref true in
  while !more do
    let a = now_ns () in
    more := Serve.tick e.serve;
    if timed && (2 * !n) + 1 < Float.Array.length tick_times then begin
      Float.Array.set tick_times (2 * !n) a;
      Float.Array.set tick_times ((2 * !n) + 1) (now_ns ())
    end;
    incr n
  done;
  !n

let record_ticks tr ~rid ~parent n =
  for i = 0 to min n (Float.Array.length tick_times / 2) - 1 do
    Spans.record tr ~rid ~parent ~on_path:false "serve.run"
      (Float.Array.get tick_times (2 * i))
      (Float.Array.get tick_times ((2 * i) + 1))
  done

let check_reply checks (r : Inputs.request) = function
  | [ line ] when Inputs.reply_ok r line -> passed checks
  | lines -> failed checks (r.id ^ ": " ^ String.concat " / " lines)

(* A warm-up request: submit, tick to completion, drain, check. *)
let warm checks e ?pre r =
  let s = e.sessions.(0) in
  submit s ?pre r;
  ignore (ticks e);
  check_reply checks r (Serve.drain s)

(* Copies of the engines' live counters. *)
let snapshot engines =
  List.map
    (fun e ->
      let c = Serve.counters e.serve in
      { c with Serve.requests = c.requests })
    engines

(* Serve's own counters over a traced phase. *)
let add_serve_counters tr before engines =
  List.iter2
    (fun (b : Serve.counters) e ->
      let c = Serve.counters e.serve in
      let d f = float_of_int (f c - f b) in
      Spans.add tr "serve.cache_hits" (d (fun c -> c.Serve.cache_hits));
      Spans.add tr "serve.cache_misses" (d (fun c -> c.Serve.cache_misses));
      Spans.add tr "serve.cache_evictions" (d (fun c -> c.Serve.cache_evictions));
      Spans.add tr "serve.sheds" (d (fun c -> c.Serve.sheds));
      Spans.add tr "serve.evictions" (d (fun c -> c.Serve.evictions));
      Spans.add tr "serve.timeouts" (d (fun c -> c.Serve.timeouts));
      Spans.add tr "serve.quota_kills"
        (d (fun c -> c.Serve.quota_heap + c.Serve.quota_stack + c.Serve.quota_fuel)))
    before engines

(* The IO layers on a pure serve source, once per pool entry: the same
   computation as an [impexn run] program whose main returns it. *)
let replay_io_layers tr ~rid ~seen (r : Inputs.request) =
  if not (Hashtbl.mem seen r.id) then begin
    Hashtbl.add seen r.id ();
    let text = "main = Return (" ^ r.src ^ ");" in
    List.iter
      (fun l -> ignore (Spans.run_program tr ~rid ~root:"request" ~on_path:false l text))
      Inputs.io_layers;
    Spans.time_resolve tr text
  end

(* ------------------------------------------------------------------ *)
(* serve-hot and serve-cold: closed loop                               *)
(* ------------------------------------------------------------------ *)

let closed_phase checks engines ~seconds ~optimize ~pick ~prefix ?tr () =
  (* Room for 60k (hot) or 8k (cold) requests a second, well above what
     either engine serves on the machines this was built on. *)
  let rate = if optimize then 8_000. else 60_000. in
  let cap = int_of_float (Float.max 1. seconds *. rate) in
  let lanes = serve_lanes engines ~capacity:(cap / 2) ~seconds in
  let blocks = blocks_in seconds in
  let a = acc cap in
  let compiled = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let before = snapshot (Array.to_list engines) in
  let t_end = a.t0 +. (seconds *. ns_per_s) in
  let p = pacer () in
  while now_ns () < t_end do
    let now = now_ns () in
    let block = block_at ~seconds ~blocks (now -. a.t0) in
    let lane = lane_of_block block in
    if burst_due p block now then begin
      ignore (burst p lanes.(lane) block);
      a.s.prev <- now_ns ()
    end;
    let e = engines.(lane) in
    let (r : Inputs.request) = pick () and pre = prefix () in
    let s = e.sessions.(0) in
    let misses = (Serve.counters e.serve).Serve.cache_misses in
    let w0 = Gc.minor_words () in
    let t_sub = now_ns () in
    submit s ~pre r;
    let t_run = now_ns () in
    let n_ticks = ticks ~timed:(tr <> None) e in
    let replies = Serve.drain s in
    let t_reply = now_ns () in
    inside a ~t:t_sub ~w0;
    sample a.a_late (t_sub -. a.s.prev);
    sample_in lanes.(lane) ~block ~start:t_sub ~stop:t_reply;
    check_reply checks r replies;
    (match tr with
    | Some tr ->
        Spans.record tr ~rid:a.ops "request" t_sub t_reply;
        Spans.record tr ~rid:a.ops ~parent:"request" ~on_path:false "serve.submit" t_sub t_run;
        record_ticks tr ~rid:a.ops ~parent:"request" n_ticks;
        (* A unique source is replayed under a fresh unique prefix: the
           optimiser's linter memoises renderings across calls, so the
           identical text would hit entries the request just filled. *)
        let src = if String.length pre > 0 then prefix () ^ "\n" ^ r.src else r.src in
        let path =
          {
            Spans.front = (Serve.counters e.serve).Serve.cache_misses > misses;
            optimize;
            backend = Some e.backend;
          }
        in
        Spans.replay_request tr ~rid:a.ops ~root:"request" ~path ~compiled ~id:r.id
          ~parse:Parser.parse_expr src;
        replay_io_layers tr ~rid:a.ops ~seen r;
        a.s.replay <- a.s.replay +. (now_ns () -. t_reply)
    | None -> ());
    a.ops <- a.ops + 1;
    heap_sample a t_reply;
    a.s.prev <- now_ns ()
  done;
  (match tr with Some tr -> add_serve_counters tr before (Array.to_list engines) | None -> ());
  finish a (Array.to_list (Array.mapi (fun i e -> (e.label, lanes.(i))) engines))

let serve_closed ~cold ctx =
  let checks = { attempted = 0; failed = 0; reported = 0 } in
  let draws = if ctx.smoke then 4 else 64 in
  let pool, gen_ns = time (fun () -> Inputs.serve_pool ~seed:ctx.seed ~draws) in
  let rng = Random.State.make [| ctx.seed; 3 |] in
  (* serve-cold makes every source unique with a dead binding in front. *)
  let unique = ref 0 in
  let prefix () =
    incr unique;
    Printf.sprintf "let bench_k = %d in" !unique
  in
  let setup () =
    let engines =
      [| engine ~optimize:cold Serve.Slot; engine ~optimize:cold Serve.Bytecode |]
    in
    Array.iter
      (fun e ->
        Array.iter
          (fun r -> warm checks e ?pre:(if cold then Some (prefix ()) else None) r)
          pool)
      engines;
    engines
  in
  let engines, setup_ns, setup_slowdown = repeat_setup ctx setup in
  let pick () = pool.(Random.State.int rng (Array.length pool)) in
  let prefix = if cold then prefix else fun () -> "" in
  let untraced, traced = split ctx in
  let main = closed_phase checks engines ~seconds:untraced ~optimize:cold ~pick ~prefix () in
  let traced =
    if ctx.trace then
      let tr = spans_for traced in
      Some (closed_phase checks engines ~seconds:traced ~optimize:cold ~pick ~prefix ~tr (), tr)
    else None
  in
  { checks; gen_ns; setup_ns; setup_slowdown; main; traced; notes = [] }

(* ------------------------------------------------------------------ *)
(* serve-faults: open loop                                             *)
(* ------------------------------------------------------------------ *)

let sessions_per_engine = 16
let arrival_rate = 2000.

type arrival = {
  due : float;  (** Offset from the start of the window, ns. *)
  req : Inputs.request;
  block : int;
  session : int;
  killer : bool;
}

(* Seeded Poisson arrivals of well-behaved requests drawn from the pool,
   plus the five killers in turn, evenly spaced at a seeded phase: each
   once per second (or once in a window shorter than a second). Evenly
   spaced killers overlap the same way on every seed. Request ids are
   arrival indices, so a reply names its arrival. *)
let schedule ~seed ~seconds pool =
  let rng = Random.State.make [| seed; 4 |] in
  let horizon = seconds *. ns_per_s in
  let arrivals = ref [] in
  let t = ref (-.log (1. -. Random.State.float rng 1.) /. arrival_rate *. ns_per_s) in
  while !t < horizon do
    let r = pool.(Random.State.int rng (Array.length pool)) in
    arrivals := (!t, `Pool r, Random.State.int rng sessions_per_engine) :: !arrivals;
    t := !t -. (log (1. -. Random.State.float rng 1.) /. arrival_rate *. ns_per_s)
  done;
  let phase = Random.State.float rng 1. in
  let nk = Array.length Inputs.killers in
  for s = 0 to int_of_float (Float.ceil seconds) - 1 do
    let span = Float.min 1. (seconds -. float_of_int s) in
    Array.iteri
      (fun i k ->
        let offset = (phase +. float_of_int i) /. float_of_int nk in
        let due = (float_of_int s +. (offset *. span)) *. ns_per_s in
        arrivals := (due, `Killer k, Random.State.int rng sessions_per_engine) :: !arrivals)
      Inputs.killers
  done;
  let sorted = List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !arrivals in
  Array.of_list
    (List.mapi
       (fun i (due, what, session) ->
         let id = string_of_int i in
         let block = block_at ~seconds ~blocks:(blocks_in seconds) due in
         match what with
         | `Pool (r : Inputs.request) ->
             { due; block; session; killer = false; req = Inputs.request ~id r.src r.expect }
         | `Killer (opts, src, kind) ->
             {
               due;
               block;
               session;
               killer = true;
               req = Inputs.request ~id ~opts src (Inputs.Kind kind);
             })
       sorted)

let open_phase checks engines arrivals ~seconds ?tr () =
  let n = Array.length arrivals in
  let lanes = serve_lanes ~paced:true engines ~capacity:(n + 1) ~seconds in
  let blocks = blocks_in seconds in
  let answered = Bytes.make n '\000' in
  let before = snapshot (Array.to_list engines) in
  let a = acc (n + 1) in
  (* Due times count from [a.s.base]. A speed burst moves it on by the
     burst's length, pausing the schedule, so that no request's latency
     includes a burst. *)
  let p = pacer () in
  let grace = (seconds +. 5.) *. ns_per_s in
  let next = ref 0 and outstanding = ref 0 and inflight_max = ref 0 in
  let killer_replies = ref 0 in
  let handle now line =
    let k = Inputs.reply_id line in
    if k < 0 || k >= n || Bytes.get answered k <> '\000' then
      failed checks ("stray reply: " ^ line)
    else begin
      Bytes.set answered k '\001';
      decr outstanding;
      let arr = arrivals.(k) in
      if Inputs.reply_ok arr.req line then passed checks
      else failed checks (arr.req.Inputs.src ^ " -> " ^ line);
      if arr.killer then incr killer_replies
      else begin
        a.ops <- a.ops + 1;
        sample_in lanes.(lane_of_block arr.block) ~block:arr.block ~start:(a.s.base +. arr.due)
          ~stop:now
      end
    end
  in
  let drain_all e =
    let now = now_ns () in
    for s = 0 to Array.length e.sessions - 1 do
      match Serve.drain e.sessions.(s) with
      | [] -> ()
      | replies -> List.iter (handle now) replies
    done
  in
  while (!next < n || !outstanding > 0) && now_ns () -. a.s.base < grace do
    let now = now_ns () in
    heap_sample a now;
    let block = block_at ~seconds ~blocks (now -. a.s.base) in
    if burst_due p block now then
      a.s.base <- a.s.base +. burst p lanes.(lane_of_block block) block;
    let now = now_ns () in
    (* One due request per round: after a stall the backlog enters the
       engine at the pace the loop runs, and its wait shows as latency
       (timed from the due time) rather than as a burst that the
       admission bound would shed. *)
    if !next < n && a.s.base +. arrivals.(!next).due <= now then begin
      let arr = arrivals.(!next) in
      let e = engines.(lane_of_block arr.block) in
      let w0 = Gc.minor_words () in
      let t = now_ns () in
      submit e.sessions.(arr.session) arr.req;
      inside a ~t ~w0;
      sample a.a_late (t -. (a.s.base +. arr.due));
      (match tr with
      | Some tr -> Spans.record tr ~rid:!next "serve.submit" t (now_ns ())
      | None -> ());
      incr outstanding;
      incr next;
      drain_all e
    end;
    (* No allocation on this idle path: it spins between arrivals. *)
    for i = 0 to Array.length engines - 1 do
      let e = engines.(i) in
      let q = Serve.inflight e.serve in
      if q > 0 then begin
        if q > !inflight_max then inflight_max := q;
        let w0 = Gc.minor_words () in
        let t = now_ns () in
        ignore (Serve.tick e.serve);
        let w1 = Gc.minor_words () in
        a.s.busy <- a.s.busy +. (now_ns () -. t);
        a.s.system_words <- a.s.system_words +. (w1 -. w0);
        (match tr with Some tr -> Spans.record tr ~rid:(-1) "serve.run" t (now_ns ()) | None -> ());
        let ops = a.ops and killers = !killer_replies in
        drain_all e;
        (* Allocation counts against the well-behaved requests a quantum
           answered: how much a killer allocates depends on how fast the
           machine runs until its wall-clock timeout. *)
        if a.ops > ops && !killer_replies = killers then a.s.words <- a.s.words +. (w1 -. w0)
      end
    done
  done;
  for k = 0 to n - 1 do
    if Bytes.get answered k = '\000' then
      failed checks ("no reply to " ^ arrivals.(k).req.Inputs.src)
  done;
  (match tr with
  | Some tr ->
      add_serve_counters tr before (Array.to_list engines);
      Spans.add tr "serve.inflight_max" (float_of_int !inflight_max)
  | None -> ());
  finish a ~wall_ns:(seconds *. ns_per_s)
    (Array.to_list (Array.mapi (fun i e -> (e.label, lanes.(i))) engines))

let serve_faults ctx =
  let checks = { attempted = 0; failed = 0; reported = 0 } in
  let draws = if ctx.smoke then 4 else 64 in
  let untraced, traced = split ctx in
  let (pool, sched_u, sched_t), gen_ns =
    time (fun () ->
        let pool = Inputs.serve_pool ~seed:ctx.seed ~draws in
        ( pool,
          schedule ~seed:ctx.seed ~seconds:untraced pool,
          schedule ~seed:(ctx.seed + 1) ~seconds:traced pool ))
  in
  let setup () =
    let engines =
      [|
        engine ~sessions:sessions_per_engine Serve.Slot;
        engine ~sessions:sessions_per_engine Serve.Bytecode;
      |]
    in
    Array.iter (fun e -> Array.iter (fun r -> warm checks e r) pool) engines;
    engines
  in
  let engines, setup_ns, setup_slowdown = repeat_setup ctx setup in
  let main = open_phase checks engines sched_u ~seconds:untraced () in
  let traced =
    if ctx.trace then begin
      let tr = spans_for traced in
      let p = open_phase checks engines sched_t ~seconds:traced ~tr () in
      (* The open loop cannot stop to replay a request without stalling
         the arrivals behind it, so each pool entry is replayed once
         afterwards (none of it on a request's path). *)
      let compiled = Hashtbl.create 64 and seen = Hashtbl.create 64 in
      Array.iteri
        (fun i (r : Inputs.request) ->
          let rid = -(i + 2) in
          Spans.replay_request tr ~rid ~root:"request"
            ~path:{ Spans.front = false; optimize = false; backend = None }
            ~compiled ~id:r.id ~parse:Parser.parse_expr r.src;
          replay_io_layers tr ~rid ~seen r)
        pool;
      Some (p, tr)
    end
    else None
  in
  { checks; gen_ns; setup_ns; setup_slowdown; main; traced; notes = [] }

(* ------------------------------------------------------------------ *)
(* io-run                                                              *)
(* ------------------------------------------------------------------ *)

let check_outcome checks (p : Inputs.program) layer out =
  match List.assoc_opt layer p.outcome with
  | None -> p.outcome <- (layer, out) :: p.outcome
  | Some expected when String.equal expected out -> passed checks
  | Some expected ->
      failed checks
        (Printf.sprintf "%s on %s: %s, expected %s" p.name (Inputs.layer_name layer) out
           expected)

(* Rounds over the layers, running every program of each layer's mix
   once per round, from source to outcome. All runs form one latency
   sample, blocked by round; each (program, layer) pair also keeps its
   own. *)
let max_rounds = 4096

let io_phase checks progs ~seconds ?tr () =
  let cap = int_of_float (Float.max 1. seconds *. 2_000.) in
  let all = Blocked.create cap max_rounds in
  let round = ref 0 in
  let runs =
    List.concat_map
      (fun (p : Inputs.program) ->
        List.map (fun l -> ((p.name, l), Samples.create (cap / 16))) p.layers)
      progs
  in
  let a = acc cap in
  let t_end = a.t0 +. (seconds *. ns_per_s) in
  let replay_engine = lazy (engine Serve.Slot) in
  let pc = pacer () in
  let run_one layer (p : Inputs.program) =
    if burst_due pc !round (now_ns ()) then begin
      ignore (burst pc all !round);
      a.s.prev <- now_ns ()
    end;
    let rid = a.ops in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    sample a.a_late (t0 -. a.s.prev);
    let out =
      match tr with
      | None -> fst (Inputs.outcome_string layer (Inputs.load p.text))
      | Some tr -> Spans.run_program tr ~rid ~root:"run" ~on_path:true layer p.text
    in
    let t1 = now_ns () in
    inside a ~t:t0 ~w0;
    a.ops <- a.ops + 1;
    check_outcome checks p layer out;
    sample_in all ~block:!round ~start:t0 ~stop:t1;
    Samples.add (List.assoc (p.name, layer) runs) (t1 -. t0);
    (match tr with
    | Some tr ->
        Spans.record tr ~rid "run" t0 t1;
        if layer = Inputs.Machine_io then Spans.time_resolve tr p.text;
        (* Off this run's path: the rest of the front end and both
           machines on the same program, and the serve boundary. *)
        Spans.replay_request tr ~rid ~root:"run"
          ~path:{ Spans.front = false; optimize = false; backend = None }
          ~compiled:(Hashtbl.create 1) ~id:"io"
          ~parse:(fun s -> Parser.expr_of_program (Parser.parse_program s))
          p.text;
        let e = Lazy.force replay_engine in
        let s0 = now_ns () in
        submit e.sessions.(0) (Inputs.request ~id:"io" p.text (Inputs.Value []));
        Spans.record tr ~rid ~parent:"run" ~on_path:false "serve.submit" s0 (now_ns ());
        record_ticks tr ~rid ~parent:"run" (ticks ~timed:true e);
        ignore (Serve.drain e.sessions.(0));
        a.s.replay <- a.s.replay +. (now_ns () -. t1)
    | None -> ());
    heap_sample a t1;
    a.s.prev <- now_ns ()
  in
  while now_ns () < t_end && !round < max_rounds do
    List.iter
      (fun layer ->
        List.iter
          (fun (p : Inputs.program) -> if List.mem layer p.layers then run_one layer p)
          progs)
      Inputs.io_layers;
    incr round
  done;
  (finish a [ ("run", all) ], runs)

let io_run ctx =
  let checks = { attempted = 0; failed = 0; reported = 0 } in
  let n_io, n_conc = if ctx.smoke then (1, 1) else (8, 4) in
  let progs, gen_ns =
    time (fun () ->
        let io, conc = Inputs.io_draws ~seed:ctx.seed ~n_io ~n_conc in
        (* Generated draws have no hand-written answer: the layers must
           agree under the fuzz differ, and each layer must then repeat
           its own outcome on every later run. *)
        let differ check draws =
          List.map
            (fun (src, (p : Inputs.program)) ->
              (match check Differ.default_vconfig ~seed:ctx.seed (Parser.parse_expr src) with
              | { Differ.violations = []; _ } -> passed checks
              | { Differ.violations = v :: _; _ } ->
                  failed checks (p.name ^ ": " ^ Fmt.str "%a" Differ.pp_violation v));
              p)
            draws
        in
        Inputs.hand_written ()
        @ differ (fun v ~seed e -> Differ.check_io v ~seed e) io
        @ differ (fun v ~seed e -> Differ.check_conc v ~seed e) conc)
  in
  let setup () =
    List.iter
      (fun layer ->
        List.iter
          (fun (p : Inputs.program) ->
            if List.mem layer p.layers then
              check_outcome checks p layer
                (fst (Inputs.outcome_string layer (Inputs.load p.text))))
          progs)
      Inputs.io_layers
  in
  let (), setup_ns, setup_slowdown = repeat_setup ctx setup in
  let untraced, traced = split ctx in
  let main, runs = io_phase checks progs ~seconds:untraced () in
  let traced =
    if ctx.trace then
      let tr = spans_for traced in
      Some (fst (io_phase checks progs ~seconds:traced ~tr ()), tr)
    else None
  in
  (* What [impexn run] pays per layer: the geometric mean, over the
     programs the layer runs, of each program's median run time. *)
  let notes =
    List.map
      (fun l ->
        let medians =
          List.filter_map
            (fun ((_, l'), s) ->
              if l' = l && Samples.count s > 0 then Some (Samples.median s /. 1e6) else None)
            runs
        in
        ("run_ms." ^ Inputs.layer_name l, geomean medians, "ms"))
      Inputs.io_layers
  in
  { checks; gen_ns; setup_ns; setup_slowdown; main; traced; notes }

let names = [ "serve-hot"; "serve-cold"; "serve-faults"; "io-run" ]

let run name ctx =
  match name with
  | "serve-hot" -> serve_closed ~cold:false ctx
  | "serve-cold" -> serve_closed ~cold:true ctx
  | "serve-faults" -> serve_faults ctx
  | "io-run" -> io_run ctx
  | w -> invalid_arg ("unknown workload " ^ w)

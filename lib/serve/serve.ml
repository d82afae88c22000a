(* Evaluation-as-a-service: the quota-enforcing, degrade-gracefully
   engine behind [impexn serve].

   The engine is deliberately driver-agnostic: it knows nothing about
   sockets or file descriptors. A driver creates one {!session} per
   client, [feed]s it complete protocol lines, [drain]s the replies, and
   calls [tick] whenever it has spare time. Everything observable —
   admission, shedding, eviction, timeouts, crashes — happens inside the
   engine, so the whole daemon is testable in-process with an injected
   clock and no IO at all.

   Robustness design, in one paragraph: every request runs on its own
   {!Machine.Runtime.t} (fresh heap, fresh counters, fresh provenance —
   the re-entrancy audit made that a machine invariant), under its own fuel,
   heap and stack quotas, so a quota breach is an ordinary imprecise
   exception inside that machine and nothing else. Wall-clock timeouts
   reuse the paper's Section 5.1 machinery verbatim: the engine injects
   an asynchronous interrupt every [slice] steps, which unwinds the
   request into resumable pause cells; at each such boundary the engine
   checks the deadline and either answers [timeout] or re-arms the next
   slice and requeues. Because pause cells persist, a paused request is
   also the unit of load shedding: when the sum of paused heaps exceeds
   the memory budget, the oldest paused request is evicted with a
   structured reply instead of letting the daemon's memory collapse.
   Anything unexpected — a machine invariant violation, a native stack
   overflow — hits the crash barrier, which writes a flight-recorder
   dump and answers [crash] to that client only. The daemon never
   dies. *)

module M = Machine.Stg
module B = Machine.Bytecode
module Runtime = Machine.Runtime
module Stats = Machine.Stats
module R = Lang.Resolve
module Exn = Lang.Exn
module SV = Semantics.Sem_value

type backend = Slot | Bytecode

type config = {
  backend : backend;
      (** Which machine evaluates requests. [Slot] is the tree-walking
          slot machine; [Bytecode] is the flat compiled backend — same
          machine contract (latches, pause cells, provenance), measured
          multi-x faster. The compiled-program cache stores whichever
          representation the backend needs. *)
  fuel : int;  (** Default per-request machine-step quota. *)
  heap : int;  (** Default per-request heap quota, in cells. *)
  stack : int;  (** Default per-request stack quota, in frames. *)
  timeout_ms : int;
      (** Default per-request wall-clock deadline; [0] disables. *)
  depth : int;  (** Deep-forcing print depth for [ok] replies. *)
  slice : int;
      (** Steps of progress between interrupt injections. A scheduling
          quantum is the resume (one step to re-enter the root and one
          per cell the last interrupt paused) plus [slice] steps, so a
          request makes progress at any slice. Smaller is fairer and
          checks deadlines more often; larger amortises the
          pause/resume cost. The resume's re-entries cost the
          request no fuel: each requeue gives them back, so a sliced
          request runs out of fuel exactly where a one-shot run
          does. *)
  max_inflight : int;
      (** Admission control: requests beyond this answer [overloaded]. *)
  mem_budget : int;
      (** Load shedding: when the paused requests' heaps sum past this
          many cells, evict oldest-paused until back under (a lone
          over-budget request is kept — its own heap quota bounds it). *)
  cache_capacity : int;  (** Compiled-program cache entries (LRU). *)
  optimize : bool;
      (** Run the linted imprecise optimisation pipeline
          ({!Transform.Pipeline.optimize}) on each program between
          parsing and resolution. The optimisation mode is part of the
          compiled-program cache key, so optimised and unoptimised
          submissions of the same source never share an entry; a lint
          rejection answers [err ... lint] with a crash dump, leaving
          the daemon up. *)
  dump_dir : string option;
      (** Where the crash barrier writes flight-recorder dumps. *)
  trace : bool;  (** Run request machines with the recorder enabled. *)
  now : unit -> int64;
      (** Clock, in nanoseconds. Injectable so tests drive timeouts
          deterministically. *)
}

(* Deadlines are durations, so they read the monotonic clock: a step of
   the wall clock must neither fire nor postpone them. *)
let default_now = Monotonic_clock.now

let default_config =
  {
    backend = Slot;
    fuel = 500_000;
    heap = 100_000;
    stack = 10_000;
    timeout_ms = 2_000;
    depth = 64;
    slice = 4_096;
    max_inflight = 64;
    mem_budget = 2_000_000;
    cache_capacity = 256;
    optimize = false;
    dump_dir = None;
    trace = false;
    now = default_now;
  }

type counters = {
  mutable requests : int;
  mutable ok : int;
  mutable failed : int;  (** [err ... exn] replies (ordinary raises). *)
  mutable quota_heap : int;
  mutable quota_stack : int;
  mutable quota_fuel : int;
  mutable timeouts : int;
  mutable sheds : int;  (** [overloaded] replies (admission control). *)
  mutable evictions : int;  (** Oldest-paused evictions (memory). *)
  mutable parse_errors : int;
  mutable lint_rejects : int;
      (** Programs the optimiser's post-pass linter refused to ship. *)
  mutable proto_errors : int;
  mutable crashes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

let new_counters () =
  {
    requests = 0;
    ok = 0;
    failed = 0;
    quota_heap = 0;
    quota_stack = 0;
    quota_fuel = 0;
    timeouts = 0;
    sheds = 0;
    evictions = 0;
    parse_errors = 0;
    lint_rejects = 0;
    proto_errors = 0;
    crashes = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
  }

type cache_entry = {
  rx : R.rexpr;
  mutable bc : B.program option;
      (* Bytecode is compiled lazily, on the first submission that runs
         under the [Bytecode] backend, and then shared: the program
         (with its warm inline caches) serves any number of request
         machines, exactly like the slot IR does. *)
  mutable last_used : int;
}

type t = {
  cfg : config;
  cache : (string, cache_entry) Hashtbl.t;
  mutable cache_clock : int;
  mutable segment : B.segment option;
      (* The Prelude compiled to bytecode once, at the first bytecode
         miss whose root holds the resolved Prelude, with the image of
         its heap cells; see [prelude_segment]. *)
  mutable image : M.image option;
      (* The Prelude's heap cells for the slot machine, built once, at
         the first slot request whose root holds the resolved Prelude;
         see [prelude_image]. *)
  c : counters;
  agg : Stats.t;
      (* Machine counters accumulated over every finished request —
         including timed-out, evicted and crashed ones, whose machines
         are gone by the time anyone asks. *)
  mutable inflight : request list;  (* run queue, front = next to run *)
  mutable next_seq : int;
}

(* A request on either backend's machine. Both are one {!Runtime.t}, so
   everything downstream of [force_catch] — quota classification,
   timeout handling, stats aggregation — is one code path; the backend
   is picked once, at [submit], as the loop's [force_catch] and [deep]. *)
and request = Req : ('b, 'l, 'f, 'p) req -> request

and ('b, 'l, 'f, 'p) req = {
  rid : string;
  rsession : session;
  m : ('b, 'l, 'f, 'p) Runtime.t;
  root : Runtime.addr;
  force_catch : ('b, 'l, 'f, 'p) Runtime.whnf;
  deep : ?depth:int -> ('b, 'l, 'f, 'p) Runtime.t -> Runtime.addr -> SV.deep;
  deadline : int64;
  seq : int;  (* admission order: the eviction victim is the min seq *)
  rdepth : int;
  mutable paused : int;  (* [Stats.thunks_paused] at the last arming *)
}

and session = {
  engine : t;
  mutable out : string list;  (* reverse order *)
  mutable mode : mode;
  mutable closed : bool;
}

and mode = Idle | Collect of collect

and collect = {
  cid : string;
  copts : opts;
  mutable body : string list;  (* reverse order *)
}

and opts = {
  o_fuel : int;
  o_heap : int;
  o_stack : int;
  o_timeout_ms : int;
  o_depth : int;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    cache = Hashtbl.create 64;
    cache_clock = 0;
    segment = None;
    image = None;
    c = new_counters ();
    agg = Stats.create ();
    inflight = [];
    next_seq = 0;
  }

let counters t = t.c
let machine_totals t = t.agg
let inflight t = List.length t.inflight
let cache_size t = Hashtbl.length t.cache
let holds_prelude_segment t = Option.is_some t.segment
let config t = t.cfg

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* Replies are strictly one line each; a deep value or an error detail
   that somehow contains a newline is flattened rather than letting one
   reply masquerade as two. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | ch -> ch) s

let emit (s : session) line = s.out <- one_line line :: s.out

let drain (s : session) =
  let r = List.rev s.out in
  s.out <- [];
  r

let closed (s : session) = s.closed

let reply_ok s id d = emit s (Fmt.str "ok %s %a" id SV.pp_deep d)

let reply_err s id kind detail =
  if detail = "" then emit s (Fmt.str "err %s %s" id kind)
  else emit s (Fmt.str "err %s %s %s" id kind detail)

(* ------------------------------------------------------------------ *)
(* Compiled-program cache                                              *)
(* ------------------------------------------------------------------ *)

(* Keyed by the MD5 of the raw source text; the value is the resolved
   slot IR. Resolution is deterministic and the IR is immutable, so a
   cached program is shared by any number of request machines — this is
   exactly the compile-once/run-many contract of
   {!M.alloc_resolved}. Resolution always uses
   {!R.global_context}: a shared cache requires a shared constructor
   vocabulary. That context also holds the resolved Prelude, so an
   unoptimised miss resolves only the program's body, and every entry's
   Prelude letrec shares one spec array; an entry's own IR is its body.
   The engine builds that group's heap cells once, as an image, and
   every request whose root holds the shared array starts its machine's
   heap as a copy of the image's slots, its root at the body
   ([prelude_image], and the segment's image on bytecode). Under
   [optimize] the pipeline prunes the Prelude group, so the term is no
   longer the shared list: it resolves in full, and its requests build
   their cells as before. A bytecode entry of an unoptimised program
   compiles only its body, against the engine's Prelude segment
   ([bytecode_of]). *)

let cache_touch t e =
  t.cache_clock <- t.cache_clock + 1;
  e.last_used <- t.cache_clock

let cache_insert t key rx =
  if Hashtbl.length t.cache >= t.cfg.cache_capacity then begin
    (* Evict the least-recently-used entry. *)
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, e') when e'.last_used <= e.last_used -> acc
          | _ -> Some (k, e))
        t.cache None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.cache k;
        t.c.cache_evictions <- t.c.cache_evictions + 1
    | None -> ()
  end;
  let e = { rx; bc = None; last_used = 0 } in
  cache_touch t e;
  Hashtbl.replace t.cache key e;
  e

(* Parse as a bare expression first; if that fails, as a whole program
   (declarations defining [main]); either way close under the Prelude.
   The first error wins when both parses fail — the expression form is
   the common case and its message points at the right column. *)
let parse_source src =
  try Lang.Prelude.wrap (Lang.Parser.parse_expr src)
  with Lang.Parser.Error _ as first -> (
    try Lang.Prelude.wrap_program (Lang.Parser.parse_program src)
    with Lang.Parser.Error _ -> raise first)

(* [Error (kind, msg, dump)]: [kind] is the reply's error category
   ("parse" or "lint"); a lint rejection carries the flight-recorder
   crash dump for the barrier to write out. *)
let compile t src : (cache_entry, string * string * string option) result =
  (* The optimisation mode is part of the key: an optimised and an
     unoptimised submission of the same source must never share a
     compiled entry. *)
  let key =
    Digest.string ((if t.cfg.optimize then "O1:" else "O0:") ^ src)
  in
  match Hashtbl.find_opt t.cache key with
  | Some e ->
      t.c.cache_hits <- t.c.cache_hits + 1;
      cache_touch t e;
      Ok e
  | None -> (
      t.c.cache_misses <- t.c.cache_misses + 1;
      match parse_source src with
      | exception Lang.Parser.Error (msg, line, col) ->
          t.c.parse_errors <- t.c.parse_errors + 1;
          Error ("parse", Printf.sprintf "%d:%d: %s" line col msg, None)
      | e -> (
          if not t.cfg.optimize then Ok (cache_insert t key (R.expr e))
          else
            let tr = Obs.create ~capacity:256 ~on:true () in
            match
              Transform.Pipeline.optimize ~trace:tr
                Transform.Pipeline.Imprecise e
            with
            | eo, _report -> Ok (cache_insert t key (R.expr eo))
            | exception
                Transform.Lint.Lint_error { pass; violations; dump } ->
                t.c.lint_rejects <- t.c.lint_rejects + 1;
                Error
                  ( "lint",
                    Fmt.str "pass %s: %a" pass
                      Fmt.(list ~sep:(any "; ") Transform.Lint.pp_violation)
                      violations,
                    Some dump )))

(* The global context's resolved Prelude, when the root binds it. An
   optimised root holds a pruned group, so an engine that only sees
   optimised programs builds neither of the two artefacts below. *)
let held_by (rx : R.rexpr) =
  match (rx, R.held_prelude R.global_context) with
  | R.RLetrec (specs, _), Some held when specs == held -> Some held
  | _ -> None

(* The engine's Prelude segment (bytecode) and image (slot machine):
   each built at the first root of its backend that holds the Prelude,
   then kept for the engine's life. *)
let prelude_segment t rx =
  if Option.is_none t.segment then
    t.segment <- Option.map B.segment (held_by rx);
  t.segment

let prelude_image t rx =
  if Option.is_none t.image then t.image <- Option.map M.image (held_by rx);
  t.image

(* Under the [Bytecode] backend the cache's unit of reuse is the
   compiled program, not the slot IR: compile on first use, then share
   (the program's inline caches stay warm across requests). A wrapped
   program's miss emits only its body after the Prelude segment, and
   gets its own copy of the segment's case sites. *)
let bytecode_of t (entry : cache_entry) =
  match entry.bc with
  | Some p -> p
  | None ->
      let p = B.compile ?segment:(prelude_segment t entry.rx) entry.rx in
      entry.bc <- Some p;
      p

(* ------------------------------------------------------------------ *)
(* The crash barrier                                                   *)
(* ------------------------------------------------------------------ *)

let dump_counter = ref 0

let write_dump t ~rid (text : string) : string option =
  match t.cfg.dump_dir with
  | None -> None
  | Some dir ->
      incr dump_counter;
      let safe_id =
        String.map
          (fun ch ->
            match ch with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ch
            | _ -> '_')
          rid
      in
      let file =
        Filename.concat dir
          (Printf.sprintf "crash-%d-%s.dump" !dump_counter safe_id)
      in
      (try
         (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         let oc = open_out file in
         output_string oc text;
         output_string oc "\n";
         close_out oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      Some file

(* The per-request failure that must never take the daemon down: write
   the flight-recorder dump (the invariant exception already carries
   one; anything else gets a fresh dump of the request's recorder) and
   answer [crash] to this client only. *)
let crash t req (what : string) (dump : string) =
  t.c.crashes <- t.c.crashes + 1;
  Stats.add t.agg (Runtime.stats req.m);
  let where = write_dump t ~rid:req.rid dump in
  let detail =
    match where with
    | Some file -> Printf.sprintf "%s dump=%s" what file
    | None -> what
  in
  reply_err req.rsession req.rid "crash" detail

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let finish t req = Stats.add t.agg (Runtime.stats req.m)

(* The next interrupt fires [slice] steps after the resume: re-entering
   the root and then each cell the last unwind paused, one step a cell.
   Counting the chain is what lets a request whose chain has grown to
   [slice] cells make progress; a quantum that did not cover it would
   spend itself re-entering the chain and leave it as long again.
   Returns the resume's re-entries, [chain + 1]. *)
let arm_slice t req =
  let st = Runtime.stats req.m in
  let chain = st.Stats.thunks_paused - req.paused in
  req.paused <- st.Stats.thunks_paused;
  Runtime.inject_async req.m
    ~at_step:(st.Stats.steps + chain + 1 + t.cfg.slice)
    Exn.Timeout;
  chain + 1

(* Oldest-paused eviction: the paused requests are the only elastic
   memory the daemon holds, so when their heaps sum past the budget the
   ones that have been waiting longest are shed with a structured
   reply. A single over-budget request is never self-evicted — its own
   heap quota already bounds it. *)
let shed_memory t =
  let heap (Req r) = Runtime.heap_size r.m and seq (Req r) = r.seq in
  let total () = List.fold_left (fun acc r -> acc + heap r) 0 t.inflight in
  let rec go () =
    if List.length t.inflight > 1 && total () > t.cfg.mem_budget then begin
      let victim =
        List.fold_left
          (fun acc r ->
            match acc with Some v when seq v <= seq r -> acc | _ -> Some r)
          None t.inflight
      in
      match victim with
      | None -> ()
      | Some (Req v as q) ->
          t.inflight <- List.filter (fun r -> seq r <> v.seq) t.inflight;
          t.c.evictions <- t.c.evictions + 1;
          finish t v;
          reply_err v.rsession v.rid "evicted"
            (Printf.sprintf "memory-pressure heap=%d" (heap q));
          go ()
    end
  in
  go ()

(* One scheduling quantum for one request: resume it (re-entering its
   pause cells), and classify how the slice ended. *)
let run_slice t req =
  match req.force_catch req.m req.root with
  | Ok _ ->
      (* WHNF reached. Withdraw the unfired slice interrupt, then
         deep-force for the reply; quota breaches inside the structure
         surface as [DBad] fields, exactly as one-shot [run_deep] would
         report them. *)
      Runtime.clear_async req.m;
      let d = req.deep ~depth:req.rdepth req.m req.root in
      finish t req;
      t.c.ok <- t.c.ok + 1;
      reply_ok req.rsession req.rid d
  | Error (Runtime.Fail_async _) ->
      (* Our slice interrupt — the only source of asynchronous events in
         a pure serve evaluation. The request is now a bundle of pause
         cells; decide whether its wall clock has run out. *)
      if t.cfg.now () >= req.deadline then begin
        finish t req;
        t.c.timeouts <- t.c.timeouts + 1;
        reply_err req.rsession req.rid "timeout"
          (Printf.sprintf "steps=%d" (Runtime.stats req.m).Stats.steps)
      end
      else begin
        (* A one-shot run never re-enters: give the resume's re-entries
           back to the fuel quota, leaving [Stats.steps] as it is. *)
        let reentries = arm_slice t req in
        req.m.Runtime.fuel_left <- req.m.Runtime.fuel_left + reentries;
        t.inflight <- t.inflight @ [ Req req ];
        shed_memory t
      end
  | Error Runtime.Fail_diverged ->
      finish t req;
      t.c.quota_fuel <- t.c.quota_fuel + 1;
      reply_err req.rsession req.rid "quota:fuel" "diverged-or-exhausted"
  | Error (Runtime.Fail_exn e) -> (
      finish t req;
      let st = Runtime.stats req.m in
      (* The latch counters distinguish a limit-triggered overflow from
         a program that merely raised the same constant. *)
      match e with
      | Exn.Heap_overflow when st.Stats.heap_overflows > 0 ->
          t.c.quota_heap <- t.c.quota_heap + 1;
          reply_err req.rsession req.rid "quota:heap"
            (Printf.sprintf "cells=%d" (Runtime.heap_size req.m))
      | Exn.Stack_overflow_exn when st.Stats.stack_overflows > 0 ->
          t.c.quota_stack <- t.c.quota_stack + 1;
          reply_err req.rsession req.rid "quota:stack"
            (Printf.sprintf "max_stack=%d" st.Stats.max_stack)
      | _ ->
          t.c.failed <- t.c.failed + 1;
          (* Typed classification rides with every exceptional reply:
             the coarse hierarchy class first, then the printed value. *)
          reply_err req.rsession req.rid "exn"
            (Fmt.str "class=%s %a" (Exn.class_name e) Exn.pp e))

let tick t =
  (match t.inflight with
  | [] -> ()
  | Req req :: rest -> (
      t.inflight <- rest;
      try run_slice t req with
      | Obs.Machine_invariant dump -> crash t req "machine-invariant" dump
      | Stack_overflow ->
          crash t req "native-stack-overflow"
            (Obs.dump ~note:"native stack overflow in serve slice"
               (Runtime.trace req.m))
      | e ->
          crash t req
            ("unexpected:" ^ one_line (Printexc.to_string e))
            (Obs.dump
               ~note:("unexpected exception: " ^ Printexc.to_string e)
               (Runtime.trace req.m))));
  t.inflight <> []

let rec run_all t = if tick t then run_all t else ()

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let submit t (s : session) (id : string) (o : opts) (src : string) =
  t.c.requests <- t.c.requests + 1;
  if List.length t.inflight >= t.cfg.max_inflight then begin
    (* Shed at the door: a bounded run queue and an honest [overloaded]
       beat an unbounded queue that collapses later. *)
    t.c.sheds <- t.c.sheds + 1;
    reply_err s id "overloaded"
      (Printf.sprintf "inflight=%d" (List.length t.inflight))
  end
  else
    match compile t src with
    | Error (kind, msg, dump) ->
        let msg =
          match dump with
          | None -> msg
          | Some text -> (
              match write_dump t ~rid:id text with
              | Some file -> Printf.sprintf "%s dump=%s" msg file
              | None -> msg)
        in
        reply_err s id kind msg
    | Ok entry ->
        let config =
          {
            Runtime.default_config with
            fuel = o.o_fuel;
            heap_limit = Some o.o_heap;
            stack_limit = Some o.o_stack;
          }
        in
        let trace = Obs.create ~on:t.cfg.trace () in
        let admit m root force_catch deep =
          let deadline =
            if o.o_timeout_ms <= 0 then Int64.max_int
            else
              Int64.add (t.cfg.now ())
                (Int64.mul (Int64.of_int o.o_timeout_ms) 1_000_000L)
          in
          let req =
            {
              rid = id;
              rsession = s;
              m;
              root;
              force_catch;
              deep;
              deadline;
              seq = t.next_seq;
              rdepth = o.o_depth;
              paused = 0;
            }
          in
          t.next_seq <- t.next_seq + 1;
          ignore (arm_slice t req : int);
          t.inflight <- t.inflight @ [ Req req ]
        in
        (* A root that holds the Prelude starts from the engine's
           image of its cells: the machine's heap is a copy of the
           image's slots, and its root is the program's body. *)
        match t.cfg.backend with
        | Slot ->
            let m, root =
              M.start ~config ~trace ?image:(prelude_image t entry.rx)
                entry.rx
            in
            admit m root M.force_catch M.deep
        | Bytecode ->
            let m, root = B.start ~config ~trace (bytecode_of t entry) in
            admit m root B.force_catch B.deep

(* ------------------------------------------------------------------ *)
(* The line protocol                                                   *)
(* ------------------------------------------------------------------ *)

let default_opts cfg =
  {
    o_fuel = cfg.fuel;
    o_heap = cfg.heap;
    o_stack = cfg.stack;
    o_timeout_ms = cfg.timeout_ms;
    o_depth = cfg.depth;
  }

let parse_opts cfg tokens : (opts, string) result =
  let pos_int k v =
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad value for %s: %s" k v)
  in
  List.fold_left
    (fun acc tok ->
      match acc with
      | Error _ -> acc
      | Ok o -> (
          match String.index_opt tok '=' with
          | None -> Error ("bad option (want key=value): " ^ tok)
          | Some i -> (
              let k = String.sub tok 0 i in
              let v = String.sub tok (i + 1) (String.length tok - i - 1) in
              match k with
              | "fuel" ->
                  Result.map (fun n -> { o with o_fuel = n }) (pos_int k v)
              | "heap" ->
                  Result.map (fun n -> { o with o_heap = n }) (pos_int k v)
              | "stack" ->
                  Result.map (fun n -> { o with o_stack = n }) (pos_int k v)
              | "timeout" -> (
                  match int_of_string_opt v with
                  | Some n when n >= 0 -> Ok { o with o_timeout_ms = n }
                  | _ -> Error ("bad value for timeout: " ^ v))
              | "depth" ->
                  Result.map (fun n -> { o with o_depth = n }) (pos_int k v)
              | _ -> Error ("unknown option: " ^ k))))
    (Ok (default_opts cfg)) tokens

let stats_json t =
  let c = t.c in
  Fmt.str
    "{\"requests\":%d,\"ok\":%d,\"exn\":%d,\"quota_heap\":%d,\"quota_stack\":%d,\"quota_fuel\":%d,\"timeouts\":%d,\"sheds\":%d,\"evictions\":%d,\"parse_errors\":%d,\"lint_rejects\":%d,\"proto_errors\":%d,\"crashes\":%d,\"inflight\":%d,\"cache\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d},\"machine\":%a}"
    c.requests c.ok c.failed c.quota_heap c.quota_stack c.quota_fuel
    c.timeouts c.sheds c.evictions c.parse_errors c.lint_rejects
    c.proto_errors c.crashes (List.length t.inflight) c.cache_hits
    c.cache_misses c.cache_evictions (Hashtbl.length t.cache) Stats.pp_json
    t.agg

let session t = { engine = t; out = []; mode = Idle; closed = false }

let feed (s : session) (line : string) =
  if s.closed then ()
  else
    let t = s.engine in
    match s.mode with
    | Collect c ->
        if String.trim line = "." then begin
          s.mode <- Idle;
          submit t s c.cid c.copts (String.concat "\n" (List.rev c.body))
        end
        else c.body <- line :: c.body
    | Idle -> (
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> ()
        | [ "ping" ] -> emit s "pong"
        | [ "stats" ] -> emit s (stats_json t)
        | [ "quit" ] ->
            s.closed <- true;
            emit s "bye"
        | "eval" :: id :: opt_tokens -> (
            match parse_opts t.cfg opt_tokens with
            | Ok o -> s.mode <- Collect { cid = id; copts = o; body = [] }
            | Error msg ->
                t.c.proto_errors <- t.c.proto_errors + 1;
                reply_err s id "proto" msg)
        | [ "eval" ] ->
            t.c.proto_errors <- t.c.proto_errors + 1;
            reply_err s "-" "proto" "eval needs a request id"
        | verb :: _ ->
            t.c.proto_errors <- t.c.proto_errors + 1;
            reply_err s "-" "proto" ("unknown verb: " ^ verb))

(* The traced run's span record.

   Spans are timed from the benchmark's own files, around calls into each
   layer's public function; nothing inside the library is instrumented.
   They live in a preallocated buffer and are written out as JSON lines
   when the run ends. A span belongs to one operation (its [rid]) and
   names its parent; phase spans replayed after an operation are children
   of that operation's root span, flagged [on_path] when the operation
   itself went through that phase.

   Each span also carries the garbage-collector time inside it, read from
   the runtime's own event ring (OCaml's runtime_events), so a pause that
   lands in an operation can be told apart from the phases' own work. *)

open Imprecise
open Clock

(* ------------------------------------------------------------------ *)
(* GC time                                                             *)
(* ------------------------------------------------------------------ *)

module Gc_time = struct
  (* The most recent [cap] intervals in which the runtime was inside any
     GC phase (outermost begin to matching end). *)
  let cap = 1 lsl 16
  let starts = Float.Array.make cap 0.
  let ends = Float.Array.make cap 0.
  let n = ref 0
  let depth = ref 0
  let opened = ref 0.
  let ts t = Int64.to_float (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun _ t _ ->
           if !depth = 0 then opened := ts t;
           incr depth)
         ~runtime_end:(fun _ t _ ->
           if !depth > 0 then begin
             decr depth;
             if !depth = 0 then begin
               Float.Array.set starts (!n land (cap - 1)) !opened;
               Float.Array.set ends (!n land (cap - 1)) (ts t);
               incr n
             end
           end)
         ())

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let start () = ignore (Lazy.force cursor)

  (* GC time inside the window [a, b], which has closed. The runtime's
     timestamps and [now_ns] read the same monotonic clock. *)
  let within a b =
    ignore (Runtime_events.read_poll (Lazy.force cursor) (Lazy.force callbacks) None);
    let total = ref 0. and i = ref (!n - 1) in
    while !i >= max 0 (!n - cap) && Float.Array.get ends (!i land (cap - 1)) > a do
      let s = Float.Array.get starts (!i land (cap - 1)) in
      let e = Float.Array.get ends (!i land (cap - 1)) in
      total := !total +. Float.max 0. (Float.min e b -. Float.max s a);
      decr i
    done;
    !total
end

(* ------------------------------------------------------------------ *)
(* The span buffer                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  rid : int array;
  name : int array;
  parent : int array;  (** Name index of the parent span, -1 for a root. *)
  on_path : Bytes.t;
  start : Float.Array.t;
  dur : Float.Array.t;
  gc : Float.Array.t;  (** GC time inside the span. *)
  mutable n : int;
  mutable dropped : int;
  sums : (string, float ref) Hashtbl.t;
      (** Per-layer counters: steps, dispatches, words, ... *)
}

let create capacity =
  Gc_time.start ();
  {
    names = Hashtbl.create 64;
    name_of = [||];
    rid = Array.make capacity 0;
    name = Array.make capacity 0;
    parent = Array.make capacity (-1);
    on_path = Bytes.make capacity '\000';
    start = Float.Array.make capacity 0.;
    dur = Float.Array.make capacity 0.;
    gc = Float.Array.make capacity 0.;
    n = 0;
    dropped = 0;
    sums = Hashtbl.create 64;
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      t.name_of <- Array.append t.name_of [| s |];
      Hashtbl.add t.names s i;
      i

(* Record a span that has closed; call it outside any timed window. *)
let record t ~rid ?(parent = "") ?(on_path = true) name start stop =
  if t.n < Array.length t.rid then begin
    let i = t.n in
    t.rid.(i) <- rid;
    t.name.(i) <- intern t name;
    t.parent.(i) <- (if parent = "" then -1 else intern t parent);
    Bytes.set t.on_path i (if on_path then '\001' else '\000');
    Float.Array.set t.start i start;
    Float.Array.set t.dur i (stop -. start);
    Float.Array.set t.gc i (Gc_time.within start stop);
    t.n <- i + 1
  end
  else t.dropped <- t.dropped + 1

let timed t ~rid ~parent ~on_path name f =
  let a = now_ns () in
  let r = f () in
  record t ~rid ~parent ~on_path name a (now_ns ());
  r

let add t key v =
  match Hashtbl.find_opt t.sums key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add t.sums key (ref v)

let sum t key = match Hashtbl.find_opt t.sums key with Some r -> !r | None -> 0.

let fold_named t name f init =
  match Hashtbl.find_opt t.names name with
  | None -> init
  | Some k ->
      let acc = ref init in
      for i = 0 to t.n - 1 do
        if t.name.(i) = k then acc := f !acc i
      done;
      !acc

(* Durations (ns) of every span with this name. *)
let durations t name =
  let s = Samples.create (max 1 t.n) in
  fold_named t name (fun () i -> Samples.add s (Float.Array.get t.dur i)) ();
  s

(* GC time (ns) inside each span with this name. *)
let gc_times t name =
  let s = Samples.create (max 1 t.n) in
  fold_named t name (fun () i -> Samples.add s (Float.Array.get t.gc i)) ();
  s

(* The share of the operations' end-to-end time that no phase accounts
   for. The phases are the root's on-path children, each counted without
   the GC time inside it, plus the GC time inside the root itself: a
   replayed phase does not meet the same collections the operation did. *)
let unattributed t ~root =
  match Hashtbl.find_opt t.names root with
  | None -> 0.
  | Some r ->
      let total = ref 0. and phases = ref 0. in
      for i = 0 to t.n - 1 do
        let d = Float.Array.get t.dur i and g = Float.Array.get t.gc i in
        if t.name.(i) = r then begin
          total := !total +. d;
          phases := !phases +. g
        end
        else if t.parent.(i) = r && Bytes.get t.on_path i = '\001' then
          phases := !phases +. (d -. g)
      done;
      if !total > 0. then 1. -. (!phases /. !total) else 0.

(* Per span name: count, total time, self time (total minus on-path
   children) and GC time inside. *)
let self_times t =
  let k = Array.length t.name_of in
  let total = Array.make k 0. and child = Array.make k 0. and gc = Array.make k 0. in
  let count = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let d = Float.Array.get t.dur i in
    total.(t.name.(i)) <- total.(t.name.(i)) +. d;
    gc.(t.name.(i)) <- gc.(t.name.(i)) +. Float.Array.get t.gc i;
    count.(t.name.(i)) <- count.(t.name.(i)) + 1;
    if t.parent.(i) >= 0 && Bytes.get t.on_path i = '\001' then
      child.(t.parent.(i)) <- child.(t.parent.(i)) +. d
  done;
  List.init k (fun i -> (t.name_of.(i), count.(i), total.(i), total.(i) -. child.(i), gc.(i)))

let write t file =
  let oc = open_out file in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"rid\":%d,\"span\":%S,\"parent\":%s,\"on_path\":%b,\"start_ns\":%.0f,\
       \"dur_ns\":%.0f,\"gc_ns\":%.0f}\n"
      t.rid.(i) t.name_of.(t.name.(i))
      (if t.parent.(i) < 0 then "null"
       else Printf.sprintf "%S" t.name_of.(t.parent.(i)))
      (Bytes.get t.on_path i = '\001')
      (Float.Array.get t.start i) (Float.Array.get t.dur i) (Float.Array.get t.gc i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Replays: one source through every layer                             *)
(* ------------------------------------------------------------------ *)

(* Serve's per-request machine configuration at its default quotas. *)
let request_config =
  let d = Serve.default_config in
  {
    Machine.default_config with
    Machine.fuel = d.Serve.fuel;
    heap_limit = Some d.Serve.heap;
    stack_limit = Some d.Serve.stack;
  }

type on_path = {
  front : bool;  (** The source missed the compiled-program cache. *)
  optimize : bool;
  backend : Serve.backend option;  (** The engine that ran it, if any. *)
}

(* The front end on one source: parse, Prelude wrap, the linted
   optimiser, resolve, bytecode compile. *)
let front_end t ~rid ~root ~(path : on_path) ~parse src =
  let span ~on name f = timed t ~rid ~parent:root ~on_path:on name f in
  let front = path.front in
  let e = span ~on:front "parser" (fun () -> parse src) in
  let w = span ~on:front "prelude" (fun () -> Prelude.wrap e) in
  let wo, report =
    span ~on:(front && path.optimize) "pipeline" (fun () ->
        (* Serve hands the optimiser a live recorder for its crash dumps. *)
        Pipeline.optimize ~trace:(Obs.create ~capacity:256 ~on:true ()) Pipeline.Imprecise w)
  in
  add t "pipeline.rounds" (float_of_int report.Pipeline.rounds);
  add t "pipeline.lint_ns" (report.Pipeline.lint_time *. ns_per_s);
  add t "pipeline.n" 1.;
  let w0 = Gc.minor_words () in
  let rx =
    span ~on:front "resolve" (fun () -> Resolve.expr (if path.optimize then wo else w))
  in
  add t "resolve.minor_words" (Gc.minor_words () -. w0);
  add t "resolve.n" 1.;
  let prog =
    span ~on:(front && path.backend = Some Serve.Bytecode) "bytecode.compile" (fun () ->
        Bytecode.compile rx)
  in
  add t "bytecode.code_words" (float_of_int (Bytecode.code_words prog));
  add t "bytecode.compile.n" 1.;
  (rx, prog)

(* The phases of one serve request, replayed after it: the cache key,
   the front end, execution and deep-forcing on both machines, and
   rendering of the reply. A cache hit whose source was replayed before
   reuses that replay's compiled program (warm inline caches, as in the
   engine) and skips the front end, which is not on its path; replaying
   it on every hit would also evict the caches the next request runs
   in. *)
let replay_request t ~rid ~root ~(path : on_path) ~compiled ~id ~parse src =
  let span ~on name f = timed t ~rid ~parent:root ~on_path:on name f in
  ignore
    (span ~on:(path.backend <> None) "serve.digest" (fun () ->
         Digest.string ((if path.optimize then "O1:" else "O0:") ^ src)));
  let rx, prog =
    match Hashtbl.find_opt compiled src with
    | Some c when not path.front -> c
    | _ ->
        let c = front_end t ~rid ~root ~path ~parse src in
        Hashtbl.replace compiled src c;
        c
  in
  let depth = Serve.default_config.Serve.depth in
  let slot = path.backend = Some Serve.Slot in
  let bc = path.backend = Some Serve.Bytecode in
  let m, root_s, r_slot =
    span ~on:slot "stg.exec" (fun () ->
        let m = Machine.create ~config:request_config () in
        let a = Machine.alloc_resolved m rx in
        (m, a, Machine.force_catch m a))
  in
  add t "stg.steps" (float_of_int (Machine.stats m).Stats.steps);
  add t "stg.n" 1.;
  let b, root_b, r_bc =
    span ~on:bc "bytecode.exec" (fun () ->
        let b = Bytecode.create ~config:request_config prog in
        let a = Bytecode.entry b in
        (b, a, Bytecode.force_catch b a))
  in
  let st = Bytecode.stats b in
  add t "bytecode.dispatches" (float_of_int st.Stats.bc_dispatches);
  add t "bytecode.ic_hits" (float_of_int st.Stats.ic_hits);
  add t "bytecode.ic_misses" (float_of_int st.Stats.ic_misses);
  add t "bytecode.n" 1.;
  let d_slot =
    match r_slot with
    | Ok _ -> Some (span ~on:slot "stg.deep" (fun () -> Machine.deep ~depth m root_s))
    | Error _ -> None
  in
  let d_bc =
    match r_bc with
    | Ok _ -> Some (span ~on:bc "bytecode.deep" (fun () -> Bytecode.deep ~depth b root_b))
    | Error _ -> None
  in
  let reply =
    let forced =
      if bc then Result.map ignore r_bc else Result.map ignore r_slot
    in
    match ((if bc then d_bc else d_slot), forced) with
    | Some d, _ -> fun () -> Fmt.str "ok %s %a" id Value.pp_deep d
    | None, Error (Machine.Fail_exn x) ->
        fun () -> Fmt.str "err %s exn class=%s %a" id (Exn.class_name x) Exn.pp x
    | None, _ -> fun () -> "err " ^ id
  in
  ignore (span ~on:(path.backend <> None) "sem_value.render" reply)

(* One program on one IO layer, from source text to outcome: the path
   of [impexn run] (with [--machine] on the machine layers). *)
let run_program t ~rid ~root ~on_path layer text =
  let name = Inputs.layer_name layer in
  let span n f = timed t ~rid ~parent:root ~on_path n f in
  let p = span "parser" (fun () -> Parser.parse_program text) in
  let e = span "prelude" (fun () -> Prelude.wrap_program p) in
  let out, work = span (name ^ ".run") (fun () -> Inputs.outcome_string layer e) in
  add t (name ^ ".work") (float_of_int work);
  add t (name ^ ".n") 1.;
  out

(* The machine layers resolve the whole Prelude-wrapped program on every
   run; time that part on its own, outside any operation's window. *)
let time_resolve t text =
  let e = Inputs.load text in
  let a = now_ns () in
  ignore (Resolve.expr e);
  add t "machine_io.resolve_ns" (now_ns () -. a)

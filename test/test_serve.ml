open Imprecise
open Helpers

(* The serve engine: the line protocol, per-request quota enforcement,
   wall-clock timeouts over pause cells, admission control, memory-
   pressure eviction, the compiled-program cache, and — the acceptance
   bar — one engine surviving hundreds of mixed hostile requests with
   zero restarts while well-behaved requests keep answering exactly
   what one-shot evaluation answers. *)

let flat s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* Submit one request: the eval header, the program lines, the dot. *)
let submit sess id opts src =
  Serve.feed sess
    (if opts = "" then Printf.sprintf "eval %s" id
     else Printf.sprintf "eval %s %s" id opts);
  List.iter (Serve.feed sess) (String.split_on_char '\n' src);
  Serve.feed sess "."

(* Submit, run to completion, expect exactly one reply. *)
let eval_one engine sess id opts src =
  submit sess id opts src;
  Serve.run_all engine;
  match Serve.drain sess with
  | [ r ] -> r
  | rs -> Alcotest.failf "%s: expected one reply, got %d" id (List.length rs)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_prefix what prefix reply =
  Alcotest.(check bool)
    (Printf.sprintf "%s: got %S want prefix %S" what reply prefix)
    true (starts_with prefix reply)

(* One-shot reference evaluation, formatted exactly like a serve
   reply: the differential oracle for well-behaved requests. *)
let reference id e =
  let m = Machine.create () in
  let a = Machine.alloc m e in
  match Machine.force_catch m a with
  | Ok _ ->
      Printf.sprintf "ok %s %s" id
        (flat (Fmt.str "%a" Value.pp_deep (Machine.deep m a)))
  | Error (Machine.Fail_exn x) | Error (Machine.Fail_async x) ->
      Printf.sprintf "err %s exn class=%s %s" id (Exn.class_name x)
        (flat (Fmt.str "%a" Exn.pp x))
  | Error Machine.Fail_diverged ->
      (* Matches the serve reply's detail for fuel exhaustion. *)
      Printf.sprintf "err %s quota:fuel diverged-or-exhausted" id

(* The canonical killers (each breaches exactly one defence). *)
let heapbomb = ("heap=2000", "length (replicate 100000 1)")
let stackbomb = ("stack=500 fuel=5000000 heap=2000000", "sum (enumFromTo 1 20000)")
let fuelburn = ("fuel=20000", "sum (enumFromTo 1 200000)")
let blackhole = ("", "let rec black = black + 1 in black")

let spinner =
  ("fuel=1000000000 timeout=200", "let rec go n = if n > 0 then go n else 0 in go 1")

let suite =
  [
    tc "protocol: ping, stats, quit, proto errors" (fun () ->
        let engine = Serve.create () in
        let sess = Serve.session engine in
        Serve.feed sess "ping";
        Alcotest.(check (list string)) "pong" [ "pong" ] (Serve.drain sess);
        Serve.feed sess "stats";
        (match Serve.drain sess with
        | [ s ] -> check_prefix "stats is JSON" "{\"requests\":" s
        | rs -> Alcotest.failf "stats: %d replies" (List.length rs));
        Serve.feed sess "frobnicate";
        (match Serve.drain sess with
        | [ r ] -> check_prefix "unknown verb" "err - proto" r
        | rs -> Alcotest.failf "verb: %d replies" (List.length rs));
        Serve.feed sess "eval";
        (match Serve.drain sess with
        | [ r ] -> check_prefix "eval without id" "err - proto" r
        | rs -> Alcotest.failf "eval: %d replies" (List.length rs));
        Alcotest.(check int)
          "proto errors counted" 2 (Serve.counters engine).Serve.proto_errors;
        Serve.feed sess "quit";
        Alcotest.(check (list string)) "bye" [ "bye" ] (Serve.drain sess);
        Alcotest.(check bool) "closed" true (Serve.closed sess);
        (* A closed session ignores further input. *)
        Serve.feed sess "ping";
        Alcotest.(check (list string)) "silent" [] (Serve.drain sess));
    tc "parse errors answer [parse], daemon continues" (fun () ->
        let engine = Serve.create () in
        let sess = Serve.session engine in
        check_prefix "parse" "err p1 parse"
          (eval_one engine sess "p1" "" "let let let");
        Alcotest.(check string) "next request fine" "ok p2 7"
          (eval_one engine sess "p2" "" "3 + 4"));
    tc "differential: dictionary replies match one-shot evaluation"
      (fun () ->
        let engine = Serve.create () in
        let sess = Serve.session engine in
        let pure = Corpus.pure (Corpus.dictionary ()) in
        Alcotest.(check bool) "dictionary non-trivial" true
          (List.length pure > 10);
        List.iter
          (fun round ->
            List.iteri
              (fun i e ->
                let id = Printf.sprintf "%s%d" round i in
                let want = reference id (Prelude.wrap e.Corpus.expr) in
                let got =
                  eval_one engine sess id ""
                    (Pretty.expr_to_string e.Corpus.expr)
                in
                Alcotest.(check string) id want got)
              pure)
          [ "a"; "b" ];
        let c = Serve.counters engine in
        Alcotest.(check bool) "second round hit the cache" true
          (c.Serve.cache_hits >= List.length pure);
        Alcotest.(check int) "no crashes" 0 c.Serve.crashes);
    tc "quota kills: heap, stack, fuel, black hole" (fun () ->
        let engine = Serve.create () in
        let sess = Serve.session engine in
        let kill id (opts, src) kind =
          check_prefix id ("err " ^ id ^ " " ^ kind)
            (eval_one engine sess id opts src)
        in
        kill "h" heapbomb "quota:heap";
        kill "s" stackbomb "quota:stack";
        kill "f" fuelburn "quota:fuel";
        kill "b" blackhole "quota:fuel";
        let c = Serve.counters engine in
        Alcotest.(check int) "heap" 1 c.Serve.quota_heap;
        Alcotest.(check int) "stack" 1 c.Serve.quota_stack;
        Alcotest.(check int) "fuel" 2 c.Serve.quota_fuel;
        Alcotest.(check int) "no crashes" 0 c.Serve.crashes;
        (* The daemon still answers afterwards. *)
        Alcotest.(check string) "alive" "ok z 5050"
          (eval_one engine sess "z" "" "sum (enumFromTo 1 100)"));
    tc "timeout: injected clock, pause-cell suspension" (fun () ->
        (* A fake clock the test advances by hand: the spinner runs
           under a 100ms deadline; while the clock stands still it just
           keeps getting sliced and requeued, and the moment the clock
           jumps past the deadline the next slice boundary answers
           [timeout]. *)
        let t = ref 0L in
        let cfg =
          { Serve.default_config with Serve.now = (fun () -> !t) }
        in
        let engine = Serve.create ~config:cfg () in
        let sess = Serve.session engine in
        submit sess "spin" "fuel=1000000000 timeout=100"
          "let rec go n = if n > 0 then go n else 0 in go 1";
        (* A few quanta with time frozen: still inflight, no reply. *)
        for _ = 1 to 3 do
          ignore (Serve.tick engine)
        done;
        Alcotest.(check int) "still inflight" 1 (Serve.inflight engine);
        Alcotest.(check (list string)) "no reply yet" [] (Serve.drain sess);
        (* Advance past the 100ms deadline; the next slice kills it. *)
        t := 200_000_000L;
        Serve.run_all engine;
        (match Serve.drain sess with
        | [ r ] -> check_prefix "timeout" "err spin timeout" r
        | rs -> Alcotest.failf "%d replies" (List.length rs));
        Alcotest.(check int) "timeout counted" 1
          (Serve.counters engine).Serve.timeouts);
    tc "admission control: overloaded past max_inflight" (fun () ->
        let cfg = { Serve.default_config with Serve.max_inflight = 2 } in
        let engine = Serve.create ~config:cfg () in
        let sess = Serve.session engine in
        submit sess "a" "" "1 + 1";
        submit sess "b" "" "2 + 2";
        submit sess "c" "" "3 + 3";
        (* The third was shed immediately, before any tick. *)
        (match Serve.drain sess with
        | [ r ] -> check_prefix "shed" "err c overloaded" r
        | rs -> Alcotest.failf "%d early replies" (List.length rs));
        Serve.run_all engine;
        Alcotest.(check (list string)) "admitted ones answer"
          [ "ok a 2"; "ok b 4" ]
          (List.sort compare (Serve.drain sess));
        Alcotest.(check int) "shed counted" 1
          (Serve.counters engine).Serve.sheds);
    tc "load shedding: oldest paused request evicted under memory pressure"
      (fun () ->
        (* Two allocation-heavy requests under a tiny paused-heap
           budget: once both are paused, the older one is evicted; the
           younger still finishes with the right answer. *)
        let cfg =
          {
            Serve.default_config with
            Serve.mem_budget = 500;
            Serve.heap = 1_000_000;
            Serve.fuel = 100_000_000;
            Serve.timeout_ms = 0;
            Serve.slice = 512;
          }
        in
        let engine = Serve.create ~config:cfg () in
        let sess = Serve.session engine in
        submit sess "old" "" "sum (enumFromTo 1 30000)";
        submit sess "young" "" "sum (enumFromTo 1 200)";
        Serve.run_all engine;
        (match List.sort compare (Serve.drain sess) with
        | [ ev; ok ] ->
            check_prefix "oldest evicted" "err old evicted" ev;
            Alcotest.(check string) "survivor exact" "ok young 20100" ok
        | rs -> Alcotest.failf "%d replies" (List.length rs));
        Alcotest.(check int) "eviction counted" 1
          (Serve.counters engine).Serve.evictions);
    tc "compiled-program cache: hits, LRU eviction" (fun () ->
        let cfg = { Serve.default_config with Serve.cache_capacity = 2 } in
        let engine = Serve.create ~config:cfg () in
        let sess = Serve.session engine in
        let run id src = ignore (eval_one engine sess id "" src) in
        run "a1" "1 + 1";
        run "a2" "1 + 1";
        let c = Serve.counters engine in
        Alcotest.(check int) "hit on resubmission" 1 c.Serve.cache_hits;
        Alcotest.(check int) "one compilation" 1 c.Serve.cache_misses;
        (* Two more distinct programs overflow capacity 2 and evict the
           least recently used entry. *)
        run "b" "2 + 2";
        run "c" "3 + 3";
        Alcotest.(check bool) "LRU eviction counted" true
          (c.Serve.cache_evictions >= 1);
        Alcotest.(check bool) "cache bounded" true
          (Serve.cache_size engine <= 2);
        (* The evicted program recompiles and still answers. *)
        run "a3" "1 + 1";
        Alcotest.(check bool) "recompiled" true (c.Serve.cache_misses >= 3));
    tc "quota recovery: heap latch re-arms across sequential requests"
      (fun () ->
        (* Satellite 3: repeated heap-latch trips on one engine. Every
           odd request is a heap bomb, every even request must still
           answer exactly right — no poisoned heap bleeds across
           requests, the latch re-arms every time. *)
        let engine = Serve.create () in
        let sess = Serve.session engine in
        let opts, bomb = heapbomb in
        for i = 1 to 8 do
          check_prefix
            (Printf.sprintf "bomb %d" i)
            (Printf.sprintf "err b%d quota:heap" i)
            (eval_one engine sess (Printf.sprintf "b%d" i) opts bomb);
          Alcotest.(check string)
            (Printf.sprintf "good %d" i)
            (Printf.sprintf "ok g%d 5050" i)
            (eval_one engine sess
               (Printf.sprintf "g%d" i)
               "" "sum (enumFromTo 1 100)")
        done;
        let c = Serve.counters engine in
        Alcotest.(check int) "eight trips" 8 c.Serve.quota_heap;
        Alcotest.(check int) "eight recoveries" 8 c.Serve.ok;
        Alcotest.(check int) "no crashes" 0 c.Serve.crashes);
    tc "quota recovery: in-request catch of the heap latch" (fun () ->
        (* unsafeGetException turns the latch's Heap_overflow into a
           value; after the latch fires the same request keeps
           allocating (the handler arm) and answers ok. *)
        let engine = Serve.create () in
        let sess = Serve.session engine in
        Alcotest.(check string) "caught in-request" "ok r 42"
          (eval_one engine sess "r" "heap=2000"
             "case unsafeGetException (length (replicate 100000 1)) of { \
              OK n -> 0 - 1; Bad e -> 40 + 2 }");
        Alcotest.(check string) "next request unaffected" "ok n 5050"
          (eval_one engine sess "n" "" "sum (enumFromTo 1 100)"));
    tc "survival: 200 mixed hostile requests, zero restarts" (fun () ->
        (* The acceptance bar: one engine, one session, 200 requests
           cycling through every kill mode with well-behaved requests
           interleaved; every well-behaved reply is differentially
           checked against one-shot evaluation, and the daemon never
           crashes or restarts (it is the same OCaml value throughout —
           surviving is simply never raising). *)
        let engine = Serve.create () in
        let sess = Serve.session engine in
        let goods =
          [
            "sum (enumFromTo 1 50)";
            "length (map (\\x -> x * x) (enumFromTo 1 20))";
            "1/0 + error \"Urk\"";
            "take 3 (iterate (\\x -> x * 2) 1)";
          ]
        in
        let kills = [ heapbomb; stackbomb; fuelburn; blackhole; spinner ] in
        let answered = ref 0 in
        let expected_ok = ref 0 in
        for i = 0 to 199 do
          let id = Printf.sprintf "r%d" i in
          let reply =
            if i mod 2 = 0 then begin
              let src = List.nth goods (i / 2 mod List.length goods) in
              let want = reference id (parse src) in
              if starts_with "ok" want then incr expected_ok;
              let got = eval_one engine sess id "" src in
              Alcotest.(check string) id want got;
              got
            end
            else begin
              let opts, src = List.nth kills (i / 2 mod List.length kills) in
              let got = eval_one engine sess id opts src in
              check_prefix id ("err " ^ id) got;
              got
            end
          in
          if reply <> "" then incr answered
        done;
        let c = Serve.counters engine in
        Alcotest.(check int) "every request answered" 200 !answered;
        Alcotest.(check int) "200 admitted" 200 c.Serve.requests;
        (* One of the four well-behaved programs legitimately answers
           [err .. exn ..] (its value IS an exception), so the ok count
           is what the one-shot references predict, not a flat 100. *)
        Alcotest.(check int) "ok count as predicted" !expected_ok c.Serve.ok;
        Alcotest.(check int) "zero crashes" 0 c.Serve.crashes;
        Alcotest.(check bool) "every kill mode exercised" true
          (c.Serve.quota_heap > 0 && c.Serve.quota_stack > 0
          && c.Serve.quota_fuel > 0 && c.Serve.timeouts > 0);
        Alcotest.(check int) "queue drained" 0 (Serve.inflight engine));
    tc "backend differential: slot and bytecode engines answer alike"
      (fun () ->
        (* Satellite: one corpus, two engines — the same requests go
           through [--backend slot] and [--backend bytecode] and every
           reply pair must agree. [ok] and [err .. exn] replies are
           compared exactly (same deep value, same exception). Fault
           replies are compared by id and kind: the detail field embeds
           backend-dependent cost numbers (steps at the timeout slice,
           cells at the latch), which differ because superinstructions
           fuse transitions. *)
        let mk backend =
          Serve.create
            ~config:{ Serve.default_config with Serve.backend } ()
        in
        let slot = mk Serve.Slot and bc = mk Serve.Bytecode in
        let s_slot = Serve.session slot and s_bc = Serve.session bc in
        let kind_of r =
          match String.split_on_char ' ' r with
          | verb :: id :: rest -> (
              ( verb,
                id,
                match rest with k :: _ -> k | [] -> "" ))
          | _ -> ("", "", "")
        in
        let agree id opts src =
          let r_slot = eval_one slot s_slot id opts src in
          let r_bc = eval_one bc s_bc id opts src in
          let verb, _, kind = kind_of r_slot in
          if verb = "ok" || (verb = "err" && kind = "exn") then
            Alcotest.(check string) (id ^ ": exact") r_slot r_bc
          else
            let verb', id', kind' = kind_of r_bc in
            Alcotest.(check (triple string string string))
              (Printf.sprintf "%s: fault kind (%s vs %s)" id r_slot r_bc)
              (verb, id, kind)
              (verb', id', kind')
        in
        let pure = Corpus.pure (Corpus.dictionary ()) in
        List.iteri
          (fun i e ->
            agree
              (Printf.sprintf "d%d" i)
              ""
              (Pretty.expr_to_string e.Corpus.expr))
          pure;
        (* The fault modes: every quota and timeout defence classifies
           identically on both backends. *)
        List.iteri
          (fun i (opts, src) ->
            agree (Printf.sprintf "k%d" i) opts src)
          [ heapbomb; stackbomb; fuelburn; blackhole; spinner ];
        let cs = Serve.counters slot and cb = Serve.counters bc in
        Alcotest.(check int) "same ok count" cs.Serve.ok cb.Serve.ok;
        Alcotest.(check int) "same exn count" cs.Serve.failed cb.Serve.failed;
        Alcotest.(check int) "same heap kills" cs.Serve.quota_heap
          cb.Serve.quota_heap;
        Alcotest.(check int) "same stack kills" cs.Serve.quota_stack
          cb.Serve.quota_stack;
        Alcotest.(check int) "same fuel kills" cs.Serve.quota_fuel
          cb.Serve.quota_fuel;
        Alcotest.(check int) "same timeouts" cs.Serve.timeouts
          cb.Serve.timeouts;
        Alcotest.(check int) "no crashes (slot)" 0 cs.Serve.crashes;
        Alcotest.(check int) "no crashes (bytecode)" 0 cb.Serve.crashes;
        (* The bytecode engine really ran bytecode. *)
        Alcotest.(check bool) "bytecode dispatches counted" true
          ((Serve.machine_totals bc).Stats.bc_dispatches > 0);
        Alcotest.(check int) "slot engine reports zero dispatches" 0
          (Serve.machine_totals slot).Stats.bc_dispatches);
    tc "backend bytecode: quota recovery and cache survive" (fun () ->
        (* The bytecode engine under the hostile-request drumbeat: latch
           trips, in-request catches, and resubmission cache hits — the
           compiled-program cache now stores bytecode programs. *)
        let engine =
          Serve.create
            ~config:
              { Serve.default_config with Serve.backend = Serve.Bytecode }
            ()
        in
        let sess = Serve.session engine in
        let opts, bomb = heapbomb in
        for i = 1 to 4 do
          check_prefix
            (Printf.sprintf "bomb %d" i)
            (Printf.sprintf "err b%d quota:heap" i)
            (eval_one engine sess (Printf.sprintf "b%d" i) opts bomb);
          Alcotest.(check string)
            (Printf.sprintf "good %d" i)
            (Printf.sprintf "ok g%d 5050" i)
            (eval_one engine sess
               (Printf.sprintf "g%d" i)
               "" "sum (enumFromTo 1 100)")
        done;
        Alcotest.(check string) "caught in-request" "ok r 42"
          (eval_one engine sess "r" "heap=2000"
             "case unsafeGetException (length (replicate 100000 1)) of { \
              OK n -> 0 - 1; Bad e -> 40 + 2 }");
        let c = Serve.counters engine in
        Alcotest.(check int) "four trips" 4 c.Serve.quota_heap;
        Alcotest.(check bool) "resubmissions hit the cache" true
          (c.Serve.cache_hits >= 6);
        Alcotest.(check int) "no crashes" 0 c.Serve.crashes);
    tc "crash barrier: machine invariant violation answers [crash]"
      (fun () ->
        (* Nothing in the language can trip the barrier from outside —
           that is rather the point — so the test reaches into the
           request's machine via the injected clock hook, the one piece
           of engine-visible code a test controls, and raises from
           there mid-request. The daemon must convert it into a [crash]
           reply and keep serving. *)
        let calls = ref 0 in
        let cfg =
          {
            Serve.default_config with
            Serve.now =
              (fun () ->
                incr calls;
                if !calls = 2 then failwith "injected fault"
                else Serve.default_now ());
          }
        in
        let engine = Serve.create ~config:cfg () in
        let sess = Serve.session engine in
        check_prefix "crash reply" "err c1 crash"
          (eval_one engine sess "c1" "timeout=1000" "sum (enumFromTo 1 100)");
        Alcotest.(check int) "crash counted" 1
          (Serve.counters engine).Serve.crashes;
        Alcotest.(check string) "daemon survives its own barrier"
          "ok c2 5050"
          (eval_one engine sess "c2" "timeout=0" "sum (enumFromTo 1 100)"));
    tc "stats verb reflects the counters" (fun () ->
        let engine = Serve.create () in
        let sess = Serve.session engine in
        ignore (eval_one engine sess "a" "" "1 + 2");
        let opts, bomb = heapbomb in
        ignore (eval_one engine sess "b" opts bomb);
        Serve.feed sess "stats";
        match Serve.drain sess with
        | [ s ] ->
            let has needle =
              Alcotest.(check bool)
                (Printf.sprintf "stats contains %s" needle)
                true
                (let n = String.length needle and l = String.length s in
                 let rec go i =
                   i + n <= l && (String.sub s i n = needle || go (i + 1))
                 in
                 go 0)
            in
            has "\"requests\":2";
            has "\"ok\":1";
            has "\"quota_heap\":1";
            has "\"machine\":"
        | rs -> Alcotest.failf "stats: %d replies" (List.length rs));
    tc "optimize: optimized replies equal unoptimized, both backends"
      (fun () ->
        (* The differential for [serve --optimize]: the same programs
           through an optimizing and a plain engine must answer
           identically on each backend. Programs here have one
           deterministic outcome — optimisation may legally {e refine}
           a multi-exception set, which would be a refinement check,
           not an equality. *)
        List.iter
          (fun backend ->
            let mk optimize =
              Serve.create
                ~config:
                  { Serve.default_config with Serve.backend; optimize }
                ()
            in
            let eng_o = mk true and eng_u = mk false in
            let s_o = Serve.session eng_o and s_u = Serve.session eng_u in
            List.iteri
              (fun i src ->
                let id = Printf.sprintf "d%d" i in
                let r_o = eval_one eng_o s_o id "" src in
                let r_u = eval_one eng_u s_u id "" src in
                Alcotest.(check string)
                  (Printf.sprintf "%s: %s" (flat src) r_u)
                  r_u r_o)
              [
                "sum (enumFromTo 1 50)";
                "let x = 2 + 3 in x * x";
                "zipWith (\\a b -> a + b) [1,2] [10,20]";
                "case (1 / 0, 2) of { Pair a b -> b }";
                "head []";
                "1 / 0";
              ];
            Alcotest.(check int)
              "no lint rejects" 0
              (Serve.counters eng_o).Serve.lint_rejects)
          [ Serve.Slot; Serve.Bytecode ]);
    tc "optimize: compiled-program cache still hits under -O" (fun () ->
        (* The cache key is mode-prefixed (O1:/O0:), so an optimizing
           engine caches the optimised compilation and reuses it. *)
        let engine =
          Serve.create
            ~config:{ Serve.default_config with Serve.optimize = true }
            ()
        in
        let sess = Serve.session engine in
        let payload r =
          match String.split_on_char ' ' r with
          | verb :: _id :: rest -> verb :: rest
          | parts -> parts
        in
        let r1 = eval_one engine sess "c1" "" "sum (enumFromTo 1 50)" in
        let r2 = eval_one engine sess "c2" "" "sum (enumFromTo 1 50)" in
        Alcotest.(check (list string))
          "same answer from the cache" (payload r1) (payload r2);
        Alcotest.(check int) "second request hit the cache" 1
          (Serve.counters engine).Serve.cache_hits);
    tc "only an unoptimised bytecode engine builds a Prelude segment"
      (fun () ->
        (* An optimised root holds a pruned group, never the held
           Prelude, and the slot backend compiles no bytecode. *)
        let segment_after config =
          let engine = Serve.create ~config () in
          let sess = Serve.session engine in
          List.iteri
            (fun i src ->
              check_prefix src "ok"
                (eval_one engine sess (Printf.sprintf "s%d" i) "" src))
            [
              "sum (enumFromTo 1 50)";
              "length (filter (\\x -> x > 2) [1, 2, 3, 4])";
              "head (map (\\x -> x * 2) [4, 5])";
            ];
          Serve.holds_prelude_segment engine
        in
        let bytecode = { Serve.default_config with Serve.backend = Serve.Bytecode } in
        Alcotest.(check bool) "bytecode under optimize" false
          (segment_after { bytecode with Serve.optimize = true });
        Alcotest.(check bool) "slot" false
          (segment_after Serve.default_config);
        Alcotest.(check bool) "bytecode" true (segment_after bytecode));
    tc "a cache-hit request allocates nothing directly in the major heap"
      (fun () ->
        (* A request machine's heap array must be born in the minor heap:
           one born in the major heap (1,025 words at a 1,024-slot start)
           has every cell stored into it promoted at the next minor
           collection. The words are read with [Gc.counters]:
           [Gc.quick_stat]'s only move at a collection. *)
        List.iter
          (fun backend ->
            let engine =
              Serve.create
                ~config:{ Serve.default_config with Serve.backend }
                ()
            in
            let sess = Serve.session engine in
            let src = "sum (enumFromTo 1 10)" in
            Alcotest.(check string) "miss" "ok w 55"
              (eval_one engine sess "w" "" src);
            Gc.minor ();
            let _, promoted0, major0 = Gc.counters () in
            let reply = eval_one engine sess "h" "" src in
            let _, promoted1, major1 = Gc.counters () in
            Alcotest.(check string) "hit" "ok h 55" reply;
            Alcotest.(check int) "served from the cache" 1
              (Serve.counters engine).Serve.cache_hits;
            Alcotest.(check int) "direct major words" 0
              (int_of_float (major1 -. major0 -. (promoted1 -. promoted0))))
          [ Serve.Slot; Serve.Bytecode ]);
    tc "requests started from the Prelude image leave it as they found it"
      (fun () ->
        (* A request whose program binds the Prelude starts its heap as
           a copy of the engine's image of the Prelude's cells. Whatever
           it does to its copies (update the CAF [newline], raise
           through Prelude code with [head []], or be paused inside
           Prelude thunks by a slice short enough to pause [newline]'s
           cell mid-evaluation), the next request must find the image as
           it was: the same request again gives the same reply and the
           same per-request counters, and so does a clean request after
           it. *)
        let counters =
          [ "steps"; "allocations"; "updates"; "thunks_poisoned";
            "thunks_paused" ]
        in
        let request engine id src =
          let sess = Serve.session engine in
          let before = Stats.fields (Serve.machine_totals engine) in
          let reply = eval_one engine sess id "" src in
          let after = Stats.fields (Serve.machine_totals engine) in
          ( reply,
            List.map
              (fun k -> (k, List.assoc k after - List.assoc k before))
              counters )
        in
        let outcome = Alcotest.(pair string (list (pair string int))) in
        let clean = "length [1, 2, 3]" in
        List.iter
          (fun (backend, short_slice) ->
            let mk slice =
              Serve.create
                ~config:{ Serve.default_config with Serve.backend; slice }
                ()
            in
            let engine = mk Serve.default_config.Serve.slice
            and sliced = mk short_slice in
            let base = request engine "c" clean
            and sliced_base = request sliced "c" clean in
            Alcotest.(check (list string))
              "clean replies" [ "ok c 3"; "ok c 3" ]
              [ fst base; fst sliced_base ];
            List.iter
              (fun (engine, base, src) ->
                let first = request engine "r" src in
                Alcotest.check outcome (src ^ ": again") first
                  (request engine "r" src);
                Alcotest.check outcome (src ^ ": then a clean request") base
                  (request engine "c" clean))
              [
                (engine, base, "newline");
                (engine, base, "head []");
                (sliced, sliced_base, "newline");
                (sliced, sliced_base, "head []");
                ( sliced,
                  sliced_base,
                  "length (map (\\x -> x + 1) (enumFromTo 1 20))" );
              ];
            Alcotest.(check bool) "the slice paused newline's cell" true
              (List.assoc "thunks_paused" (snd (request sliced "n" "newline"))
               >= 2);
            (* The saving itself: a cache hit for [1] allocates its root
               alone, the Prelude's cells being the image's. *)
            ignore (request engine "one" "1");
            Alcotest.(check int) "a request for 1 allocates one cell" 1
              (List.assoc "allocations" (snd (request engine "one" "1"))))
          (* Bytecode fuses transitions, so its slice must be shorter to
             land inside [newline]: the first interrupt fires after the
             root's entry and the slice, at step 8 (slot) or 6. *)
          [ (Serve.Slot, 6); (Serve.Bytecode, 4) ]);
    tc "a request whose heap outgrows its start answers as one-shot"
      (fun () ->
        (* The heap doubles out of its minor-heap start into the major
           heap, on both backends. *)
        let src = "length (enumFromTo 1 300)" in
        let m = Machine.create () in
        ignore (Machine.force m (Machine.alloc m (parse src)));
        Alcotest.(check bool) "outgrows 256 cells" true
          (Runtime.heap_size m > 256);
        let want = reference "g" (parse src) in
        Alcotest.(check string) "one-shot" "ok g 300" want;
        List.iter
          (fun backend ->
            let engine =
              Serve.create
                ~config:{ Serve.default_config with Serve.backend }
                ()
            in
            Alcotest.(check string) "served" want
              (eval_one engine (Serve.session engine) "g" "" src))
          [ Serve.Slot; Serve.Bytecode ]);
    tc "a pause chain as long as the slice still makes progress" (fun () ->
        (* A resume re-enters each cell the last interrupt paused, one
           step a cell; the next interrupt fires only after [slice]
           steps past that. The deep [foldr] grows a chain past the
           default slice of 4,096; [sum] at slice 1 or 7 is a short
           chain at a tiny slice. All of them once burnt their fuel
           re-entering the chain. *)
        let serve backend slice src =
          let engine =
            Serve.create
              ~config:{ Serve.default_config with Serve.backend; slice }
              ()
          in
          eval_one engine (Serve.session engine) "s" "" src
        in
        List.iter
          (fun (name, backend) ->
            Alcotest.(check string)
              (name ^ ": deep foldr at the default slice")
              "ok s 8002000"
              (serve backend Serve.default_config.Serve.slice
                 "foldr (\\x acc -> x + acc) 0 (enumFromTo 1 4000)");
            List.iter
              (fun slice ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: sum at slice %d" name slice)
                  "ok s 55"
                  (serve backend slice "sum (enumFromTo 1 10)"))
              [ 1; 7 ])
          [ ("slot", Serve.Slot); ("bytecode", Serve.Bytecode) ]);
    tc "a sliced request has the fuel of an unsliced one" (fun () ->
        (* Each requeue gives the next resume's re-entries back to the
           fuel quota, so at the default slice the deep [foldr] answers
           what it answers under a slice longer than the whole run: at
           the fuel that run takes, where deep-forcing runs out, and at
           one more. A request that never finishes still runs out. *)
        let src = "foldr (\\x acc -> x + acc) 0 (enumFromTo 1 4000)" in
        let serve backend slice opts src =
          let engine =
            Serve.create
              ~config:{ Serve.default_config with Serve.backend; slice }
              ()
          in
          let reply = eval_one engine (Serve.session engine) "t" opts src in
          (reply, (Serve.machine_totals engine).Stats.steps)
        in
        let sliced = Serve.default_config.Serve.slice and whole = 1_000_000 in
        List.iter
          (fun (name, backend) ->
            let _, n = serve backend whole "" src in
            List.iter
              (fun (fuel, want) ->
                let opts = Printf.sprintf "fuel=%d" fuel in
                let what = Printf.sprintf "%s: fuel=%d" name fuel in
                Alcotest.(check string) (what ^ " unsliced") want
                  (fst (serve backend whole opts src));
                Alcotest.(check string) (what ^ " sliced") want
                  (fst (serve backend sliced opts src)))
              [ (n, "ok t Bad {ALL}"); (n + 1, "ok t 8002000") ];
            check_prefix (name ^ ": a diverging request") "err t quota:fuel"
              (fst
                 (serve backend sliced ""
                    "let rec go n = if n > 0 then go n else 0 in go 1")))
          [ ("slot", Serve.Slot); ("bytecode", Serve.Bytecode) ]);
  ]

open Imprecise
open Helpers
module E = Exn

(* Scale and fault-injection tests for the indexed concurrency runtime:
   the lost-wakeup matrix (seeded kill schedules over MVar and channel
   handoffs), the duplicate-waiter removal regression, and the
   Conc/Machine_conc differential on producer/consumer networks. Every
   run here has [check_invariants] on, so the scheduler's index
   structures are validated every round. *)

(* ------------------------------------------------------------------ *)
(* Sched library unit tests: the O(1) structures under the scheduler   *)
(* ------------------------------------------------------------------ *)

let fifo_tests =
  [
    tc "fifo: node removal is exact under duplicate values" (fun () ->
        (* The seed's [List.filter (fun x -> x <> w)] removed *every*
           occurrence of a duplicated value; node-based removal must take
           out exactly the node it is handed. *)
        let q = Sched.Fifo.create () in
        let a = Sched.Fifo.push_tail q 7 in
        let _b = Sched.Fifo.push_tail q 7 in
        let c = Sched.Fifo.push_tail q 9 in
        Sched.Fifo.remove q a;
        Sched.Fifo.remove q a;
        (* removal is idempotent *)
        Alcotest.(check (list int)) "one 7 left" [ 7; 9 ]
          (Sched.Fifo.to_list q);
        Alcotest.(check int) "length" 2 (Sched.Fifo.length q);
        Sched.Fifo.remove q c;
        Alcotest.(check (option int)) "pop" (Some 7) (Sched.Fifo.pop_head q);
        Alcotest.(check bool) "empty" true (Sched.Fifo.is_empty q));
    tc "fifo: removal at head, middle and tail keeps FIFO order" (fun () ->
        let q = Sched.Fifo.create () in
        let ns = List.map (fun v -> (v, Sched.Fifo.push_tail q v)) [ 1; 2; 3; 4; 5 ] in
        let node v = List.assoc v ns in
        Sched.Fifo.remove q (node 1);
        Sched.Fifo.remove q (node 3);
        Sched.Fifo.remove q (node 5);
        Alcotest.(check (list int)) "order" [ 2; 4 ] (Sched.Fifo.to_list q));
    tc "bitq: membership, cardinality and in-order cursor" (fun () ->
        let b = Sched.Bitq.create ~capacity:4 () in
        List.iter (Sched.Bitq.add b) [ 900; 3; 64; 3; 31; 32 ];
        Alcotest.(check int) "cardinal" 5 (Sched.Bitq.cardinal b);
        Alcotest.(check (list int)) "sorted" [ 3; 31; 32; 64; 900 ]
          (Sched.Bitq.to_list b);
        Sched.Bitq.remove b 32;
        Sched.Bitq.remove b 32;
        Alcotest.(check int) "next skips removed" 64 (Sched.Bitq.next b 32);
        Alcotest.(check int) "next past the last" (-1) (Sched.Bitq.next b 901);
        (* The cursor idiom the scheduler uses: iterate while removing
           behind the cursor. *)
        let seen = ref [] in
        let rec go i =
          let x = Sched.Bitq.next b i in
          if x >= 0 then begin
            seen := x :: !seen;
            Sched.Bitq.remove b x;
            go (x + 1)
          end
        in
        go 0;
        Alcotest.(check (list int)) "cursor sweep" [ 3; 31; 64; 900 ]
          (List.rev !seen);
        Alcotest.(check bool) "drained" true (Sched.Bitq.is_empty b));
    tc "heap: pops in (key, value) order with duplicates" (fun () ->
        let h = Sched.Heap.create () in
        List.iter (fun (k, v) -> Sched.Heap.push h k v)
          [ (5, 2); (1, 9); (5, 1); (0, 7); (1, 3) ];
        let rec drain acc =
          match Sched.Heap.pop h with
          | None -> List.rev acc
          | Some (k, v) -> drain ((k, v) :: acc)
        in
        Alcotest.(check (list (pair int int)))
          "sorted" [ (0, 7); (1, 3); (1, 9); (5, 1); (5, 2) ]
          (drain []));
  ]

(* ------------------------------------------------------------------ *)
(* Lost-wakeup matrix: seeded kill schedules over handoffs             *)
(* ------------------------------------------------------------------ *)

(* [k] producers each deposit a distinct digit then print a ['d']
   confirmation; the main thread attempts [k] guarded reads, printing
   the digit on success and ['x'] on a caught exception. *)
let chan_handoff_src ~masked k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "newChan 1 >>= \\ch ->\n";
  for i = 1 to k do
    let write =
      if masked then Printf.sprintf "mask (writeChan ch %d)" i
      else Printf.sprintf "writeChan ch %d" i
    in
    Buffer.add_string buf
      (Printf.sprintf "forkIO (%s >> putChar 'd') >>\n" write)
  done;
  for i = 1 to k do
    Buffer.add_string buf
      (Printf.sprintf
         "getException (readChan ch) >>= \\r%d ->\n\
          (case r%d of { OK v -> putInt v; Bad e -> putChar 'x' }) >>\n"
         i i)
  done;
  Buffer.add_string buf "return 0";
  Buffer.contents buf

let mvar_handoff_src k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "newEmptyMVar >>= \\mv ->\n";
  for i = 1 to k do
    Buffer.add_string buf
      (Printf.sprintf "forkIO (putMVar mv %d >> putChar 'd') >>\n" i)
  done;
  for i = 1 to k do
    Buffer.add_string buf
      (Printf.sprintf
         "getException (takeMVar mv) >>= \\r%d ->\n\
          (case r%d of { OK v -> putInt v; Bad e -> putChar 'x' }) >>\n"
         i i)
  done;
  Buffer.add_string buf "return 0";
  Buffer.contents buf

(* The lost-wakeup invariants, on the interleaved output of a run:
   - no deposited element is consumed twice (digits are distinct);
   - every guarded read resolves — a value or a catchable exception
     (digits + 'x's = k), i.e. no waiter is stranded;
   - every confirmed deposit ('d' prints after the write returned) is
     eventually consumed (d's <= digits). *)
let handoff_invariants name k (out : string) =
  let digits = ref [] and xs = ref 0 and ds = ref 0 in
  String.iter
    (fun c ->
      if c = 'x' then incr xs
      else if c = 'd' then incr ds
      else if c >= '0' && c <= '9' then digits := c :: !digits)
    out;
  let sorted = List.sort compare !digits in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  if not (distinct sorted) then
    Alcotest.failf "%s: an element was consumed twice in %S" name out;
  if List.length !digits + !xs <> k then
    Alcotest.failf "%s: %d of %d reads never resolved in %S" name
      (k - List.length !digits - !xs)
      k out;
  if !ds > List.length !digits then
    Alcotest.failf "%s: a confirmed deposit was lost in %S" name out

let kill_matrix () =
  for seed = 0 to 199 do
    let k = 3 + (seed mod 4) in
    let victim = 1 + (seed mod k) in
    let at = 1 + (seed * 7 mod 60) in
    let kills = [ (at, victim, E.Thread_killed) ] in
    let src =
      match seed mod 4 with
      | 0 -> chan_handoff_src ~masked:false k
      | 1 -> mvar_handoff_src k
      | 2 -> chan_handoff_src ~masked:true k
      | _ -> chan_handoff_src ~masked:false k
    in
    let name = Printf.sprintf "seed %d (k=%d kill t%d@%d)" seed k victim at in
    let e = parse src in
    let r = Conc.run ~check_invariants:true ~kills e in
    (match r.Conc.outcome with
    | Conc.Done _ -> ()
    | o -> Alcotest.failf "%s: conc %a" name Conc.pp_outcome o);
    handoff_invariants (name ^ " conc") k (Conc.output_string_of r);
    let m = Machine_conc.run ~check_invariants:true ~kills e in
    (match m.Machine_conc.outcome with
    | Machine_conc.Done _ -> ()
    | o -> Alcotest.failf "%s: machine %a" name Machine_conc.pp_outcome o);
    handoff_invariants (name ^ " machine") k m.Machine_conc.output
  done

let double_kill_matrix () =
  (* Two kills in the same schedule: both a producer and a second
     producer, at staggered clocks. *)
  for seed = 0 to 49 do
    let k = 4 + (seed mod 3) in
    let v1 = 1 + (seed mod k) in
    let v2 = 1 + ((seed + 2) mod k) in
    let at1 = 2 + (seed mod 25) in
    let at2 = at1 + 1 + (seed mod 9) in
    let kills =
      [ (at1, v1, E.Thread_killed); (at2, v2, E.Interrupt) ]
    in
    let src = chan_handoff_src ~masked:(seed mod 2 = 0) k in
    let name = Printf.sprintf "double seed %d" seed in
    let e = parse src in
    let r = Conc.run ~check_invariants:true ~kills e in
    (match r.Conc.outcome with
    | Conc.Done _ -> ()
    | o -> Alcotest.failf "%s: conc %a" name Conc.pp_outcome o);
    handoff_invariants (name ^ " conc") k (Conc.output_string_of r);
    let m = Machine_conc.run ~check_invariants:true ~kills e in
    (match m.Machine_conc.outcome with
    | Machine_conc.Done _ -> ()
    | o -> Alcotest.failf "%s: machine %a" name Machine_conc.pp_outcome o);
    handoff_invariants (name ^ " machine") k m.Machine_conc.output
  done

let waiter_kill_sweep () =
  (* Two waiters blocked on one MVar; kill the first at every clock in a
     sweep. Whatever the timing, no value may be delivered twice and the
     surviving waiter must stay wakeable (outcome Done, or the main
     thread's second put itself becomes hopeless and dies of a
     catchable BlockedIndefinitely — never a silent wedge). *)
  let src =
    "newEmptyMVar >>= \\mv ->\n\
     forkIO (takeMVar mv >>= putInt) >>\n\
     forkIO (takeMVar mv >>= putInt) >>\n\
     putMVar mv 5 >> putMVar mv 6 >> return 0"
  in
  let e = parse src in
  for at = 1 to 24 do
    let kills = [ (at, 1, E.Thread_killed) ] in
    let r = Conc.run ~check_invariants:true ~kills e in
    let out = Conc.output_string_of r in
    let count c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 out in
    if count '5' > 1 || count '6' > 1 then
      Alcotest.failf "kill@%d: duplicate delivery in %S" at out;
    (match r.Conc.outcome with
    | Conc.Done _ | Conc.Uncaught E.Blocked_indefinitely -> ()
    | o -> Alcotest.failf "kill@%d: conc %a" at Conc.pp_outcome o);
    let m = Machine_conc.run ~check_invariants:true ~kills e in
    let mout = m.Machine_conc.output in
    let mcount c =
      String.fold_left (fun n x -> if x = c then n + 1 else n) 0 mout
    in
    if mcount '5' > 1 || mcount '6' > 1 then
      Alcotest.failf "kill@%d: machine duplicate delivery in %S" at mout;
    match m.Machine_conc.outcome with
    | Machine_conc.Done _ | Machine_conc.Uncaught E.Blocked_indefinitely -> ()
    | o -> Alcotest.failf "kill@%d: machine %a" at Machine_conc.pp_outcome o
  done

(* ------------------------------------------------------------------ *)
(* Differential scale: producer/consumer networks on both layers       *)
(* ------------------------------------------------------------------ *)

let network_src ~cap ~writers ~readers =
  Printf.sprintf
    "newChan %d >>= \\ch ->\n\
     mapM2 (\\i -> forkIO (writeChan ch i)) (enumFromTo 1 %d) >>= \\u ->\n\
     mapM2 (\\i -> readChan ch) (enumFromTo 1 %d) >>= \\u2 ->\n\
     putInt 0" cap writers readers

let differential ~cap ~writers ~readers =
  let e = parse (network_src ~cap ~writers ~readers) in
  let budget = 60 * (writers + 1) in
  let name = Printf.sprintf "net cap=%d w=%d r=%d" cap writers readers in
  let r =
    Conc.run ~check_invariants:true ~max_steps:budget e
  in
  let m =
    Machine_conc.run ~check_invariants:true ~max_transitions:budget e
  in
  (match (r.Conc.outcome, m.Machine_conc.outcome) with
  | Conc.Done _, Machine_conc.Done _ -> ()
  | o1, o2 ->
      Alcotest.failf "%s: conc %a, machine %a" name Conc.pp_outcome o1
        Machine_conc.pp_outcome o2);
  Alcotest.(check string)
    (name ^ ": outputs agree")
    (Conc.output_string_of r) m.Machine_conc.output;
  Alcotest.(check int)
    (name ^ ": spawn counts agree")
    r.Conc.threads_spawned m.Machine_conc.threads_spawned;
  (* The two layers implement the very same round-based schedule, so
     their step counters must agree exactly — the strongest cheap
     witness that neither runtime diverged from the shared design. *)
  Alcotest.(check int)
    (name ^ ": schedule lengths agree")
    r.Conc.context_switches m.Machine_conc.transitions

let differential_random () =
  let st = Random.State.make [| 0x5ca1e |] in
  for _ = 1 to 6 do
    let cap = 1 lsl Random.State.int st 7 in
    let writers = 120 + Random.State.int st 381 in
    (* Balanced or reader-starved: leftover writers must die of a
       catchable BlockedIndefinitely identically on both layers. *)
    let readers =
      if Random.State.bool st then writers
      else writers - 1 - Random.State.int st 16
    in
    differential ~cap ~writers ~readers
  done

(* Sequential channel programs on both layers, with and without
   collections: a blocking channel operation in a one-thread run is
   hopeless, so quiescence delivers a catchable BlockedIndefinitely. *)
let sequential_parity () =
  let check name src expect_out expect_recov =
    let w = Prelude.wrap (parse src) in
    let c = Conc.run ~check_invariants:true w in
    (match c.Conc.outcome with
    | Conc.Done _ -> ()
    | o -> Alcotest.failf "%s: conc %a" name Conc.pp_outcome o);
    Alcotest.(check string) (name ^ ": conc out") expect_out
      (Conc.output_string_of c);
    Alcotest.(check int)
      (name ^ ": conc recoveries")
      expect_recov c.Conc.counters.Conc.blocked_recoveries;
    let mc = Machine_conc.run ~check_invariants:true w in
    Alcotest.(check string) (name ^ ": machine conc out") expect_out
      mc.Machine_conc.output;
    Alcotest.(check int)
      (name ^ ": machine conc recoveries")
      expect_recov mc.Machine_conc.counters.Machine_conc.blocked_recoveries;
    let mc_gc = Machine_conc.run ~gc_every:3 w in
    Alcotest.(check string)
      (name ^ ": machine conc out under gc")
      expect_out mc_gc.Machine_conc.output
  in
  check "roundtrip"
    "newChan 2 >>= \\ch -> writeChan ch 7 >> writeChan ch 8 >>\n\
     readChan ch >>= \\a -> readChan ch >>= \\b -> putInt (a * 10 + b)"
    "78" 0;
  check "read of empty channel recovers"
    "newChan 1 >>= \\ch -> getException (readChan ch) >>= \\r ->\n\
     case r of { OK x -> putInt 0; Bad e -> putInt 5 }"
    "5" 1;
  check "write to full channel recovers, buffered element intact"
    "newChan 1 >>= \\ch -> writeChan ch 1 >>\n\
     getException (writeChan ch 2) >>= \\r ->\n\
     (case r of { OK x -> putInt 0; Bad e -> putInt 9 }) >>\n\
     readChan ch >>= \\v -> putInt v"
    "91" 1;
  check "masked channel block is still interruptible"
    "newChan 1 >>= \\ch -> getException (mask (readChan ch)) >>= \\r ->\n\
     case r of { OK x -> putInt 0; Bad e -> putInt 6 }"
    "6" 1

let suite =
  fifo_tests
  @ [
      tc "lost-wakeup matrix: 200 seeded kill schedules" kill_matrix;
      tc "lost-wakeup matrix: staggered double kills" double_kill_matrix;
      tc "killing one of two MVar waiters never wedges the other"
        waiter_kill_sweep;
      tc "differential: balanced networks at fixed sizes" (fun () ->
          differential ~cap:1 ~writers:500 ~readers:500;
          differential ~cap:8 ~writers:500 ~readers:500;
          differential ~cap:64 ~writers:300 ~readers:300);
      tc "differential: randomized networks (seeded)" differential_random;
      tc "sequential channel programs agree across both layers"
        sequential_parity;
    ]

open Imprecise
open Helpers
module M = Machine
module E = Exn
module Mio = Machine_conc

(* The flight recorder itself, and its wiring into the machines and the
   IO layers: ring-buffer mechanics, the tracing-off fast path, raise
   provenance, re-raise origin replay, oracle-pick events, bracket
   event balance and crash-dump formatting. *)

let raise_label = function
  | Obs.Ev_raise (e, o) -> Some (e, o.Obs.label)
  | _ -> None

let suite =
  [
    tc "ring buffer wraps, keeping the newest events" (fun () ->
        let tr = Obs.create ~capacity:4 ~on:true () in
        for i = 0 to 9 do
          Obs.record tr (Obs.Ev_pause i)
        done;
        Alcotest.(check int) "seen counts every record" 10 (Obs.seen tr);
        Alcotest.(check int) "capacity" 4 (Obs.capacity tr);
        let kept =
          List.map
            (function Obs.Ev_pause i -> i | _ -> Alcotest.fail "event")
            (Obs.events tr)
        in
        Alcotest.(check (list int)) "newest four, oldest first"
          [ 6; 7; 8; 9 ] kept;
        Obs.clear tr;
        Alcotest.(check int) "clear resets" 0
          (List.length (Obs.events tr)));
    tc "an off recorder holds no buffer until it is enabled" (fun () ->
        (* Every request machine gets a recorder, off unless tracing is:
           it must not pay for a ring it never writes (262 words at the
           default 256 events). [Gc.minor_words], because
           [Gc.quick_stat]'s counts move only at a collection. *)
        let w0 = Gc.minor_words () in
        let tr = Sys.opaque_identity (Obs.create ()) in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "an off recorder allocates %.0f words" words)
          true (words <= 8.);
        Alcotest.(check int) "capacity is the requested one" 256
          (Obs.capacity tr);
        Alcotest.(check int) "no events" 0 (List.length (Obs.events tr));
        let tr = Obs.create ~capacity:4 () in
        Obs.enable tr;
        for i = 0 to 9 do
          Obs.record tr (Obs.Ev_pause i)
        done;
        Alcotest.(check (list int))
          "enabled later: the newest four" [ 6; 7; 8; 9 ]
          (List.map
             (function Obs.Ev_pause i -> i | _ -> Alcotest.fail "event")
             (Obs.events tr)));
    tc "a disabled recorder sees nothing from an exceptional run"
      (fun () ->
        (* The default machine recorder is off: even a run full of
           raises, poisonings and catches must record zero events —
           the instrumentation is a single untaken branch. *)
        let m = M.create () in
        (match M.force_catch m (M.alloc m (parse "sum [1, 1/0, 3]")) with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "catch");
        Alcotest.(check int) "no events" 0 (Obs.seen (Runtime.trace m)));
    tc "machine raises carry their raise-site label" (fun () ->
        let tr = Obs.create ~on:true () in
        let m = M.create ~trace:tr () in
        (match M.force_catch m (M.alloc m (parse "1/0")) with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "catch");
        (match List.filter_map raise_label (Obs.events tr) with
        | [ (E.Divide_by_zero, "div") ] -> ()
        | _ -> Alcotest.fail "expected one raise labelled div");
        (match Runtime.origin_of m E.Divide_by_zero with
        | Some o ->
            Alcotest.(check string) "origin label" "div" o.Obs.label;
            Alcotest.(check bool) "step recorded" true (o.Obs.step > 0)
        | None -> Alcotest.fail "origin registered");
        (* The catch mark's return is on the record too. *)
        Alcotest.(check bool) "catch event" true
          (List.exists
             (function
               | Obs.Ev_catch (Some E.Divide_by_zero) -> true
               | _ -> false)
             (Obs.events tr)));
    tc "re-entering a poisoned thunk replays the original origin"
      (fun () ->
        let tr = Obs.create ~on:true () in
        let m = M.create ~trace:tr () in
        let a = M.alloc m (parse "1/0") in
        (match M.force_catch m a with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "first");
        let origin0 =
          match Runtime.origin_of m E.Divide_by_zero with
          | Some o -> o
          | None -> Alcotest.fail "origin after first raise"
        in
        (* Second force re-enters the [Cell_raise]: no fresh raise, a
           rethrow that replays the recorded origin. *)
        (match M.force_catch m a with
        | Error (M.Fail_exn E.Divide_by_zero) -> ()
        | _ -> Alcotest.fail "second");
        let rethrows =
          List.filter_map
            (function
              | Obs.Ev_rethrow (E.Divide_by_zero, o) -> Some o
              | _ -> None)
            (Obs.events tr)
        in
        match rethrows with
        | [ o ] ->
            Alcotest.(check string) "same label" origin0.Obs.label
              o.Obs.label;
            Alcotest.(check int) "same step" origin0.Obs.step o.Obs.step
        | _ -> Alcotest.fail "expected exactly one rethrow");
    tc "oracle picks record the un-chosen members" (fun () ->
        let tr = Obs.create ~on:true () in
        let r =
          Conc.run ~trace:tr
            (parse
               "getException (1/0 + error \"Urk\") >>= \\v -> return 0")
        in
        (match r.Conc.outcome with
        | Conc.Done _ -> ()
        | o -> Alcotest.failf "outcome: %a" Conc.pp_outcome o);
        let picks =
          List.filter_map
            (function
              | Obs.Ev_oracle_pick (x, rest) -> Some (x, rest)
              | _ -> None)
            (Obs.events tr)
        in
        match picks with
        | [ (chosen, unchosen) ] ->
            (* Two members in the set: whichever the oracle chose, the
               other one must ride along as un-chosen. *)
            Alcotest.(check int) "one un-chosen" 1 (List.length unchosen);
            Alcotest.(check bool) "disjoint" false
              (List.mem chosen unchosen)
        | _ -> Alcotest.fail "expected exactly one oracle pick");
    tc "machine_io brackets balance acquire and release events"
      (fun () ->
        let tr = Obs.create ~on:true () in
        let r =
          Mio.run ~trace:tr
            (parse
               "bracket (putChar 'A' >>= \\u -> return 1) (\\r -> \
                putChar 'R') (\\r -> 1/0)")
        in
        (match r.Mio.outcome with
        | Mio.Uncaught E.Divide_by_zero -> ()
        | o -> Alcotest.failf "outcome: %a" Mio.pp_outcome o);
        let count p = List.length (List.filter p (Obs.events tr)) in
        Alcotest.(check int) "acquires" 1
          (count (function Obs.Ev_acquire -> true | _ -> false));
        Alcotest.(check int) "releases" 1
          (count (function Obs.Ev_release -> true | _ -> false));
        (* The release ran on the exceptional path: the raise is on the
           same record. *)
        Alcotest.(check bool) "raise recorded" true
          (count (function Obs.Ev_raise _ -> true | _ -> false) > 0));
    tc "dump formats the note, extras and recent events" (fun () ->
        let tr = Obs.create ~on:true () in
        Obs.record tr
          (Obs.Ev_raise
             (E.Overflow, Obs.origin ~label:"arith-overflow" ~depth:3
                ~step:42));
        Obs.record tr (Obs.Ev_catch (Some E.Overflow));
        let d =
          Obs.dump ~extra:[ ("steps", "42"); ("heap", "17 cells") ]
            ~note:"test crash" tr
        in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            if i + nn > nh then false
            else String.sub hay i nn = needle || go (i + 1)
          in
          go 0
        in
        let has needle =
          Alcotest.(check bool)
            (Printf.sprintf "dump mentions %S" needle)
            true (contains d needle)
        in
        has "test crash";
        has "steps";
        has "arith-overflow";
        has "Overflow");
  ]

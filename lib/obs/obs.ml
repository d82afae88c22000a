(* The flight recorder: a fixed-size ring buffer of structured events
   shared by both abstract machines and all four IO layers, plus the
   provenance registry that lets a surfaced exception be printed with
   the raise site it came from.

   The contract that keeps this zero-overhead when off: every
   instrumented hot path is gated by exactly one [if Obs.on tr] branch,
   and no event value is allocated unless that branch is taken. The
   provenance registry is the one always-on piece — it is touched only
   on raise paths, which are off the normal-transition fast path by
   construction. *)

module Exn = Lang.Exn

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

type origin = {
  label : string;  (** Static label of the raise site (e.g. ["div"]). *)
  depth : int;  (** Evaluation-stack depth when the raise fired. *)
  step : int;  (** Machine step (0 in the denotational layer). *)
}

let origin ~label ~depth ~step = { label; depth; step }

let pp_origin ppf o =
  if o.step = 0 && o.depth = 0 then Fmt.string ppf o.label
  else Fmt.pf ppf "%s@@step:%d/depth:%d" o.label o.step o.depth

type provenance = (Exn.t, origin) Hashtbl.t
(** Exception constant -> origin of its most recent raise. Keyed on the
    constant itself: two sites raising the same constant overwrite each
    other, which is exactly the "representative member" the machine
    computes with (Section 3.5). *)

let new_provenance () : provenance = Hashtbl.create 16
let set_origin (p : provenance) e o = Hashtbl.replace p e o
let find_origin (p : provenance) e = Hashtbl.find_opt p e

let origins (p : provenance) : (Exn.t * origin) list =
  Hashtbl.fold (fun e o acc -> (e, o) :: acc) p []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let pp_exn_with (p : provenance) ppf e =
  match find_origin p e with
  | Some o -> Fmt.pf ppf "%a \xe2\x86\x90 %a" Exn.pp e pp_origin o
  | None -> Exn.pp ppf e

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event =
  | Ev_raise of Exn.t * origin  (** A raise fired at its origin. *)
  | Ev_rethrow of Exn.t * origin
      (** A poisoned thunk was re-entered: the original raise replays. *)
  | Ev_catch of Exn.t option
      (** A catch mark returned: [Some e] caught, [None] normal value. *)
  | Ev_poison of int * Exn.t
      (** Synchronous unwinding overwrote the thunk at this address. *)
  | Ev_pause of int  (** Async unwinding left a resumable pause cell. *)
  | Ev_resume of int  (** A pause cell was re-entered and resumed. *)
  | Ev_mask_push
  | Ev_mask_pop
  | Ev_async of Exn.t  (** An asynchronous event was delivered. *)
  | Ev_gc of int * int  (** Collection: heap cells before/after. *)
  | Ev_acquire  (** A bracket acquire completed (release registered). *)
  | Ev_release  (** A bracket release ran (either exit path). *)
  | Ev_oracle_pick of Exn.t * Exn.t list
      (** [getException]'s oracle chose a member; the un-chosen members
          of the set ride along (empty for [All]). *)
  | Ev_throwto of int * int * Exn.t
      (** [throwTo]: source thread, target thread, exception sent. *)
  | Ev_kill_delivered of int * Exn.t
      (** A thread-targeted asynchronous exception reached its target
          (after any masked deferral). *)
  | Ev_blocked_recover of int
      (** An irrecoverably blocked thread was woken exceptionally with
          [BlockedIndefinitely] instead of deadlocking the program. *)
  | Ev_io of string  (** Other IO-layer transition (timeout, fork...). *)
  | Ev_lint_fail of string * string
      (** The post-pass IR linter rejected an optimizer pass's output:
          pass name, first violation. *)

let pp_event ppf = function
  | Ev_raise (e, o) -> Fmt.pf ppf "raise %a \xe2\x86\x90 %a" Exn.pp e pp_origin o
  | Ev_rethrow (e, o) ->
      Fmt.pf ppf "rethrow %a \xe2\x86\x90 %a" Exn.pp e pp_origin o
  | Ev_catch (Some e) -> Fmt.pf ppf "catch %a" Exn.pp e
  | Ev_catch None -> Fmt.string ppf "catch (normal)"
  | Ev_poison (a, e) -> Fmt.pf ppf "poison @@%d with %a" a Exn.pp e
  | Ev_pause a -> Fmt.pf ppf "pause @@%d" a
  | Ev_resume a -> Fmt.pf ppf "resume @@%d" a
  | Ev_mask_push -> Fmt.string ppf "mask push"
  | Ev_mask_pop -> Fmt.string ppf "mask pop"
  | Ev_async e -> Fmt.pf ppf "async %a" Exn.pp e
  | Ev_gc (b, a) -> Fmt.pf ppf "gc %d \xe2\x86\x92 %d cells" b a
  | Ev_acquire -> Fmt.string ppf "bracket acquire"
  | Ev_release -> Fmt.string ppf "bracket release"
  | Ev_oracle_pick (e, []) -> Fmt.pf ppf "oracle pick %a" Exn.pp e
  | Ev_oracle_pick (e, rest) ->
      Fmt.pf ppf "oracle pick %a (not: %a)" Exn.pp e
        Fmt.(list ~sep:comma Exn.pp)
        rest
  | Ev_throwto (src, dst, e) ->
      Fmt.pf ppf "throwTo t%d \xe2\x86\x92 t%d: %a" src dst Exn.pp e
  | Ev_kill_delivered (t, e) ->
      Fmt.pf ppf "deliver to t%d: %a" t Exn.pp e
  | Ev_blocked_recover t -> Fmt.pf ppf "t%d blocked-indefinitely recovery" t
  | Ev_io s -> Fmt.pf ppf "io %s" s
  | Ev_lint_fail (pass, v) -> Fmt.pf ppf "lint FAIL after %s: %s" pass v

(* ------------------------------------------------------------------ *)
(* The ring buffer                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable on : bool;
  cap : int;
  mutable buf : event array;
      (** Empty until the recorder is first enabled or written: a recorder
          that stays off (every request machine's, by default) holds no
          buffer. *)
  mutable next : int;  (** Write cursor. *)
  mutable total : int;  (** Events recorded over the recorder's life. *)
}

let create ?(capacity = 256) ?(on = false) () =
  let cap = max 1 capacity in
  {
    on;
    cap;
    buf = (if on then Array.make cap Ev_mask_pop else [||]);
    next = 0;
    total = 0;
  }

let buffer t =
  if Array.length t.buf = 0 then t.buf <- Array.make t.cap Ev_mask_pop;
  t.buf

let on t = t.on

let enable t =
  ignore (buffer t);
  t.on <- true

let capacity t = t.cap
let seen t = t.total

let clear t =
  t.next <- 0;
  t.total <- 0

let record t ev =
  (buffer t).(t.next) <- ev;
  t.next <- (t.next + 1) mod t.cap;
  t.total <- t.total + 1

(* Retained events, oldest first. *)
let events t =
  let cap = t.cap in
  let n = min t.total cap in
  List.init n (fun i -> t.buf.(((t.next - n + i) mod cap + cap) mod cap))

(* ------------------------------------------------------------------ *)
(* Crash dumps                                                         *)
(* ------------------------------------------------------------------ *)

exception Machine_invariant of string
(** A broken machine invariant (an unwind that cannot happen, a return
    into an empty stack mid-step): fatal, but carries a full flight
    recorder dump instead of an anonymous assertion. *)

let dump ?(last = 32) ?(extra = []) ~note t =
  let buf = Buffer.create 512 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "=== flight recorder ===@\n%s@\n" note;
  List.iter (fun (k, v) -> Fmt.pf ppf "%s: %s@\n" k v) extra;
  if not t.on then
    Fmt.pf ppf "(recorder was off: enable tracing for an event history)@\n"
  else begin
    let evs = events t in
    let shown = min last (List.length evs) in
    let evs =
      (* Keep the newest [last] of the retained window. *)
      List.filteri (fun i _ -> i >= List.length evs - shown) evs
    in
    Fmt.pf ppf "%d events recorded (capacity %d), last %d:@\n" t.total
      (capacity t) shown;
    List.iteri
      (fun i ev ->
        Fmt.pf ppf "  [%d] %a@\n" (t.total - shown + i) pp_event ev)
      evs
  end;
  Fmt.flush ppf ();
  Buffer.contents buf

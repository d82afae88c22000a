(** The one IO core: the labelled transition system of Section 4.4 and
    the concurrent scheduler its closing remark anticipates, written once
    and instantiated twice — {!Conc} over denotational thunks and
    {!Machine.Machine_conc} over abstract-machine addresses. A
    single-threaded program is simply the one-thread run.

    The core owns everything that does not depend on how a value is
    represented: continuation frames, thread states, pop/unwind, the
    IO-constructor dispatch, MVars and bounded channels, kill schedules,
    sleepers, deadlock recovery, the round loop and the
    [IMPEXN_SCHED_DEBUG] invariant checks. An instantiation supplies an
    {!EVAL}: how to force a value and read it, how a failure maps to the
    core's {!failure}, how [getException] catches (and whether an
    asynchronous event is due), how values are built, and where the
    evaluator's budget is refilled, the final deep force and a heap
    collection happen.

    The schedule is round-based: each round steps every runnable thread
    once, in tid order, except threads woken or forked during the round
    (see DESIGN §4i). Thread-targeted exceptions ([throwTo], kill
    schedules) are delivered at the target's next scheduling point while
    its mask depth is zero; channel blocking is an interruptible point.
    A thread other than main that takes the self-transition of Section
    4.4 is parked: it spins, the others run on. When no thread can run,
    blocked threads receive the catchable [BlockedIndefinitely] — unless
    a parked thread spins, and the run diverges; [Deadlock] remains only
    when every blocked thread is a masked MVar waiter. *)

module Exn = Lang.Exn
module Vec = Sched.Vec
module Fifo = Sched.Fifo
module Bitq = Sched.Bitq
module Heap = Sched.Heap

(** {1 What an evaluator reports} *)

(** Why forcing a value did not produce a normal value. *)
type failure =
  | Exn of Exn.t  (** An exception: unwind the thread's frames with it. *)
  | Diverge
      (** Take the self-transition of Section 4.4: the run diverges. *)
  | Ill of string  (** Ill-typed: the run is stuck. *)

(** An IO value forced to weak head normal form, one constructor per IO
    primitive. *)
type 'v io =
  | Return of 'v
  | Bind of 'v * 'v
  | Get_char
  | Put_char of 'v
  | Get_exception of 'v
  | Evaluate of 'v
  | Bracket of 'v * 'v * 'v  (** acquire, release, use *)
  | On_exception of 'v * 'v
  | Mask of 'v
  | Unmask of 'v
  | Timeout of 'v * 'v  (** budget, action *)
  | Retry of 'v * 'v * 'v  (** attempts, backoff, action *)
  | Fork of 'v
  | New_mvar
  | Take_mvar of 'v
  | Put_mvar of 'v * 'v
  | New_chan of 'v
  | Read_chan of 'v
  | Write_chan of 'v * 'v
  | My_thread_id
  | Throw_to of 'v * 'v
  | Not_io
  | Failed of failure

(** The plain data the core reads out of values and builds into them,
    named after the source-language constructors. [Other] is what
    {!EVAL.read} returns for anything else; it is never built. *)
type 'v data =
  | Unit
  | Int of int
  | Char of char
  | OK of 'v
  | Bad of Exn.t
  | Just of 'v
  | Nothing
  | MVarRef of int
  | ChanRef of int
  | ThreadId of int
  | Other

(** What [getException v] found. *)
type 'v caught =
  | Action of 'v  (** [v] is an IO action: perform it under a catch frame. *)
  | Value of 'v  (** [v] is a normal value. *)
  | Caught of failure  (** [Exn x] is caught as [Bad x]; others propagate. *)
  | Async of Exn.t  (** An asynchronous event was delivered here (§5.1). *)

(** {1 What a run reports} *)

module Types = struct
  type event =
    | E_write of int * char  (** thread, character written *)
    | E_read of int * char
    | E_fork of int * int  (** parent, child *)
    | E_block of int  (** thread blocked on an MVar or a channel *)
    | E_wake of int
    | E_thread_done of int
    | E_thread_died of int * Exn.t
        (** A non-main thread performed an exceptional IO value. *)
    | E_async of int * Exn.t
        (** An asynchronous event was delivered to this thread. *)
    | E_sleep of int * int
        (** Thread sleeping until the given clock tick ([Retry] backoff). *)
    | E_throwto of int * int * Exn.t
        (** [throwTo]: sender, target, exception (send, not delivery). *)

  type outcome =
    | Done of Sem_value.deep  (** The main thread's result. *)
    | Uncaught of Exn.t
        (** The main thread died: "this simply corresponds to an uncaught
            exception, which the implementation should report" (§4.4). *)
    | Deadlock
        (** No thread can ever run again and every blocked thread is
            masked, so not even [BlockedIndefinitely] can be delivered. *)
    | Diverged
        (** Transition budget exhausted, the main thread took the
            self-transition for a [NonTermination] set, or only threads
            that took it could still run. *)
    | Stuck of string  (** Ill-typed IO value, or input exhausted. *)

  (** Fault and exception-safety counters, shared across all threads. *)
  type counters = {
    mutable async_delivered : int;
        (** Asynchronous events delivered at a [getException]. *)
    mutable brackets_entered : int;
        (** Acquire phases that completed, registering a release. *)
    mutable brackets_released : int;
        (** Releases run; equals [brackets_entered] whenever the program
            terminated ([Done]/[Uncaught]). *)
    mutable timeouts_fired : int;  (** [WithTimeout] deadlines that expired. *)
    mutable masked_sections : int;
        (** Times async delivery was masked (explicit [Mask], bracket
            acquire, every cleanup). *)
    mutable retries : int;  (** [Retry] re-attempts actually taken. *)
    mutable throwtos_delivered : int;
        (** Thread-targeted exceptions that reached their target. *)
    mutable blocked_recoveries : int;
        (** Blocked threads woken exceptionally with
            [BlockedIndefinitely]. *)
    mutable bottom_picks : int;
        (** Oracle picks from ⊥ (the semantic layer only): Section 5.3 lets
            such a pick be any exception, so a run with one owes no
            agreement on its final value. *)
  }

  let fresh_counters () =
    {
      async_delivered = 0;
      brackets_entered = 0;
      brackets_released = 0;
      timeouts_fired = 0;
      masked_sections = 0;
      retries = 0;
      throwtos_delivered = 0;
      blocked_recoveries = 0;
      bottom_picks = 0;
    }

  let pp_event ppf = function
    | E_write (t, c) -> Fmt.pf ppf "t%d!%C" t c
    | E_read (t, c) -> Fmt.pf ppf "t%d?%C" t c
    | E_fork (p, c) -> Fmt.pf ppf "t%d forks t%d" p c
    | E_block t -> Fmt.pf ppf "t%d blocks" t
    | E_wake t -> Fmt.pf ppf "t%d wakes" t
    | E_thread_done t -> Fmt.pf ppf "t%d done" t
    | E_thread_died (t, e) -> Fmt.pf ppf "t%d died: %a" t Exn.pp e
    | E_async (t, e) -> Fmt.pf ppf "t%d async %a" t Exn.pp e
    | E_sleep (t, until) -> Fmt.pf ppf "t%d sleeps until %d" t until
    | E_throwto (s, d, e) -> Fmt.pf ppf "t%d throws %a to t%d" s Exn.pp e d

  let pp_outcome ppf = function
    | Done d -> Fmt.pf ppf "Done %a" Sem_value.pp_deep d
    | Uncaught e -> Fmt.pf ppf "Uncaught %a" Exn.pp e
    | Deadlock -> Fmt.string ppf "Deadlock"
    | Diverged -> Fmt.string ppf "Diverged"
    | Stuck msg -> Fmt.pf ppf "Stuck %S" msg

  (** The characters written by all threads, in global order. *)
  let output_of_events events =
    let buf = Buffer.create 16 in
    List.iter (function E_write (_, c) -> Buffer.add_char buf c | _ -> ()) events;
    Buffer.contents buf
end

include Types

type summary = {
  outcome : outcome;
  events : event list;
  threads_spawned : int;
  transitions : int;  (** Thread steps taken: the scheduler clock. *)
}

(** {1 The evaluator signature} *)

module type EVAL = sig
  type t  (** Evaluator state. *)

  type v  (** A value: a thunk, a heap address. *)

  val action : t -> v -> v io
  (** Force an IO value to WHNF and view it. *)

  val read : t -> v -> (v data, failure) result
  (** Force a value to WHNF and read it as {!data} (references are forced
      down to their integer id). *)

  val exn : t -> v -> (Exn.t, failure) result
  (** Force a value and read it as an exception constant. *)

  val catch : t -> mask:int -> clock:int -> v -> v caught
  (** The evaluation part of [getException], run by a thread with mask
      depth [mask] at scheduler clock [clock]. Records its own catch
      events. *)

  val evaluate : t -> v -> (v, failure) result
  (** Force a value to WHNF: [evaluate]'s precise forcing point. *)

  val bind : t -> v -> v -> (v, failure) result
  (** [bind k x]: force the continuation [k] and apply it to [x]. *)

  val apply : t -> v -> v -> v
  (** Lazy application (bracket's release and use). *)

  val make : t -> v data -> v
  val return : t -> v -> v  (** [Return v] *)

  val refill : t -> unit
  (** Give the next transition a fresh evaluation budget. *)

  val deep : t -> v -> Sem_value.deep  (** The final deep force. *)

  val gc : t -> v list -> v list
  (** Collect, keeping [roots] alive; returns them relocated, in order. *)
end

let debug_default () = Sys.getenv_opt "IMPEXN_SCHED_DEBUG" <> None

module Make (E : EVAL) = struct
  type frame =
    | F_k of E.v  (** [>>=] continuation awaiting the result. *)
    | F_bracket of E.v * E.v
        (** [(release, use)] — the acquire action is running (masked). *)
    | F_release of E.v  (** The applied release; runs on either exit path. *)
    | F_onexn of E.v  (** Handler, run only on the exceptional path. *)
    | F_mask_pop  (** Leave a [Mask] section. *)
    | F_unmask_pop  (** Leave an [Unmask] section. *)
    | F_timeout of int  (** Deadline in clock ticks. *)
    | F_retry of E.v * int * int  (** [(action, attempts_left, backoff)]. *)
    | F_rethrow of Exn.t
        (** Continue unwinding with this exception once the cleanup above
            finishes normally; a cleanup that itself raises wins. *)
    | F_restore of E.v
        (** Continue popping with this saved value once the cleanup above
            finishes (the cleanup's own result is discarded). *)
    | F_catch
        (** [getException] on an IO action (GHC's [try]): a normal result
            pops as [OK v], an unwinding exception — including one
            delivered while the thread is blocked — stops here as [Bad]. *)

  (* What a thread is doing. Its next action and its continuation frames
     live in the thread record, so a transition that leaves the thread
     runnable allocates nothing for the scheduler. *)
  type state =
    | Runnable
    | Blocked_take of int  (** on this MVar *)
    | Blocked_put of int * E.v  (** on this MVar, with the value to deposit *)
    | Blocked_read of int  (** on this channel *)
    | Blocked_write of int * E.v  (** on this channel, with the element *)
    | Sleeping of int
        (** Until the given clock tick, then re-performs the action
            ([Retry]'s deterministic backoff). *)
    | Parked
        (** Took the self-transition of Section 4.4: the thread spins
            forever. It still counts as live, and only a thread-targeted
            exception, delivered while it is unmasked, ends the spin. *)
    | Finished

  type thread = {
    tid : int;
    mutable state : state;
    mutable action : E.v;  (** What a runnable or sleeping thread performs next. *)
    mutable frames : frame list;
    mutable mask : int;
    mutable pending_exns : Exn.t list;
        (** Thread-targeted asynchronous exceptions, FIFO, delivered only
            while [mask = 0] (channel blocking is interruptible
            regardless). *)
    mutable stamp : int;
        (** Round in which the thread last became runnable. A thread woken
            or forked mid-round carries the current round's stamp and is
            skipped by the stepping cursor — the seed scheduler's
            runnable-snapshot-per-round semantics without the snapshot. *)
    mutable blocked_on : (int Fifo.t * int Fifo.node) option;
        (** The blocked-on edge: the waiter queue this thread sits in and
            its node there, so exceptional wakeups detach in O(1). *)
  }

  type mvar = {
    mutable contents : E.v option;
    take_waiters : int Fifo.t;
    put_waiters : int Fifo.t;
  }

  (* A bounded channel. Readers wait only while the buffer is empty,
     writers only while it is full, so a wake never cascades. A blocked
     writer's element lives in its thread state until the deposit
     happens, so killing a blocked writer never loses a buffered
     element. *)
  type chan = {
    cap : int;
    buf : E.v Queue.t;
    readers : int Fifo.t;
    writers : int Fifo.t;
  }

  (* Whether a [timeout] deadline among the frames has passed. *)
  let rec deadline_passed clock = function
    | [] -> false
    | F_timeout d :: _ when d <= clock -> true
    | _ :: rest -> deadline_passed clock rest

  let run (st : E.t) ~trace:tr ~counters ~input ~kills ~check_invariants
      ~max_steps ~gc_every (main : E.v) : summary =
    let trace_rev = ref [] in
    let emit ev = trace_rev := ev :: !trace_rev in
    let fresh_thread tid mask =
      { tid; state = Finished; action = main; frames = []; mask; pending_exns = []; stamp = 0;
        blocked_on = None }
    in
    let threads = Vec.create (fresh_thread (-1) 0) in
    let spawned = ref 0 in
    let clock = ref 0 in
    let round = ref 0 in
    let mvars : (int, mvar) Hashtbl.t = Hashtbl.create 8 in
    let chans : (int, chan) Hashtbl.t = Hashtbl.create 8 in
    let input_pos = ref 0 in
    let main_result : outcome option ref = ref None in
    let kills = ref kills in
    let gc_due = ref false in

    (* The scheduler indices. [runq] holds exactly the Runnable tids,
       [blockedq] exactly the Blocked_* tids, [signaled] the blocked or
       sleeping tids that may have a deliverable pending exception;
       sleepers sit in a (wake_at, tid) min-heap with lazy deletion. *)
    let runq = Bitq.create () in
    let blockedq = Bitq.create () in
    let signaled = Bitq.create () in
    let sleep_heap = Heap.create () in
    let n_sleeping = ref 0 in
    let n_parked = ref 0 in
    let find_thread tid = Vec.get threads tid in

    (* Every state change goes through here so the indices stay exact:
       leaving a state retires its index entry (including the blocked-on
       edge), entering one installs it. *)
    let set_state (t : thread) (s : state) =
      (match t.state with
      | Runnable -> Bitq.remove runq t.tid
      | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
          Bitq.remove blockedq t.tid;
          (match t.blocked_on with Some (q, n) -> Fifo.remove q n | None -> ());
          t.blocked_on <- None
      | Sleeping _ -> decr n_sleeping
      | Parked -> decr n_parked
      | Finished -> ());
      t.state <- s;
      match s with
      | Runnable ->
          Bitq.add runq t.tid;
          t.stamp <- !round
      | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ ->
          Bitq.add blockedq t.tid;
          if t.pending_exns <> [] then Bitq.add signaled t.tid
      | Sleeping until ->
          incr n_sleeping;
          Heap.push sleep_heap until t.tid;
          if t.pending_exns <> [] then Bitq.add signaled t.tid
      | Parked ->
          incr n_parked;
          if t.pending_exns <> [] then Bitq.add signaled t.tid
      | Finished -> t.frames <- []
    in
    let runnable t a frames =
      t.action <- a;
      t.frames <- frames;
      match t.state with
      | Runnable -> t.stamp <- !round (* the stepping thread: the indices stand *)
      | _ -> set_state t Runnable
    in
    let block t s frames q =
      emit (E_block t.tid);
      t.frames <- frames;
      set_state t s;
      t.blocked_on <- Some (q, Fifo.push_tail q t.tid)
    in

    let new_thread a mask =
      let tid = !spawned in
      incr spawned;
      let t = fresh_thread tid mask in
      Vec.push threads t;
      runnable t a [];
      t
    in
    let main_thread = new_thread main 0 in

    let ret d = E.return st (E.make st d) in
    let stuck msg = main_result := Some (Stuck msg) in
    let enter_mask t =
      t.mask <- t.mask + 1;
      counters.masked_sections <- counters.masked_sections + 1;
      if Obs.on tr then Obs.record tr Obs.Ev_mask_push
    in
    let leave_mask t =
      t.mask <- max 0 (t.mask - 1);
      if Obs.on tr then Obs.record tr Obs.Ev_mask_pop
    in

    let finish (t : thread) v =
      emit (E_thread_done t.tid);
      if t == main_thread then begin
        (* The final deep force is its own transition: it must not run on
           whatever budget the last action left over. *)
        E.refill st;
        main_result := Some (Done (E.deep st v))
      end;
      set_state t Finished
    in
    let die (t : thread) x =
      if t == main_thread then main_result := Some (Uncaught x)
      else emit (E_thread_died (t.tid, x));
      set_state t Finished
    in

    (* Normal return [v] through [t]'s frames: installs the next runnable
       action, or finishes the thread. *)
    let rec pop (t : thread) v frames =
      match frames with
      | [] -> finish t v
      | F_k k :: rest -> (
          (* Looking up the next continuation starts a new transition:
             the previous action may have exhausted the budget, and
             forcing [k] on the leftovers would collapse a healthy
             continuation (an exception an enclosing [F_catch] just
             caught would spuriously escape as uncaught). *)
          E.refill st;
          match E.bind st k v with
          | Ok a -> runnable t a rest
          | Error f -> fail t f rest)
      | F_bracket (rel, use) :: rest ->
          (* Acquire finished: the release is now registered; unmask and
             run the use phase under its protection. *)
          counters.brackets_entered <- counters.brackets_entered + 1;
          if Obs.on tr then Obs.record tr Obs.Ev_acquire;
          leave_mask t;
          runnable t (E.apply st use v) (F_release (E.apply st rel v) :: rest)
      | F_release r :: rest ->
          counters.brackets_released <- counters.brackets_released + 1;
          if Obs.on tr then Obs.record tr Obs.Ev_release;
          enter_mask t;
          runnable t r (F_mask_pop :: F_restore v :: rest)
      | F_onexn _ :: rest | F_retry _ :: rest -> pop t v rest
      | F_mask_pop :: rest ->
          leave_mask t;
          pop t v rest
      | F_unmask_pop :: rest ->
          t.mask <- t.mask + 1;
          pop t v rest
      | F_timeout _ :: rest -> pop t (E.make st (Just v)) rest
      | F_rethrow x :: rest -> unwind t x rest
      | F_restore saved :: rest -> pop t saved rest
      | F_catch :: rest ->
          if Obs.on tr then Obs.record tr (Obs.Ev_catch None);
          pop t (E.make st (OK v)) rest
    (* Exceptional return through [t]'s frames: run releases and
       handlers, or kill the thread at the bottom. *)
    and unwind (t : thread) x frames =
      match frames with
      | [] -> die t x
      | F_k _ :: rest | F_rethrow _ :: rest | F_restore _ :: rest ->
          (* A cleanup that raised while unwinding: the newer exception
             wins over a pending [F_rethrow]. *)
          unwind t x rest
      | F_bracket _ :: rest ->
          (* The acquire itself failed: nothing to release. *)
          leave_mask t;
          unwind t x rest
      | F_release r :: rest ->
          counters.brackets_released <- counters.brackets_released + 1;
          if Obs.on tr then Obs.record tr Obs.Ev_release;
          enter_mask t;
          runnable t r (F_mask_pop :: F_rethrow x :: rest)
      | F_onexn h :: rest ->
          enter_mask t;
          runnable t h (F_mask_pop :: F_rethrow x :: rest)
      | F_mask_pop :: rest ->
          leave_mask t;
          unwind t x rest
      | F_unmask_pop :: rest ->
          t.mask <- t.mask + 1;
          unwind t x rest
      | F_timeout _ :: rest when x = Exn.Timeout -> pop t (E.make st Nothing) rest
      | F_timeout _ :: rest -> unwind t x rest
      | F_retry (action, attempts, backoff) :: rest ->
          if attempts > 0 then begin
            (* Deterministic backoff: sleep on the scheduler clock, so the
               wait interacts reproducibly with timeouts and schedules. *)
            counters.retries <- counters.retries + 1;
            let until = !clock + backoff in
            emit (E_sleep (t.tid, until));
            t.action <- action;
            t.frames <- F_retry (action, attempts - 1, 2 * backoff) :: rest;
            set_state t (Sleeping until)
          end
          else unwind t x rest
      | F_catch :: rest ->
          if Obs.on tr then Obs.record tr (Obs.Ev_catch (Some x));
          (* A caught HeapOverflow frees the abandoned allocations at the
             next safe point, so the handler has room to recover. *)
          if x = Exn.Heap_overflow then gc_due := true;
          pop t (E.make st (Bad x)) rest
    and fail t f frames =
      match f with
      | Exn x -> unwind t x frames
      | Diverge when t == main_thread -> main_result := Some Diverged
      | Diverge ->
          (* Any other thread spins on its own; the rest run on. *)
          t.frames <- frames;
          set_state t Parked
      | Ill msg -> stuck msg
    in

    (* Normal wakes. An MVar waiter re-checks the cell (the caller has
       already popped it from the waiter queue); the channel invariants
       guarantee a woken reader finds data and a woken writer finds
       room. *)
    let wake tid =
      let t = find_thread tid in
      match t.state with
      | Blocked_take id -> (
          let m = Hashtbl.find mvars id in
          match m.contents with
          | Some v ->
              m.contents <- None;
              emit (E_wake tid);
              runnable t (E.return st v) t.frames
          | None -> ())
      | Blocked_put (id, v) -> (
          let m = Hashtbl.find mvars id in
          match m.contents with
          | None ->
              m.contents <- Some v;
              emit (E_wake tid);
              runnable t (ret Unit) t.frames
          | Some _ -> ())
      | Blocked_read id ->
          let v = Queue.pop (Hashtbl.find chans id).buf in
          emit (E_wake tid);
          runnable t (E.return st v) t.frames
      | Blocked_write (id, v) ->
          Queue.push v (Hashtbl.find chans id).buf;
          emit (E_wake tid);
          runnable t (ret Unit) t.frames
      | Runnable | Sleeping _ | Parked | Finished -> ()
    in
    let wake_head q = match Fifo.pop_head q with Some w -> wake w | None -> () in

    (* A pending exception, if deliverable: MVar waiters and runnable
       threads only while unmasked, channel waiters regardless (channel
       blocking is an interruptible point, PLDI'01). *)
    let take_pending ~interruptible (t : thread) =
      match t.pending_exns with
      | x :: rest when interruptible || t.mask = 0 ->
          t.pending_exns <- rest;
          Some x
      | _ -> None
    in
    (* Thread-targeted delivery by unwinding [t]'s frames: releases and
       handlers run, an [F_catch] stops it; the blocked-on edge is
       detached by [set_state] when the unwind leaves the blocked state. *)
    let deliver_unwind (t : thread) x frames =
      counters.throwtos_delivered <- counters.throwtos_delivered + 1;
      if Obs.on tr then Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
      emit (E_async (t.tid, x));
      unwind t x frames
    in
    (* Queue a thread-targeted exception and flag a target that cannot
       reach a delivery point on its own. Sends to unknown or finished
       threads are no-ops. *)
    let enqueue_pending target x =
      if target >= 0 && target < !spawned then
        let tgt = find_thread target in
        match tgt.state with
        | Finished -> ()
        | Runnable -> tgt.pending_exns <- tgt.pending_exns @ [ x ]
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ | Sleeping _
        | Parked ->
            tgt.pending_exns <- tgt.pending_exns @ [ x ];
            Bitq.add signaled tgt.tid
    in
    let type_error t msg frames = unwind t (Exn.Type_error msg) frames in

    (* One transition of thread [t], performing [action]. *)
    let perform (t : thread) action frames =
      match E.action st action with
      | Failed f -> fail t f frames
      | Not_io -> stuck "not an IO value"
      | Return v -> pop t v frames
      | Bind (m1, k) -> runnable t m1 (F_k k :: frames)
      | Get_char ->
          if !input_pos >= String.length input then stuck "getChar: end of input"
          else begin
            let ch = input.[!input_pos] in
            incr input_pos;
            emit (E_read (t.tid, ch));
            runnable t (ret (Char ch)) frames
          end
      | Put_char c -> (
          match E.read st c with
          | Ok (Char ch) ->
              emit (E_write (t.tid, ch));
              runnable t (ret Unit) frames
          | Ok _ -> stuck "putChar: not a character"
          | Error f -> fail t f frames)
      | Get_exception v -> (
          match E.catch st ~mask:t.mask ~clock:!clock v with
          | Action a -> runnable t a (F_catch :: frames)
          | Value a -> runnable t (ret (OK a)) frames
          | Caught (Exn x) ->
              if x = Exn.Heap_overflow then gc_due := true;
              runnable t (ret (Bad x)) frames
          | Caught f -> fail t f frames
          | Async x ->
              (* getException v —¡x→ return (Bad x): v may be discarded
                 even if normal (Section 5.1). *)
              counters.async_delivered <- counters.async_delivered + 1;
              emit (E_async (t.tid, x));
              runnable t (ret (Bad x)) frames)
      | Evaluate v -> (
          (* The precise forcing point: the argument's exception set
             collapses to a member at exactly this point in the IO
             sequence, unlike [return e], whose payload stays lazy. *)
          match E.evaluate st v with
          | Ok a -> runnable t (E.return st a) frames
          | Error f -> fail t f frames)
      | Bracket (acq, rel, use) ->
          (* The acquire runs masked, so an async event cannot slip in
             between acquire completing and the release being registered. *)
          enter_mask t;
          runnable t acq (F_bracket (rel, use) :: frames)
      | On_exception (m1, h) -> runnable t m1 (F_onexn h :: frames)
      | Mask m1 ->
          enter_mask t;
          runnable t m1 (F_mask_pop :: frames)
      | Unmask m1 ->
          leave_mask t;
          runnable t m1 (F_unmask_pop :: frames)
      | Timeout (n, m1) -> (
          match E.read st n with
          | Ok (Int k) -> runnable t m1 (F_timeout (!clock + max 0 k) :: frames)
          | Ok _ -> stuck "timeout: budget is not an integer"
          | Error f -> fail t f frames)
      | Retry (n, b, m1) -> (
          match (E.read st n, E.read st b) with
          | Ok (Int attempts), Ok (Int backoff) ->
              runnable t m1 (F_retry (m1, max 0 attempts, max 1 backoff) :: frames)
          | Error f, _ | _, Error f -> fail t f frames
          | _ -> stuck "retry: attempts/backoff are not integers")
      | Fork m1 ->
          (* The child starts at the parent's mask depth: a thread forked
             inside an acquire is born protected. *)
          let child = new_thread m1 t.mask in
          if Obs.on tr then
            Obs.record tr (Obs.Ev_io (Printf.sprintf "fork thread %d" child.tid));
          emit (E_fork (t.tid, child.tid));
          runnable t (ret Unit) frames
      | New_mvar ->
          let id = Hashtbl.length mvars in
          Hashtbl.replace mvars id
            { contents = None; take_waiters = Fifo.create (); put_waiters = Fifo.create () };
          runnable t (ret (MVarRef id)) frames
      | Take_mvar r -> (
          match E.read st r with
          | Ok (MVarRef id) -> (
              let m = Hashtbl.find mvars id in
              match m.contents with
              | Some v ->
                  m.contents <- None;
                  (* a blocked putter can now deposit *)
                  wake_head m.put_waiters;
                  runnable t (E.return st v) frames
              | None -> block t (Blocked_take id) frames m.take_waiters)
          | Ok _ -> type_error t "not an MVar" frames
          | Error f -> fail t f frames)
      | Put_mvar (r, v) -> (
          match E.read st r with
          | Ok (MVarRef id) -> (
              let m = Hashtbl.find mvars id in
              match m.contents with
              | None ->
                  m.contents <- Some v;
                  wake_head m.take_waiters;
                  runnable t (ret Unit) frames
              | Some _ -> block t (Blocked_put (id, v)) frames m.put_waiters)
          | Ok _ -> type_error t "not an MVar" frames
          | Error f -> fail t f frames)
      | New_chan n -> (
          match E.read st n with
          | Ok (Int k) ->
              let id = Hashtbl.length chans in
              Hashtbl.replace chans id
                { cap = max 1 k; buf = Queue.create (); readers = Fifo.create ();
                  writers = Fifo.create () };
              runnable t (ret (ChanRef id)) frames
          | Ok _ -> stuck "newChan: capacity is not an integer"
          | Error f -> fail t f frames)
      | Read_chan r -> (
          match E.read st r with
          | Ok (ChanRef id) ->
              let ch = Hashtbl.find chans id in
              if Queue.is_empty ch.buf then block t (Blocked_read id) frames ch.readers
              else begin
                let v = Queue.pop ch.buf in
                (* room appeared: the oldest blocked writer deposits *)
                wake_head ch.writers;
                runnable t (E.return st v) frames
              end
          | Ok _ -> type_error t "not a channel" frames
          | Error f -> fail t f frames)
      | Write_chan (r, v) -> (
          match E.read st r with
          | Ok (ChanRef id) ->
              let ch = Hashtbl.find chans id in
              if Queue.length ch.buf >= ch.cap then
                block t (Blocked_write (id, v)) frames ch.writers
              else begin
                Queue.push v ch.buf;
                wake_head ch.readers;
                runnable t (ret Unit) frames
              end
          | Ok _ -> type_error t "not a channel" frames
          | Error f -> fail t f frames)
      | My_thread_id -> runnable t (ret (ThreadId t.tid)) frames
      | Throw_to (tt, et) -> (
          match E.read st tt with
          | Ok (ThreadId target) -> (
              match E.exn st et with
              | Ok x ->
                  if Obs.on tr then Obs.record tr (Obs.Ev_throwto (t.tid, target, x));
                  emit (E_throwto (t.tid, target, x));
                  if target = t.tid then begin
                    (* throwTo to oneself is synchronous (GHC): deliver
                       regardless of masking. *)
                    counters.throwtos_delivered <- counters.throwtos_delivered + 1;
                    if Obs.on tr then Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                    emit (E_async (t.tid, x));
                    unwind t x frames
                  end
                  else begin
                    enqueue_pending target x;
                    runnable t (ret Unit) frames
                  end
              | Error f -> fail t f frames)
          | Ok _ -> type_error t "throwTo: not a ThreadId" frames
          | Error f -> fail t f frames)
    in

    let step (t : thread) =
      match t.state with
      | Runnable -> (
          let action = t.action and frames = t.frames in
          incr clock;
          E.refill st;
          match take_pending ~interruptible:false t with
          | Some x -> (
              (* A thread-targeted exception is due. An interrupted
                 [getException] catches it right here (§5.1); otherwise
                 it unwinds the thread's frames. *)
              match E.action st action with
              | Get_exception _ ->
                  counters.throwtos_delivered <- counters.throwtos_delivered + 1;
                  if Obs.on tr then begin
                    Obs.record tr (Obs.Ev_kill_delivered (t.tid, x));
                    Obs.record tr (Obs.Ev_catch (Some x))
                  end;
                  emit (E_async (t.tid, x));
                  runnable t (ret (Bad x)) frames
              | _ -> deliver_unwind t x frames)
          | None ->
              if t.mask = 0 && deadline_passed !clock frames then begin
                counters.timeouts_fired <- counters.timeouts_fired + 1;
                if Obs.on tr then Obs.record tr (Obs.Ev_io "timeout fired");
                unwind t Exn.Timeout frames
              end
              else perform t action frames)
      | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ | Sleeping _
      | Parked | Finished ->
          ()
    in

    (* Heap collection. The roots are every value the scheduler holds:
       each thread's action and frames, blocked writers' and putters'
       values, sleepers, MVar contents and channel buffers. [map_values]
       visits them in one fixed order, so a collecting pass and a
       relocating pass line up. *)
    let map_values f =
      let frame = function
        | F_k a -> F_k (f a)
        | F_bracket (a, b) ->
            let a = f a in
            F_bracket (a, f b)
        | F_release a -> F_release (f a)
        | F_onexn a -> F_onexn (f a)
        | F_retry (a, n, b) -> F_retry (f a, n, b)
        | F_restore a -> F_restore (f a)
        | (F_mask_pop | F_unmask_pop | F_timeout _ | F_rethrow _ | F_catch) as fr -> fr
      in
      let frames fs = List.map frame fs in
      Vec.iter
        (fun t ->
          match t.state with
          | Finished -> ()
          | s ->
              (match s with Runnable | Sleeping _ -> t.action <- f t.action | _ -> ());
              (match s with
              | Blocked_put (id, a) -> t.state <- Blocked_put (id, f a)
              | Blocked_write (id, a) -> t.state <- Blocked_write (id, f a)
              | _ -> ());
              t.frames <- frames t.frames)
        threads;
      for id = 0 to Hashtbl.length mvars - 1 do
        let m = Hashtbl.find mvars id in
        m.contents <- Option.map f m.contents
      done;
      for id = 0 to Hashtbl.length chans - 1 do
        let ch = Hashtbl.find chans id in
        let items = List.map f (List.of_seq (Queue.to_seq ch.buf)) in
        Queue.clear ch.buf;
        List.iter (fun a -> Queue.push a ch.buf) items
      done
    in
    let collect () =
      let roots = ref [] in
      map_values (fun a ->
          roots := a :: !roots;
          a);
      let moved = ref (E.gc st (List.rev !roots)) in
      map_values (fun _ ->
          match !moved with
          | a :: rest ->
              moved := rest;
              a
          | [] -> assert false)
    in
    (* Between transitions nothing is mid-evaluation: collect here when
       [gc_every] transitions have passed or a HeapOverflow was caught. *)
    let safe_point () =
      (match gc_every with
      | Some k when k > 0 && !clock > 0 && !clock mod k = 0 -> gc_due := true
      | _ -> ());
      if !gc_due then begin
        gc_due := false;
        collect ()
      end
    in

    (* Round-start phase 1: wake every sleeper whose deadline passed.
       Heap entries are validated against the thread's live state (lazy
       deletion); ties pop in (deadline, tid) order. *)
    let rec wake_due_sleepers () =
      match Heap.peek sleep_heap with
      | Some (until, tid) when until <= !clock ->
          ignore (Heap.pop sleep_heap);
          let t = find_thread tid in
          (match t.state with
          | Sleeping u when u = until ->
              emit (E_wake tid);
              runnable t t.action t.frames
          | _ -> () (* stale entry *));
          wake_due_sleepers ()
      | _ -> ()
    in
    (* The earliest deadline of a live sleeper, discarding stale heap
       entries on the way. *)
    let rec earliest_sleeper () =
      match Heap.peek sleep_heap with
      | None -> None
      | Some (until, tid) -> (
          match (find_thread tid).state with
          | Sleeping u when u = until -> Some until
          | _ ->
              ignore (Heap.pop sleep_heap);
              earliest_sleeper ())
    in
    (* Round-start phase 3: blocked, sleeping and parked threads cannot
       reach a delivery point on their own; deliver to the flagged ones.
       Masked MVar waiters, sleepers and parked threads keep their
       pending exceptions — their mask cannot change while they are not
       runnable. *)
    let drain_signaled () =
      List.iter
        (fun tid ->
          Bitq.remove signaled tid;
          let t = find_thread tid in
          let deliver ~interruptible =
            match take_pending ~interruptible t with
            | Some x -> deliver_unwind t x t.frames
            | None -> ()
          in
          match t.state with
          | Blocked_take _ | Blocked_put _ | Sleeping _ | Parked -> deliver ~interruptible:false
          | Blocked_read _ | Blocked_write _ -> deliver ~interruptible:true
          | Runnable | Finished -> () (* woke up meanwhile: its own step delivers *))
        (Bitq.to_list signaled)
    in

    (* Debug-flag invariant checks: every runnable thread in the run
       queue exactly once, every blocked thread with exactly one attached
       blocked-on edge, channel bounds — with a flight-recorder dump on
       violation. *)
    let sched_violation msg =
      let extra =
        [
          ("round", string_of_int !round);
          ("clock", string_of_int !clock);
          ("threads", string_of_int !spawned);
          ("runnable", string_of_int (Bitq.cardinal runq));
          ("blocked", string_of_int (Bitq.cardinal blockedq));
          ("sleeping", string_of_int !n_sleeping);
        ]
      in
      raise
        (Obs.Machine_invariant (Obs.dump ~extra ~note:("scheduler invariant: " ^ msg) tr))
    in
    let check_indices () =
      let violation fmt = Printf.ksprintf sched_violation fmt in
      let is_blocked t =
        match t.state with
        | Blocked_take _ | Blocked_put _ | Blocked_read _ | Blocked_write _ -> true
        | Runnable | Sleeping _ | Parked | Finished -> false
      in
      let is_runnable t = match t.state with Runnable -> true | _ -> false in
      let sleeping = ref 0 and parked = ref 0 in
      Vec.iter
        (fun t ->
          let tid = t.tid in
          (match t.state with Sleeping _ -> incr sleeping | Parked -> incr parked | _ -> ());
          if is_runnable t <> Bitq.mem runq tid then
            violation "t%d runnable=%b but in run queue=%b" tid (is_runnable t)
              (Bitq.mem runq tid);
          if is_blocked t then begin
            if not (Bitq.mem blockedq tid) then violation "blocked t%d missing from blocked set" tid;
            match t.blocked_on with
            | None -> violation "blocked t%d has no blocked-on edge" tid
            | Some (_, n) ->
                if not n.Fifo.in_q then violation "blocked t%d's blocked-on edge is detached" tid;
                if n.Fifo.value <> tid then
                  violation "blocked t%d's blocked-on edge names t%d" tid n.Fifo.value
          end
          else if t.blocked_on <> None then violation "non-blocked t%d holds a blocked-on edge" tid)
        threads;
      if !sleeping <> !n_sleeping then
        violation "sleeper count %d but %d threads sleeping" !n_sleeping !sleeping;
      if !parked <> !n_parked then
        violation "parked count %d but %d threads parked" !n_parked !parked;
      Bitq.iter
        (fun tid ->
          if not (is_runnable (find_thread tid)) then
            violation "run queue names non-runnable t%d" tid)
        runq;
      Bitq.iter
        (fun tid ->
          if not (is_blocked (find_thread tid)) then
            violation "blocked set names non-blocked t%d" tid)
        blockedq;
      Hashtbl.iter
        (fun id c ->
          if Queue.length c.buf > c.cap then
            violation "channel %d holds %d > cap %d" id (Queue.length c.buf) c.cap;
          if Fifo.length c.readers > 0 && not (Queue.is_empty c.buf) then
            violation "channel %d has readers waiting on data" id;
          if Fifo.length c.writers > 0 && Queue.length c.buf < c.cap then
            violation "channel %d has writers waiting on room" id)
        chans
    in

    (* Irrecoverably blocked. Instead of a global [Deadlock], deliver
       [BlockedIndefinitely] to every unmasked blocked thread — and every
       channel-blocked thread, masked or not — in tid order, as a
       catchable exception; only when every blocked thread is a masked
       MVar waiter is this a true deadlock. *)
    let recover_blocked () =
      let victims = ref [] in
      Bitq.iter
        (fun tid ->
          let t = find_thread tid in
          match t.state with
          | (Blocked_take _ | Blocked_put _) when t.mask = 0 -> victims := t :: !victims
          | Blocked_read _ | Blocked_write _ -> victims := t :: !victims
          | _ -> ())
        blockedq;
      List.iter
        (fun t ->
          counters.blocked_recoveries <- counters.blocked_recoveries + 1;
          if Obs.on tr then Obs.record tr (Obs.Ev_blocked_recover t.tid);
          emit (E_async (t.tid, Exn.Blocked_indefinitely));
          unwind t Exn.Blocked_indefinitely t.frames)
        (List.rev !victims);
      !victims <> []
    in

    let rec scheduler () =
      match !main_result with
      | Some o -> o
      | None when !clock >= max_steps -> Diverged
      | None -> (
          wake_due_sleepers ();
          (* Due kill-schedule entries become pending thread-targeted
             exceptions (the fault-injection axis). Both this phase and
             the delivery phase are skipped when they have nothing to do:
             with one thread, every transition is a round. *)
          if !kills <> [] then begin
            let due, later = List.partition (fun (k, _, _) -> !clock >= k) !kills in
            kills := later;
            List.iter (fun (_, target, x) -> enqueue_pending target x) due
          end;
          if not (Bitq.is_empty signaled) then drain_signaled ();
          match !main_result with
          | Some o -> o
          | None ->
              if check_invariants then check_indices ();
              if not (Bitq.is_empty runq) then begin
                (* The stepping round. Bumping the round counter here —
                   after the wake/kill/delivery phases — stamps threads
                   woken by those phases as steppable this round, while
                   threads woken mid-round by another thread's step are
                   stamped with the new round and skipped. *)
                incr round;
                let rec go i =
                  let tid = Bitq.next runq i in
                  if tid >= 0 then begin
                    let t = find_thread tid in
                    if t.stamp <> !round then begin
                      safe_point ();
                      step t
                    end;
                    go (tid + 1)
                  end
                in
                go 0;
                scheduler ()
              end
              else if !n_sleeping > 0 then begin
                (* Only sleepers left: fast-forward the clock to the
                   earliest wake-up instead of deadlocking. *)
                (match earliest_sleeper () with
                | Some until -> clock := until
                | None -> sched_violation "sleeper heap lost an entry");
                scheduler ()
              end
              else if !n_parked > 0 then
                (* A parked thread spins forever, so the blocked threads
                   are not blocked indefinitely: the run diverges. *)
                Diverged
              else if recover_blocked () then scheduler ()
              else Deadlock)
    in
    let outcome = match scheduler () with o -> o | exception Stack_overflow -> Diverged in
    { outcome; events = List.rev !trace_rev; threads_spawned = !spawned; transitions = !clock }
end

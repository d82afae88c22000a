(* A cross-layer fault-injection harness.

   From a seeded oracle we generate a [fault] — a schedule of
   asynchronous events, optional heap/stack ceilings, a starved machine
   fuel budget, truncated input, a kill schedule and a GC cadence — then
   run a small library of template programs under both IO layers (the
   one IO core over the denotation, {!Semantics.Conc}, and over the
   machine, {!Machine.Machine_conc}) and check the exception-safety
   invariants that are supposed to survive *any* fault:

   - every surfaced uncaught exception is a member of the denotational
     exception set of the program's pure core (or is an asynchronous /
     resource event, which the semantics allows anywhere);
   - bracket releases run exactly once per completed acquire
     ([brackets_entered = brackets_released] whenever the program ran to
     [Done]/[Uncaught], and the 'A'/'R' output markers pair up);
   - a shared thunk interrupted mid-evaluation never loses work: a second
     force sees the same value or the same exception, never a different
     one (the pause-cell invariant, template [shared-thunk]);
   - [Mask] really defers delivery: a masked section's output is never
     torn by an injected event. *)

module Exn = Lang.Exn
module Denot = Semantics.Denot
module Exn_set = Semantics.Exn_set
module Oracle = Semantics.Oracle
module Conc = Semantics.Conc
module Stg = Machine.Stg
module Machine_conc = Machine.Machine_conc

type fault = {
  seed : int;
  async : (int * Exn.t) list;
  kills : (int * int * Exn.t) list;
      (** Thread-targeted sends [(clock, tid, exn)], the [throwTo] /
          [killThread] axis. *)
  heap_limit : int option;
  stack_limit : int option;
  starved_fuel : int option;
      (** Machine fuel override (tiny), simulating fuel exhaustion. *)
  truncate_input : bool;
  gc_every : int option;  (** Machine-layer collection cadence. *)
}

let no_fault seed =
  {
    seed;
    async = [];
    kills = [];
    heap_limit = None;
    stack_limit = None;
    starved_fuel = None;
    truncate_input = false;
    gc_every = None;
  }

(* A fault is "clean" when it cannot legitimately change the program's
   termination behaviour: only then do the strictest checks apply. Kill
   schedules can end threads mid-output, so they are not clean. *)
let clean f =
  f.heap_limit = None && f.stack_limit = None && f.starved_fuel = None
  && f.kills = []

let pp_fault ppf f =
  Fmt.pf ppf
    "{seed=%d; async=[%a]; kills=[%a]; heap=%a; stack=%a; fuel=%a; trunc=%b}"
    f.seed
    Fmt.(list ~sep:comma (pair ~sep:(any "@") int Exn.pp))
    f.async
    Fmt.(
      list ~sep:comma (fun ppf (k, tid, x) ->
          Fmt.pf ppf "%a→t%d@%d" Exn.pp x tid k))
    f.kills
    Fmt.(option ~none:(any "-") int)
    f.heap_limit
    Fmt.(option ~none:(any "-") int)
    f.stack_limit
    Fmt.(option ~none:(any "-") int)
    f.starved_fuel f.truncate_input

type layer = L_conc | L_machine_conc

let layer_name = function L_conc -> "conc" | L_machine_conc -> "machine_conc"
let layers = [ L_conc; L_machine_conc ]

type status = S_done | S_uncaught of Exn.t | S_diverged | S_stuck | S_deadlock

let status_name = function
  | S_done -> "done"
  | S_uncaught e -> Fmt.str "uncaught %a" Exn.pp e
  | S_diverged -> "diverged"
  | S_stuck -> "stuck"
  | S_deadlock -> "deadlock"

type observation = {
  status : status;
  output : string;
  entered : int;  (** Bracket acquires that completed. *)
  released : int;  (** Bracket releases that ran. *)
}

(* Template programs: the [source] is surface syntax wrapped with the
   Prelude (we cannot use [Imprecise.parse] here — the core library
   depends on this one). [core] is the pure sub-expression whose
   denotational exception set bounds the uncaught exceptions the program
   may surface; [special] holds per-template invariants. *)
type template = {
  name : string;
  source : string;
  base_input : string;
  core : string option;
  deterministic : bool;
      (** Zero-fault output is identical across layers (false for
          templates whose output depends on the layer's clock). *)
  special : fault -> observation -> string list;
}

let parse_tbl : (string, Lang.Syntax.expr) Hashtbl.t = Hashtbl.create 32

let parse src =
  match Hashtbl.find_opt parse_tbl src with
  | Some e -> e
  | None ->
      let e = Lang.Prelude.wrap (Lang.Parser.parse_expr src) in
      Hashtbl.add parse_tbl src e;
      e

let exn_set_tbl : (string, Exn_set.t) Hashtbl.t = Hashtbl.create 8

(* The denotational exception set of a pure core, at generous fuel. *)
let core_exn_set core =
  match Hashtbl.find_opt exn_set_tbl core with
  | Some s -> s
  | None ->
      let s = Denot.exception_set (parse core) in
      Hashtbl.add exn_set_tbl core s;
      s

let count c s =
  String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 s

let no_special _ _ = []

(* ------------------------------------------------------------------ *)
(* Template library                                                    *)
(* ------------------------------------------------------------------ *)

let cores =
  [
    ("pure", "sum (enumFromTo 1 40)");
    ("divzero", "1 / 0");
    ("headnil", "head []");
    ("mixed", "(1 / 0) + error \"Urk\"");
  ]

(* T1: a supervised core inside a bracket; the supervisor catches, so the
   program always completes (an injected event only changes which [Bad]
   the supervisor sees). *)
let t_bracket_supervised (cname, core) =
  {
    name = "bracket-supervised/" ^ cname;
    source =
      Fmt.str
        "bracket (putChar 'A' >>= \\u -> return 7) (\\r -> putChar 'R') \
         (\\r -> getException (%s) >>= \\v -> putChar 'B' >>= \\u2 -> \
         return 3)"
        core;
    base_input = "";
    core = Some core;
    deterministic = true;
    special = no_special;
  }

(* T2: the use phase forces the core unprotected — exceptional cores
   escape, but only after the release has run. *)
let t_bracket_uncaught (cname, core) =
  {
    name = "bracket-uncaught/" ^ cname;
    source =
      Fmt.str
        "putChar 'S' >>= \\u0 -> bracket (putChar 'A' >>= \\u -> return 0) \
         (\\r -> putChar 'R') (\\r -> seq (%s) (return Unit))"
        core;
    base_input = "";
    core = Some core;
    deterministic = true;
    special = no_special;
  }

(* T3: a timeout interrupts a bracketed writer; the release must still
   run before the timeout is converted to Nothing. Output length depends
   on the layer's clock, so it is not deterministic across layers. *)
let t_timeout_bracket =
  {
    name = "timeout-bracket";
    source =
      "timeout 12 (bracket (putChar 'A' >>= \\u -> return 1) (\\r -> \
       putChar 'R') (\\r -> putList (replicate 40 'x'))) >>= \\mv -> case \
       mv of { Nothing -> putChar 'T' >>= \\u -> return 0 ; Just x -> \
       putChar 'J' >>= \\u -> return 1 }";
    base_input = "";
    core = None;
    deterministic = false;
    special = no_special;
  }

(* T4: the pause-cell / no-lost-work invariant. A shared thunk is forced
   by two successive getExceptions; whatever faults strike, the two
   *synchronous* observations must be consistent: 'D' (both synchronous,
   yet a different value or a different exception) must never appear. An
   asynchronous [Bad] — an injected event, a resource ceiling — says
   nothing about the thunk, only about the moment, so any comparison
   involving one is excused ('w'). Cores are restricted to ones with
   at-most-singleton exception sets so the denotational oracle cannot
   legitimately pick two different representatives. *)
let t_shared_thunk (cname, core) =
  {
    name = "shared-thunk/" ^ cname;
    source =
      Fmt.str
        "let isAsync = \\ex -> case ex of { Interrupt -> True; Timeout -> \
         True; HeapExhaustion -> True; HeapOverflow -> True; \
         StackOverflow -> True; zz -> False } in let shared = %s in \
         getException shared >>= \\a -> getException shared >>= \\b -> \
         case a of { OK x -> case b of { OK y -> (if x == y then putChar \
         'E' else putChar 'D') >>= \\u -> return 1 ; Bad e2 -> (if \
         isAsync e2 then putChar 'w' else putChar 'D') >>= \\u -> return \
         2 } ; Bad e1 -> case b of { Bad e2 -> (if eqExn e1 e2 then \
         putChar 'E' else if isAsync e1 then putChar 'w' else if isAsync \
         e2 then putChar 'w' else putChar 'D') >>= \\u -> return 3 ; OK y \
         -> (if isAsync e1 then putChar 'w' else putChar 'D') >>= \\u -> \
         return 4 } }"
        core;
    base_input = "";
    core = Some core;
    deterministic = true;
    special =
      (fun _fault obs ->
        if String.contains obs.output 'D' then
          [ "shared thunk observed two different values/exceptions" ]
        else []);
  }

(* T5: retry with deterministic backoff — one 't' per attempt, at most
   1 + 3 retries. *)
let t_retry (cname, core) =
  {
    name = "retry/" ^ cname;
    source =
      Fmt.str
        "retryWithBackoff 3 5 (putChar 't' >>= \\u -> seq (%s) (return \
         Unit)) >>= \\v -> putChar 'F' >>= \\u -> return 9"
        core;
    base_input = "";
    core = Some core;
    deterministic = true;
    special =
      (fun _fault obs ->
        if count 't' obs.output > 4 then
          [
            Fmt.str "retry ran %d attempts (max 4)" (count 't' obs.output);
          ]
        else []);
  }

(* T7: a forked child's bracket; the parent waits on an MVar, so the
   child's release must appear in the output before the join. *)
let t_fork_bracket =
  {
    name = "fork-bracket";
    source =
      "newEmptyMVar >>= \\mv -> forkIO (bracket (putChar 'A' >>= \\u -> \
       return 1) (\\r -> putChar 'R') (\\r -> putChar 'B' >>= \\u -> \
       return 2) >>= \\x -> putMVar mv x) >>= \\u -> takeMVar mv >>= \\y \
       -> putChar 'J' >>= \\u2 -> return y";
    base_input = "";
    core = None;
    deterministic = false;
    special = no_special;
  }

(* T8: Mask must defer injected events past the whole masked section —
   under a clean fault the output is exactly "MU" no matter what the
   async schedule says. *)
let t_mask_shield =
  {
    name = "mask-shield";
    source =
      "mask (getException (sum (enumFromTo 1 50)) >>= \\v -> putChar 'M' \
       >>= \\u -> return 0) >>= \\w -> getException 7 >>= \\v2 -> putChar \
       'U' >>= \\u3 -> return 0";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        if clean fault && obs.output <> "MU" then
          [ Fmt.str "masked section torn: output %S (expected MU)" obs.output ]
        else []);
  }

(* T10: a supervised worker under a kill schedule. [superviseWorker]
   forks the worker, joins it through an MVar under [catchIO], and on any
   exception — a delivered kill, or the BlockedIndefinitely recovery when
   the dead worker leaves the join irrecoverably blocked — retries with a
   fresh worker, falling back after three attempts. A fault may kill the
   workers (tids 1..) as often as it likes; as long as it leaves the
   supervising main thread (tid 0) alone and sets no resource ceilings,
   the program must complete. *)
let t_supervised_kill =
  {
    name = "supervised-kill";
    source =
      "superviseWorker 3 (putInt (sum (enumFromTo 1 200)) >>= \\u -> \
       return 9) (return 0) >>= \\v -> putChar 'S' >>= \\u2 -> return v";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        let spares_main =
          List.for_all (fun (_, tid, _) -> tid <> 0) fault.kills
        in
        if
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None && spares_main
          && obs.status <> S_done
        then
          [
            Fmt.str "supervised worker did not complete: %s"
              (status_name obs.status);
          ]
        else []);
  }

(* T11: blocked-indefinitely recovery. The main thread blocks forever on
   an empty MVar inside a getException; the scheduler must deliver the
   catchable BlockedIndefinitely there (never a global deadlock), and the
   fallback must run. Any injected kill aimed at the blocked thread is
   equally caught, so under every resource-clean fault the program
   completes with output "F". *)
let t_blocked_recover =
  {
    name = "blocked-recover";
    source =
      "newEmptyMVar >>= \\mv -> getException (takeMVar mv) >>= \\r -> \
       case r of { OK x -> return 0 ; Bad e -> putChar 'F' >>= \\u -> \
       return 7 }";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        if
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None
          && not (obs.status = S_done && obs.output = "F")
        then
          [
            Fmt.str "blocked thread not recovered: %s with output %S"
              (status_name obs.status) obs.output;
          ]
        else []);
  }

(* T12: a channel handoff under kills. The guarded read resolves either
   to the forked writer's element or — if a kill took the writer out
   before it deposited — to the catchable BlockedIndefinitely fallback;
   under any resource-clean fault that spares the main thread there is
   no third possibility. *)
let t_chan_handoff =
  {
    name = "chan-handoff";
    source =
      "newChan 1 >>= \\ch -> forkIO (writeChan ch 7) >>= \\u -> \
       getException (readChan ch) >>= \\r -> case r of { OK v -> putInt v \
       >>= \\u2 -> return v ; Bad e -> putChar 'F' >>= \\u3 -> return 0 }";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        let spares_main =
          List.for_all (fun (_, tid, _) -> tid <> 0) fault.kills
        in
        if
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None && spares_main
          && not (obs.status = S_done
                  && (obs.output = "7" || obs.output = "F"))
        then
          [
            Fmt.str "channel handoff neither delivered nor recovered: %s \
                     with output %S"
              (status_name obs.status) obs.output;
          ]
        else []);
  }

(* T13: killing a blocked writer must not lose the element already in
   the buffer. The main thread buffers 5, a forked writer blocks on the
   full buffer with 9; the first drain must always see 5, the second
   sees 9 — or the recovery marker if the blocked writer was killed
   before it could deposit. *)
let t_chan_kill_writer =
  {
    name = "chan-kill-writer";
    source =
      "newChan 1 >>= \\ch -> writeChan ch 5 >>= \\u -> forkIO (writeChan \
       ch 9) >>= \\u2 -> getException (readChan ch) >>= \\r -> (case r of \
       { OK v -> putInt v ; Bad e -> putChar 'F' }) >>= \\u3 -> \
       getException (readChan ch) >>= \\r2 -> (case r2 of { OK w -> \
       putInt w ; Bad e2 -> putChar 'G' }) >>= \\u4 -> return 1";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        let spares_main =
          List.for_all (fun (_, tid, _) -> tid <> 0) fault.kills
        in
        (* The exact-output claim is about kills: it additionally needs
           an async-free schedule, because a Timeout landing inside the
           reader's own getException legitimately turns a drain into an
           'F' marker without losing anything. *)
        if
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None && spares_main && fault.async = []
        then
          if obs.status <> S_done then
            [
              Fmt.str "channel drain did not complete: %s"
                (status_name obs.status);
            ]
          else if not (obs.output = "59" || obs.output = "5G") then
            [ Fmt.str "buffered element lost: output %S" obs.output ]
          else if fault.kills = [] && obs.output <> "59" then
            [ Fmt.str "unkilled writer never deposited: %S" obs.output ]
          else []
        else []);
  }

(* T14: restart storm, intensity-window exhaustion. A supervised child
   that always fails forces the supervisor through its restart budget
   (maxR=2 in a window of 8 events); the intensity limit must then shed
   the load — kill the tree and surface SupervisorLimit, which the
   template catches and converts to the 'L' marker. The storm must
   never turn into divergence or deadlock: that is precisely the load
   the limiter exists to shed. Kills aimed at the child only change
   which exception each generation reports (still a failure, still a
   restart), so the limiter fires regardless. *)
let t_restart_storm_exhaust =
  {
    name = "restart-storm-exhaust";
    source =
      "catchIO (supervisorTree OneForOne 2 8 [putChar 'w' >>= \\u -> \
       throwIO DivideByZero]) (\\e -> case matchSupervisorLimit e of { \
       Just n -> putChar 'L' >>= \\u2 -> return n ; Nothing -> throwIO e \
       })";
    base_input = "";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        let spares_main =
          List.for_all (fun (_, tid, _) -> tid <> 0) fault.kills
        in
        let resource_clean =
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None
        in
        if not (resource_clean && spares_main) then []
        else
          let shed =
            match obs.status with
            | S_done -> []
            | S_uncaught e when Exn.is_asynchronous e ->
                (* An async event or a pre-mask kill can take the
                   supervisor's handshake out from under it; the
                   catchable BlockedIndefinitely (or the event itself)
                   surfacing is fine — unbounded restarting is not. *)
                []
            | s ->
                [
                  Fmt.str "restart storm not shed: %s with output %S"
                    (status_name s) obs.output;
                ]
          in
          let budget =
            (* maxR=2: at most the initial spawn plus two restarts ever
               run the child, whatever the fault schedule does. *)
            if count 'w' obs.output > 3 then
              [
                Fmt.str
                  "intensity window exceeded: %d child generations in %S"
                  (count 'w' obs.output) obs.output;
              ]
            else []
          in
          let exact =
            if clean fault && fault.async = [] && fault.kills = [] then
              if obs.status = S_done && obs.output = "wwwL" then []
              else
                [
                  Fmt.str "fault-free storm expected Done %S, got %s %S"
                    "wwwL" (status_name obs.status) obs.output;
                ]
            else []
          in
          shed @ budget @ exact);
  }

(* T15: kill during restart. A one_for_all tree whose first child fails
   once (then succeeds) drives the supervisor through a full
   kill-and-respawn cycle; injected kills land on the children before,
   during and after that cycle — including between the supervisor's
   killAll and the respawn, the classic lost-report window the masked
   handshake in [spawnChild] exists to close. Whatever the schedule,
   the tree must come down in an orderly way: completion, or a
   SupervisorLimit census, or a catchable async event — never
   divergence, never a global deadlock. *)
let t_restart_storm_kill =
  {
    name = "restart-storm-kill";
    source =
      "newEmptyMVar >>= \\cell -> putMVar cell 0 >>= \\u0 -> catchIO \
       (supervisorTree OneForAll 3 12 [takeMVar cell >>= \\n -> putMVar \
       cell (n + 1) >>= \\u1 -> (if n < 1 then throwIO Overflow else \
       putChar 'a' >>= \\u2 -> return 1), putChar 'b' >>= \\u3 -> return \
       2]) (\\e -> case matchSupervisorLimit e of { Just n -> putChar 'L' \
       >>= \\u4 -> return n ; Nothing -> throwIO e }) >>= \\v -> putChar \
       'S' >>= \\u5 -> return v";
    base_input = "";
    core = None;
    (* Output interleaving of the two children depends on the layer's
       scheduler clock. *)
    deterministic = false;
    special =
      (fun fault obs ->
        let spares_main =
          List.for_all (fun (_, tid, _) -> tid <> 0) fault.kills
        in
        let resource_clean =
          fault.heap_limit = None && fault.stack_limit = None
          && fault.starved_fuel = None
        in
        if not (resource_clean && spares_main) then []
        else
          match obs.status with
          | S_done ->
              (* Orderly shutdown always stamps the final marker. *)
              if count 'S' obs.output = 1 || count 'L' obs.output = 1 then
                []
              else
                [
                  Fmt.str "supervised run completed without its marker: %S"
                    obs.output;
                ]
          | S_uncaught e when Exn.is_asynchronous e -> []
          | s ->
              [
                Fmt.str "restart cycle did not shut down cleanly: %s \
                         with output %S"
                  (status_name s) obs.output;
              ]);
  }

(* T9: truncated input — every layer must report the same stuck-on-EOF
   behaviour. *)
let t_echo =
  {
    name = "echo";
    source = "getChar >>= \\c -> putChar c >>= \\u -> return 5";
    base_input = "q";
    core = None;
    deterministic = true;
    special =
      (fun fault obs ->
        if not (clean fault) then []
        else if fault.truncate_input then
          if obs.status <> S_stuck then
            [
              Fmt.str "EOF not reported as stuck: %s"
                (status_name obs.status);
            ]
          else []
        else if obs.status = S_done && obs.output <> "q" then
          [ Fmt.str "echo wrote %S" obs.output ]
        else []);
  }

let templates =
  List.map t_bracket_supervised cores
  @ List.map t_bracket_uncaught cores
  @ [ t_timeout_bracket ]
  @ List.map t_shared_thunk
      [ ("pure", "sum (enumFromTo 1 200)"); ("headnil", "head []") ]
  @ List.map t_retry [ ("pure", List.assoc "pure" cores); ("mixed", List.assoc "mixed" cores) ]
  @ [ t_fork_bracket; t_mask_shield; t_supervised_kill; t_blocked_recover;
      t_chan_handoff; t_chan_kill_writer; t_restart_storm_exhaust;
      t_restart_storm_kill; t_echo ]

(* ------------------------------------------------------------------ *)
(* Running one template under one layer                                *)
(* ------------------------------------------------------------------ *)

let max_transitions = 20_000

let input_of tpl fault = if fault.truncate_input then "" else tpl.base_input

let machine_config fault =
  {
    Stg.default_config with
    heap_limit = fault.heap_limit;
    stack_limit = fault.stack_limit;
    fuel =
      (match fault.starved_fuel with
      | Some f -> f
      | None -> Stg.default_config.fuel);
  }

let observe ?trace layer tpl fault : observation =
  let e = parse tpl.source in
  let input = input_of tpl fault in
  let status : Conc.outcome -> status = function
    | Done _ -> S_done
    | Uncaught x -> S_uncaught x
    | Deadlock -> S_deadlock
    | Diverged -> S_diverged
    | Stuck _ -> S_stuck
  in
  match layer with
  | L_conc ->
      let r =
        Conc.run
          ~oracle:(Oracle.create ~seed:fault.seed)
          ?trace ~input ~async:fault.async ~kills:fault.kills
          ~max_steps:max_transitions e
      in
      {
        status = status r.outcome;
        output = Conc.output_string_of r;
        entered = r.counters.brackets_entered;
        released = r.counters.brackets_released;
      }
  | L_machine_conc ->
      let r =
        Machine_conc.run ~config:(machine_config fault) ?trace ~input
          ~async:fault.async ~kills:fault.kills ~max_transitions
          ?gc_every:fault.gc_every e
      in
      {
        status = status r.outcome;
        output = r.output;
        entered = r.counters.brackets_entered;
        released = r.counters.brackets_released;
      }

(* Whether a template is concurrent: its zero-fault run forks a second
   thread or blocks on an MVar or a channel. Read off the run rather
   than the source, because [supervisorTree] forks without a [forkIO] in
   the template. Only concurrent templates get kill schedules: on a
   one-thread template the kills aimed at tids 1 and 2 are dropped, and
   the checks that need a kill-free fault would cover fewer of its
   schedules. *)
let concurrent_tbl : (string, bool) Hashtbl.t = Hashtbl.create 32

let concurrent tpl =
  match Hashtbl.find_opt concurrent_tbl tpl.name with
  | Some b -> b
  | None ->
      let r =
        Conc.run ~oracle:(Oracle.create ~seed:0) ~input:tpl.base_input
          ~max_steps:max_transitions (parse tpl.source)
      in
      let b =
        r.threads_spawned > 1
        || List.exists (function Conc.E_block _ -> true | _ -> false) r.trace
      in
      Hashtbl.replace concurrent_tbl tpl.name b;
      b

(* ------------------------------------------------------------------ *)
(* Invariant checks                                                    *)
(* ------------------------------------------------------------------ *)

type report = {
  runs : int;  (** (template, layer, fault) executions. *)
  checks : int;  (** Individual invariant checks evaluated. *)
  violations : string list;
}

let pp_report ppf r =
  Fmt.pf ppf "%d runs, %d checks, %d violations" r.runs r.checks
    (List.length r.violations)

let finished obs =
  match obs.status with S_done | S_uncaught _ -> true | _ -> false

(* The differential invariant: an uncaught exception must belong to the
   denotational exception set of the pure core — unless it is an
   asynchronous or resource event (allowed anywhere by Section 5.1), or a
   starved fuel budget turned an ordinary computation into
   NonTermination. *)
let check_membership tpl fault obs =
  match obs.status with
  | S_uncaught e ->
      if Exn.is_asynchronous e then []
      else if fault.starved_fuel <> None && e = Exn.Non_termination then []
      else begin
        match tpl.core with
        | None ->
            [
              Fmt.str "uncaught %a but the template has no exceptional core"
                Exn.pp e;
            ]
        | Some core ->
            let s = core_exn_set core in
            if Exn_set.is_all s || Exn_set.mem e s then []
            else
              [
                Fmt.str "uncaught %a not in the denotational set %a" Exn.pp
                  e Exn_set.pp s;
              ]
      end
  | _ -> []

(* Release-exactly-once, from the counters: holds whenever the program
   ran to completion, whatever the fault. *)
let check_counters obs =
  if obs.released > obs.entered then
    [
      Fmt.str "released %d brackets but entered only %d" obs.released
        obs.entered;
    ]
  else if finished obs && obs.entered <> obs.released then
    [
      Fmt.str "entered %d brackets but released %d" obs.entered
        obs.released;
    ]
  else []

(* Release-exactly-once, from the output markers: every 'A' the acquire
   wrote is paired with the release's 'R'. Resource exhaustion may strike
   *inside* the release action itself (after the counter bump but before
   the marker), so this stricter check only applies to clean faults. *)
let check_markers fault obs =
  let applicable =
    clean fault
    && (finished obs || obs.status = S_deadlock)
  in
  if applicable && count 'A' obs.output <> count 'R' obs.output then
    [
      Fmt.str "unbalanced bracket markers in output %S (%d acquires, %d \
               releases)"
        obs.output (count 'A' obs.output) (count 'R' obs.output);
    ]
  else []

(* Replay a failing (template, layer, fault) cell with the flight
   recorder on and return its dump. Tracing is off during the sweep
   itself (zero cost on passing schedules); only a violation pays for
   the second, instrumented run. *)
let trace_of_failure layer tpl fault =
  let tr = Obs.create ~capacity:512 ~on:true () in
  (try ignore (observe ~trace:tr layer tpl fault)
   with Obs.Machine_invariant _ -> ());
  Obs.dump ~last:24
    ~note:
      (Fmt.str "replay of failing schedule %s/%s" tpl.name
         (layer_name layer))
    tr

let check_one tpl fault layer =
  let obs = observe layer tpl fault in
  let tag v =
    Fmt.str "[%s/%s %a] %s" tpl.name (layer_name layer) pp_fault fault v
  in
  let vs =
    check_membership tpl fault obs
    @ check_counters obs
    @ check_markers fault obs
    @ tpl.special fault obs
  in
  let vs =
    match vs with
    | [] -> []
    | _ :: _ -> vs @ [ trace_of_failure layer tpl fault ]
  in
  (4, List.map tag vs)

(* Zero-fault baseline: with no fault injected, the two layers must
   agree — same status class and (for clock-independent templates) the
   same output. *)
let baseline tpl =
  let obss = List.map (fun l -> (l, observe l tpl (no_fault 0))) layers in
  match obss with
  | [] -> (0, [])
  | (l0, o0) :: rest ->
      let vs =
        List.concat_map
          (fun (l, o) ->
            let status_ok =
              match (o0.status, o.status) with
              | S_done, S_done
              | S_uncaught _, S_uncaught _
              | S_diverged, S_diverged
              | S_stuck, S_stuck
              | S_deadlock, S_deadlock ->
                  true
              | _ -> false
            in
            let s =
              if not status_ok then
                [
                  Fmt.str "baseline status mismatch: %s=%s vs %s=%s"
                    (layer_name l0) (status_name o0.status) (layer_name l)
                    (status_name o.status);
                ]
              else []
            in
            let out =
              if tpl.deterministic && o.output <> o0.output then
                [
                  Fmt.str "baseline output mismatch: %s=%S vs %s=%S"
                    (layer_name l0) o0.output (layer_name l) o.output;
                ]
              else []
            in
            s @ out)
          rest
      in
      ( 2 * List.length rest,
        List.map (fun v -> Fmt.str "[%s] %s" tpl.name v) vs )

(* ------------------------------------------------------------------ *)
(* Fault generation and the suite driver                               *)
(* ------------------------------------------------------------------ *)

let gen_fault ~seed tpl =
  let o = Oracle.create ~seed:((seed * 7919) + 17) in
  let exns = [| Exn.Interrupt; Exn.Timeout; Exn.Heap_exhaustion |] in
  (* Drawn unsorted: both layers deliver a schedule in list order, so an
     event behind a later-stepped one waits for it. *)
  let n_async = Oracle.int_below o 4 in
  let async =
    List.init n_async (fun _ ->
        (Oracle.int_below o 2_000, exns.(Oracle.int_below o 3)))
  in
  (* Thread-targeted kills: concurrent templates get 0–2 throwTo sends
     aimed at the first few tids (sends to never-spawned tids are
     dropped by the scheduler, which is itself worth exercising). *)
  let kill_exns = [| Exn.Thread_killed; Exn.Interrupt |] in
  let n_kills = if concurrent tpl then Oracle.int_below o 3 else 0 in
  let kills =
    List.init n_kills (fun _ ->
        ( Oracle.int_below o 2_000,
          Oracle.int_below o 3,
          kill_exns.(Oracle.int_below o 2) ))
  in
  let heap_limit =
    if Oracle.int_below o 4 = 0 then
      Some (1_500 + (40 * Oracle.int_below o 100))
    else None
  in
  let stack_limit =
    if Oracle.int_below o 5 = 0 then Some (80 + Oracle.int_below o 400)
    else None
  in
  let starved_fuel =
    if Oracle.int_below o 6 = 0 then Some 3_000 else None
  in
  let truncate_input =
    tpl.base_input <> "" && Oracle.coin o
  in
  let gc_every =
    if Oracle.coin o then Some (16 + Oracle.int_below o 64) else None
  in
  { seed; async; kills; heap_limit; stack_limit; starved_fuel;
    truncate_input; gc_every }

let run_seed seed =
  let tpl = List.nth templates (seed mod List.length templates) in
  let fault = gen_fault ~seed tpl in
  List.fold_left
    (fun (runs, checks, vs) layer ->
      let c, v = check_one tpl fault layer in
      (runs + 1, checks + c, vs @ v))
    (0, 0, []) layers

(* The supervisor scenario: under a heap ceiling the machine raises a
   catchable HeapOverflow; the supervisor catches it, an emergency
   collection frees the abandoned allocations, and a smaller retry
   succeeds ('H' then 'K'). Denotationally there is no heap, so the same
   program just succeeds ('O'). *)
let supervisor_source =
  "getException (seq (sum (enumFromTo 1 5000)) 1) >>= \\v -> case v of { \
   OK x -> putChar 'O' >>= \\u -> return 0 ; Bad e -> case e of { \
   HeapOverflow -> putChar 'H' >>= \\u -> getException (seq (sum \
   (enumFromTo 1 10)) 2) >>= \\w -> (case w of { OK y -> putChar 'K' ; \
   Bad e2 -> putChar 'Z' }) >>= \\u2 -> return 1 ; z -> putChar 'Y' >>= \
   \\u -> return 0 } }"

let check_supervisor () =
  let e = parse supervisor_source in
  let r =
    Machine_conc.run
      ~config:{ Stg.default_config with heap_limit = Some 2_500 }
      ~max_transitions e
  in
  let machine_vs =
    match r.outcome with
    | Done _ when r.output = "HK" -> []
    | o ->
        [
          Fmt.str
            "[supervisor/machine_conc] expected Done with output HK, got %a \
             with %S"
            Conc.pp_outcome o r.output;
        ]
  in
  let d = Conc.run ~oracle:(Oracle.first ()) e in
  let denot_vs =
    match d.outcome with
    | Done _ when Conc.output_string_of d = "O" -> []
    | o ->
        [
          Fmt.str
            "[supervisor/conc] expected Done with output O, got %a with %S"
            Conc.pp_outcome o (Conc.output_string_of d);
        ]
  in
  (2, machine_vs @ denot_vs)

let run_suite ?(count = 250) () =
  let runs = ref 0 and checks = ref 0 and vs = ref [] in
  List.iter
    (fun tpl ->
      let c, v = baseline tpl in
      checks := !checks + c;
      runs := !runs + List.length layers;
      vs := !vs @ v)
    templates;
  for seed = 0 to count - 1 do
    let r, c, v = run_seed seed in
    runs := !runs + r;
    checks := !checks + c;
    vs := !vs @ v
  done;
  let c, v = check_supervisor () in
  runs := !runs + 2;
  checks := !checks + c;
  vs := !vs @ v;
  { runs = !runs; checks = !checks; violations = !vs }

(* impexn: the command-line face of the library.

   impexn eval -e "(1/0) + error \"Urk\""          exception sets
   impexn eval --engine machine -e "fib 10"        run on the machine
   impexn run prog.hs --input "ab"                 perform main :: IO
   impexn laws                                     the Section 4.5 table
   impexn encode -e "1/0 + 2"                      show the ExVal encoding
   impexn optimize -e "..." [--fixed-order]        the pipeline + report *)

open Imprecise
open Cmdliner

type engine = E_denot | E_machine | E_fixed_l2r | E_fixed_r2l | E_exval

let engine_conv =
  let parse = function
    | "denot" | "imprecise" -> Ok E_denot
    | "machine" -> Ok E_machine
    | "fixed-l2r" | "fixed" -> Ok E_fixed_l2r
    | "fixed-r2l" -> Ok E_fixed_r2l
    | "exval" -> Ok E_exval
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Fmt.string ppf "<engine>")

let expr_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Expression to evaluate.")

let engine_arg =
  Arg.(
    value
    & opt engine_conv E_denot
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine: $(b,denot) (imprecise sets), $(b,machine) \
           (stack-trimming), $(b,fixed-l2r), $(b,fixed-r2l) (precise \
           baselines), $(b,exval) (explicit encoding).")

let fuel_arg =
  Arg.(
    value
    & opt int 200_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Evaluation fuel / machine steps.")

let parse_or_die src =
  try parse src
  with Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    exit 2

let optimize_flag =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:
          "Optimise with the linted imprecise pipeline before evaluating. \
           A lint rejection prints the offending pass and exits 3.")

(* Optimise a Prelude-wrapped term; a lint rejection is a hard error
   (exit 3) — the optimiser refused its own output, so nothing sound
   remains to evaluate. *)
let optimize_or_die e =
  match Pipeline.optimize Pipeline.Imprecise e with
  | e', _report -> e'
  | exception (Lint.Lint_error _ as err) ->
      Fmt.epr "%a@." Lint.pp_lint_error err;
      exit 3

let eval_cmd =
  let run engine fuel opt src =
    let e = parse_or_die src in
    let e = if opt then optimize_or_die e else e in
    (match engine with
    | E_denot ->
        let d = Denot.run_deep ~config:(Denot.with_fuel fuel) e in
        Fmt.pr "%a@." Value.pp_deep d
    | E_machine ->
        let config = { Machine.default_config with fuel = fuel * 10 } in
        let d, stats = Machine.run_deep ~config e in
        Fmt.pr "%a@.-- %a@." Value.pp_deep d Stats.pp stats
    | E_fixed_l2r ->
        Fmt.pr "%a@." Fixed.pp_outcome
          (Fixed.run_deep ~fuel Fixed.Left_to_right e)
    | E_fixed_r2l ->
        Fmt.pr "%a@." Fixed.pp_outcome
          (Fixed.run_deep ~fuel Fixed.Right_to_left e)
    | E_exval ->
        let d =
          Exval.decode_deep
            (Denot.run_deep ~config:(Denot.with_fuel fuel) (Exval.encode e))
        in
        Fmt.pr "%a@." Value.pp_deep d);
    0
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an expression under a chosen semantics.")
    Term.(const run $ engine_arg $ fuel_arg $ optimize_flag $ expr_arg)

let set_cmd =
  let run fuel src =
    let e = parse_or_die src in
    Fmt.pr "%a@." Exn_set.pp
      (Denot.exception_set ~config:(Denot.with_fuel fuel) e);
    0
  in
  Cmd.v
    (Cmd.info "set"
       ~doc:"Print the semantic exception set S⟦e⟧ of an expression.")
    Term.(const run $ fuel_arg $ expr_arg)

let run_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program file defining main :: IO a.")
  in
  let input_arg =
    Arg.(
      value & opt string ""
      & info [ "input" ] ~docv:"STR" ~doc:"Characters for getChar.")
  in
  let machine_arg =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:
            "Perform on the abstract machine instead of the denotational \
             semantics; both run the same IO transition system and \
             scheduler.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Oracle seed for getException's choice from the exception set \
             (semantic engine only; default: pick the smallest member).")
  in
  let run file input machine seed opt =
    let src = In_channel.with_open_text file In_channel.input_all in
    let prog =
      try parse_program src
      with Parse_error msg ->
        Fmt.epr "parse error: %s@." msg;
        exit 2
    in
    let prog = if opt then optimize_or_die prog else prog in
    if machine then begin
      let r = run_io_machine ~input prog in
      print_string r.Machine_conc.output;
      Fmt.pr "@.-- %a@." Conc.pp_outcome r.Machine_conc.outcome;
      match r.Machine_conc.outcome with Done _ -> 0 | _ -> 1
    end
    else begin
      let oracle =
        match seed with
        | Some s -> Oracle.create ~seed:s
        | None -> Oracle.first ()
      in
      let r = run_io ~oracle ~input prog in
      print_string (Conc.output_string_of r);
      Fmt.pr "@.-- %a@." Conc.pp_outcome r.Conc.outcome;
      match r.Conc.outcome with Done _ -> 0 | _ -> 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a program's main under the IO semantics: one transition system \
          for sequential and concurrent programs (forkIO, MVars, channels, \
          throwTo).")
    Term.(
      const run $ file_arg $ input_arg $ machine_arg $ seed_arg
      $ optimize_flag)

let laws_cmd =
  let run () =
    let rows = Laws.table () in
    Fmt.pr "%a" Laws.pp_table rows;
    if List.for_all Laws.matches_claim rows then begin
      Fmt.pr "all claims verified.@.";
      0
    end
    else begin
      Fmt.pr "CLAIM MISMATCH — see (!) cells.@.";
      1
    end
  in
  Cmd.v
    (Cmd.info "laws"
       ~doc:
         "Print the Section 4.5 transformation-validity table, verified \
          empirically under all three designs.")
    Term.(const run $ const ())

let encode_cmd =
  let run src =
    let e = parse_or_die src in
    Fmt.pr "%s@.@.-- code size x%.2f@."
      (to_string (Exval.encode (parse_raw src)))
      (Exval.code_blowup e);
    0
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Show the explicit ExVal encoding (Section 2.1) of an expression.")
    Term.(const run $ expr_arg)

let typecheck_cmd =
  let run src =
    match Imprecise.typecheck src with
    | Ok t ->
        Fmt.pr "%s@." (Infer.ty_to_string t);
        0
    | Error e ->
        Fmt.epr "type error: %a@." Infer.pp_error e;
        1
  in
  Cmd.v
    (Cmd.info "typecheck"
       ~doc:
         "Infer the Hindley-Milner type of an expression under the           Prelude.")
    Term.(const run $ expr_arg)

let optimize_cmd =
  let fixed_arg =
    Arg.(
      value & flag
      & info [ "fixed-order" ]
          ~doc:
            "Use the fixed-order pipeline (order-changing rewrites gated \
             by the effect analysis).")
  in
  let run fixed src =
    let e = parse_or_die src in
    let mode =
      if fixed then Pipeline.Fixed_order_with_effect_analysis
      else Pipeline.Imprecise
    in
    let e', report = Pipeline.optimize mode e in
    Fmt.pr "%s@.@.-- %a@." (to_string e') Pipeline.pp_report report;
    0
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the optimisation pipeline and report.")
    Term.(const run $ fixed_arg $ expr_arg)

let trace_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program file defining main :: IO a.")
  in
  let expr_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "expr" ] ~docv:"EXPR"
          ~doc:"Trace a pure expression instead of a program file.")
  in
  let input_arg =
    Arg.(
      value & opt string ""
      & info [ "input" ] ~docv:"STR" ~doc:"Characters for getChar.")
  in
  let denot_arg =
    Arg.(
      value & flag
      & info [ "denot" ]
          ~doc:
            "Trace the denotational IO layer (oracle picks carry the \
             un-chosen members of the exception set) instead of the \
             machine.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Oracle seed (denotational layer).")
  in
  (* The uncaught exception's origin, recovered from the event stream
     (the machine that produced it lives inside the IO driver). *)
  let origin_from_trace tr e =
    List.fold_left
      (fun acc ev ->
        match ev with
        | (Obs.Ev_raise (x, o) | Obs.Ev_rethrow (x, o)) when x = e -> Some o
        | _ -> acc)
      None (Obs.events tr)
  in
  let pr_uncaught tr e =
    match origin_from_trace tr e with
    | Some o -> Fmt.pr "-- uncaught: %a (from %a)@." Exn.pp e Obs.pp_origin o
    | None -> Fmt.pr "-- uncaught: %a@." Exn.pp e
  in
  let run file expr input denot seed =
    let tr = Obs.create ~capacity:4096 ~on:true () in
    let print_events () =
      Fmt.pr "== flight recorder: %d event(s) ==@." (Obs.seen tr);
      List.iteri
        (fun i ev -> Fmt.pr "%4d  %a@." i Obs.pp_event ev)
        (Obs.events tr)
    in
    match (expr, file) with
    | None, None ->
        Fmt.epr "trace: provide FILE or --expr EXPR@.";
        2
    | Some src, _ ->
        (* Pure expression on the machine, under a catch mark. The
           denotational set is computed first so the un-chosen members
           carry their own raise-site origins. *)
        let e = parse_or_die src in
        let dset = Denot.exception_set e in
        let m = Machine.create ~trace:tr () in
        let a = Machine.alloc m e in
        let r = Machine.force_catch m a in
        print_events ();
        (match r with
        | Ok _ -> Fmt.pr "-- value: %a@." Value.pp_deep (Machine.deep m a)
        | Error (Machine.Fail_exn x) | Error (Machine.Fail_async x) ->
            Fmt.pr "-- caught: %a@." (Runtime.pp_exn_with_origin m) x;
            Fmt.pr "-- denotational set: %a@."
              (Exn_set.pp_annotated Value.pp_exn_with_origin)
              dset
        | Error Machine.Fail_diverged -> Fmt.pr "-- diverged@.");
        0
    | None, Some f ->
        let src = In_channel.with_open_text f In_channel.input_all in
        let prog =
          try parse_program src
          with Parse_error msg ->
            Fmt.epr "parse error: %s@." msg;
            exit 2
        in
        if denot then begin
          let oracle =
            match seed with
            | Some s -> Oracle.create ~seed:s
            | None -> Oracle.first ()
          in
          let r = run_io ~oracle ~trace:tr ~input prog in
          print_events ();
          Fmt.pr "-- output: %S@." (Conc.output_string_of r);
          (match r.Conc.outcome with
          | Uncaught x -> Fmt.pr "-- uncaught: %a@." Value.pp_exn_with_origin x
          | o -> Fmt.pr "-- %a@." Conc.pp_outcome o);
          match r.Conc.outcome with Done _ -> 0 | _ -> 1
        end
        else begin
          let r = run_io_machine ~trace:tr ~input prog in
          print_events ();
          Fmt.pr "-- output: %S@." r.Machine_conc.output;
          (match r.Machine_conc.outcome with
          | Uncaught x -> pr_uncaught tr x
          | o -> Fmt.pr "-- %a@." Conc.pp_outcome o);
          match r.Machine_conc.outcome with Done _ -> 0 | _ -> 1
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run with the flight recorder on and print the provenance-\
          annotated event log: every raise with its origin (site label, \
          stack depth, step), poisoned and paused thunks, catches, \
          oracle picks, mask transitions, bracket acquire/release, GC.")
    Term.(
      const run $ file_arg $ expr_opt_arg $ input_arg $ denot_arg
      $ seed_arg)

let fuzz_cmd =
  let run runs seconds seed minimize smoke corpus_dir crash_dir persist
      inject quiet =
    let vconfig =
      List.fold_left
        (fun v name ->
          match Fuzz.inject_bug name v with
          | Ok v -> v
          | Error msg ->
              Fmt.epr "%s@." msg;
              exit 2)
        Differ.default_vconfig inject
    in
    let cfg =
      {
        Fuzz.default_config with
        Fuzz.seed;
        runs;
        seconds;
        corpus_dir = Some corpus_dir;
        crash_dir = Some crash_dir;
        persist;
        vconfig;
        log = (if quiet then ignore else fun s -> Fmt.epr "%s@." s);
      }
    in
    match minimize with
    | Some file -> (
        match Fuzz.minimize_file cfg file with
        | Error msg ->
            Fmt.epr "%s@." msg;
            2
        | Ok None ->
            Fmt.pr "%s: no violation@." file;
            0
        | Ok (Some c) ->
            Fmt.pr "%s: %s@.%s@.minimised to %d nodes:@.%s@." file
              c.Fuzz.check c.Fuzz.detail c.Fuzz.minimized_size
              (Pretty.expr_to_string c.Fuzz.minimized);
            Option.iter (Fmt.pr "%s@.") c.Fuzz.dump;
            1)
    | None ->
        let cfg =
          if smoke then
            { cfg with Fuzz.runs = 400; seconds = None; persist = false }
          else cfg
        in
        let report = Fuzz.run cfg in
        Fmt.pr "%a" Fuzz.pp_report report;
        if inject = [] then if Fuzz.passed report then 0 else 1
        else if Fuzz.passed report then begin
          (* A campaign with a deliberately-broken evaluator must fail;
             passing means the fuzzer has lost its teeth. *)
          Fmt.epr
            "injected bug%s (%s) was NOT caught@."
            (if List.length inject = 1 then "" else "s")
            (String.concat ", " inject);
          1
        end
        else begin
          Fmt.pr "injected bug caught as expected.@.";
          0
        end
  in
  let runs_arg =
    Arg.(
      value & opt int 500
      & info [ "runs" ] ~docv:"N"
          ~doc:"Total executions (corpus replay + exploration).")
  in
  let seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Wall-clock budget in seconds (overrides $(b,--runs)).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; same seed, same campaign.")
  in
  let minimize_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "minimize" ] ~docv:"FILE"
          ~doc:
            "Replay one $(b,.impexn) file and greedily minimise any \
             violation it triggers.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI mode: deterministically replay the committed corpus plus \
             a short exploration burst (400 runs), never persisting.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "fuzz/corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let crashes_arg =
    Arg.(
      value & opt string "fuzz/crashes"
      & info [ "crashes" ] ~docv:"DIR"
          ~doc:"Where minimised counterexamples and dumps are written.")
  in
  let persist_arg =
    Arg.(
      value & flag
      & info [ "persist" ]
          ~doc:"Write inputs that found new coverage back to the corpus.")
  in
  let inject_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "inject-bug" ] ~docv:"BUG"
          ~doc:
            "Reintroduce a known bug ($(b,no-poison), $(b,no-app-union), \
             $(b,no-case-finding)) and demand the campaign catches it: \
             exit 0 iff it fails.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No progress lines.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided metamorphic differential fuzzing across all five \
          evaluators (denotational, slot machine, bytecode, fixed orders) \
          and the two IO layers, with flight-recorder event-kind \
          coverage, transformation-law oracles, fault schedules, corpus \
          persistence and crash minimisation.")
    Term.(
      const run $ runs_arg $ seconds_arg $ seed_arg $ minimize_arg
      $ smoke_arg $ corpus_arg $ crashes_arg $ persist_arg $ inject_arg
      $ quiet_arg)

let faults_cmd =
  let run count kills quiet =
    (* Phase 1: the general fault suite (baselines, [count] seeded
       schedules over both layers, the supervisor scenario). *)
    let report = Faultinject.run_suite ~count () in
    if not quiet then Fmt.pr "%a@." Faultinject.pp_report report;
    (* Phase 2: the throwTo/killThread axis specifically — keep
       generating seeded schedules for the concurrent templates until
       [kills] of them carry thread-targeted exceptions, and check both
       layers.
       Violations come back with a flight-recorder dump of an
       instrumented replay, so a failing schedule is diagnosable from
       the CI log alone. *)
    let concurrent = List.filter Faultinject.concurrent Faultinject.templates in
    let scheduled = ref 0 and checks = ref 0 and violations = ref [] in
    let seed = ref 0 in
    while !scheduled < kills && !seed < 100 * (max kills 1) do
      List.iter
        (fun t ->
          if !scheduled < kills then
            let f = Faultinject.gen_fault ~seed:!seed t in
            if f.Faultinject.kills <> [] then begin
              incr scheduled;
              List.iter
                (fun layer ->
                  let n, vs = Faultinject.check_one t f layer in
                  checks := !checks + n;
                  violations := !violations @ vs)
                Faultinject.layers
            end)
        concurrent;
      incr seed
    done;
    if not quiet then
      Fmt.pr "kill schedules: %d executed, %d checks@." !scheduled !checks;
    match (report.Faultinject.violations, !violations) with
    | [], [] ->
        if not quiet then Fmt.pr "all fault-injection invariants hold@.";
        0
    | suite_vs, kill_vs ->
        List.iter (Fmt.epr "violation: %s@.") suite_vs;
        List.iter (Fmt.epr "kill-schedule violation: %s@.") kill_vs;
        1
  in
  let count_arg =
    Arg.(
      value & opt int 250
      & info [ "count" ] ~docv:"N"
          ~doc:"Seeded fault schedules for the general suite.")
  in
  let kills_arg =
    Arg.(
      value & opt int 100
      & info [ "kills" ] ~docv:"N"
          ~doc:
            "Seeded schedules of the concurrent templates that must carry \
             thread-targeted throwTo/killThread exceptions, each run on \
             both layers.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only report violations.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Cross-layer fault injection: seeded schedules of asynchronous \
          events, thread-targeted kills, resource ceilings, starved fuel \
          and truncated input, checked against the exception-safety \
          invariants on both IO layers. Exits nonzero on any \
          violation, with a flight-recorder replay of the failing \
          schedule.")
    Term.(const run $ count_arg $ kills_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* impexn serve: evaluation-as-a-service                               *)
(* ------------------------------------------------------------------ *)

let flat s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* Single-client mode: the line protocol over stdin/stdout. Each input
   line is fed to the session and the engine then runs to quiescence —
   with one client there is nobody to interleave with, but evaluation is
   still sliced, so wall-clock timeouts and the crash barrier behave
   exactly as in socket mode. *)
let serve_stdio engine =
  let sess = Serve.session engine in
  let flush () =
    List.iter print_endline (Serve.drain sess);
    flush stdout
  in
  (try
     while not (Serve.closed sess) do
       let line = input_line stdin in
       Serve.feed sess line;
       Serve.run_all engine;
       flush ()
     done
   with End_of_file ->
     Serve.run_all engine;
     flush ());
  0

(* Multi-client mode: a select loop on 127.0.0.1. Between IO rounds the
   engine advances a bounded burst of slices, so one client's divergent
   program cannot starve another's [ping] — the scheduling quantum is
   the engine's slice, not the request. *)
let serve_tcp engine port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  Fmt.epr "impexn serve: listening on 127.0.0.1:%d@." port;
  (* fd, session, partial-line buffer *)
  let conns : (Unix.file_descr * Serve.session * Buffer.t) list ref =
    ref []
  in
  let drop fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun (fd', _, _) -> fd' <> fd) !conns
  in
  let feed_chunk sess buf bytes n =
    for i = 0 to n - 1 do
      let c = Bytes.get bytes i in
      if c = '\n' then begin
        Serve.feed sess (Buffer.contents buf);
        Buffer.clear buf
      end
      else if c <> '\r' then Buffer.add_char buf c
    done
  in
  let write_all fd s =
    let b = Bytes.of_string (s ^ "\n") in
    let rec go off =
      if off < Bytes.length b then
        let n = Unix.write fd b off (Bytes.length b - off) in
        go (off + n)
    in
    go 0
  in
  while true do
    let timeout = if Serve.inflight engine > 0 then 0.0 else 0.2 in
    let fds = sock :: List.map (fun (fd, _, _) -> fd) !conns in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem sock ready then begin
      let c, _ = Unix.accept sock in
      conns := (c, Serve.session engine, Buffer.create 256) :: !conns
    end;
    List.iter
      (fun (fd, sess, buf) ->
        if fd <> sock && List.mem fd ready then
          let bytes = Bytes.create 4096 in
          match Unix.read fd bytes 0 4096 with
          | 0 -> drop fd
          | n -> feed_chunk sess buf bytes n
          | exception Unix.Unix_error _ -> drop fd)
      (List.filter (fun (fd, _, _) -> fd <> sock) !conns);
    let rec burst n = if n > 0 && Serve.tick engine then burst (n - 1) in
    burst 64;
    List.iter
      (fun (fd, sess, _) ->
        List.iter
          (fun line ->
            try write_all fd line with Unix.Unix_error _ -> drop fd)
          (Serve.drain sess);
        if Serve.closed sess then drop fd)
      !conns
  done;
  0

(* CI self-check: replay the built-in corpus dictionary through the
   engine twice (so the compiled-program cache must hit), differentially
   check every pure reply against a one-shot evaluation, then interleave
   quota-violating, divergent and timing-out programs and demand the
   engine answers each with the right structured error — all on the one
   engine instance, which must survive the lot. *)
let smoke_serve engine =
  let sess = Serve.session engine in
  let submit id opts src =
    Serve.feed sess
      (if opts = "" then Printf.sprintf "eval %s" id
       else Printf.sprintf "eval %s %s" id opts);
    List.iter (Serve.feed sess) (String.split_on_char '\n' src);
    Serve.feed sess "."
  in
  let failures = ref 0 in
  let check what cond =
    if not cond then begin
      incr failures;
      Fmt.epr "smoke FAIL: %s@." what
    end
  in
  (* Reference: one-shot evaluation under a catch, same shape as the
     serve reply, with quotas high enough that only the program's own
     behaviour shows. *)
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
        Printf.sprintf "err %s quota:fuel" id
  in
  let pure = Corpus.pure (Corpus.dictionary ()) in
  (* Under [--optimize] the engine runs the linted pipeline before
     resolution, so the reference must evaluate the same optimised term —
     the smoke then differentially checks serve's optimise+compile path
     against a one-shot slot machine on the independently optimised
     corpus. *)
  let prep e =
    let w = Prelude.wrap e in
    if (Serve.config engine).Serve.optimize then
      fst (Pipeline.optimize Pipeline.Imprecise w)
    else w
  in
  let expected = Hashtbl.create 64 in
  let submit_round round =
    List.iteri
      (fun i e ->
        let id = Printf.sprintf "%s%d" round i in
        let src = Pretty.expr_to_string e.Corpus.expr in
        Hashtbl.replace expected id (reference id (prep e.Corpus.expr));
        submit id "" src)
      pure
  in
  submit_round "a";
  Serve.run_all engine;
  submit_round "b";
  Serve.run_all engine;
  let replies = Serve.drain sess in
  List.iter
    (fun reply ->
      match String.split_on_char ' ' reply with
      | _ :: id :: _ -> (
          match Hashtbl.find_opt expected id with
          | Some want ->
              check
                (Printf.sprintf "%s: got %S want %S" id reply want)
                (String.length reply >= String.length want
                && String.sub reply 0 (String.length want) = want)
          | None -> check ("unexpected reply id " ^ id) false)
      | _ -> check ("malformed reply " ^ reply) false)
    replies;
  check
    (Printf.sprintf "all %d pure replies arrive (got %d)"
       (2 * List.length pure) (List.length replies))
    (List.length replies = 2 * List.length pure);
  (* Fault mode: the four ways a request can be killed, plus a survivor
     riding along. *)
  let expect_err id opts src kind =
    submit id opts src;
    Serve.run_all engine;
    match Serve.drain sess with
    | [ reply ] ->
        let prefix = Printf.sprintf "err %s %s" id kind in
        check
          (Printf.sprintf "%s: got %S want prefix %S" id reply prefix)
          (String.length reply >= String.length prefix
          && String.sub reply 0 (String.length prefix) = prefix)
    | rs ->
        check
          (Printf.sprintf "%s: expected one reply, got %d" id
             (List.length rs))
          false
  in
  expect_err "heapbomb" "heap=2000" "length (replicate 100000 1)"
    "quota:heap";
  expect_err "stackbomb" "stack=500 fuel=5000000 heap=2000000"
    "sum (enumFromTo 1 20000)" "quota:stack";
  expect_err "fuelburn" "fuel=20000" "sum (enumFromTo 1 200000)"
    "quota:fuel";
  expect_err "blackhole" "" "let rec black = black + 1 in black"
    "quota:fuel";
  expect_err "spinner" "fuel=1000000000 timeout=200"
    "let rec go n = if n > 0 then go n else 0 in go 1" "timeout";
  submit "survivor" "" "sum (enumFromTo 1 100)";
  Serve.run_all engine;
  (match Serve.drain sess with
  | [ r ] -> check ("survivor: " ^ r) (r = "ok survivor 5050")
  | rs ->
      check
        (Printf.sprintf "survivor: %d replies" (List.length rs))
        false);
  let c = Serve.counters engine in
  check "cache hits > 0" (c.Serve.cache_hits > 0);
  check "quota_heap counted" (c.Serve.quota_heap >= 1);
  check "quota_stack counted" (c.Serve.quota_stack >= 1);
  check "quota_fuel counted" (c.Serve.quota_fuel >= 2);
  check "timeouts counted" (c.Serve.timeouts >= 1);
  check "no crashes" (c.Serve.crashes = 0);
  Fmt.pr "serve smoke: %d requests, %d ok, cache %d/%d, %s@." c.Serve.requests
    c.Serve.ok c.Serve.cache_hits
    (c.Serve.cache_hits + c.Serve.cache_misses)
    (if !failures = 0 then "all checks passed" else "CHECKS FAILED");
  Fmt.pr "%s@." (Serve.stats_json engine);
  if !failures = 0 then 0 else 1

let serve_cmd =
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Listen on 127.0.0.1:$(docv) (multi-client). Without it the \
             protocol runs over stdin/stdout.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI self-check: replay the built-in corpus through the engine \
             (twice, so the compiled-program cache must hit), \
             differentially check replies against one-shot evaluation, \
             then a fault-mode round of quota violators, divergers and a \
             timing-out spinner. Exit 0 iff every check holds.")
  in
  let fuel_q =
    Arg.(
      value & opt int Serve.default_config.Serve.fuel
      & info [ "fuel" ] ~docv:"N" ~doc:"Default per-request step quota.")
  in
  let heap_q =
    Arg.(
      value & opt int Serve.default_config.Serve.heap
      & info [ "heap" ] ~docv:"N"
          ~doc:"Default per-request heap quota (cells).")
  in
  let stack_q =
    Arg.(
      value & opt int Serve.default_config.Serve.stack
      & info [ "stack" ] ~docv:"N"
          ~doc:"Default per-request stack quota (frames).")
  in
  let timeout_q =
    Arg.(
      value & opt int Serve.default_config.Serve.timeout_ms
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Default per-request wall-clock deadline (0 disables).")
  in
  let slice_q =
    Arg.(
      value & opt int Serve.default_config.Serve.slice
      & info [ "slice" ] ~docv:"N"
          ~doc:"Steps of progress per scheduling quantum: the next \
                interrupt check fires N steps after a resumed request has \
                re-entered its paused cells.")
  in
  let inflight_q =
    Arg.(
      value & opt int Serve.default_config.Serve.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission bound; beyond it requests answer overloaded.")
  in
  let mem_q =
    Arg.(
      value & opt int Serve.default_config.Serve.mem_budget
      & info [ "mem-budget" ] ~docv:"CELLS"
          ~doc:
            "Paused-heap budget; past it the oldest paused request is \
             evicted.")
  in
  let cache_q =
    Arg.(
      value & opt int Serve.default_config.Serve.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Compiled-program cache capacity (LRU entries).")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:"Write crash-barrier flight-recorder dumps here.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Run request machines with the flight recorder enabled.")
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum [ ("slot", Serve.Slot); ("bytecode", Serve.Bytecode) ])
          Serve.default_config.Serve.backend
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Request evaluator: $(b,slot) (the tree-walking slot machine) \
             or $(b,bytecode) (the flat compiled backend — same \
             quota/timeout contract, measured multi-x faster; the \
             compiled-program cache then stores bytecode).")
  in
  let serve_opt_arg =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Run the linted imprecise optimisation pipeline on every \
             submission before resolution. Optimised and unoptimised \
             submissions never share a compiled-program cache entry; a \
             lint rejection answers $(b,err ... lint) and the daemon \
             stays up.")
  in
  let run port smoke fuel heap stack timeout_ms slice max_inflight
      mem_budget cache_capacity dump_dir trace backend optimize =
    let config =
      {
        Serve.default_config with
        Serve.backend;
        Serve.fuel;
        heap;
        stack;
        timeout_ms;
        slice;
        max_inflight;
        mem_budget;
        cache_capacity;
        dump_dir;
        trace;
        optimize;
      }
    in
    let engine = Serve.create ~config () in
    if smoke then smoke_serve engine
    else
      match port with
      | Some p -> serve_tcp engine p
      | None -> serve_stdio engine
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Evaluation-as-a-service: a long-running, multi-tenant daemon \
          over a line protocol. Per-request fuel/heap/stack quotas via \
          the resource latches, wall-clock timeouts via pause-cell \
          suspension, admission control and oldest-paused eviction under \
          memory pressure, a crash barrier writing flight-recorder \
          dumps, and a compiled-program cache keyed by source hash. \
          Verbs: eval, stats, ping, quit.")
    Term.(
      const run $ port_arg $ smoke_arg $ fuel_q $ heap_q $ stack_q
      $ timeout_q $ slice_q $ inflight_q $ mem_q $ cache_q $ dump_arg
      $ trace_arg $ backend_arg $ serve_opt_arg)

let main_cmd =
  let doc = "A semantics for imprecise exceptions (PLDI 1999), executable." in
  Cmd.group
    (Cmd.info "impexn" ~version:"1.0.0" ~doc)
    [
      eval_cmd; set_cmd; run_cmd; laws_cmd; encode_cmd; optimize_cmd;
      typecheck_cmd; trace_cmd; fuzz_cmd; faults_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)

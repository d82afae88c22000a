(** The public face of the library: one module that re-exports every layer
    and provides the high-level entry points a user needs to parse,
    evaluate, perform, optimise and compare programs under the paper's
    semantics and its baselines.

    {1 Layers}

    - {!Syntax}, {!Parser}, {!Pretty}, {!Prelude}: the lazy mini-Haskell of
      Figure 1 (extended), its concrete syntax and standard library.
    - {!Exn}, {!Exn_set}, {!Value}, {!Denot}: the imprecise denotational
      semantics with exception sets (Section 4).
    - {!Conc}, {!Oracle}: the operational IO layer (Section 4.4, 5.1),
      concurrency included; a single-threaded program is the one-thread
      run.
    - {!Obs}: the flight recorder — structured transition tracing and
      exception provenance shared by every machine and IO layer.
    - {!Resolve}, {!Machine}, {!Machine_conc}, {!Stats}: the
      compile-to-slots pass, the stack-trimming implementation
      (Section 3.3) and its IO layer.
    - {!Bytecode}: the flat bytecode backend — the resolved IR compiled
      to a contiguous instruction array with superinstructions and
      per-case-site inline caches; same machine contract, multi-x
      faster.
    - {!Runtime}: what the two machines share outside their dispatch
      loops — heap cells and values, latches, the async queue,
      exception readback, deep-forcing and the collector.
    - {!Fixed}, {!Exval}: the rejected baseline designs (Sections 2, 3.4).
    - {!Strictness}, {!Effects}: the analyses.
    - {!Rules}, {!Refine}, {!Laws}, {!Pipeline}: the transformation
      algebra (Section 4.5).
    - {!Infer}: Hindley–Milner type inference (the paper assumes typed
      programs; this checks them).
    - {!Gen}: random well-typed term generation for testing.
    - {!Fuzz} (with {!Coverage}, {!Corpus}, {!Metamorph}, {!Differ}): the
      coverage-guided metamorphic differential fuzzer over all five
      evaluators.
    - {!Serve}: evaluation-as-a-service — the quota-enforcing,
      degrade-gracefully engine behind [impexn serve], with its
      compiled-program cache. *)

module Syntax = Lang.Syntax
module Token = Lang.Token
module Lexer = Lang.Lexer
module Parser = Lang.Parser
module Pretty = Lang.Pretty
module Prelude = Lang.Prelude
module Builder = Lang.Builder
module Subst = Lang.Subst
module Prim = Lang.Prim
module Con_info = Lang.Con_info
module Exn = Lang.Exn
module Obs = Obs
module Exn_set = Semantics.Exn_set
module Value = Semantics.Sem_value
module Denot = Semantics.Denot
module Conc = Semantics.Conc

(** [Io] and [Machine_io] name the IO layers of the two evaluators as
    they were before single-threaded IO became the one-thread run of the
    concurrent layers; the end-to-end benchmark is frozen against these
    names, so they stay as plain aliases. *)
module Io = Conc

module Oracle = Semantics.Oracle
module Fixed = Semantics.Fixed
module Exval = Semantics.Exval
module Resolve = Lang.Resolve
module Machine_conc = Machine.Machine_conc
module Machine_io = Machine_conc
module Stats = Machine.Stats
module Bytecode = Machine.Bytecode
module Runtime = Machine.Runtime
module Machine = Machine.Stg
module Strictness = Analysis.Strictness
module Effects = Analysis.Exn_analysis
module Faultinject = Analysis.Faultinject
module Rules = Transform.Rules
module Refine = Transform.Refine
module Laws = Transform.Laws
module Pipeline = Transform.Pipeline
module Lint = Transform.Lint
module Rewrite = Transform.Rewrite
module Gen = Gen.Gen_term
module Infer = Types.Infer
module Coverage = Fuzz.Coverage
module Corpus = Fuzz.Corpus
module Metamorph = Fuzz.Metamorph
module Differ = Fuzz.Differ
module Fuzz = Fuzz.Engine
module Serve = Serve

(** {1 High-level API} *)

exception Parse_error of string
(** Raised by {!parse} and {!parse_program} with a located message. *)

(** Parse one expression (without the Prelude). *)
let parse_raw src =
  try Lang.Parser.parse_expr src
  with Lang.Parser.Error (msg, line, col) ->
    raise (Parse_error (Printf.sprintf "%d:%d: %s" line col msg))

(** Parse one expression and close it under the Prelude. *)
let parse src = Lang.Prelude.wrap (parse_raw src)

(** Parse a whole program (a series of declarations defining [main]) and
    close it under the Prelude. *)
let parse_program src =
  try Lang.Prelude.wrap_program (Lang.Parser.parse_program src)
  with Lang.Parser.Error (msg, line, col) ->
    raise (Parse_error (Printf.sprintf "%d:%d: %s" line col msg))

(** Evaluate a closed expression with the imprecise denotational semantics
    and force the result deeply. *)
let eval ?config ?depth e = Semantics.Denot.run_deep ?config ?depth e

(** Evaluate source text: [eval_string "1/0 + error \"Urk\""]. *)
let eval_string ?config ?depth src = eval ?config ?depth (parse src)

(** The exception set [S⟦e⟧] of a closed expression ([∅] for normal
    values). *)
let exception_set ?config e = Semantics.Denot.exception_set ?config e

(** Run a closed [IO] expression under the operational semantics
    (Section 4.4). *)
let run_io ?config ?oracle ?trace ?input ?async e =
  Semantics.Conc.run ?config ?oracle ?trace ?input ?async e

(** Run a closed [IO] expression on the abstract machine. *)
let run_io_machine ?config ?trace ?input ?async e =
  Machine_conc.run ?config ?trace ?input ?async e

(** Evaluate on the abstract machine (pure, deep) and return the value
    with the machine's cost counters. *)
let eval_machine ?config ?depth e = Machine.run_deep ?config ?depth e

(** [getException e] as a one-shot convenience: evaluate under a catch and
    return either the WHNF-forced deep value or the caught exception. *)
let try_eval ?config e =
  let m = Machine.create ?config () in
  let a = Machine.alloc m e in
  match Machine.force_catch m a with
  | Ok _ -> Ok (Machine.deep m a)
  | Error (Machine.Fail_exn exn) | Error (Machine.Fail_async exn) ->
      Error (Some exn)
  | Error Machine.Fail_diverged -> Error None

(** Pretty-print a term. *)
let to_string = Lang.Pretty.expr_to_string

(** Infer the type of source text under the Prelude. *)
let typecheck src = Types.Infer.check_string src

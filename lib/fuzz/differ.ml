open Lang.Syntax
module Denot = Semantics.Denot
module Fixed = Semantics.Fixed
module Conc = Semantics.Conc
module Oracle = Semantics.Oracle
module Exn_set = Semantics.Exn_set
module V = Semantics.Sem_value
module Refine = Semantics.Refine
module Stg = Machine.Stg
module Bytecode = Machine.Bytecode
module Machine_conc = Machine.Machine_conc

type vconfig = {
  denot_fuel : int;
  machine_fuel : int;
  fixed_fuel : int;
  depth : int;
  io_max_steps : int;
  poison_thunks : bool;
  app_union : bool;
  case_finding : bool;
  optimize_variants : bool;
  break_pass : string option;
}

let default_vconfig =
  {
    denot_fuel = 50_000;
    machine_fuel = 400_000;
    fixed_fuel = 200_000;
    depth = 24;
    io_max_steps = 4_000;
    poison_thunks = true;
    app_union = true;
    case_finding = true;
    optimize_variants = true;
    break_pass = None;
  }

type violation = { check : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.check v.detail

type result = { violations : violation list; dump : string option }

let denot_config v =
  {
    Denot.default_config with
    fuel = v.denot_fuel;
    app_union = v.app_union;
    case_finding = v.case_finding;
  }

let stg_config v =
  {
    Stg.default_config with
    fuel = v.machine_fuel;
    poison_thunks = v.poison_thunks;
    blackhole_nontermination = true;
  }

let rec bad_sets acc = function
  | V.DBad s -> s :: acc
  | V.DCon (_, ds) -> List.fold_left bad_sets acc ds
  | V.DInt _ | V.DChar _ | V.DString _ | V.DFun | V.DCut -> acc

(* C13 lifted through structure: the precise evaluator aborts the whole
   deep forcing at the first exceptional component, so [Raised e]
   implements a structured denotation whenever [e] is a member of some
   exception set occurring anywhere inside it. *)
let raised_implements e d =
  V.contains_bottom d || List.exists (Exn_set.mem e) (bad_sets [] d)

let exn_of_deep = function
  | V.DCon (name, []) -> Lang.Exn.of_constructor name None
  | V.DCon (name, [ V.DString s ]) -> Lang.Exn.of_constructor name (Some s)
  | V.DCon (name, [ V.DInt n ]) ->
      Lang.Exn.of_constructor_p name (Some (Lang.Exn.P_int n))
  | _ -> None

(* Denot and the machines leave pure [getException] uninterpreted (a
   [GetException] constructor around the possibly-exceptional argument);
   the fixed-order baseline interprets it, returning [OK v] or a caught
   [Bad e]. The interpretation implements the symbolic form when the
   caught member belongs to the argument's exception set. *)
let rec fixed_deep_implements fd dl =
  match (fd, dl) with
  | _, V.DBad s when Exn_set.is_all s -> true
  | V.DCon ("OK", [ d ]), V.DCon ("GetException", [ dd ]) ->
      fixed_deep_implements d dd
  | V.DCon ("Bad", [ de ]), V.DCon ("GetException", [ dd ]) -> (
      match (exn_of_deep de, bad_sets [] dd) with
      | Some e, sets -> List.exists (Exn_set.mem e) sets
      | None, _ -> false)
  | V.DCon (c1, ds1), V.DCon (c2, ds2) ->
      String.equal c1 c2
      && List.length ds1 = List.length ds2
      && List.for_all2 fixed_deep_implements ds1 ds2
  | _ -> Refine.implements_deep fd dl

let fixed_implements fo dl =
  match fo with
  | Fixed.Value d -> fixed_deep_implements d dl
  | Fixed.Raised e -> raised_implements e dl
  | Fixed.Diverged -> true

let uses_get_exception t =
  List.exists
    (function
      | Con ("GetException", _) -> true
      | Var "getException" -> true
      | _ -> false)
    (Transform.Rewrite.subterms t)

(* A [DBad] buried inside a constructor: the machine's per-field deep
   forcing and the precise evaluator's abort-on-first-raise legitimately
   disagree on such values, so exact comparisons skip them. *)
let rec has_nested_bad inside = function
  | V.DBad _ -> inside
  | V.DCon (_, ds) -> List.exists (has_nested_bad true) ds
  | V.DInt _ | V.DChar _ | V.DString _ | V.DFun | V.DCut -> false

(* Structural agreement between two *implementation* results: each
   reports a single representative member of the semantic set, and the
   members may legitimately differ, so exceptional positions (and
   source-level exception-constructor values, e.g. a caught [Bad e]
   carried into the result) compare equal regardless of which exception
   they hold. *)
let is_exn_con name =
  Lang.Exn.is_declared name
  || List.exists
       (fun e -> String.equal (Lang.Exn.constructor_name e) name)
       Lang.Exn.all_known

let rec agree_modulo_exn a b =
  match (a, b) with
  | V.DBad _, V.DBad _ -> true
  | V.DCon (c1, _), V.DCon (c2, _) when is_exn_con c1 && is_exn_con c2 -> true
  | V.DCon (c1, a1), V.DCon (c2, a2) ->
      String.equal c1 c2
      && List.length a1 = List.length a2
      && List.for_all2 agree_modulo_exn a1 a2
  | _ -> V.deep_equal a b

let timing_sensitive t =
  List.exists
    (function Con (("WithTimeout" | "Retry"), _) -> true | _ -> false)
    (Transform.Rewrite.subterms t)

let is_prefix a b =
  let shorter, longer =
    if String.length a <= String.length b then (a, b) else (b, a)
  in
  String.equal shorter (String.sub longer 0 (String.length shorter))

let multiset s =
  let cs = List.init (String.length s) (String.get s) in
  List.sort Char.compare cs

let note_cov cov tr stats_list io_counters_list =
  match cov with
  | None -> ()
  | Some c ->
      Coverage.note_events c (Obs.events tr);
      List.iter (Coverage.note_stats c) stats_list;
      List.iter (Coverage.note_io_counters c) io_counters_list

let finish ?(extra = []) tr note violations =
  let violations = List.rev violations in
  let dump =
    if violations = [] then None
    else
      Some
        (Obs.dump ~last:48
           ~extra:
             (("violations",
               String.concat "; "
                 (List.map (fun v -> v.check ^ ": " ^ v.detail) violations))
             :: extra)
           ~note tr)
  in
  { violations; dump }

(* ------------------------------------------------------------------ *)
(* Pure terms: five evaluators                                         *)
(* ------------------------------------------------------------------ *)

type held = { segment : Bytecode.segment; image : Stg.image }

(* A campaign's held Prelude: the global context's resolved Prelude,
   compiled to bytecode once and built into the slot machine's image
   once, as a serve engine holds them. *)
let held_prelude () =
  match Lang.Resolve.expr (Lang.Prelude.wrap (Lit (Lit_int 0))) with
  | Lang.Resolve.RLetrec (specs, _) ->
      { segment = Bytecode.segment specs; image = Stg.image specs }
  | _ -> invalid_arg "Differ.held_prelude: a wrapped term is a letrec"

let check_pure ?cov ~held v t =
  let w = Lang.Prelude.wrap t in
  let tr = Obs.create ~capacity:1024 ~on:true () in
  let violations = ref [] in
  let flag check detail = violations := { check; detail } :: !violations in
  let pd = Fmt.str "%a" V.pp_deep in
  let denot w = Denot.run_deep ~config:(denot_config v) ~depth:v.depth w in
  (* A serve request's start path for the raw term [rx]: each machine's
     heap from the [held] Prelude's image (the bytecode compiled against
     its segment), the root at the body. It must agree exactly with the
     full path, whose runs [full] give each machine's deep value and
     counters: the same value, and the same counters less the group's
     letrec step (a dispatch on bytecode) and its cells. Its own
     recorder is off, so the campaign's events and coverage are the full
     path's. *)
  let image_starts held rx ~full =
    let n =
      match rx with Lang.Resolve.RLetrec (g, _) -> Array.length g | _ -> 0
    in
    let saving =
      List.map (fun (field, x) ->
          match field with
          | "steps" -> (field, x - 1)
          | "bc_dispatches" when x > 0 -> (field, x - 1)
          | "allocations" -> (field, x - n)
          | _ -> (field, x))
    in
    let pf =
      Fmt.(str "%a" (list ~sep:(any " ") (pair ~sep:(any "=") string int)))
    in
    let m, a = Stg.start ~config:(stg_config v) ~image:held.image rx in
    let d_stg = Stg.deep ~depth:v.depth m a in
    let mb, b =
      Bytecode.start ~config:(stg_config v)
        (Bytecode.compile ~segment:held.segment rx)
    in
    let d_bc = Bytecode.deep ~depth:v.depth mb b in
    List.iter2
      (fun (name, d, st) (d_full, st_full) ->
        if not (V.contains_bottom d_full) then begin
          if not (V.deep_equal d d_full) then
            flag (name ^ "-image-vs-full")
              (Printf.sprintf "image start %s <> full start %s" (pd d)
                 (pd d_full));
          let st = Machine.Stats.fields st and want = saving st_full in
          if st <> want then
            flag (name ^ "-image-counters")
              (Printf.sprintf "image start %s, want %s" (pf st) (pf want))
        end)
      [ ("stg", d_stg, Stg.stats m); ("bytecode", d_bc, Bytecode.stats mb) ]
      full
  in
  (* The four implementations on one term [w] against its denotation
     [dl]; [prefix] keeps the optimised term's check names apart. Both
     machines take the full path, as a one-shot run does; the raw term
     also starts from the [held] Prelude ([image_starts]). The optimised
     term's group is pruned, so it has no image start. *)
  let implementations ?held ~prefix w dl =
    let flag check = flag (prefix ^ check) in
    let rx = Lang.Resolve.expr w in
    let m, a = Stg.start ~config:(stg_config v) ~trace:tr rx in
    let d_stg = Stg.deep ~depth:v.depth m a in
    let st_stg = Machine.Stats.fields (Stg.stats m) in
    (* Exercise the root catch/poison machinery for coverage on a fresh
       allocation: catching at the root abandons it black-holed, so a
       [deep] after [force_catch] is not the term's denotation and feeds
       no comparison. *)
    ignore (Stg.force_catch m (Stg.alloc m w));
    (* The flat bytecode backend shares the slot machine's config. *)
    let mb, b =
      Bytecode.start ~config:(stg_config v) ~trace:tr (Bytecode.compile rx)
    in
    let d_bc = Bytecode.deep ~depth:v.depth mb b in
    let st_bc = Machine.Stats.fields (Bytecode.stats mb) in
    ignore (Bytecode.force_catch mb (Bytecode.entry mb));
    Option.iter
      (fun h -> image_starts h rx ~full:[ (d_stg, st_stg); (d_bc, st_bc) ])
      held;
    let fixed order =
      Fixed.run_deep ~fuel:v.fixed_fuel ~depth:v.depth order w
    in
    let fo_l = fixed Fixed.Left_to_right and fo_r = fixed Fixed.Right_to_left in
    if not (Refine.implements_deep d_stg dl) then
      flag "stg-implements-denot"
        (Printf.sprintf "machine %s !⊑ denot %s" (pd d_stg) (pd dl));
    if not (fixed_implements fo_l dl) then
      flag "fixed-l2r-implements-denot"
        (Fmt.str "fixed L2R %a !⊑ denot %s" Fixed.pp_outcome fo_l (pd dl));
    if not (fixed_implements fo_r dl) then
      flag "fixed-r2l-implements-denot"
        (Fmt.str "fixed R2L %a !⊑ denot %s" Fixed.pp_outcome fo_r (pd dl));
    if not (Refine.implements_deep d_bc dl) then
      flag "bytecode-implements-denot"
        (Printf.sprintf "bytecode %s !⊑ denot %s" (pd d_bc) (pd dl));
    if
      (not (V.contains_bottom d_stg))
      && (not (V.contains_bottom d_bc))
      && not (V.deep_equal d_stg d_bc)
    then
      flag "stg-vs-bytecode"
        (Printf.sprintf "slot machine %s <> bytecode %s" (pd d_stg) (pd d_bc));
    (let fd_l = Fixed.outcome_to_deep fo_l in
     if
       (not (uses_get_exception t))
       && (not (V.contains_bottom d_stg))
       && (not (V.contains_bottom fd_l))
       && (not (has_nested_bad false d_stg))
       && (not (has_nested_bad false fd_l))
       && not (V.deep_equal d_stg fd_l)
     then
       flag "stg-vs-fixed-l2r"
         (Printf.sprintf "machine %s <> fixed L2R %s" (pd d_stg) (pd fd_l)));
    note_cov cov tr [ Stg.stats m; Bytecode.stats mb ] []
  in
  let dl = denot w in
  implementations ~held ~prefix:"" w dl;
  (* Optimized variants: run the imprecise pipeline (every pass
     linted) and re-run each evaluator on its output. The optimiser
     may only gain information (denot ⊑ denot of optimised), every
     implementation must still implement the optimised denotation
     (C13), and the deterministic machines must keep agreeing with
     each other and with fixed-order L2R. A lint rejection surfaces as
     a structured violation instead of killing the campaign. *)
  (if v.optimize_variants then
     match
       Transform.Pipeline.optimize ?break_pass:v.break_pass ~trace:tr
         Transform.Pipeline.Imprecise w
     with
     | exception Transform.Lint.Lint_error { pass; violations = lvs; _ } ->
         flag "optimizer-lint"
           (Fmt.str "lint rejected pass %s: %a" pass
              Fmt.(list ~sep:(any "; ") Transform.Lint.pp_violation)
              lvs)
     | wo, _report ->
         let dlo = denot wo in
         if not (V.deep_leq dl dlo) then
           flag "optimized-denot-leq"
             (Printf.sprintf "optimised term lost information: %s !⊑ %s"
                (pd dl) (pd dlo));
         implementations ~prefix:"optimized-" wo dlo);
  finish
    ~extra:[ ("term", Lang.Pretty.expr_to_string t); ("denot", pd dl) ]
    tr "pure differential violation" !violations

(* ------------------------------------------------------------------ *)
(* IO programs: the semantic and machine layers + fault schedules      *)
(* ------------------------------------------------------------------ *)

let terminated = function Conc.Done _ | Conc.Uncaught _ -> true | _ -> false

let bracket_balance flag check ~entered ~released terminated =
  if terminated && entered <> released then
    flag check (Printf.sprintf "brackets entered %d <> released %d" entered released)

(* Same termination class, and the same value up to which exception an
   exceptional field carries. *)
let same_class o1 o2 =
  match (o1, o2) with
  | Conc.Done d1, Conc.Done d2 ->
      V.contains_bottom d1 || V.contains_bottom d2 || agree_modulo_exn d1 d2
  | Conc.Uncaught _, Conc.Uncaught _
  | Conc.Deadlock, Conc.Deadlock
  | Conc.Diverged, Conc.Diverged
  | Conc.Stuck _, Conc.Stuck _ ->
      true
  | _ -> false

(* What the machine owes the semantic layer. Fuel budgets differ between
   the engines, so divergence on either side is exempt; a sequential
   program's value must implement the semantic one exactly. *)
let outcomes_agree ~concurrent sem mach =
  match (sem, mach) with
  | Conc.Diverged, _ | _, Conc.Diverged -> true
  | Conc.Done d1, Conc.Done d2 when not concurrent -> Refine.implements_deep d2 d1
  | _ -> same_class sem mach

(* One body for both entry points. A concurrent program owes agreement
   only up to interleaving (output multisets, thread counts); a
   sequential one owes an output prefix. A semantic run that picked
   from ⊥ owes nothing on its final value: Section 5.3 lets that pick be
   any exception, and the machine raised a particular one. *)
let check_program ~concurrent ?cov v ~seed t =
  let w = Lang.Prelude.wrap t in
  let tr = Obs.create ~capacity:1024 ~on:true () in
  let violations = ref [] in
  let flag check detail = violations := { check; detail } :: !violations in
  let ts = timing_sensitive t in
  let sem ?async oracle =
    Conc.run ~config:(denot_config v) ~oracle ~trace:tr ~input:"" ?async
      ~max_steps:v.io_max_steps w
  in
  let mach ?async ?gc_every () =
    Machine_conc.run ~config:(stg_config v) ~trace:tr ~input:"" ?async ?gc_every
      ~max_transitions:v.io_max_steps w
  in
  let balance name (c : Conc.counters) (mc : Conc.counters) so mo =
    bracket_balance flag ("sem-" ^ name) ~entered:c.brackets_entered
      ~released:c.brackets_released (terminated so);
    bracket_balance flag ("machine-" ^ name) ~entered:mc.brackets_entered
      ~released:mc.brackets_released (terminated mo)
  in
  (* Clean runs, deterministic oracle: cross-layer agreement. *)
  let s = sem (Oracle.first ()) and m = mach () in
  let s_out = Conc.output_string_of s in
  let tag = if concurrent then "conc" else "io" in
  if not ts then begin
    if s.counters.bottom_picks = 0 && not (outcomes_agree ~concurrent s.outcome m.outcome)
    then
      flag (tag ^ "-outcome")
        (Fmt.str "semantic %a, machine %a" Conc.pp_outcome s.outcome Conc.pp_outcome
           m.outcome);
    if not concurrent then begin
      if not (is_prefix s_out m.output) then
        flag "io-output" (Printf.sprintf "semantic wrote %S, machine wrote %S" s_out m.output)
    end
    else begin
      (match (s.outcome, m.outcome) with
      | Conc.Done _, Conc.Done _ when multiset s_out <> multiset m.output ->
          flag "conc-output-multiset"
            (Printf.sprintf "semantic wrote %S, machine wrote %S" s_out m.output)
      | _ -> ());
      if s.threads_spawned <> m.threads_spawned then
        flag "conc-threads-spawned"
          (Printf.sprintf "semantic spawned %d, machine spawned %d" s.threads_spawned
             m.threads_spawned)
    end
  end;
  balance "bracket-balance" s.counters m.counters s.outcome m.outcome;
  (* Fault schedule 1: a collection every 3 transitions must be
     transparent. *)
  let m_gc = mach ~gc_every:3 () in
  if not ts then begin
    if not (String.equal m.output m_gc.output) then
      flag "gc-transparency-output"
        (Printf.sprintf "without gc %S, with gc %S" m.output m_gc.output);
    if not (same_class m.outcome m_gc.outcome) then
      flag "gc-transparency-outcome"
        (Fmt.str "without gc %a, with gc %a" Conc.pp_outcome m.outcome Conc.pp_outcome
           m_gc.outcome)
  end;
  (* Fault schedule 2: a seeded async interrupt — invariants only
     (delivery timing is layer-relative). *)
  let async_at = 2 + (abs seed mod 7) in
  let s_a = sem ~async:[ (async_at, Lang.Exn.Interrupt) ] (Oracle.create ~seed) in
  let m_a = mach ~async:[ (async_at * 20, Lang.Exn.Interrupt) ] () in
  balance "async-bracket-balance" s_a.counters m_a.counters s_a.outcome m_a.outcome;
  note_cov cov tr [ m.stats; m_gc.stats; m_a.stats ]
    [ s.counters; s_a.counters; m.counters; m_gc.counters; m_a.counters ];
  finish
    ~extra:[ ("program", Lang.Pretty.expr_to_string t) ]
    tr
    (tag ^ " differential violation")
    !violations

let check_io = check_program ~concurrent:false
let check_conc = check_program ~concurrent:true

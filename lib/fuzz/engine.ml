open Lang.Syntax
module B = Lang.Builder
module G = QCheck2.Gen
module Gen_term = Gen.Gen_term
module Denot = Semantics.Denot

type config = {
  seed : int;
  runs : int;
  seconds : float option;
  corpus_dir : string option;
  crash_dir : string option;
  persist : bool;
  vconfig : Differ.vconfig;
  max_retained : int;
  log : string -> unit;
}

let default_config =
  {
    seed = 0;
    runs = 500;
    seconds = None;
    corpus_dir = None;
    crash_dir = None;
    persist = false;
    vconfig = Differ.default_vconfig;
    max_retained = 256;
    log = ignore;
  }

let bug_names =
  [ "no-poison"; "no-app-union"; "no-case-finding"; "broken-opt-pass" ]

let inject_bug name (v : Differ.vconfig) =
  match name with
  | "no-poison" -> Ok { v with Differ.poison_thunks = false }
  | "no-app-union" -> Ok { v with Differ.app_union = false }
  | "no-case-finding" -> Ok { v with Differ.case_finding = false }
  | "broken-opt-pass" ->
      (* A deliberately corrupted optimiser pass: the lint ablation
         drops a live binder, which the post-pass checker must catch
         and report as an optimizer-lint violation. *)
      Ok
        {
          v with
          Differ.optimize_variants = true;
          break_pass = Some "unbind-var";
        }
  | _ ->
      Error
        (Printf.sprintf "unknown bug %S (known: %s)" name
           (String.concat ", " bug_names))

type crash = {
  entry : Corpus.entry;
  check : string;
  detail : string;
  minimized : expr;
  minimized_size : int;
  occurrences : int;
  dump : string option;
}

type report = {
  total_runs : int;
  replayed : int;
  generated : int;
  mutated : int;
  retained : int;
  crashes : crash list;
  coverage : Coverage.t;
  meta : Metamorph.state;
  corpus_errors : (string * string) list;
  elapsed : float;
}

let passed r =
  r.crashes = [] && r.corpus_errors = [] && Metamorph.unwitnessed r.meta = []

(* ------------------------------------------------------------------ *)
(* Running one entry                                                   *)
(* ------------------------------------------------------------------ *)

let metamorph_config (v : Differ.vconfig) =
  {
    Denot.default_config with
    fuel = v.Differ.denot_fuel;
    app_union = v.Differ.app_union;
    case_finding = v.Differ.case_finding;
  }

(* All violations of one entry, as (check, detail, dump). [meta] is the
   campaign state during exploration and a scratch state during
   minimisation (so shrink probes don't pollute the witness tallies). *)
let run_entry ?cov ~held ~vconfig ~meta ~rseed (e : Corpus.entry) =
  match e.Corpus.mode with
  | Corpus.M_int | Corpus.M_list | Corpus.M_any ->
      let d = Differ.check_pure ?cov ~held vconfig e.Corpus.expr in
      let mv =
        Metamorph.check_pure ~config:(metamorph_config vconfig) meta
          e.Corpus.expr
      in
      List.map
        (fun (v : Differ.violation) ->
          (v.Differ.check, v.Differ.detail, d.Differ.dump))
        d.Differ.violations
      @ List.map
          (fun (v : Metamorph.violation) ->
            (v.Metamorph.oracle, v.Metamorph.detail, None))
          mv
  | Corpus.M_io ->
      let d = Differ.check_io ?cov vconfig ~seed:rseed e.Corpus.expr in
      List.map
        (fun (v : Differ.violation) ->
          (v.Differ.check, v.Differ.detail, d.Differ.dump))
        d.Differ.violations
  | Corpus.M_conc ->
      let d = Differ.check_conc ?cov vconfig ~seed:rseed e.Corpus.expr in
      List.map
        (fun (v : Differ.violation) ->
          (v.Differ.check, v.Differ.detail, d.Differ.dump))
        d.Differ.violations

(* ------------------------------------------------------------------ *)
(* Minimisation                                                        *)
(* ------------------------------------------------------------------ *)

(* Greedy descent over the strictly-decreasing structural shrinker:
   replace the witness by its first shrink candidate that still trips
   the same check. Candidate probes are capped so a slow-to-reproduce
   check cannot stall the campaign. *)
let prelude_names =
  lazy (Lang.Subst.String_set.of_list Lang.Prelude.names)

(* Shrink candidates may expose the body of a binder, leaving its
   variable free; such terms are not programs, so the minimiser only
   follows candidates closed under the Prelude. *)
let closed_under_prelude e =
  Lang.Subst.String_set.subset (Lang.Subst.free_vars e)
    (Lazy.force prelude_names)

let minimize ~held ~vconfig ~rseed ~check (e : Corpus.entry) =
  let probes = ref 0 in
  let still_fails cand =
    closed_under_prelude cand
    && begin
         incr probes;
         !probes <= 2_000
         && List.exists
              (fun (c, _, _) -> String.equal c check)
              (run_entry ~held ~vconfig ~meta:(Metamorph.create ())
                 ~rseed
                 { e with Corpus.expr = cand })
       end
  in
  let rec go cur steps =
    if steps <= 0 then cur
    else
      match List.find_opt still_fails (Gen_term.shrink cur) with
      | Some smaller -> go smaller (steps - 1)
      | None -> cur
  in
  go e.Corpus.expr 300

(* ------------------------------------------------------------------ *)
(* Generation and mutation                                             *)
(* ------------------------------------------------------------------ *)

let gen_fresh rng n =
  let pick = Random.State.int rng 12 in
  let mode, g =
    if pick < 4 then (Corpus.M_int, Gen_term.gen_int ())
    else if pick < 6 then (Corpus.M_list, Gen_term.gen_list ())
    else if pick < 10 then (Corpus.M_io, Gen_term.gen_io ())
    else (Corpus.M_conc, Gen_term.gen_conc ())
  in
  {
    Corpus.name = Printf.sprintf "gen-%06d" n;
    mode;
    expr = G.generate1 ~rand:rng g;
  }

let exn_grafts =
  [|
    B.(int 1 / int 0);
    B.error "mut";
    B.raise_exn Lang.Exn.Overflow;
    B.int 0;
    B.int 1;
  |]

(* Replace the [idx]-th subterm in pre-order ({!Transform.Rewrite.subterms}
   numbering). *)
let replace_nth root idx repl =
  let n = ref (-1) in
  let rec go e =
    incr n;
    if !n = idx then repl
    else
      match e with
      | Var _ | Lit _ -> e
      | Lam (x, b) -> Lam (x, go b)
      | App (f, x) ->
          let f = go f in
          App (f, go x)
      | Con (c, es) -> Con (c, List.map go es)
      | Case (s, alts) ->
          let s = go s in
          Case (s, List.map (fun a -> { a with rhs = go a.rhs }) alts)
      | Let (x, e1, e2) ->
          let e1 = go e1 in
          Let (x, e1, go e2)
      | Letrec (bs, b) ->
          let bs = List.map (fun (x, e1) -> (x, go e1)) bs in
          Letrec (bs, go b)
      | Prim (p, es) -> Prim (p, List.map go es)
      | Raise e -> Raise (go e)
      | Fix e -> Fix (go e)
  in
  go root

let put_int e = App (Var "putInt", e)

let mutate rng (corpus : Corpus.entry array) (e : Corpus.entry) n =
  let graft expr =
    let subs = Transform.Rewrite.subterms expr in
    let len = List.length subs in
    if len <= 1 then None
    else
      let idx = 1 + Random.State.int rng (len - 1) in
      let repl = exn_grafts.(Random.State.int rng (Array.length exn_grafts)) in
      Some (replace_nth expr idx repl)
  in
  let crossover expr =
    let mates =
      Array.to_list corpus
      |> List.filter (fun (m : Corpus.entry) -> m.Corpus.mode = e.Corpus.mode)
    in
    match mates with
    | [] -> None
    | _ ->
        let mate = List.nth mates (Random.State.int rng (List.length mates)) in
        let donor = Transform.Rewrite.subterms mate.Corpus.expr in
        let piece = List.nth donor (Random.State.int rng (List.length donor)) in
        let subs = Transform.Rewrite.subterms expr in
        let len = List.length subs in
        if len <= 1 then None
        else Some (replace_nth expr (1 + Random.State.int rng (len - 1)) piece)
  in
  let rule_rewrite expr =
    let rules = Transform.Rules.all in
    let r = List.nth rules (Random.State.int rng (List.length rules)) in
    Transform.Rewrite.first_site r.Transform.Rules.applies expr
  in
  let expr = e.Corpus.expr in
  let mutated =
    match e.Corpus.mode with
    | Corpus.M_int | Corpus.M_list | Corpus.M_any -> (
        match Random.State.int rng 5 with
        | 0 when e.Corpus.mode = Corpus.M_int ->
            Some (Let ("zz", expr, B.(var "zz" + var "zz")))
        | 0 -> Some (B.seq expr expr)
        | 1 -> graft expr
        | 2 -> rule_rewrite expr
        | 3 ->
            Some
              (B.map_exception
                 (B.lam "ze" (B.exn_con Lang.Exn.Overflow))
                 expr)
        | _ -> crossover expr)
    | Corpus.M_io | Corpus.M_conc -> (
        match Random.State.int rng 4 with
        | 0 -> Some (B.io_mask expr)
        | 1 ->
            Some
              (B.io_bracket
                 (B.io_return (B.int 1))
                 (B.lam "zr" (put_int (B.int 9)))
                 (B.lam "zr" expr))
        | 2 -> Some (B.io_bind (put_int (B.int 7)) (B.lam "zu" expr))
        | _ -> graft expr)
  in
  Option.map
    (fun expr ->
      { e with Corpus.name = Printf.sprintf "gen-%06d" n; expr })
    mutated

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run cfg =
  let rng = Random.State.make [| cfg.seed; 0x1e9 |] in
  let cov = Coverage.create () in
  let meta = Metamorph.create () in
  let held = Differ.held_prelude () in
  let start = Sys.time () in
  let dict = Corpus.dictionary () in
  let file_corpus, corpus_errors =
    match cfg.corpus_dir with Some d -> Corpus.load_dir d | None -> ([], [])
  in
  let corpus = ref (Array.of_list (dict @ file_corpus)) in
  let retained = ref 0 in
  let replayed = ref 0 in
  let generated = ref 0 in
  let mutated = ref 0 in
  let total = ref 0 in
  let crashes : (string, crash) Hashtbl.t = Hashtbl.create 8 in
  let handle (e : Corpus.entry) rseed violations =
    List.iter
      (fun (check, detail, dump) ->
        match Hashtbl.find_opt crashes check with
        | Some c ->
            Hashtbl.replace crashes check
              { c with occurrences = c.occurrences + 1 }
        | None ->
            cfg.log
              (Printf.sprintf "! %s on %s — minimising" check e.Corpus.name);
            let minimized =
              minimize ~held ~vconfig:cfg.vconfig ~rseed ~check e
            in
            let crash =
              {
                entry = e;
                check;
                detail;
                minimized;
                minimized_size = size minimized;
                occurrences = 1;
                dump;
              }
            in
            Hashtbl.add crashes check crash;
            Option.iter
              (fun dir ->
                Corpus.save ~dir
                  {
                    e with
                    Corpus.name = Printf.sprintf "crash-%s" check;
                    expr = minimized;
                  };
                let path = Filename.concat dir ("crash-" ^ check ^ ".txt") in
                let oc = open_out path in
                Printf.fprintf oc
                  "check: %s\ndetail: %s\noriginal (%s):\n%s\n\nminimised \
                   (%d nodes):\n%s\n\n%s\n"
                  check detail e.Corpus.name
                  (Lang.Pretty.expr_to_string e.Corpus.expr)
                  (size minimized)
                  (Lang.Pretty.expr_to_string minimized)
                  (Option.value dump ~default:"(no dump)");
                close_out oc)
              cfg.crash_dir)
      violations
  in
  let run_one (e : Corpus.entry) =
    incr total;
    let rseed = cfg.seed + !total in
    let before = Coverage.signature cov in
    let violations =
      run_entry ~cov ~held ~vconfig:cfg.vconfig ~meta ~rseed e
    in
    handle e rseed violations;
    if Coverage.signature cov <> before && !retained < cfg.max_retained then begin
      incr retained;
      corpus := Array.append !corpus [| e |];
      if cfg.persist then
        Option.iter (fun dir -> Corpus.save ~dir e) cfg.corpus_dir
    end
  in
  (* Phase 1: replay the corpus (dictionary + files). *)
  Array.iter
    (fun e ->
      incr replayed;
      run_one e)
    !corpus;
  cfg.log
    (Printf.sprintf "replayed %d corpus entries; coverage %d/%d" !replayed
       (Coverage.kinds_hit cov) Coverage.n_kinds);
  (* Phase 2: explore. *)
  let continue () =
    match cfg.seconds with
    | Some s -> Sys.time () -. start < s
    | None -> !total < cfg.runs
  in
  while continue () do
    let n = !total + 1 in
    let entry =
      let mutating =
        Array.length !corpus > 0 && Random.State.int rng 4 = 0
      in
      if mutating then
        let src = !corpus.(Random.State.int rng (Array.length !corpus)) in
        match mutate rng !corpus src n with
        | Some e ->
            incr mutated;
            e
        | None ->
            incr generated;
            gen_fresh rng n
      else begin
        incr generated;
        gen_fresh rng n
      end
    in
    run_one entry;
    if !total mod 250 = 0 then
      cfg.log
        (Printf.sprintf
           "%d runs (%d generated, %d mutated); coverage %d/%d kinds, %d \
            buckets; %d retained; %d distinct crashes"
           !total !generated !mutated (Coverage.kinds_hit cov) Coverage.n_kinds
           (Coverage.buckets_seen cov) !retained (Hashtbl.length crashes))
  done;
  {
    total_runs = !total;
    replayed = !replayed;
    generated = !generated;
    mutated = !mutated;
    retained = !retained;
    crashes =
      Hashtbl.fold (fun _ c acc -> c :: acc) crashes []
      |> List.sort (fun a b -> String.compare a.check b.check);
    coverage = cov;
    meta;
    corpus_errors;
    elapsed = Sys.time () -. start;
  }

let minimize_file cfg path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let name = Filename.remove_extension (Filename.basename path) in
    match Corpus.of_text ~name text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok entry -> (
        let rseed = cfg.seed + 1 in
        (* Replay on the campaign's start paths. *)
        let held = Differ.held_prelude () in
        match
          run_entry ~held ~vconfig:cfg.vconfig ~meta:(Metamorph.create ())
            ~rseed entry
        with
        | [] -> Ok None
        | (check, detail, dump) :: _ ->
            let minimized =
              minimize ~held ~vconfig:cfg.vconfig ~rseed ~check entry
            in
            Ok
              (Some
                 {
                   entry;
                   check;
                   detail;
                   minimized;
                   minimized_size = size minimized;
                   occurrences = 1;
                   dump;
                 }))

let pp_report ppf r =
  Fmt.pf ppf "fuzz campaign: %d runs (%d replayed, %d generated, %d mutated) \
              in %.1fs@."
    r.total_runs r.replayed r.generated r.mutated r.elapsed;
  Fmt.pf ppf "%a" Coverage.pp r.coverage;
  Fmt.pf ppf "corpus: %d inputs retained for new coverage@." r.retained;
  List.iter
    (fun (f, e) -> Fmt.pf ppf "corpus file error: %s: %s@." f e)
    r.corpus_errors;
  let rules_checked =
    List.filter (fun (_, applied, _) -> applied > 0) (Metamorph.summary r.meta)
  in
  Fmt.pf ppf "metamorphic oracles applied: %d (witnessed non-laws: %d)@."
    (List.fold_left (fun acc (_, a, _) -> acc + a) 0 rules_checked)
    (List.fold_left (fun acc (_, _, w) -> acc + w) 0 rules_checked);
  List.iter
    (fun o -> Fmt.pf ppf "UNWITNESSED non-law: %s@." o)
    (Metamorph.unwitnessed r.meta);
  (match r.crashes with
  | [] -> Fmt.pf ppf "no violations.@."
  | cs ->
      List.iter
        (fun c ->
          Fmt.pf ppf
            "VIOLATION %s (%d occurrence%s)@.  first on: %s@.  %s@.  \
             minimised to %d nodes: %s@."
            c.check c.occurrences
            (if c.occurrences = 1 then "" else "s")
            c.entry.Corpus.name c.detail c.minimized_size
            (Lang.Pretty.expr_to_string c.minimized))
        cs);
  Fmt.pf ppf "verdict: %s@." (if passed r then "PASS" else "FAIL")

open Lang.Syntax
module B = Lang.Builder
module Rules = Transform.Rules
module Rewrite = Transform.Rewrite
module Refine = Transform.Refine
module Denot = Semantics.Denot
module Fixed = Semantics.Fixed
module Exn_set = Semantics.Exn_set
module V = Semantics.Sem_value
module Strictness = Analysis.Strictness

type tally = { mutable applied : int; mutable witnessed : int }

type state = (string, tally) Hashtbl.t

let create () : state = Hashtbl.create 64

let tally (st : state) name =
  match Hashtbl.find_opt st name with
  | Some t -> t
  | None ->
      let t = { applied = 0; witnessed = 0 } in
      Hashtbl.add st name t;
      t

type violation = {
  oracle : string;
  lhs : expr;
  rhs : expr;
  detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s@.  lhs: %a@.  rhs: %a" v.oracle v.detail
    Lang.Pretty.pp_expr v.lhs Lang.Pretty.pp_expr v.rhs

(* A [DBad All] anywhere in a forced result means some component hit the
   approximation's bottom (fuel, black hole): at that approximation the
   side is below its true denotation, so equality obligations do not
   apply — only the refinement direction remains checkable, and we skip
   rather than risk flagging a fuel artefact. *)
let outcome_bottom = function
  | Fixed.Diverged -> true
  | Fixed.Value d -> V.contains_bottom d
  | Fixed.Raised _ -> false

let check_pure ?(config = Denot.default_config) ?(depth = 24) (st : state) t =
  let violations = ref [] in
  let flag oracle lhs rhs detail =
    violations := { oracle; lhs; rhs; detail } :: !violations
  in
  let wrap = Lang.Prelude.wrap in
  let w = wrap t in
  let run e = Denot.run_deep ~config ~depth e in
  let runf e = Fixed.run_deep ~fuel:config.Denot.fuel ~depth Fixed.Left_to_right e in
  let dl = run w in
  let fl = lazy (runf w) in
  (* --- the rule catalogue ------------------------------------------ *)
  List.iter
    (fun (r : Rules.rule) ->
      match Rewrite.first_site r.Rules.applies t with
      | None -> ()
      | Some t' ->
          let w' = wrap t' in
          let dr = run w' in
          let bottomed = V.contains_bottom dl || V.contains_bottom dr in
          let v = Refine.compare_deep dl dr in
          let name_imp = r.Rules.name ^ "@imprecise" in
          let ta = tally st name_imp in
          ta.applied <- ta.applied + 1;
          (match r.Rules.imprecise with
          | Rules.Identity ->
              if (not bottomed) && not (Refine.verdict_equal v Refine.Equal)
              then
                flag name_imp t t'
                  (Fmt.str "claimed identity, observed %a: %a vs %a"
                     Refine.pp_verdict v V.pp_deep dl V.pp_deep dr)
          | Rules.Refinement ->
              if
                (not bottomed)
                && not
                     (Refine.verdict_equal v Refine.Equal
                     || Refine.verdict_equal v Refine.Refines)
              then
                flag name_imp t t'
                  (Fmt.str "claimed refinement, observed %a: %a vs %a"
                     Refine.pp_verdict v V.pp_deep dl V.pp_deep dr)
          | Rules.Invalid -> (
              match v with
              | Refine.Refined_by | Refine.Incomparable ->
                  ta.witnessed <- ta.witnessed + 1
              | Refine.Equal | Refine.Refines -> ()));
          let fo = Lazy.force fl and fo' = runf w' in
          let fbottom = outcome_bottom fo || outcome_bottom fo' in
          let name_fix = r.Rules.name ^ "@fixed" in
          let tf = tally st name_fix in
          tf.applied <- tf.applied + 1;
          let feq = Fixed.outcome_equal fo fo' in
          (match r.Rules.fixed_order with
          | Rules.Identity ->
              if (not fbottom) && not feq then
                flag name_fix t t'
                  (Fmt.str "claimed fixed-order identity, observed %a vs %a"
                     Fixed.pp_outcome fo Fixed.pp_outcome fo')
          | Rules.Refinement ->
              if
                (not fbottom)
                && not
                     (V.deep_leq (Fixed.outcome_to_deep fo)
                        (Fixed.outcome_to_deep fo'))
              then
                flag name_fix t t'
                  (Fmt.str "claimed fixed-order refinement, observed %a vs %a"
                     Fixed.pp_outcome fo Fixed.pp_outcome fo')
          | Rules.Invalid ->
              if not feq then tf.witnessed <- tf.witnessed + 1))
    Rules.all;
  (* --- seq-insert: strictness-driven [seq] is preserve-or-refine --- *)
  (let seq_site = function
     | Let (x, e1, body)
       when Lang.Subst.String_set.mem x
              (Strictness.demanded Strictness.empty_sigs body) ->
         Some (Let (x, e1, B.seq (Var x) body))
     | _ -> None
   in
   match Rewrite.first_site seq_site t with
   | None -> ()
   | Some t' ->
       let ta = tally st "seq-insert" in
       ta.applied <- ta.applied + 1;
       let dr = run (wrap t') in
       if not (V.contains_bottom dl || V.contains_bottom dr) then
         let v = Refine.compare_deep dl dr in
         if
           not
             (Refine.verdict_equal v Refine.Equal
             || Refine.verdict_equal v Refine.Refines)
         then
           flag "seq-insert" t t'
             (Fmt.str "seq insertion observed %a: %a vs %a" Refine.pp_verdict
                v V.pp_deep dl V.pp_deep dr));
  (* --- widen-plus: S⟦t + raise E⟧ = S⟦t⟧ ∪ {E} exactly ------------- *)
  (let exn = Lang.Exn.Assertion_failed "widen" in
   let expected =
     match dl with
     | V.DInt _ -> Some (V.DBad (Exn_set.singleton exn))
     | V.DBad s when not (Exn_set.is_all s) ->
         Some (V.DBad (Exn_set.union s (Exn_set.singleton exn)))
     | _ -> None
   in
   match expected with
   | None -> ()
   | Some expected ->
       let t' = B.(t + raise_exn exn) in
       let ta = tally st "widen-plus" in
       ta.applied <- ta.applied + 1;
       let dr = run (wrap t') in
       if not (V.deep_equal dr expected) then
         flag "widen-plus" t t'
           (Fmt.str "expected %a, got %a" V.pp_deep expected V.pp_deep dr));
  (* --- roundtrip: parse (pretty t) = t up to alpha ----------------- *)
  (let ta = tally st "roundtrip" in
   ta.applied <- ta.applied + 1;
   let printed = Lang.Pretty.expr_to_string t in
   match Lang.Parser.parse_expr printed with
   | t2 ->
       if not (Lang.Subst.alpha_equal t t2) then
         flag "roundtrip" t t2
           (Fmt.str "pretty/parse changed the term: %s" printed)
   | exception Lang.Parser.Error (msg, line, col) ->
       flag "roundtrip" t t
         (Printf.sprintf "pretty output fails to parse at %d:%d: %s (%s)"
            line col msg printed));
  (* --- pipeline: every pass linted, and the optimiser may only gain
     information ---------------------------------------------------- *)
  (let ta = tally st "pipeline" in
   ta.applied <- ta.applied + 1;
   match Transform.Pipeline.optimize Transform.Pipeline.Imprecise w with
   | opt, _report ->
       if not (Lang.Syntax.equal opt w) then
         let dr = run opt in
         if not (V.deep_leq dl dr) then
           flag "pipeline" t opt
             (Fmt.str "optimised term lost information: %a vs %a" V.pp_deep
                dl V.pp_deep dr)
   | exception Transform.Lint.Lint_error { pass; violations = lvs; _ } ->
       flag "pipeline-lint" t t
         (Fmt.str "lint rejected pass %s: %a" pass
            Fmt.(list ~sep:(any "; ") Transform.Lint.pp_violation)
            lvs));
  List.rev !violations

let summary (st : state) =
  Hashtbl.fold (fun name t acc -> (name, t.applied, t.witnessed) :: acc) st []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let unwitnessed (st : state) =
  List.concat_map
    (fun (r : Rules.rule) ->
      let check design claimed =
        if not (Rules.status_equal claimed Rules.Invalid) then []
        else
          let name = r.Rules.name ^ "@" ^ design in
          match Hashtbl.find_opt st name with
          | Some t when t.witnessed > 0 -> []
          | _ -> [ name ]
      in
      check "imprecise" r.Rules.imprecise @ check "fixed" r.Rules.fixed_order)
    Rules.all

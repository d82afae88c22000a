open Lang.Syntax
module Strictness = Analysis.Strictness
module Exn_analysis = Analysis.Exn_analysis

type mode = Imprecise | Fixed_order_with_effect_analysis

type report = {
  mode : mode;
  rounds : int;
  sites : (string * int) list;
  blocked_sites : int;
  size_before : int;
  size_after : int;
  lint_checks : int;
  lint_time : float;
}

let pp_mode ppf = function
  | Imprecise -> Fmt.string ppf "imprecise"
  | Fixed_order_with_effect_analysis -> Fmt.string ppf "fixed+effects"

let pp_report ppf r =
  Fmt.pf ppf "[%a] %d rounds, size %d -> %d, blocked %d, %a" pp_mode r.mode
    r.rounds r.size_before r.size_after r.blocked_sites
    Fmt.(list ~sep:comma (pair ~sep:(any ":") string int))
    r.sites;
  if r.lint_checks > 0 then
    Fmt.pf ppf ", lint %d checks (%.1f ms)" r.lint_checks
      (r.lint_time *. 1000.)

(* Non-duplicating, order-preserving simplifications: valid in every
   design, so both pipelines share them. *)
let simplify_rule e =
  match e with
  (* beta, only for atomic arguments (no sharing lost, no work moved) *)
  | App (Lam (x, body), (Var _ as a)) | App (Lam (x, body), (Lit _ as a)) ->
      Some (Lang.Subst.subst x a body)
  | Let (x, ((Var _ | Lit _) as a), body) ->
      Some (Lang.Subst.subst x a body)
  | Let (x, _, e2) when not (Lang.Subst.is_free_in x e2) -> Some e2
  | Case (Con _, _) | Case (Lit _, _) -> (
      match e with
      | Case (scrut, alts) ->
          List.find_map
            (fun a ->
              match (a.pat, scrut) with
              | Pcon (c', xs), Con (c, args)
                when String.equal c c' && List.length xs = List.length args
                ->
                  Some
                    (List.fold_right2
                       (fun x arg acc -> Let (x, arg, acc))
                       xs args a.rhs)
              | Plit l, Lit l' when lit_equal l l' -> Some a.rhs
              | Pany None, _ -> Some a.rhs
              | Pany (Some x), _ -> Some (Let (x, scrut, a.rhs))
              | (Pcon _ | Plit _), _ -> None)
            alts
      | _ -> None)
  | _ -> None

let simplify_pass e = Rewrite.fixpoint simplify_rule e

let cbv_pass mode e =
  let applied = ref 0 and blocked = ref 0 in
  let to_case x e1 body = Case (e1, [ { pat = Pany (Some x); rhs = body } ]) in
  let rule e =
    match e with
    | Let (x, e1, body) -> (
        let demanded =
          Lang.Subst.String_set.mem x
            (Strictness.demanded Strictness.empty_sigs body)
        in
        if not demanded then None
        else
          match mode with
          | Imprecise ->
              incr applied;
              Some (to_case x e1 body)
          | Fixed_order_with_effect_analysis ->
              if Exn_analysis.pure (Exn_analysis.analyze e1) then begin
                incr applied;
                Some (to_case x e1 body)
              end
              else begin
                incr blocked;
                None
              end)
    | _ -> None
  in
  let e', _ = Rewrite.bottom_up rule e in
  (e', !applied, !blocked)

(* Occurrence-guided inlining of non-recursive lets. *)
let inline_pass e =
  let module Occ = Analysis.Occurrence in
  let cheap = function
    | Var _ | Lit _ | Con (_, []) -> true
    | _ -> false
  in
  let rule e =
    match e with
    | Let (x, e1, body) -> (
        match Occ.of_binding x body with
        | Occ.Dead -> Some body
        | Occ.Once -> Some (Lang.Subst.subst x e1 body)
        | Occ.Once_under_lambda | Occ.Many ->
            if cheap e1 then Some (Lang.Subst.subst x e1 body) else None)
    | _ -> None
  in
  Rewrite.fixpoint ~max_rounds:4 rule e

(* Drop letrec bindings unreachable from the body. *)
let prune_pass e =
  let dropped = ref 0 in
  let rule e =
    match e with
    | Letrec (binds, body) ->
        let live = Analysis.Occurrence.reachable_bindings binds body in
        let n_dropped = List.length binds - List.length live in
        if n_dropped = 0 then None
        else begin
          dropped := !dropped + n_dropped;
          match live with
          | [] -> Some body
          | _ -> Some (Letrec (live, body))
        end
    | _ -> None
  in
  let e', _ = Rewrite.fixpoint ~max_rounds:4 rule e in
  (e', !dropped)

(* Case-of-case (Rules.case_of_case, identity in every design): push
   the outer case into the inner alternatives, unblocking
   case-of-known-constructor on the next simplify. Duplicating the
   outer alternatives into several inner branches is allowed only when
   they are small; a single inner alternative never duplicates. *)
let case_of_case_pass e =
  let rule e =
    match e with
    | Case (Case (_, inner), outer) ->
        let outer_size =
          List.fold_left (fun acc a -> acc + size a.rhs) 0 outer
        in
        if List.length inner <= 1 || outer_size <= 16 then
          Rules.case_of_case.applies e
        else None
    | _ -> None
  in
  Rewrite.fixpoint ~max_rounds:4 rule e

(* Case-commute (Rules.case_commute, the Section 4 motivating
   equation): swap two nested single-constructor cases so the smaller
   scrutinee is evaluated first. The strict size decrease both orients
   the rewrite in the improving direction (cheap scrutinee forced
   first, fewer steps before the first match can fail) and keeps the
   outer driver from oscillating. The refinement-direction guard from
   the strictness analysis requires the hoisted case's binders to feed
   a demand in the final body (or bind nothing): we only move an
   evaluation earlier when it is known to be needed. Identity under
   imprecise semantics; Invalid under a fixed order, so the fixed
   pipeline additionally demands both scrutinees provably pure,
   counting refused sites as blocked. *)
let case_commute_pass mode e =
  let applied = ref 0 and blocked = ref 0 in
  let rule e =
    match e with
    | Case (s1, [ a1 ]) -> (
        match a1.rhs with
        | Case (s2, [ a2 ]) when size s2 < size s1 ->
            let demanded =
              Strictness.demanded Strictness.empty_sigs a2.rhs
            in
            let feeds_demand =
              match pat_binders a2.pat with
              | [] -> true
              | bs ->
                  List.exists
                    (fun b -> Lang.Subst.String_set.mem b demanded)
                    bs
            in
            if not feeds_demand then None
            else (
              match Rules.case_commute.applies e with
              | None -> None
              | Some e' -> (
                  match mode with
                  | Imprecise ->
                      incr applied;
                      Some e'
                  | Fixed_order_with_effect_analysis ->
                      if
                        Exn_analysis.pure (Exn_analysis.analyze s1)
                        && Exn_analysis.pure (Exn_analysis.analyze s2)
                      then begin
                        incr applied;
                        Some e'
                      end
                      else begin
                        incr blocked;
                        None
                      end))
        | _ -> None)
    | _ -> None
  in
  let e', _ = Rewrite.bottom_up rule e in
  (e', !applied, !blocked)

(* ------------------------------------------------------------------ *)
(* Broken-pass ablations                                               *)
(* ------------------------------------------------------------------ *)

let ablations =
  [ "unbind-var"; "drop-con-arg"; "dup-pattern-binder"; "int-to-string" ]

(* Each ablation corrupts the first eligible site the way a buggy pass
   would, exercising one lint check category. *)
let sabotage name e =
  let rule =
    match name with
    | "unbind-var" -> (
        function
        | Let (x, e1, body) when Lang.Subst.is_free_in x body ->
            Some (Let (x ^ "'lint", e1, body))
        | _ -> None)
    | "drop-con-arg" -> (
        function
        | Con (c, (_ :: _ as args)) ->
            Some
              (Con (c, List.filteri (fun i _ -> i < List.length args - 1) args))
        | _ -> None)
    | "dup-pattern-binder" -> (
        function
        | Case (s, alts) ->
            let dup = function
              | { pat = Pcon (c, x :: _ :: tl); rhs } ->
                  Some { pat = Pcon (c, x :: x :: tl); rhs }
              | _ -> None
            in
            if List.exists (fun a -> dup a <> None) alts then
              Some
                (Case
                   ( s,
                     List.map (fun a -> Option.value (dup a) ~default:a) alts
                   ))
            else None
        | _ -> None)
    | "int-to-string" -> (
        function
        | Lit (Lit_int _) -> Some (Lit (Lit_string "lint-broken"))
        | _ -> None)
    | _ -> invalid_arg (Fmt.str "Pipeline.sabotage: unknown ablation %s" name)
  in
  Rewrite.first_site rule e

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let max_rounds = 8

(* A [Prelude.wrap]ped root, recognised as [Resolve.expr] does by the
   physical identity of the shared bindings list, is split once into
   its group and its body. No pass rewrites a Prelude binding (each is a
   fixpoint of every pass), so passes, the ablation hook and the linter
   see only the body; each round then trims the group to what the body
   reaches, which is prune's rule at the root, applied after the body's
   own prune as [Rewrite.bottom_up] ordered them. The term is rebuilt at
   the end, so the output is the one a walk of the whole term gives. Any
   other root is a body with an empty group. *)
let split = function
  | Letrec (defs, body) when defs == Lang.Prelude.defs -> (defs, body)
  | e -> ([], e)

(* The Prelude group's total size, a constant: a split root's
   [size_before] is [1 + size body] plus it, so the report does not walk
   the group's 125 bindings on every call. *)
let prelude_size =
  lazy (List.fold_left (fun n (_, e) -> n + size e) 0 Lang.Prelude.defs)

let optimize ?(lint = true) ?break_pass ?trace mode e =
  let tally = Hashtbl.create 8 in
  let bump k n =
    Hashtbl.replace tally k
      (n + try Hashtbl.find tally k with Not_found -> 0)
  in
  let blocked = ref 0 in
  let lint_checks = ref 0 and lint_time = ref 0. in
  (* Lint time in seconds, read off the monotonic clock. *)
  let timed f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    let dt = Int64.sub (Monotonic_clock.now ()) t0 in
    lint_time := !lint_time +. (Int64.to_float dt *. 1e-9);
    r
  in
  let group, body = split e in
  let size_before =
    match group with
    | [] -> size body
    | _ -> 1 + size body + Lazy.force prelude_size
  in
  let st = ref None in
  if lint then st := Some (timed (fun () -> Lint.snapshot body));
  (* A pass that returned its input unchanged has nothing to check —
     that term is the one the previous check already blessed. Skipping
     the no-ops is what keeps the linter's share of pipeline time small
     once the fixpoint rounds go quiet. *)
  let check ~input pass e' =
    if e' == input || equal e' input then e'
    else begin
      (match !st with
      | None -> ()
      | Some prev ->
          let next = timed (fun () -> Lint.check_pass ?trace ~pass ~prev e') in
          incr lint_checks;
          st := Some next);
      e'
    end
  in
  (* Prune's rule at the root: the group keeps what the body reaches,
     and the trim is checked as prune's output. *)
  let trim group body =
    match group with
    | [] -> (group, 0)
    | _ ->
        let live = Analysis.Occurrence.reachable_bindings group body in
        let n = List.length group - List.length live in
        if n = 0 then (group, 0)
        else begin
          Option.iter
            (fun prev ->
              timed (fun () -> Lint.check_group ?trace ~pass:"prune" prev live);
              incr lint_checks)
            !st;
          (live, n)
        end
  in
  let sabotaged = ref false in
  let round (group, e0) =
    let e1, n = prune_pass e0 in
    let e1 = check ~input:e0 "prune" e1 in
    let group, m = trim group e1 in
    bump "prune" (n + m);
    let e2, n = simplify_pass e1 in
    let e2 = check ~input:e1 "simplify" e2 in
    bump "simplify" n;
    (* Ablation hook: corrupt the term as its own named pseudo-pass, so
       the lint failure names the deliberately broken pass. *)
    let e2 =
      match break_pass with
      | Some name when not !sabotaged -> (
          sabotaged := true;
          match sabotage name e2 with
          | Some e' -> check ~input:e2 name e'
          | None -> e2)
      | _ -> e2
    in
    let e3, n = inline_pass e2 in
    let e3 = check ~input:e2 "inline" e3 in
    bump "inline" n;
    let e4, n = case_of_case_pass e3 in
    let e4 = check ~input:e3 "case-of-case" e4 in
    bump "case-of-case" n;
    let e5, n, b = case_commute_pass mode e4 in
    let e5 = check ~input:e4 "case-commute" e5 in
    bump "case-commute" n;
    blocked := !blocked + b;
    let e6, n, b = cbv_pass mode e5 in
    let e6 = check ~input:e5 "cbv" e6 in
    bump "cbv" n;
    blocked := !blocked + b;
    let e7, n = simplify_pass e6 in
    let e7 = check ~input:e6 "simplify" e7 in
    bump "simplify" n;
    (group, e7)
  in
  let rec go ((group, e) as ge) rounds =
    if rounds >= max_rounds then (ge, rounds)
    else
      let ((group', e') as ge') = round ge in
      let rounds = rounds + 1 in
      if group' == group && (e' == e || equal e' e) then (ge', rounds)
      else go ge' rounds
  in
  let (group, body), rounds = go (group, body) 0 in
  let e' = match group with [] -> body | _ -> Letrec (group, body) in
  let site k = try Hashtbl.find tally k with Not_found -> 0 in
  let report =
    {
      mode;
      rounds;
      sites =
        List.map
          (fun k -> (k, site k))
          [
            "prune";
            "simplify";
            "inline";
            "case-of-case";
            "case-commute";
            "cbv";
          ];
      blocked_sites = !blocked;
      size_before;
      size_after = size e';
      lint_checks = !lint_checks;
      lint_time = !lint_time;
    }
  in
  (e', report)

(* Both headline numbers read off the pipeline's own reports, so the C8
   counts and [optimize]'s per-pass sites cannot disagree on a program:
   they are the same measurement on the same post-cleanup terms. *)
let count_cbv_opportunities e =
  let _, ri = optimize ~lint:false Imprecise e in
  let _, rf = optimize ~lint:false Fixed_order_with_effect_analysis e in
  (List.assoc "cbv" ri.sites, List.assoc "cbv" rf.sites)

open Lang.Syntax
module B = Lang.Builder
module Subst = Lang.Subst

type status = Identity | Refinement | Invalid

let pp_status ppf = function
  | Identity -> Fmt.string ppf "identity"
  | Refinement -> Fmt.string ppf "refinement"
  | Invalid -> Fmt.string ppf "INVALID"

let status_equal (a : status) b = a = b

type rule = {
  name : string;
  description : string;
  paper_ref : string;
  imprecise : status;
  fixed_order : status;
  nondet : status;
  applies : expr -> expr option;
  instances : expr list;
}

let fresh_eta =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "_eta%d" !c

(* Shared instance ingredients. *)
let e_div0 = B.(int 1 / int 0)
let e_err s = B.error s
let e_ovf = B.(int 1073741823 * int 1073741823)

let beta =
  {
    name = "beta";
    description =
      "(\\x.e) a  ==>  e[a/x].  Valid in the imprecise semantics; breaks \
       under a pure non-deterministic getException because substitution \
       loses the sharing that made both occurrences agree (Section 3.4).";
    paper_ref = "3.4, 3.5";
    imprecise = Identity;
    fixed_order = Identity;
    nondet = Invalid;
    applies =
      (function
      | App (Lam (x, body), arg) -> Some (Subst.subst x arg body)
      | _ -> None);
    instances =
      [
        App (B.lam "x" B.(var "x" + var "x"), B.int 21);
        App (B.lam "x" (B.int 3), e_div0);
        App (B.lam "x" B.(var "x" + var "x"), e_div0);
        App
          ( B.lam "x"
              (Con
                 ( c_pair,
                   [
                     Con (c_get_exception, [ B.var "x" ]);
                     Con (c_get_exception, [ B.var "x" ]);
                   ] )),
            B.(e_div0 + e_err "Urk") );
      ];
  }

let let_inline =
  {
    name = "let_inline";
    description =
      "let x = e1 in e2  ==>  e2[e1/x].  The binding form of beta; same \
       sharing caveat under the naive non-deterministic design.";
    paper_ref = "3.4";
    imprecise = Identity;
    fixed_order = Identity;
    nondet = Invalid;
    applies =
      (function
      | Let (x, e1, e2) -> Some (Subst.subst x e1 e2)
      | _ -> None);
    instances =
      [
        Let ("x", B.int 1, B.(var "x" + var "x"));
        Let ("x", e_div0, B.(var "x" + var "x"));
        Let ("x", B.(e_div0 + e_err "Urk"),
             Con (c_pair,
                  [ Con (c_get_exception, [ B.var "x" ]);
                    Con (c_get_exception, [ B.var "x" ]) ]));
      ];
  }

let plus_commute =
  {
    name = "plus_commute";
    description =
      "e1 + e2  ==>  e2 + e1.  The motivating example: with exception \
       sets, + unions both sides' exceptions, so commutativity holds \
       (Section 3.4); under a fixed order the first exception differs.";
    paper_ref = "3.4";
    imprecise = Identity;
    fixed_order = Invalid;
    nondet = Identity;
    applies =
      (function
      | Prim (Lang.Prim.Add, [ a; b ]) -> Some (Prim (Lang.Prim.Add, [ b; a ]))
      | _ -> None);
    instances =
      [
        B.(int 2 + int 3);
        B.(e_div0 + e_err "Urk");
        B.(e_err "A" + e_err "B");
        B.(e_div0 + int 1);
        B.(e_ovf + e_err "late");
      ];
  }

let case_switch =
  {
    name = "case_switch";
    description =
      "(case e of {True->f; False->g}) x  ==>  case e of {True->f x; \
       False->g x}.  The Section 4.5 example: an identity in old Haskell \
       and, on the paper's instance, a refinement here (the right-hand \
       side drops the argument's exceptions: lhs ⊑ rhs).  Found by \
       fuzzing: NOT a refinement in general.  The exception-finding rule \
       cannot see exceptions latent behind a lambda, so pushing the \
       application inside an alternative can surface new ones — a branch \
       body that raises, or a non-function branch hitting a type error.";
    paper_ref = "4.5";
    imprecise = Invalid;
    fixed_order = Identity;
    nondet = Identity;
    applies =
      (function
      | App (Case (s, alts), arg) ->
          let captures a =
            List.exists
              (fun x -> Subst.is_free_in x arg)
              (pat_binders a.pat)
          in
          if List.exists captures alts then None
          else
            Some
              (Case
                 (s, List.map (fun a -> { a with rhs = App (a.rhs, arg) }) alts))
      | _ -> None);
    instances =
      [
        (* The paper's own instance: e = raise E, f = g = \v.1, x = raise X.
           lhs denotes Bad {E,X}, rhs denotes Bad {E}. *)
        App
          ( Case
              ( B.raise_exn (Lang.Exn.User_error "E"),
                [
                  { pat = Pcon (c_true, []); rhs = B.lam "v" (B.int 1) };
                  { pat = Pcon (c_false, []); rhs = B.lam "v" (B.int 1) };
                ] ),
            B.raise_exn (Lang.Exn.User_error "X") );
        App
          ( Case
              ( B.true_,
                [
                  { pat = Pcon (c_true, []); rhs = B.lam "v" B.(var "v" + int 1) };
                  { pat = Pcon (c_false, []); rhs = B.lam "v" (B.int 0) };
                ] ),
            B.int 41 );
        App
          ( Case
              ( B.false_,
                [
                  { pat = Pcon (c_true, []); rhs = B.lam "v" (B.var "v") };
                  { pat = Pcon (c_false, []); rhs = B.lam "v" (B.int 7) };
                ] ),
            e_div0 );
        (* Fuzzer-minimised witness of the invalidity: the False branch
           is not a function, so the pushed-in application manufactures
           a type error the finding rule never saw on the left.
           lhs denotes Bad {E}, rhs Bad {E, TypeError}: lost information. *)
        App
          ( Case
              ( B.raise_exn (Lang.Exn.User_error "E"),
                [
                  { pat = Pcon (c_true, []); rhs = B.lam "v" (B.int 1) };
                  { pat = Pcon (c_false, []); rhs = B.int 1 };
                ] ),
            B.str "X" );
        (* Same defect without a type error: both branches are lambdas,
           but their bodies raise.  A lambda's latent exceptions are
           invisible to the finding union, so the left side is Bad {E}
           while the right side gains Overflow. *)
        App
          ( Case
              ( B.raise_exn (Lang.Exn.User_error "E"),
                [
                  { pat = Pcon (c_true, []);
                    rhs = B.lam "v" (B.raise_exn Lang.Exn.Overflow) };
                  { pat = Pcon (c_false, []);
                    rhs = B.lam "v" (B.raise_exn Lang.Exn.Overflow) };
                ] ),
            B.int 1 );
      ];
  }

let case_commute =
  {
    name = "case_commute";
    description =
      "case x of {C a b -> case y of {D p q -> e}}  ==>  case y of {D p q \
       -> case x of {C a b -> e}}.  The Section 4 motivating equation, \
       valid thanks to exception-finding mode; a fixed order must pick \
       which scrutinee's exception wins.";
    paper_ref = "4 (intro), 4.3";
    imprecise = Identity;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (function
      | Case ((s1 : expr), [ ({ pat = Pcon _; _ } as a1) ]) -> (
          match a1.rhs with
          | Case (s2, [ ({ pat = Pcon _; _ } as a2) ])
            when (not
                    (List.exists
                       (fun x -> Subst.is_free_in x s2)
                       (pat_binders a1.pat)))
                 && (not
                       (List.exists
                          (fun x -> Subst.is_free_in x s1)
                          (pat_binders a2.pat)))
                 && List.for_all
                      (fun x -> not (List.mem x (pat_binders a2.pat)))
                      (pat_binders a1.pat) ->
              Some
                (Case
                   ( s2,
                     [
                       {
                         pat = a2.pat;
                         rhs = Case (s1, [ { pat = a1.pat; rhs = a2.rhs } ]);
                       };
                     ] ))
          | _ -> None)
      | _ -> None);
    instances =
      (let nested sx sy =
         Case
           ( sx,
             [
               {
                 pat = Pcon (c_pair, [ "a"; "b" ]);
                 rhs =
                   Case
                     ( sy,
                       [
                         {
                           pat = Pcon (c_pair, [ "p"; "q" ]);
                           rhs = B.(var "a" + var "p");
                         };
                       ] );
               };
             ] )
       in
       [
         nested (B.pair (B.int 1) (B.int 2)) (B.pair (B.int 3) (B.int 4));
         nested (e_err "X") (B.pair (B.int 3) (B.int 4));
         nested (e_err "X") (e_err "Y");
         nested (B.pair e_div0 (B.int 2)) (e_err "Y");
       ]);
  }

let error_collapse =
  {
    name = "error_collapse";
    description =
      "error \"This\"  ==>  error \"That\".  An identity in exception-free \
       Haskell (both sides are bottom) that the new semantics rightly \
       loses (Section 4.5).";
    paper_ref = "4.5";
    imprecise = Invalid;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (function
      | Raise (Con ("UserError", [ Lit (Lit_string s) ]))
        when not (String.equal s "That") ->
          Some (B.error "That")
      | _ -> None);
    instances = [ e_err "This" ];
  }

let case_of_known_constructor =
  {
    name = "case_of_known_constructor";
    description =
      "case C a1..an of {...; C x1..xn -> e; ...}  ==>  let x1=a1 .. in e. \
       Valid in every design: no evaluation is moved.";
    paper_ref = "2.3 (goal: keep ordinary transformations)";
    imprecise = Identity;
    fixed_order = Identity;
    nondet = Identity;
    applies =
      (function
      | Case (Con (c, args), alts) ->
          List.find_map
            (fun a ->
              match a.pat with
              | Pcon (c', xs)
                when String.equal c c' && List.length xs = List.length args
                ->
                  Some
                    (List.fold_right2
                       (fun x arg acc -> Let (x, arg, acc))
                       xs args a.rhs)
              | Pany None -> Some a.rhs
              | Pany (Some x) -> Some (Let (x, Con (c, args), a.rhs))
              | Pcon _ | Plit _ -> None)
            alts
      | _ -> None);
    instances =
      [
        Case
          ( B.pair (B.int 1) e_div0,
            [ { pat = Pcon (c_pair, [ "a"; "b" ]); rhs = B.var "a" } ] );
        Case
          ( B.cons (e_err "hd") B.nil,
            [
              { pat = Pcon (c_nil, []); rhs = B.int 0 };
              { pat = Pcon (c_cons, [ "x"; "xs" ]); rhs = B.int 1 };
            ] );
      ];
  }

let dead_let =
  {
    name = "dead_let";
    description =
      "let x = e1 in e2  ==>  e2   (x not free in e2).  Laziness discards \
       the binding unevaluated, exceptional or not.";
    paper_ref = "2.3";
    imprecise = Identity;
    fixed_order = Identity;
    nondet = Identity;
    applies =
      (function
      | Let (x, _, e2) when not (Subst.is_free_in x e2) -> Some e2
      | _ -> None);
    instances =
      [
        Let ("x", e_div0, B.int 42);
        Let ("x", B.loop, B.true_);
      ];
  }

let case_identity_collapse =
  {
    name = "case_identity_collapse";
    description =
      "case v of {True->e; False->e}  ==>  e.  Valid only when v is \
       provably not bottom: the paper's -fno-pedantic-bottoms flag trades \
       this for a proof obligation (Section 5.3 footnote).";
    paper_ref = "5.3 (footnote 5)";
    imprecise = Invalid;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (function
      | Case
          ( _,
            [
              { pat = Pcon ("True", []); rhs = e1 };
              { pat = Pcon ("False", []); rhs = e2 };
            ] )
        when Subst.alpha_equal e1 e2 ->
          Some e1
      | _ -> None);
    instances =
      [
        Case
          ( e_err "scrut",
            [
              { pat = Pcon (c_true, []); rhs = B.int 1 };
              { pat = Pcon (c_false, []); rhs = B.int 1 };
            ] );
        Case
          ( B.true_,
            [
              { pat = Pcon (c_true, []); rhs = B.int 1 };
              { pat = Pcon (c_false, []); rhs = B.int 1 };
            ] );
      ];
  }

let case_of_case =
  {
    name = "case_of_case";
    description =
      "case (case s of {p->a}) of alts  ==>  case s of {p -> case a of \
       alts}.  Standard GHC transformation; no evaluation is reordered.";
    paper_ref = "2.3";
    imprecise = Identity;
    fixed_order = Identity;
    nondet = Identity;
    applies =
      (function
      | Case (Case (s, inner), outer) ->
          let ok a =
            List.for_all
              (fun x ->
                List.for_all
                  (fun o -> not (Subst.is_free_in x o.rhs))
                  outer)
              (pat_binders a.pat)
          in
          if List.for_all ok inner then
            Some
              (Case
                 ( s,
                   List.map
                     (fun a -> { a with rhs = Case (a.rhs, outer) })
                     inner ))
          else None
      | _ -> None);
    instances =
      [
        Case
          ( Case
              ( B.true_,
                [
                  { pat = Pcon (c_true, []); rhs = B.false_ };
                  { pat = Pcon (c_false, []); rhs = B.true_ };
                ] ),
            [
              { pat = Pcon (c_true, []); rhs = B.int 1 };
              { pat = Pcon (c_false, []); rhs = B.int 0 };
            ] );
        Case
          ( Case
              ( e_err "inner",
                [
                  { pat = Pcon (c_true, []); rhs = B.false_ };
                  { pat = Pcon (c_false, []); rhs = e_err "branch" };
                ] ),
            [
              { pat = Pcon (c_true, []); rhs = B.int 1 };
              { pat = Pcon (c_false, []); rhs = e_div0 };
            ] );
      ];
  }

let eta_expand =
  {
    name = "eta_expand";
    description =
      "e  ==>  \\x. e x.  Invalid in any lazy language with seq or \
       exceptions: a lambda is a normal value but e may be exceptional \
       (\\x.bottom ≠ bottom, Section 4.2).";
    paper_ref = "4.2";
    imprecise = Invalid;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (fun e ->
        let x = fresh_eta () in
        Some (Lam (x, App (e, Var x))));
    instances =
      [
        B.(seq (e_err "f") (int 1));
        e_err "f";
        B.lam "y" (B.var "y");
      ];
  }

let strictness_cbv =
  {
    name = "strictness_cbv";
    description =
      "let x = e1 in body  ==>  case e1 of {x -> body}   (body strict in \
       x).  The strictness-analysis-driven call-by-need-to-call-by-value \
       conversion (GHC's let-to-case); valid with exception sets, needs \
       an exception-freedom proof under a fixed order (Section 3.4).";
    paper_ref = "3.4";
    imprecise = Identity;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (function
      | Let (x, e1, body) ->
          let d = Analysis.Strictness.demanded Analysis.Strictness.empty_sigs
                    body
          in
          if Lang.Subst.String_set.mem x d then
            Some (Case (e1, [ { pat = Pany (Some x); rhs = body } ]))
          else None
      | _ -> None);
    instances =
      [
        Let ("x", B.(int 2 + int 3), B.(var "x" * var "x"));
        Let ("x", e_div0, B.(var "x" + e_err "late"));
        Let ("x", e_div0, B.(e_err "early" + var "x"));
        Let ("x", e_ovf, Case (B.var "x", [
          { pat = Plit (Lit_int 0); rhs = B.int 0 };
          { pat = Pany None; rhs = B.int 1 };
        ]));
      ];
  }

let evaluate_is_seq_return =
  {
    name = "evaluate_is_seq_return";
    description =
      "evaluate e  ==>  seq e (Return e).  Haskell folklore treats \
       [evaluate] as strict [return], but the two differ as values: \
       [evaluate e] is already a constructor (its forcing point is the \
       moment the action is performed), while [seq e (Return e)] forces \
       e when the action value itself is demanded. With exception sets \
       the left side is a WHNF even when e is Bad, so the rewrite is \
       invalid in every design; only the performed behaviours agree.";
    paper_ref = "4.4";
    imprecise = Invalid;
    fixed_order = Invalid;
    nondet = Invalid;
    applies =
      (function
      | Con (c, [ e ]) when String.equal c c_evaluate ->
          Some (B.seq e (Con (c_return, [ e ])))
      | _ -> None);
    instances =
      [
        Con (c_evaluate, [ e_div0 ]);
        Con (c_evaluate, [ B.(e_div0 + e_err "Urk") ]);
        Con (c_evaluate, [ B.int 3 ]);
      ];
  }

let all =
  [
    beta;
    let_inline;
    plus_commute;
    case_switch;
    case_commute;
    error_collapse;
    case_of_known_constructor;
    dead_let;
    case_identity_collapse;
    case_of_case;
    eta_expand;
    strictness_cbv;
    evaluate_is_seq_return;
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all

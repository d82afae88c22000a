open Lang.Syntax
module SMap = Map.Make (String)

type ty = T_var of tvar ref | T_con of string * ty list | T_arrow of ty * ty
and tvar = Unbound of int * int  (** id, level *) | Link of ty

type scheme = { quantified : int list; body : ty }

type con_info = {
  result_name : string;
  params : string list;
  fields : ty_expr list;
}

type env = {
  vars : scheme SMap.t;
  cons : con_info SMap.t;
  (* type name -> number of parameters; includes primitive types *)
  type_arity : int SMap.t;
}

type error = { message : string; in_expr : expr option }

exception Type_error of error

let err ?expr fmt =
  Format.kasprintf
    (fun message -> raise (Type_error { message; in_expr = expr }))
    fmt

let pp_error ppf e =
  match e.in_expr with
  | None -> Fmt.string ppf e.message
  | Some ex ->
      Fmt.pf ppf "%s@ in %a" e.message Lang.Pretty.pp_expr ex

(* ------------------------------------------------------------------ *)
(* Unification infrastructure                                          *)
(* ------------------------------------------------------------------ *)

type state = { mutable next_id : int; mutable level : int }

let st = { next_id = 0; level = 0 }

let fresh_var () =
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  T_var (ref (Unbound (id, st.level)))

let t_int = T_con ("Int", [])
let t_char = T_con ("Char", [])
let t_string = T_con ("String", [])
let t_bool = T_con ("Bool", [])
let t_exception = T_con ("Exception", [])
let t_unit = T_con ("Unit", [])
let t_io a = T_con ("IO", [ a ])
let t_exval a = T_con ("ExVal", [ a ])

let rec repr = function
  | T_var ({ contents = Link t } as r) ->
      let t' = repr t in
      r := Link t';
      t'
  | t -> t

let rec occurs (r : tvar ref) (level : int) (t : ty) : unit =
  match repr t with
  | T_var r' ->
      if r == r' then err "occurs check: cannot construct an infinite type";
      (* Propagate the lower level so generalisation stays sound. *)
      (match !r' with
      | Unbound (id, l) -> if l > level then r' := Unbound (id, level)
      | Link _ -> ())
  | T_con (_, args) -> List.iter (occurs r level) args
  | T_arrow (a, b) ->
      occurs r level a;
      occurs r level b

let rec unify (a : ty) (b : ty) : unit =
  let a = repr a and b = repr b in
  match (a, b) with
  | T_var ra, T_var rb when ra == rb -> ()
  | T_var r, t | t, T_var r ->
      let level = match !r with Unbound (_, l) -> l | Link _ -> max_int in
      occurs r level t;
      r := Link t
  | T_con (c1, a1), T_con (c2, a2)
    when String.equal c1 c2 && List.length a1 = List.length a2 ->
      List.iter2 unify a1 a2
  | T_arrow (a1, b1), T_arrow (a2, b2) ->
      unify a1 a2;
      unify b1 b2
  | _ ->
      let pp = pp_ty_internal () in
      err "cannot unify %a with %a" pp a pp b

(* Canonical printer with stable names per call site. *)
and pp_ty_internal () =
  let names : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  let name_of id =
    match Hashtbl.find_opt names id with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "'%c" (Char.chr (97 + (!next mod 26))) in
        incr next;
        Hashtbl.add names id n;
        n
  in
  let rec go lvl ppf t =
    match repr t with
    | T_var { contents = Unbound (id, _) } -> Fmt.string ppf (name_of id)
    | T_var { contents = Link _ } -> assert false
    | T_con (c, []) -> Fmt.string ppf c
    | T_con ("List", [ t1 ]) -> Fmt.pf ppf "[%a]" (go 0) t1
    | T_con ("Pair", [ a; b ]) -> Fmt.pf ppf "(%a, %a)" (go 0) a (go 0) b
    | T_con (c, args) ->
        if lvl > 1 then
          Fmt.pf ppf "(%s %a)" c Fmt.(list ~sep:sp (go 2)) args
        else Fmt.pf ppf "%s %a" c Fmt.(list ~sep:sp (go 2)) args
    | T_arrow (x, y) ->
        if lvl > 0 then Fmt.pf ppf "(%a -> %a)" (go 1) x (go 0) y
        else Fmt.pf ppf "%a -> %a" (go 1) x (go 0) y
  in
  go 0

let pp_ty ppf t = (pp_ty_internal ()) ppf t
let ty_to_string t = Fmt.str "%a" pp_ty t

(* ------------------------------------------------------------------ *)
(* Generalisation and instantiation                                    *)
(* ------------------------------------------------------------------ *)

let generalize (t : ty) : scheme =
  let quantified = ref [] in
  let rec go t =
    match repr t with
    | T_var { contents = Unbound (id, l) } ->
        if l > st.level && not (List.mem id !quantified) then
          quantified := id :: !quantified
    | T_var { contents = Link _ } -> assert false
    | T_con (_, args) -> List.iter go args
    | T_arrow (a, b) ->
        go a;
        go b
  in
  go t;
  { quantified = List.rev !quantified; body = t }

let instantiate (s : scheme) : ty =
  if s.quantified = [] then s.body
  else
    let mapping = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.add mapping id (fresh_var ())) s.quantified;
    let rec go t =
      match repr t with
      | T_var { contents = Unbound (id, _) } as t' -> (
          match Hashtbl.find_opt mapping id with
          | Some fresh -> fresh
          | None -> t')
      | T_var { contents = Link _ } -> assert false
      | T_con (c, args) -> T_con (c, List.map go args)
      | T_arrow (a, b) -> T_arrow (go a, go b)
    in
    go s.body

let mono t = { quantified = []; body = t }

(* ------------------------------------------------------------------ *)
(* Data-type table                                                     *)
(* ------------------------------------------------------------------ *)

let builtin_data : data_decl list =
  let v x = Ty_var x in
  let c n args = Ty_con (n, args) in
  [
    { type_name = "Bool"; type_params = [];
      constructors = [ ("True", []); ("False", []) ] };
    { type_name = "Unit"; type_params = []; constructors = [ ("Unit", []) ] };
    { type_name = "List"; type_params = [ "a" ];
      constructors =
        [ ("Nil", []); ("Cons", [ v "a"; c "List" [ v "a" ] ]) ] };
    { type_name = "Pair"; type_params = [ "a"; "b" ];
      constructors = [ ("Pair", [ v "a"; v "b" ]) ] };
    { type_name = "Maybe"; type_params = [ "a" ];
      constructors = [ ("Nothing", []); ("Just", [ v "a" ]) ] };
    { type_name = "Exception"; type_params = [];
      constructors =
        [
          ("DivideByZero", []);
          ("Overflow", []);
          ("PatternMatchFail", [ c "String" [] ]);
          ("AssertionFailed", [ c "String" [] ]);
          ("UserError", [ c "String" [] ]);
          ("TypeError", [ c "String" [] ]);
          ("NonTermination", []);
          ("Interrupt", []);
          ("Timeout", []);
          ("StackOverflow", []);
          ("HeapExhaustion", []);
          ("HeapOverflow", []);
          ("ThreadKilled", []);
          ("BlockedIndefinitely", []);
          ("SupervisorLimit", [ c "Int" [] ]);
        ] };
    { type_name = "ThreadId"; type_params = [];
      constructors = [ ("ThreadId", [ c "Int" [] ]) ] };
    (* Extensible-hierarchy PR: the SomeException root (Marlow '06 —
       here a plain wrapper, since Exception is already the universal
       exception type), Either for [try], typed handler lists for
       [catches], and supervision-tree restart strategies. *)
    { type_name = "SomeException"; type_params = [];
      constructors = [ ("SomeException", [ c "Exception" [] ]) ] };
    { type_name = "Either"; type_params = [ "a"; "b" ];
      constructors = [ ("Left", [ v "a" ]); ("Right", [ v "b" ]) ] };
    { type_name = "Handler"; type_params = [ "a" ];
      constructors =
        [
          ("Handler",
           [
             Ty_fun
               (c "Exception" [],
                c "Maybe" [ c "IO" [ v "a" ] ]);
           ]);
        ] };
    { type_name = "Strategy"; type_params = [];
      constructors =
        [ ("OneForOne", []); ("OneForAll", []); ("RestForOne", []) ] };
    { type_name = "ExVal"; type_params = [ "a" ];
      constructors =
        [ ("OK", [ v "a" ]); ("Bad", [ c "Exception" [] ]) ] };
  ]

let primitive_type_arities =
  [
    ("Int", 0);
    ("Char", 0);
    ("String", 0);
    ("IO", 1);
    ("MVar", 1);
    ("Chan", 1);
  ]

(* Convert a surface type expression under a parameter mapping. *)
let rec conv_ty env (params : ty SMap.t) (t : ty_expr) : ty =
  match t with
  | Ty_var v -> (
      match SMap.find_opt v params with
      | Some ty -> ty
      | None -> err "unknown type variable %s" v)
  | Ty_fun (a, b) -> T_arrow (conv_ty env params a, conv_ty env params b)
  | Ty_con (name, args) -> (
      match SMap.find_opt name env.type_arity with
      | None -> err "unknown type constructor %s" name
      | Some n when n <> List.length args ->
          err "type constructor %s expects %d arguments, got %d" name n
            (List.length args)
      | Some _ -> T_con (name, List.map (conv_ty env params) args))

let add_data_exn env (d : data_decl) : env =
  if SMap.mem d.type_name env.type_arity then
    err "type %s is already defined" d.type_name;
  let env =
    {
      env with
      type_arity =
        SMap.add d.type_name (List.length d.type_params) env.type_arity;
    }
  in
  (* Check field types are well-formed under the declared parameters. *)
  let params =
    List.fold_left
      (fun acc p -> SMap.add p (fresh_var ()) acc)
      SMap.empty d.type_params
  in
  List.iter
    (fun (_, fields) -> List.iter (fun f -> ignore (conv_ty env params f))
        fields)
    d.constructors;
  let cons =
    List.fold_left
      (fun acc (cname, fields) ->
        if SMap.mem cname acc then err "constructor %s is already defined"
            cname;
        SMap.add cname
          { result_name = d.type_name; params = d.type_params; fields }
          acc)
      env.cons d.constructors
  in
  { env with cons }

let initial_env () =
  let env =
    {
      vars = SMap.empty;
      cons = SMap.empty;
      type_arity =
        List.fold_left
          (fun acc (n, a) -> SMap.add n a acc)
          SMap.empty primitive_type_arities;
    }
  in
  let env = List.fold_left add_data_exn env builtin_data in
  (* The exception vocabulary is global and monotone: constructors
     declared by any previously checked program (or registered directly,
     as the fuzzer does) stay in scope, mirroring the parser's
     constructor table. *)
  List.fold_left
    (fun env (name, kind) ->
      if SMap.mem name env.cons then env
      else
        let fields =
          match kind with
          | Lang.Exn.K_none -> []
          | Lang.Exn.K_int -> [ Ty_con ("Int", []) ]
          | Lang.Exn.K_string -> [ Ty_con ("String", []) ]
        in
        {
          env with
          cons =
            SMap.add name
              { result_name = "Exception"; params = []; fields }
              env.cons;
        })
    env
    (Lang.Exn.declared_list ())

let add_data env d =
  match add_data_exn env d with
  | env' -> Ok env'
  | exception Type_error e -> Error e

(* An [exception] declaration adds a constructor to the existing
   Exception type. Redeclaration is idempotent (the open vocabulary is
   monotone and the parser has already checked the payload kind is
   consistent), so programs sharing a declared name type-check
   independently. *)
let add_exn_decl_exn env (d : exn_decl) : env =
  let fields = match d.exn_payload with None -> [] | Some t -> [ t ] in
  List.iter (fun f -> ignore (conv_ty env SMap.empty f)) fields;
  if SMap.mem d.exn_name env.cons then env
  else
    {
      env with
      cons =
        SMap.add d.exn_name
          { result_name = "Exception"; params = []; fields }
          env.cons;
    }

(* Instantiate a constructor: fresh parameters, field types, result. *)
let instantiate_con env cname : ty list * ty =
  match SMap.find_opt cname env.cons with
  | None -> err "unknown constructor %s" cname
  | Some info ->
      let params =
        List.fold_left
          (fun acc p -> SMap.add p (fresh_var ()) acc)
          SMap.empty info.params
      in
      let fields = List.map (conv_ty env params) info.fields in
      let result =
        T_con
          ( info.result_name,
            List.map (fun p -> SMap.find p params) info.params )
      in
      (fields, result)

(* ------------------------------------------------------------------ *)
(* SCC decomposition of letrec groups, so that Prelude-style groups    *)
(* get per-component let-polymorphism.                                 *)
(* ------------------------------------------------------------------ *)

let scc_of_bindings (binds : (string * expr) list) :
    (string * expr) list list =
  let names = List.map fst binds in
  let index_of n =
    let rec go i = function
      | [] -> None
      | x :: _ when String.equal x n -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  let n = List.length binds in
  let adj = Array.make n [] in
  List.iteri
    (fun i (_, rhs) ->
      let fvs = Lang.Subst.free_vars rhs in
      Lang.Subst.String_set.iter
        (fun v -> match index_of v with
          | Some j -> adj.(i) <- j :: adj.(i)
          | None -> ())
        fvs)
    binds;
  (* Tarjan. *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      adj.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order; reverse to get
     dependencies first. *)
  List.rev_map (List.map (fun i -> List.nth binds i)) !sccs |> List.rev
  |> fun l -> List.rev l

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let lit_ty = function
  | Lit_int _ -> t_int
  | Lit_char _ -> t_char
  | Lit_string _ -> t_string

let prim_check env infer_fn (p : Lang.Prim.t) (args : expr list) : ty =
  let module P = Lang.Prim in
  let check e t = unify (infer_fn env e) t in
  match (p, args) with
  | (P.Add | P.Sub | P.Mul | P.Div | P.Mod), [ a; b ] ->
      check a t_int;
      check b t_int;
      t_int
  | P.Neg, [ a ] ->
      check a t_int;
      t_int
  | (P.Eq | P.Ne | P.Lt | P.Le | P.Gt | P.Ge), [ a; b ] ->
      (* Approximation: ∀a. a -> a -> Bool; the dynamic semantics rejects
         function comparison at run time. *)
      let t = fresh_var () in
      check a t;
      check b t;
      t_bool
  | P.Seq, [ a; b ] ->
      ignore (infer_fn env a);
      infer_fn env b
  | P.Map_exception, [ f; v ] ->
      check f (T_arrow (t_exception, t_exception));
      infer_fn env v
  | P.Unsafe_is_exception, [ a ] ->
      ignore (infer_fn env a);
      t_bool
  | P.Unsafe_get_exception, [ a ] -> t_exval (infer_fn env a)
  | P.Chr, [ a ] ->
      check a t_int;
      t_char
  | P.Ord, [ a ] ->
      check a t_char;
      t_int
  | _ -> err "primitive %s applied to %d arguments" (P.name p)
           (List.length args)

let rec infer_exn (env : env) (e : expr) : ty =
  match e with
  | Var x -> (
      match SMap.find_opt x env.vars with
      | Some s -> instantiate s
      | None -> err ~expr:e "unbound variable %s" x)
  | Lit l -> lit_ty l
  | Lam (x, body) ->
      let a = fresh_var () in
      let env' = { env with vars = SMap.add x (mono a) env.vars } in
      T_arrow (a, infer_exn env' body)
  | App (f, a) ->
      let tf = infer_exn env f in
      let ta = infer_exn env a in
      let r = fresh_var () in
      (try unify tf (T_arrow (ta, r))
       with Type_error te ->
         raise (Type_error { te with in_expr = Some e }));
      r
  (* IO constructors are GADT-like; they get dedicated rules. *)
  | Con (c, [ m; k ]) when String.equal c c_bind ->
      let a = fresh_var () and b = fresh_var () in
      unify (infer_exn env m) (t_io a);
      unify (infer_exn env k) (T_arrow (a, t_io b));
      t_io b
  | Con (c, [ v ]) when String.equal c c_return ->
      t_io (infer_exn env v)
  | Con (c, []) when String.equal c c_get_char -> t_io t_char
  | Con (c, [ v ]) when String.equal c c_put_char ->
      unify (infer_exn env v) t_char;
      t_io t_unit
  | Con (c, [ v ]) when String.equal c c_get_exception -> (
      (* getException on a value catches its exceptions; on an IO action
         it performs the action under a catch (GHC's [try]), so the OK
         payload is the action's *result*. The IO view only applies when
         the argument is concretely IO — a type-variable argument keeps
         the pure view (an HM approximation, documented in DESIGN). *)
      let tv = infer_exn env v in
      match repr tv with
      | T_con ("IO", [ a ]) -> t_io (t_exval a)
      | _ -> t_io (t_exval tv))
  | Con (c, [ acq; rel; use ]) when String.equal c c_bracket ->
      let a = fresh_var () and b = fresh_var () and r = fresh_var () in
      unify (infer_exn env acq) (t_io a);
      unify (infer_exn env rel) (T_arrow (a, t_io b));
      unify (infer_exn env use) (T_arrow (a, t_io r));
      t_io r
  | Con (c, [ m; h ]) when String.equal c c_on_exception ->
      let a = fresh_var () in
      unify (infer_exn env m) (t_io a);
      unify (infer_exn env h) (t_io (fresh_var ()));
      t_io a
  | Con (c, [ m ])
    when String.equal c c_mask || String.equal c c_unmask ->
      let a = fresh_var () in
      unify (infer_exn env m) (t_io a);
      t_io a
  | Con (c, [ n; m ]) when String.equal c c_timeout ->
      let a = fresh_var () in
      unify (infer_exn env n) t_int;
      unify (infer_exn env m) (t_io a);
      t_io (T_con ("Maybe", [ a ]))
  | Con (c, [ n; b; m ]) when String.equal c c_retry ->
      let a = fresh_var () in
      unify (infer_exn env n) t_int;
      unify (infer_exn env b) t_int;
      unify (infer_exn env m) (t_io a);
      t_io a
  | Con ("Fork", [ m ]) ->
      unify (infer_exn env m) (t_io (fresh_var ()));
      t_io t_unit
  | Con ("NewMVar", []) -> t_io (T_con ("MVar", [ fresh_var () ]))
  | Con ("TakeMVar", [ r ]) ->
      let a = fresh_var () in
      unify (infer_exn env r) (T_con ("MVar", [ a ]));
      t_io a
  | Con ("PutMVar", [ r; v ]) ->
      let a = fresh_var () in
      unify (infer_exn env r) (T_con ("MVar", [ a ]));
      unify (infer_exn env v) a;
      t_io t_unit
  | Con ("NewChan", [ n ]) ->
      unify (infer_exn env n) t_int;
      t_io (T_con ("Chan", [ fresh_var () ]))
  | Con ("ReadChan", [ r ]) ->
      let a = fresh_var () in
      unify (infer_exn env r) (T_con ("Chan", [ a ]));
      t_io a
  | Con ("WriteChan", [ r; v ]) ->
      let a = fresh_var () in
      unify (infer_exn env r) (T_con ("Chan", [ a ]));
      unify (infer_exn env v) a;
      t_io t_unit
  | Con (c, [ v ]) when String.equal c c_evaluate ->
      (* evaluate :: a -> IO a — forcing the argument is the performed
         effect; the result is the forced value itself. *)
      t_io (infer_exn env v)
  | Con ("MyThreadId", []) -> t_io (T_con ("ThreadId", []))
  | Con ("ThrowTo", [ t; x ]) ->
      unify (infer_exn env t) (T_con ("ThreadId", []));
      unify (infer_exn env x) t_exception;
      t_io t_unit
  | Con (c, args) ->
      let fields, result =
        try instantiate_con env c
        with Type_error te -> raise (Type_error { te with in_expr = Some e })
      in
      if List.length fields <> List.length args then
        err ~expr:e "constructor %s arity mismatch" c;
      List.iter2 (fun a f -> unify (infer_exn env a) f) args fields;
      result
  | Case (scrut, alts) ->
      let ts = infer_exn env scrut in
      let result = fresh_var () in
      List.iter
        (fun alt ->
          let env' = bind_pattern env ts alt.pat in
          try unify (infer_exn env' alt.rhs) result
          with Type_error te ->
            raise (Type_error { te with in_expr = Some alt.rhs }))
        alts;
      result
  | Let (x, e1, e2) ->
      let s = infer_generalized env e1 in
      infer_exn { env with vars = SMap.add x s env.vars } e2
  | Letrec (binds, body) ->
      let env' = infer_letrec env binds in
      infer_exn env' body
  | Prim (p, args) -> (
      try prim_check env infer_exn p args
      with Type_error te -> raise (Type_error { te with in_expr = Some e }))
  | Raise e1 ->
      (try unify (infer_exn env e1) t_exception
       with Type_error te ->
         raise (Type_error { te with in_expr = Some e }));
      fresh_var ()
  | Fix e1 ->
      let a = fresh_var () in
      unify (infer_exn env e1) (T_arrow (a, a));
      a

and bind_pattern env scrut_ty (p : pat) : env =
  match p with
  | Pany None -> env
  | Pany (Some x) ->
      { env with vars = SMap.add x (mono scrut_ty) env.vars }
  | Plit l ->
      unify scrut_ty (lit_ty l);
      env
  | Pcon (c, xs) -> (
      (* IO patterns are not supported (performing is the IO layer's
         job), but ordinary data constructors are. *)
      match SMap.find_opt c env.cons with
      | None -> err "cannot match on constructor %s" c
      | Some _ ->
          let fields, result = instantiate_con env c in
          unify scrut_ty result;
          if List.length fields <> List.length xs then
            err "pattern %s arity mismatch" c;
          List.fold_left2
            (fun acc x f ->
              { acc with vars = SMap.add x (mono f) acc.vars })
            env xs fields)

and infer_generalized env e1 : scheme =
  st.level <- st.level + 1;
  let t =
    match infer_exn env e1 with
    | t ->
        st.level <- st.level - 1;
        t
    | exception ex ->
        st.level <- st.level - 1;
        raise ex
  in
  generalize t

and infer_letrec env (binds : (string * expr) list) : env =
  (* Per-SCC generalisation, dependencies first: this is what lets a
     large recursive group (like the Prelude) use its members
     polymorphically. *)
  let groups = scc_of_bindings binds in
  List.fold_left
    (fun env group ->
      st.level <- st.level + 1;
      let tys =
        List.map (fun (x, _) -> (x, fresh_var ())) group
      in
      let env_mono =
        List.fold_left
          (fun acc (x, t) -> { acc with vars = SMap.add x (mono t) acc.vars })
          env tys
      in
      (match
         List.iter
           (fun (x, rhs) ->
             let t = infer_exn env_mono rhs in
             unify t (List.assoc x tys))
           group
       with
      | () -> st.level <- st.level - 1
      | exception ex ->
          st.level <- st.level - 1;
          raise ex);
      List.fold_left
        (fun acc (x, t) ->
          { acc with vars = SMap.add x (generalize t) acc.vars })
        env tys)
    env groups

let infer env e =
  match infer_exn env e with
  | t -> Ok t
  | exception Type_error te -> Error te

let with_prelude_cache : env option ref = ref None

let with_prelude () =
  match !with_prelude_cache with
  | Some env -> env
  | None -> (
      let env0 = initial_env () in
      match infer_letrec env0 Lang.Prelude.defs with
      | env ->
          with_prelude_cache := Some env;
          env
      | exception Type_error te ->
          invalid_arg
            (Fmt.str "the Prelude does not type-check: %a" pp_error te))

let infer_program (p : program) =
  match
    let env0 = with_prelude () in
    let env1 = List.fold_left add_data_exn env0 p.datas in
    let env1 = List.fold_left add_exn_decl_exn env1 p.exns in
    let env2 = infer_letrec env1 p.defs in
    let tys =
      List.map
        (fun (x, _) ->
          match SMap.find_opt x env2.vars with
          | Some s -> (x, instantiate s)
          | None -> assert false)
        p.defs
    in
    (* main must be an IO computation. *)
    (match List.assoc_opt "main" tys with
    | Some t -> unify t (t_io (fresh_var ()))
    | None -> err "program has no main");
    tys
  with
  | tys -> Ok tys
  | exception Type_error te -> Error te

let check_string src =
  match Lang.Parser.parse_expr src with
  | e -> (
      let env = with_prelude () in
      match infer env e with Ok t -> Ok t | Error te -> Error te)
  | exception Lang.Parser.Error (msg, l, c) ->
      Error { message = Printf.sprintf "parse error %d:%d %s" l c msg;
              in_expr = None }

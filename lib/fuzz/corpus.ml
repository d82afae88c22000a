open Lang.Syntax
module B = Lang.Builder

type mode = M_int | M_list | M_any | M_io | M_conc

let mode_name = function
  | M_int -> "int"
  | M_list -> "list"
  | M_any -> "any"
  | M_io -> "io"
  | M_conc -> "conc"

let mode_of_string = function
  | "int" -> Some M_int
  | "list" -> Some M_list
  | "any" -> Some M_any
  | "io" -> Some M_io
  | "conc" -> Some M_conc
  | _ -> None

type entry = { name : string; mode : mode; expr : expr }

(* ------------------------------------------------------------------ *)
(* The built-in dictionary                                             *)
(* ------------------------------------------------------------------ *)

let put_int e = App (Var "putInt", e)
let sum_to n = B.apps (B.var "sum") [ B.apps (B.var "enumFromTo") [ B.int 1; B.int n ] ]

(* getException e >>= \r -> case r of { OK v -> return v; Bad _ -> return d } *)
let recover ?(default = 0) e =
  B.io_bind (B.get_exception e)
    (B.lam "r"
       (B.case (B.var "r")
          [
            (B.pcon "OK" [ "v" ], B.io_return (B.var "v"));
            (B.pcon "Bad" [ "_e" ], B.io_return (B.int default));
          ]))

let pure_seeds =
  [
    ("div-plus-error", M_int, B.div_zero_plus_error);
    ("shared-poison", M_int, Let ("x", B.(int 1 / int 0), B.(var "x" + var "x")));
    ("black-hole", M_int, B.black);
    ( "map-exception",
      M_int,
      B.map_exception
        (B.lam "e" (B.exn_con Lang.Exn.Overflow))
        B.(int 1 / int 0 + B.error "u") );
    ( "case-exceptional-scrutinee",
      M_int,
      B.case
        (B.pair B.(int 1 / int 0) (B.int 2))
        [ (B.pcon "Pair" [ "a"; "b" ], B.var "b") ] );
    ("seq-error", M_int, B.seq (B.error "s") (B.int 5));
    ("overflow", M_int, B.(int 65536 * int 65536 * int 65536));
    ("prelude-sum", M_int, sum_to 20);
    ("head-nil", M_int, B.app (B.var "head") B.nil);
    ( "shared-exceptional-list",
      M_list,
      Let ("x", B.(int 1 / int 0), B.cons (B.var "x") (B.cons (B.var "x") B.nil))
    );
  ]

let rule_seeds () =
  List.concat_map
    (fun (r : Transform.Rules.rule) ->
      List.mapi
        (fun i inst ->
          ( Printf.sprintf "rule-%s-%d" r.Transform.Rules.name i,
            M_any,
            inst ))
        r.Transform.Rules.instances)
    Transform.Rules.all

let io_seeds =
  [
    (* A shared thunk caught twice: an async event delivered during the
       first force leaves pause cells, the second force resumes them. *)
    ( "io-pause-resume",
      M_io,
      Let
        ( "x",
          sum_to 60,
          B.io_bind
            (B.get_exception (B.var "x"))
            (B.lam "r"
               (B.io_bind
                  (B.get_exception (B.var "x"))
                  (B.lam "s" (B.io_return (B.int 0))))) ) );
    ( "io-bracket-exn",
      M_io,
      B.io_bracket (B.io_return (B.int 1))
        (B.lam "r" (put_int (B.int 9)))
        (B.lam "r"
           (B.io_bind (put_int (B.int 3))
              (B.lam "u" (B.io_return B.(int 1 / int 0))))) );
    ( "io-mask",
      M_io,
      B.io_mask (B.io_bind (put_int (B.int 5)) (B.lam "u" (B.io_return (B.int 2))))
    );
    ( "io-timeout",
      M_io,
      B.io_timeout (B.int 1)
        (B.io_bind (put_int (B.int 1))
           (B.lam "u"
              (B.io_bind (put_int (B.int 2)) (B.lam "w" (B.io_return (B.int 0))))))
    );
    ( "io-on-exception",
      M_io,
      B.io_on_exception
        (B.io_bind (put_int (B.int 3)) (B.lam "u" (B.io_return B.(int 1 / int 0))))
        (put_int (B.int 8)) );
    ("io-oracle-pick", M_io, recover B.div_zero_plus_error);
    ("io-getexn-blackhole", M_io, recover ~default:7 B.black);
  ]

let conc_seeds =
  [
    ( "conc-handoff",
      M_conc,
      B.io_bind
        (Con ("NewMVar", []))
        (B.lam "r"
           (B.io_bind
              (Con ("Fork", [ Con ("PutMVar", [ Var "r"; B.int 7 ]) ]))
              (B.lam "u"
                 (B.io_bind
                    (Con ("TakeMVar", [ Var "r" ]))
                    (B.lam "v" (put_int (B.var "v"))))))) );
    ( "conc-fork-exceptional",
      M_conc,
      B.io_bind
        (Con ("Fork", [ B.io_return B.(int 3 / int 0) ]))
        (B.lam "u"
           (B.io_bind (put_int (B.int 4)) (B.lam "w" (B.io_return (B.int 1)))))
    );
    ( "conc-two-forks",
      M_conc,
      B.io_bind
        (Con ("Fork", [ put_int (B.int 1) ]))
        (B.lam "u"
           (B.io_bind
              (Con ("Fork", [ put_int (B.int 2) ]))
              (B.lam "w" (B.io_return (B.int 0))))) );
    ( "conc-self-throw",
      (* A self-send is synchronous on both layers: caught as Bad. *)
      M_conc,
      B.io_bind
        (B.get_exception
           (B.io_bind
              (Con ("MyThreadId", []))
              (B.lam "t"
                 (B.io_bind
                    (Con ("ThrowTo", [ Var "t"; Con ("ThreadKilled", []) ]))
                    (B.lam "u" (B.io_return (B.int 1)))))))
        (B.lam "r"
           (B.case (Var "r")
              [
                (B.pcon "OK" [ "x" ], put_int (B.var "x"));
                (B.pcon "Bad" [ "e" ], put_int (B.int 0));
              ])) );
    ( "conc-kill-finished",
      (* Kill a child that already finished: silently dropped. *)
      M_conc,
      B.io_bind
        (Con ("Fork", [ put_int (B.int 2) ]))
        (B.lam "t"
           (B.io_bind
              (Con ("ThrowTo", [ Var "t"; Con ("ThreadKilled", []) ]))
              (B.lam "u" (put_int (B.int 6))))) );
  ]

let dictionary () =
  List.map
    (fun (name, mode, expr) -> { name; mode; expr })
    (pure_seeds @ rule_seeds () @ io_seeds @ conc_seeds)

(* ------------------------------------------------------------------ *)
(* File format                                                         *)
(* ------------------------------------------------------------------ *)

let to_text e =
  Printf.sprintf "-- impexn fuzz corpus\n-- mode: %s\n%s\n" (mode_name e.mode)
    (Lang.Pretty.expr_to_string e.expr)

let header_mode text =
  let lines = String.split_on_char '\n' text in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None ->
          let line = String.trim line in
          if String.length line > 2 && String.sub line 0 2 = "--" then
            let rest = String.trim (String.sub line 2 (String.length line - 2)) in
            if String.length rest > 5 && String.sub rest 0 5 = "mode:" then
              mode_of_string
                (String.trim (String.sub rest 5 (String.length rest - 5)))
            else None
          else None)
    None lines

let of_text ~name text =
  let mode = Option.value ~default:M_any (header_mode text) in
  match Lang.Parser.parse_expr text with
  | expr -> Ok { name; mode; expr }
  | exception Lang.Parser.Error (msg, line, col) ->
      Error (Printf.sprintf "%d:%d: %s" line col msg)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdirs parent;
    Sys.mkdir dir 0o755
  end

let save ~dir e =
  mkdirs dir;
  let path = Filename.concat dir (e.name ^ ".impexn") in
  let oc = open_out path in
  output_string oc (to_text e);
  close_out oc

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then ([], [])
  else
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".impexn")
      |> List.sort String.compare
    in
    List.fold_left
      (fun (oks, errs) f ->
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        match of_text ~name:(Filename.chop_suffix f ".impexn") text with
        | Ok e -> (e :: oks, errs)
        | Error msg -> (oks, (f, msg) :: errs))
      ([], []) files
    |> fun (oks, errs) -> (List.rev oks, List.rev errs)

let pure entries =
  List.filter
    (fun e ->
      match e.mode with
      | M_int | M_list | M_any -> true
      | M_io | M_conc -> false)
    entries

let find_upward rel =
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  let rec up tried dir =
    let p = Filename.concat dir rel in
    if Sys.file_exists p then Ok p
    else
      let parent = Filename.dirname dir in
      if parent = dir then Error (List.rev (p :: tried))
      else up (p :: tried) parent
  in
  up [] (Filename.dirname exe)

let find_dir () = find_upward "fuzz/corpus"

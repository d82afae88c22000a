(* Seeded inputs and their reference answers.

   Everything the system under test sees is source text generated here
   from the seed; reference answers come from the denotational semantics
   ([Denot]), never from the engine being measured. *)

open Imprecise

(* ------------------------------------------------------------------ *)
(* Reply expectations                                                  *)
(* ------------------------------------------------------------------ *)

type expect =
  | Value of string list
      (** Renderings an [ok] reply's value may take: one per choice of
          member in each exceptional field of the reference value. *)
  | Raises of string list
      (** The [exn class=... e] details an [err] reply may carry, one per
          member of the reference exception set. *)
  | Kind of string  (** A killer's planned error kind, e.g. [quota:heap]. *)

type request = {
  id : string;
  eval_line : string;  (** [eval <id> [opts]] *)
  lines : string array;  (** The program's protocol lines. *)
  src : string;  (** The lines joined, as serve sees the program. *)
  expect : expect;
}

(* Render on one line (a horizontal box never breaks). Serve renders
   with Format's default margin and flattens any line break to a space,
   so the reply matcher lets every space match a run of spaces. *)
let render pp x = Fmt.str "@[<h>%a@]" pp x

let max_alternatives = 64

(* Every value a machine may print for reference [d]: each exceptional
   field shows one member of its set. [None] when a field is bottom (the
   machine may legitimately print anything or run out of fuel there) or
   the choices multiply past [max_alternatives]. *)
let rec alternatives (d : Value.deep) : Value.deep list option =
  match d with
  | Value.DBad s -> (
      match Exn_set.elements s with
      | None | Some [] -> None
      | Some es ->
          Some (List.map (fun e -> Value.DBad (Exn_set.singleton e)) es))
  | Value.DCon (c, args) ->
      let rec product = function
        | [] -> Some [ [] ]
        | a :: rest -> (
            match (alternatives a, product rest) with
            | Some xs, Some yss
              when List.length xs * List.length yss <= max_alternatives ->
                Some
                  (List.concat_map
                     (fun x -> List.map (fun ys -> x :: ys) yss)
                     xs)
            | _ -> None)
      in
      Option.map (List.map (fun args -> Value.DCon (c, args))) (product args)
  | d -> Some [ d ]

let pp_exn_detail ppf e = Fmt.pf ppf "exn class=%s %a" (Exn.class_name e) Exn.pp e

let expect_of_reference (d : Value.deep) =
  match d with
  | Value.DBad s -> (
      match Exn_set.elements s with
      | Some (_ :: _ as es) -> Some (Raises (List.map (render pp_exn_detail) es))
      | _ -> None)
  | d ->
      Option.map
        (fun ds -> Value (List.map (render Value.pp_deep) ds))
        (alternatives d)

(* These matchers run on the load generator's hot path, so they are
   top-level recursions (no closures) and allocate nothing. *)
let rec same s pos p i = i = String.length p || (s.[pos + i] = p.[i] && same s pos p (i + 1))
let starts_at s pos p = pos + String.length p <= String.length s && same s pos p 0
let rec skip_spaces s i = if i < String.length s && s.[i] = ' ' then skip_spaces s (i + 1) else i

(* [expected] matches [reply] from [i] to its end, where a space in
   [expected] matches a run of spaces (a flattened line break). *)
let rec matches_from reply i expected j =
  if j = String.length expected then i = String.length reply
  else if i = String.length reply then false
  else if expected.[j] = ' ' then
    reply.[i] = ' ' && matches_from reply (skip_spaces reply (i + 1)) expected (j + 1)
  else reply.[i] = expected.[j] && matches_from reply (i + 1) expected (j + 1)

let rec any_match reply pos = function
  | [] -> false
  | alt :: rest -> matches_from reply pos alt 0 || any_match reply pos rest

(* [reply] starts with [tag], then [id], then a space. *)
let tagged reply tag id =
  let p = String.length tag + String.length id in
  starts_at reply 0 tag && starts_at reply (String.length tag) id
  && p < String.length reply && reply.[p] = ' '

(* A reply line is [ok <id> <value>] or [err <id> <kind> [detail]].
   Checked without allocating, on the load generator's hot path. *)
let reply_ok (r : request) reply =
  match r.expect with
  | Value alts -> tagged reply "ok " r.id && any_match reply (String.length r.id + 4) alts
  | Raises alts -> tagged reply "err " r.id && any_match reply (String.length r.id + 5) alts
  | Kind k ->
      let p = String.length r.id + 5 in
      tagged reply "err " r.id && starts_at reply p k
      && (p + String.length k = String.length reply || reply.[p + String.length k] = ' ')

(* The request id of a reply line: the number after the first space. *)
let rec digits s i acc =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then
    digits s (i + 1) ((acc * 10) + Char.code s.[i] - 48)
  else acc

let reply_id reply =
  match String.index reply ' ' with i -> digits reply (i + 1) 0 | exception Not_found -> -1

let request ~id ?(opts = "") src expect =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  {
    id;
    eval_line = (if opts = "" then "eval " ^ id else "eval " ^ id ^ " " ^ opts);
    lines;
    src;
    expect;
  }

(* ------------------------------------------------------------------ *)
(* The serve pool                                                      *)
(* ------------------------------------------------------------------ *)

(* The pure entries of the fuzz corpus, frozen here so that a new corpus
   entry does not silently change this benchmark's inputs. *)
let pure_corpus =
  [
    {|let rec black = black + 1 in black|};
    {|case (1 / 0, 2) of { Pair a b -> b }|};
    {|1 / 0 + raise (UserError "Urk")|};
    {|let zz = let x = 1 / 0 in x + x in zz + zz|};
    {|case null
       (append
          (take 4 (iterate (\z -> z) (negate 9)))
          (map (\z -> z + 2) (raise Overflow))) of
{ True -> sum [0];
  False ->
    (let g96585 =
       let rec g96589 =
         \g96590 ->
           case g96590 <= 0 of
           { True -> (negate 10); False -> g96590 + g96589 (g96590 - 1) } in
       g96589 0 in
     g96585 * (g96585 + 1))
    / (let g96459 =
         case raise Overflow of
         { Nil -> raise DivideByZero; Cons g96472 g96473 -> raise Overflow } in
       mapException (\e -> UserError "mapped") g96459) }|};
    {|(\g137758 -> let g137788 = sum Nil in g137788 + g137788)
  (sum (append [1] (take 6 [3])))|};
    {|let g153358 =
  index (enumFromTo (negate 2) 1) (length [13]) in
g153358
: g153358
  : (\g153427 -> index Nil (raise Overflow)) (mapException (\e -> e) 9)
    : (negate 20) : take 5 (iterate (\z -> z + 4) (raise Overflow))|};
    {|enumFromTo 4 9|};
    {|index
  (map
     (\g326690 -> raise Overflow)
     (let g326689 = 1 / 0 in [g326689, g326689]))
  (case 14 <= (negate 9) of
   { True -> let g326566 = raise DivideByZero in (negate 9);
     False -> head (raise (UserError "e1")) })|};
    {|append
  (take
     3
     (iterate
        (\g1323504 -> let rec g1323508 = g1323508 + 1 in g1323508)
        ((\g1323430 -> length [9])
           (case False of
            { True -> raise DivideByZero; False -> raise (UserError "e3") }))))
  (take 5 (iterate (\g1322937 -> sum Nil) (head (enumFromTo 3 10))))|};
    {|head Nil|};
    {|mapException (\e -> Overflow) (1 / 0 + raise (UserError "u"))|};
    {|sum (enumFromTo 1 20)|};
    {|(\x -> 3) (1 / 0)|};
    {|let x = 1 / 0 in 42|};
    {|seq (raise (UserError "s")) 5|};
    {|let x = 1 / 0 in [x, x]|};
    {|let x = 1 / 0 in x + x|};
  ]

let reference src =
  match Denot.run_deep (parse src) with
  | d -> expect_of_reference d
  | exception Parse_error _ -> None

(* [draws] seeded [Gen.gen_int] draws plus the pure corpus. A draw is
   kept when its reference answer is fully defined: no field is bottom,
   which is the denotation of a program that never answers (a black
   hole, or one that outruns the denotational fuel). *)
let serve_pool ~seed ~draws =
  let rng = Random.State.make [| seed; 1 |] in
  let gen = Gen.gen_int () in
  let rec draw acc k tries =
    if k = 0 || tries = 0 then List.rev acc
    else
      let src = Pretty.expr_to_string (QCheck2.Gen.generate1 ~rand:rng gen) in
      match reference src with
      | Some ex -> draw ((src, ex) :: acc) (k - 1) (tries - 1)
      | None -> draw acc k (tries - 1)
  in
  let kept = draw [] draws (8 * draws) in
  let corpus =
    List.filter_map
      (fun src -> Option.map (fun ex -> (src, ex)) (reference src))
      pure_corpus
  in
  Array.of_list
    (List.mapi
       (fun i (src, ex) -> request ~id:("p" ^ string_of_int i) src ex)
       (kept @ corpus))

(* The five canonical killers of the serve daemon's robustness model
   (heap bomb, stack bomb, fuel burner, black hole, spinner under a
   wall-clock timeout): request options, source, and the structured
   reply each must come back as. *)
let killers =
  [|
    ("heap=2000", "length (replicate 100000 1)", "quota:heap");
    ("stack=500 fuel=5000000 heap=2000000", "sum (enumFromTo 1 20000)", "quota:stack");
    ("fuel=20000", "sum (enumFromTo 1 200000)", "quota:fuel");
    ("", "let rec black = black + 1 in black", "quota:fuel");
    ("fuel=1000000000 timeout=100", "let rec go n = if n > 0 then go n else 0 in go 1", "timeout");
  |]

(* ------------------------------------------------------------------ *)
(* The io-run mix                                                      *)
(* ------------------------------------------------------------------ *)

type layer = Iosem | Machine_io | Conc | Machine_conc

let layer_name = function
  | Iosem -> "iosem"
  | Machine_io -> "machine_io"
  | Conc -> "conc"
  | Machine_conc -> "machine_conc"

let io_layers = [ Iosem; Machine_io; Conc; Machine_conc ]
let conc_layers = [ Conc; Machine_conc ]

type program = {
  name : string;
  text : string;  (** A program file, as [impexn run] reads it. *)
  layers : layer list;
  mutable outcome : (layer * string) list;
      (** Expected outcome per layer, as rendered by {!outcome_string}. *)
}

(* A layer's result as one comparable line (status, value, output), and
   the layer's own count of work for the run. *)
let outcome_string layer (e : Syntax.expr) : string * int =
  let line status value output = status ^ " " ^ value ^ " | " ^ output in
  let deep = render Value.pp_deep and exn = render Exn.pp in
  match layer with
  | Iosem ->
      let r = Io.run e in
      let out = Io.output_string_of r in
      ( (match r.Io.outcome with
        | Io.Done d -> line "done" (deep d) out
        | Io.Uncaught x -> line "uncaught" (exn x) out
        | o -> line "other" (render Io.pp_outcome o) out),
        List.length r.Io.trace )
  | Machine_io ->
      let r = Machine_io.run e in
      let out = r.Machine_io.output in
      ( (match r.Machine_io.outcome with
        | Machine_io.Done d -> line "done" (deep d) out
        | Machine_io.Uncaught x -> line "uncaught" (exn x) out
        | o -> line "other" (render Machine_io.pp_outcome o) out),
        r.Machine_io.stats.Stats.steps )
  | Conc ->
      let r = Conc.run e in
      let out = Conc.output_string_of r in
      ( (match r.Conc.outcome with
        | Conc.Done d -> line "done" (deep d) out
        | Conc.Uncaught x -> line "uncaught" (exn x) out
        | o -> line "other" (render Conc.pp_outcome o) out),
        r.Conc.context_switches )
  | Machine_conc ->
      let r = Machine_conc.run e in
      let out = r.Machine_conc.output in
      ( (match r.Machine_conc.outcome with
        | Machine_conc.Done d -> line "done" (deep d) out
        | Machine_conc.Uncaught x -> line "uncaught" (exn x) out
        | o -> line "other" (render Machine_conc.pp_outcome o) out),
        r.Machine_conc.transitions )

let load text = Prelude.wrap_program (Parser.parse_program text)

(* Hand-written programs, with outcomes computed here from their
   definitions rather than from any layer. *)
let mask_bracket_n = 2000
let catches_n = 500
let producers = 2000
let restarts = 8

let hand_written () =
  let sum f n =
    let s = ref 0 in
    for i = 1 to n do
      s := !s + f i
    done;
    !s
  in
  let mbg = sum (fun i -> if i mod 7 = 0 then -1 else i) mask_bracket_n in
  let catches = sum (fun i -> match i mod 3 with 0 -> 1 | 1 -> 2 | _ -> i) catches_n in
  let all layers v = List.map (fun l -> (l, v)) layers in
  let int_result n = Printf.sprintf "done %d | %d" n n in
  [
    {
      name = "mask-bracket";
      text =
        Printf.sprintf
          {|loop i acc = if i > %d then return acc else
  mask (bracket (return i) (\r -> return Unit)
    (\r -> getException (if r %% 7 == 0 then raise DivideByZero else r)))
  >>= \v -> case v of { OK x -> loop (i + 1) (acc + x);
                        Bad e -> loop (i + 1) (acc - 1) };
main = loop 1 0 >>= \s -> putInt s >>= \u -> return s;|}
          mask_bracket_n;
      layers = io_layers;
      outcome = all io_layers (int_result mbg);
    };
    {
      name = "catches";
      text =
        Printf.sprintf
          {|loop i acc = if i > %d then return acc else
  catches (if i %% 3 == 0 then throwIO DivideByZero
           else if i %% 3 == 1 then throwIO (UserError "u")
           else return i)
    [ handler matchArith (\e -> return 1),
      handler matchUserError (\s -> return 2) ]
  >>= \v -> loop (i + 1) (acc + v);
main = loop 1 0 >>= \s -> putInt s >>= \u -> return s;|}
          catches_n;
      layers = io_layers;
      outcome = all io_layers (int_result catches);
    };
    {
      name = "channel-network";
      text =
        Printf.sprintf
          {|main = newChan 64 >>= \ch ->
  mapM2 (\i -> forkIO (writeChan ch i)) (enumFromTo 1 %d) >>= \u ->
  mapM2 (\i -> readChan ch) (enumFromTo 1 %d) >>= \u2 ->
  putInt 0;|}
          producers producers;
      layers = conc_layers;
      outcome = all conc_layers "done Unit | 0";
    };
    {
      name = "supervisor";
      text =
        Printf.sprintf
          {|main = newEmptyMVar >>= \c -> putMVar c 0 >>= \u ->
  supervisorTree OneForOne %d 1000
  [ takeMVar c >>= \n -> putMVar c (n + 1) >>= \u2 ->
    if n < %d then throwIO DivideByZero else return 1 ];|}
          (restarts + 1) restarts;
      layers = conc_layers;
      outcome = all conc_layers "done Unit | ";
    };
  ]

(* A generated draw is kept when its reference run terminates (an
   answer or an uncaught exception) within a work cap. The cap is in
   minor words allocated by the reference run: draws whose evaluation
   burns the denotational layer's whole fuel budget (exception-finding
   mode recursing through [showInt] on an exceptional integer) cost
   ~1000x more on the LTS layers than every other draw, so admitting
   them would make the mix's cost depend on how many a seed happens to
   yield. *)
let work_cap_words = 2_000_000.

let io_draw ~rng ~name ~gen ~layers ~reference =
  let rec go tries =
    if tries = 0 then None
    else
      let src = Pretty.expr_to_string (QCheck2.Gen.generate1 ~rand:rng gen) in
      let text = "main = " ^ src ^ ";" in
      let w0 = Gc.minor_words () in
      let ok =
        match outcome_string reference (load text) with
        | s, _ ->
            let light = Gc.minor_words () -. w0 <= work_cap_words in
            light && (starts_at s 0 "done " || starts_at s 0 "uncaught ")
        | exception _ -> false
      in
      if ok then Some (src, { name; text; layers; outcome = [] }) else go (tries - 1)
  in
  go 32

(* [n_io] [Gen.gen_io] draws (all four layers) and [n_conc]
   [Gen.gen_conc] draws (the concurrent layers), with each draw's
   expression source for the fuzz differ. *)
let io_draws ~seed ~n_io ~n_conc =
  let rng = Random.State.make [| seed; 2 |] in
  let gio = Gen.gen_io () and gconc = Gen.gen_conc () in
  let take n f = List.filter_map f (List.init n Fun.id) in
  let io =
    take n_io (fun i ->
        io_draw ~rng ~name:(Printf.sprintf "gen-io-%d" i) ~gen:gio
          ~layers:io_layers ~reference:Iosem)
  in
  let conc =
    take n_conc (fun i ->
        io_draw ~rng ~name:(Printf.sprintf "gen-conc-%d" i) ~gen:gconc
          ~layers:conc_layers ~reference:Conc)
  in
  (io, conc)

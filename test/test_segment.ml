open Imprecise
open Helpers
module B = Bytecode

(* The held Prelude segment. A wrapped program compiled against it emits
   only its own body after the Prelude's code, yet must be
   indistinguishable from a full compile: the same code words, the same
   value and every machine counter alike. Each program owns its inline
   caches, and a root the segment does not hold compiles in full. *)

(* The global context's Prelude, compiled once for the suite. *)
let segment = lazy (Differ.prelude_segment ())

let run_deep prog =
  let m = B.create ~config:Test_runtime.big prog in
  let d = B.deep m (B.entry m) in
  (d, B.stats m)

(* Both compiles of one wrapped program: equal code words, and the held
   one emitted fewer of them itself (it did take the held path). *)
let compile_both name rx =
  let fresh = B.compile rx
  and held = B.compile ~segment:(Lazy.force segment) rx in
  Alcotest.(check int) (name ^ ": code words") (B.code_words fresh)
    (B.code_words held);
  Alcotest.(check bool)
    (Printf.sprintf "%s: held compile emits %d of %d words" name
       (B.emitted_words held) (B.emitted_words fresh))
    true
    (B.emitted_words held < B.emitted_words fresh);
  (fresh, held)

let suite =
  [
    tc "held and fresh compiles run alike on the pure corpus and Table F"
      (fun () ->
        let programs =
          List.map
            (fun e -> (e.Corpus.name, Prelude.wrap e.Corpus.expr))
            (Corpus.pure (fst (Corpus.load_dir (Lazy.force corpus_dir))))
          @ List.map
              (fun (name, src, _, _, _, _, _, _, _) -> (name, parse src))
              Test_runtime.table_f
        in
        Alcotest.(check bool) "corpus found" true (List.length programs > 20);
        List.iter
          (fun (name, e) ->
            let fresh, held = compile_both name (Resolve.expr e) in
            let d_fresh, st_fresh = run_deep fresh in
            let d_held, st_held = run_deep held in
            Alcotest.check deep (name ^ ": value") d_fresh d_held;
            Alcotest.(check (list (pair string int)))
              (name ^ ": stats") (Stats.fields st_fresh) (Stats.fields st_held))
          programs);
    tc "every corpus entry and example program compiles to equal code \
        words both ways" (fun () ->
        let entries, _ = Corpus.load_dir (Lazy.force corpus_dir) in
        let dir = Lazy.force Test_programs.program_dir in
        let programs =
          List.map
            (fun e -> (e.Corpus.name, Prelude.wrap e.Corpus.expr))
            entries
          @ List.map
              (fun f -> (f, parse_program (Test_programs.load f)))
              (List.sort compare (Array.to_list (Sys.readdir dir)))
        in
        Alcotest.(check int) "30 entries and 7 programs" 37
          (List.length programs);
        List.iter
          (fun (name, e) -> ignore (compile_both name (Resolve.expr e)))
          programs);
    tc "a program compiled against the segment owns its inline caches"
      (fun () ->
        (* A leaves the case sites of [sum] and [enumFromTo] holding the
           tags its last iteration met (the range over, the list ended),
           which are the first tags B's empty range meets there: B would
           hit where it misses alone if it inherited A's caches. *)
        let ic prog =
          let _, st = run_deep prog in
          (st.Stats.ic_hits, st.Stats.ic_misses)
        in
        let a = Resolve.expr (parse "sum (enumFromTo 1 200)") in
        let b = Resolve.expr (parse "sum (enumFromTo 2 1)") in
        let alone = ic (B.compile b) in
        let seg = Lazy.force segment in
        ignore (ic (B.compile ~segment:seg a));
        Alcotest.(check (pair int int))
          "B's hits and misses after A ran on the same segment" alone
          (ic (B.compile ~segment:seg b)));
    tc "a program of another resolution context compiles in full" (fun () ->
        let rx =
          Resolve.expr ~ctx:(Resolve.new_context ())
            (parse "sum (enumFromTo 1 10)")
        in
        let held = B.compile ~segment:(Lazy.force segment) rx in
        Alcotest.(check int) "emits every word" (B.code_words held)
          (B.emitted_words held);
        Alcotest.(check bool) "the full compile's program" true
          (held = B.compile rx));
  ]

open Imprecise
open Helpers
module B = Bytecode

(* The held Prelude. A wrapped program compiled against the segment
   emits only its own body after the Prelude's code, and each machine
   running it starts its heap from the segment's image of the
   Prelude's cells, its root at the body; the slot machine starts from
   an image of its own. Either way the program must be
   indistinguishable from a full run but for exactly what the image
   saves: the same value, and every machine counter alike except one
   step (one dispatch) and the group's [n] allocations fewer per root;
   and the same code but for the group's letrec header. Each program
   owns its inline caches, and a root the segment does not hold
   compiles in full. *)

(* The global context's Prelude, held once for the suite. *)
let held = lazy (Differ.held_prelude ())
let segment = lazy (Lazy.force held).Differ.segment

(* The number of Prelude bindings: the group's cells an image holds. *)
let group_size =
  lazy
    (match Resolve.held_prelude Resolve.global_context with
    | Some specs -> Array.length specs
    | None -> Alcotest.fail "the global context holds no Prelude")

let run_deep prog =
  let m, a = B.start ~config:Test_runtime.big prog in
  let d = B.deep m a in
  (d, B.stats m)

(* Both compiles of one wrapped program: the same code words but for
   the header the held one has no use for, and the held one emitted
   fewer of them itself (it did take the held path). *)
let compile_both name rx =
  let fresh = B.compile rx
  and held = B.compile ~segment:(Lazy.force segment) rx in
  Alcotest.(check int) (name ^ ": code words, less the letrec header")
    (B.code_words fresh)
    (B.code_words held + Lazy.force group_size + 2);
  Alcotest.(check bool)
    (Printf.sprintf "%s: held compile emits %d of %d words" name
       (B.emitted_words held) (B.emitted_words fresh))
    true
    (B.emitted_words held < B.emitted_words fresh);
  (fresh, held)

(* What an image start saves over the full root path, exactly: the
   group's letrec step (a dispatch on bytecode) and its cells. *)
let image_saving name (full : Stats.t) (image : Stats.t) =
  let n = Lazy.force group_size in
  let saved =
    List.map
      (fun (field, v) ->
        match field with
        | "steps" -> (field, v - 1)
        | "bc_dispatches" when v > 0 -> (field, v - 1)
        | "allocations" -> (field, v - n)
        | _ -> (field, v))
      (Stats.fields full)
  in
  Alcotest.(check (list (pair string int)))
    (name ^ ": stats, less one step and the group's cells")
    saved (Stats.fields image)

(* The wrapped pure corpus. *)
let pure_corpus () =
  List.map
    (fun e -> (e.Corpus.name, Prelude.wrap e.Corpus.expr))
    (Corpus.pure (fst (Corpus.load_dir (Lazy.force corpus_dir))))

let suite =
  [
    tc "held and fresh compiles run alike on the pure corpus and Table F"
      (fun () ->
        let programs =
          pure_corpus ()
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
            image_saving name st_fresh st_held)
          programs);
    tc "the slot machine's image start runs the pure corpus as one-shot"
      (fun () ->
        let image = (Lazy.force held).Differ.image in
        let programs = pure_corpus () in
        Alcotest.(check int) "19 pure programs" 19 (List.length programs);
        List.iter
          (fun (name, e) ->
            let rx = Resolve.expr e in
            let m, a = Machine.start ~config:Test_runtime.big ~image rx in
            let d = Machine.deep m a in
            let d1, st1 = Machine.run_deep ~config:Test_runtime.big e in
            Alcotest.check deep (name ^ ": value") d1 d;
            image_saving name st1 (Machine.stats m))
          programs);
    tc "image starts, pinned: 1 and sum (enumFromTo 1 10)" (fun () ->
        (* Run as a serve request runs, [force_catch] then [deep]: steps
           5 -> 4 (slot) and 4 -> 3 (bytecode) for [1], allocations
           126 -> 1; [sum (enumFromTo 1 10)] allocates 161 -> 36 on
           either machine. *)
        let image = (Lazy.force held).Differ.image in
        let counts (st : Stats.t) = (st.Stats.steps, st.Stats.allocations) in
        let slot ?image rx =
          let m, a = Machine.start ~config:Test_runtime.big ?image rx in
          ignore (Machine.force_catch m a);
          ignore (Machine.deep m a);
          counts (Machine.stats m)
        and bc ?segment rx =
          let m, a = B.start ~config:Test_runtime.big (B.compile ?segment rx) in
          ignore (B.force_catch m a);
          ignore (B.deep m a);
          counts (B.stats m)
        in
        let slot_full = slot ?image:None and slot = slot ~image in
        let segment = Lazy.force segment in
        let one = Resolve.expr (parse "1") in
        let pair = Alcotest.(pair int int) in
        Alcotest.check pair "slot, full" (5, 126) (slot_full one);
        Alcotest.check pair "slot, image" (4, 1) (slot one);
        Alcotest.check pair "bytecode, full" (4, 126) (bc one);
        Alcotest.check pair "bytecode, image" (3, 1) (bc ~segment one);
        let sum = Resolve.expr (parse "sum (enumFromTo 1 10)") in
        Alcotest.(check int) "slot, full" 161 (snd (slot_full sum));
        Alcotest.(check int) "slot, image" 36 (snd (slot sum));
        Alcotest.(check int) "bytecode, full" 161 (snd (bc sum));
        Alcotest.(check int) "bytecode, image" 36 (snd (bc ~segment sum)));
    tc "every corpus entry and example program compiles to the same code \
        both ways, less the held letrec header" (fun () ->
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

open Imprecise
open Helpers

(* The fuzzing subsystem, turned on itself: a clean mini-campaign must
   pass with near-total event coverage, a deliberately reintroduced
   paper bug must be caught and minimised to a tiny witness, and the
   pieces the campaign relies on (deterministic replay, corpus file
   format, terminating greedy shrink) are checked in isolation. *)

let campaign ?(runs = 120) ?(seed = 7) ?vconfig () =
  let cfg =
    {
      Fuzz.default_config with
      seed;
      runs;
      vconfig = Option.value vconfig ~default:Differ.default_vconfig;
    }
  in
  Fuzz.run cfg

let suite =
  [
    tc "clean mini-campaign passes with full event coverage" (fun () ->
        let r = campaign () in
        List.iter
          (fun (c : Fuzz.crash) ->
            Alcotest.failf "unexpected crash [%s]: %s" c.Fuzz.check
              c.Fuzz.detail)
          r.Fuzz.crashes;
        Alcotest.(check bool) "campaign passed" true (Fuzz.passed r);
        Alcotest.(check bool)
          (Printf.sprintf "event-kind coverage >90%% (missing: %s)"
             (String.concat ", " (Coverage.missing_kinds r.Fuzz.coverage)))
          true
          (Coverage.kind_coverage r.Fuzz.coverage > 0.9);
        (* Every rule the algebra claims invalid must have been
           witnessed as an actual inequality, not just not-checked. *)
        Alcotest.(check (list string))
          "all claimed-invalid rules witnessed" []
          (Metamorph.unwitnessed r.Fuzz.meta));
    tc "injected no-poison bug is caught and minimised small" (fun () ->
        let vconfig =
          match Fuzz.inject_bug "no-poison" Differ.default_vconfig with
          | Ok v -> v
          | Error e -> Alcotest.fail e
        in
        let r = campaign ~runs:80 ~seed:42 ~vconfig () in
        Alcotest.(check bool) "campaign failed" false (Fuzz.passed r);
        let c =
          match
            List.find_opt
              (fun (c : Fuzz.crash) ->
                String.equal c.Fuzz.check "stg-implements-denot")
              r.Fuzz.crashes
          with
          | Some c -> c
          | None -> Alcotest.fail "no implements-denot crash reported"
        in
        Alcotest.(check bool)
          (Printf.sprintf "witness minimised to <=10 nodes, got %d: %s"
             c.Fuzz.minimized_size
             (Pretty.expr_to_string c.Fuzz.minimized))
          true
          (c.Fuzz.minimized_size <= 10);
        Alcotest.(check bool) "flight-recorder dump attached" true
          (Option.is_some c.Fuzz.dump));
    tc "campaigns replay deterministically for a fixed seed" (fun () ->
        let r1 = campaign ~runs:80 ~seed:3 () in
        let r2 = campaign ~runs:80 ~seed:3 () in
        Alcotest.(check int) "runs" r1.Fuzz.total_runs r2.Fuzz.total_runs;
        Alcotest.(check int) "generated" r1.Fuzz.generated r2.Fuzz.generated;
        Alcotest.(check int) "retained" r1.Fuzz.retained r2.Fuzz.retained;
        Alcotest.(check int) "crashes" 0 (List.length r1.Fuzz.crashes);
        let s1 = Coverage.signature r1.Fuzz.coverage in
        let s2 = Coverage.signature r2.Fuzz.coverage in
        Alcotest.(check (pair int int)) "coverage signature" s1 s2);
    tc "corpus entries round-trip through the file format" (fun () ->
        List.iter
          (fun (e : Corpus.entry) ->
            match Corpus.of_text ~name:e.Corpus.name (Corpus.to_text e) with
            | Error msg -> Alcotest.failf "%s: %s" e.Corpus.name msg
            | Ok e' ->
                Alcotest.(check string)
                  (e.Corpus.name ^ " mode")
                  (Corpus.mode_name e.Corpus.mode)
                  (Corpus.mode_name e'.Corpus.mode);
                Alcotest.check expr_alpha (e.Corpus.name ^ " expr")
                  e.Corpus.expr e'.Corpus.expr)
          (Corpus.dictionary ()));
    Helpers.qtest ~count:150 "greedy shrink minimisation terminates"
      (Gen.gen_int ())
      (fun e ->
        (* Any loop that replaces a term by one of its shrink candidates
           terminates: candidates strictly decrease the size measure. *)
        let start = Syntax.size e in
        let rec go cur steps =
          if steps > start + 8 then None
          else
            match Gen.shrink cur with
            | [] -> Some cur
            | c :: _ -> go c (steps + 1)
        in
        match go e 0 with
        | None -> false
        | Some final -> Syntax.size final <= start);
  ]

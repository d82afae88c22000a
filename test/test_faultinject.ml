(* The cross-layer fault-injection harness: seeded schedules of async
   events, resource limits, starved fuel and truncated input, run over
   every IO layer, must never violate the exception-safety invariants. *)
open Imprecise
open Helpers

let show_violations vs =
  String.concat "\n" (List.filteri (fun i _ -> i < 8) vs)

let suite =
  [
    tc "template library covers all layers" (fun () ->
        (* Every template runs on both layers: the one IO core over the
           denotation and over the machine. *)
        Alcotest.(check (list string))
          "layers" [ "conc"; "machine_conc" ]
          (List.map Faultinject.layer_name Faultinject.layers);
        Alcotest.(check bool)
          "has at least a dozen templates" true
          (List.length Faultinject.templates >= 12);
        (* Kill schedules go to the templates whose zero-fault run forks
           (supervisorTree ones included) or blocks. *)
        Alcotest.(check (list string))
          "concurrent templates"
          [ "fork-bracket"; "supervised-kill"; "blocked-recover";
            "chan-handoff"; "chan-kill-writer"; "restart-storm-exhaust";
            "restart-storm-kill" ]
          (List.filter_map
             (fun t ->
               if Faultinject.concurrent t then Some t.Faultinject.name
               else None)
             Faultinject.templates));
    tc "zero-fault baselines agree across layers" (fun () ->
        List.iter
          (fun t ->
            let _, vs = Faultinject.baseline t in
            Alcotest.(check (list string))
              ("baseline " ^ t.Faultinject.name)
              [] vs)
          Faultinject.templates);
    tc "supervisor recovers from HeapOverflow" (fun () ->
        let _, vs = Faultinject.check_supervisor () in
        Alcotest.(check (list string)) "supervisor" [] vs);
    tc "250 seeded fault schedules, no violations" (fun () ->
        let r = Faultinject.run_suite ~count:250 () in
        if r.Faultinject.violations <> [] then
          Alcotest.failf "%a:@.%s" Faultinject.pp_report r
            (show_violations r.Faultinject.violations);
        Alcotest.(check bool)
          "ran at least 200 schedules plus baselines" true
          (r.Faultinject.runs >= 200);
        Alcotest.(check bool) "checks counted" true (r.Faultinject.checks > 0));
    tc "100 seeded kill schedules respect the invariants" (fun () ->
        (* The throwTo/killThread fault axis specifically: generate
           schedules for the concurrent templates until 100 of them carry
           thread-targeted kills, and check both layers. *)
        let concurrent =
          List.filter Faultinject.concurrent Faultinject.templates
        in
        let scheduled = ref 0 and checks = ref 0 and vs = ref [] in
        let seed = ref 0 in
        while !scheduled < 100 && !seed < 10_000 do
          List.iter
            (fun t ->
              if !scheduled < 100 then
                let f = Faultinject.gen_fault ~seed:!seed t in
                if f.Faultinject.kills <> [] then begin
                  incr scheduled;
                  List.iter
                    (fun layer ->
                      let n, v = Faultinject.check_one t f layer in
                      checks := !checks + n;
                      vs := v @ !vs)
                    Faultinject.layers
                end)
            concurrent;
          incr seed
        done;
        Alcotest.(check int) "kill schedules executed" 100 !scheduled;
        if !vs <> [] then
          Alcotest.failf "%d violations:@.%s" (List.length !vs)
            (show_violations !vs);
        Alcotest.(check bool) "checks counted" true (!checks > 0));
  ]

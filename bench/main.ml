(* Experiment harness: regenerates every table of EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe e3 e5      # a selection *)

let experiments =
  [
    ("e1", E1_complexity.run);
    ("e2", E2_generic_vs_atomic.run);
    ("e3", E3_crash_responsiveness.run);
    ("e4", E4_false_suspicions.run);
    ("e5", E5_view_change_blocking.run);
    ("e6", E6_passive_replication.run);
    ("e7", E7_scalability.run);
    ("e8", E8_monitoring_policies.run);
    ("e9", E9_same_view_delivery.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Bench_util.write_metrics_file ();
  let audits = !Bench_util.audit_failures
  and claims = !Bench_util.claim_failures in
  if audits > 0 then
    Printf.eprintf "\n%d experiment cell(s) FAILED the trace audit\n" audits;
  if claims > 0 then
    Printf.eprintf "\n%d experiment claim(s) FAILED on this run\n" claims;
  if audits > 0 || claims > 0 then exit 1;
  print_endline
    "all audited experiment cells passed the trace audit and every checked \
     claim held"

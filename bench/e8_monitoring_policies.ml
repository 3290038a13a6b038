(* E8 — Section 3.3.2: exclusion-policy ablation for the monitoring
   component.

   One real crash under background delay spikes (which produce wrong
   suspicions).  Each policy trades time-to-exclusion of the dead process
   against the risk of wrongfully excluding live ones. *)

open Bench_util
module Mon = Gc_monitoring.Monitoring

let n = 5
let crash_at = 3_000.0
let horizon = 20_000.0
let victim = n - 1

let policy_name = function
  | Mon.Immediate -> "immediate"
  | Mon.Threshold k -> Printf.sprintf "threshold %d" k
  | Mon.Output_triggered -> "output-triggered"
  | Mon.Threshold_or_output k -> Printf.sprintf "threshold %d or output" k

let run_policy ~policy ~seed =
  let config =
    Stack.Config.make ~runtime:Stack.Config.Sim ~policy ~exclusion_timeout:600.0 ~stuck_after:1_500.0 ()
  in
  let w = new_world ~config ~seed ~n () in
  (* Load keeps the reliable channels busy so output-triggered suspicion has
     something to observe. *)
  drive_load w
    ~send:(fun s p -> if Stack.alive s then Stack.abcast s p)
    ~start:500.0 ~period:50.0
    ~count:(int_of_float ((horizon -. 2_000.0) /. 50.0));
  (* Observer-local failures: single links black out for longer than the
     exclusion timeout, so exactly one member wrongly suspects a live peer
     at a time — the case corroboration is meant to filter. *)
  inject_link_flaps w ~exclude:[ victim ] ~until:horizon ~rate:0.8 ~width:900.0
    ();
  let excluded_at = ref nan in
  Stack.on_view w.stacks.(0) (fun v ->
      if Float.is_nan !excluded_at && not (View.mem v victim) then
        excluded_at := Engine.now w.engine);
  ignore
    (Engine.schedule w.engine ~delay:crash_at (fun () ->
         Stack.crash w.stacks.(victim)));
  Engine.run ~until:horizon w.engine;
  let wrongful =
    Array.to_list w.stacks
    |> List.filter Stack.alive
    |> List.fold_left
         (fun acc s ->
           acc + Mon.wrongful_exclusions_proposed (Stack.monitoring s))
         0
  in
  let detection =
    if Float.is_nan !excluded_at then nan else !excluded_at -. crash_at
  in
  let final_view = View.size (Stack.view w.stacks.(0)) in
  if seed = 801L then
    note_world_metrics ~experiment:"e8" ~cell:(policy_name policy) w;
  (detection, wrongful, final_view)

let run () =
  section "E8  Exclusion policies of the monitoring component (Section 3.3.2)"
    "the decision to exclude belongs to a separate monitoring component with \
     flexible policies: suspicions corroborated across processes, or \
     suspicion triggered by stuck output; long timeouts for exclusion, short \
     ones for consensus";
  let policies =
    [
      Mon.Immediate;
      Mon.Threshold 2;
      Mon.Threshold 3;
      Mon.Output_triggered;
      Mon.Threshold_or_output 2;
    ]
  in
  let rows =
    List.map
      (fun policy ->
        let d1, w1, f1 = run_policy ~policy ~seed:801L in
        let d2, w2, f2 = run_policy ~policy ~seed:802L in
        let detection =
          match (Float.is_nan d1, Float.is_nan d2) with
          | false, false -> fmt_f1 ((d1 +. d2) /. 2.0)
          | false, true -> fmt_f1 d1
          | true, false -> fmt_f1 d2
          | true, true -> "never"
        in
        [
          policy_name policy;
          detection;
          fmt_int (w1 + w2);
          Printf.sprintf "%d/%d" f1 f2;
        ])
      policies
  in
  Stats.print_table
    ~header:
      [
        "policy"; "time to exclude crashed (ms)";
        "wrongful exclusion proposals (2 runs)"; "final view sizes";
      ]
    rows;
  conclude
    "immediate exclusion is the slowest to exclude the crashed member and \
     the least accurate: it wrongly excludes live members under link \
     blackouts and shreds the group; requiring corroborating suspectors \
     filters every wrongful proposal and excludes the crashed member \
     fastest; output-triggered exclusion fires at its channel-stuck horizon \
     and still proposes wrongful exclusions, alone or combined with a \
     threshold."

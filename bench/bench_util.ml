(* Shared machinery for the experiment harness: world builders for both
   architectures, workload generators, fault injectors and measurement
   helpers.  Every experiment (e1 .. e9) builds on these. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Rng = Gc_sim.Rng
module Stats = Gc_sim.Stats
module Netsim = Gc_net.Netsim
module Delay = Gc_net.Delay
module View = Gc_membership.View
module Stack = Gcs.Gcs_stack
module Tr = Gc_traditional.Traditional_stack
module Tt = Gc_totem.Totem_stack
module Metrics = Gc_obs.Metrics
module Json = Gc_obs.Json
module Process = Gc_kernel.Process

type Gc_net.Payload.t += Load of { k : int; sent_at : float }

let () =
  Gc_net.Payload.register_printer (function
    | Load { k; _ } -> Some (Printf.sprintf "load#%d" k)
    | _ -> None)

(* One delivery record: payload number, sender, virtual receive time. *)
type delivery = { k : int; sent_at : float; recv_at : float }

type 'stack world = {
  engine : Engine.t;
  net : Netsim.t;
  trace : Trace.t;
  stacks : 'stack array;
  deliveries : delivery list ref array; (* newest first, per node *)
  metrics : Metrics.t array; (* per-node layer metrics *)
}

(* Every cell records its causal event trace by default so the harness can
   audit it (see [audit_trace]); bench/perf.ml passes [~record:false]
   because it measures cost and a recorded trace would inflate it. *)
let base_net ?(delay = Delay.lan) ?(record = true) ~seed ~n () =
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:record ~capacity:500_000 () in
  let net = Netsim.create engine ~trace ~delay ~n () in
  (engine, trace, net)

(* ---------- world builders ---------- *)

let new_world ?delay ?record ?(config = Stack.default_config) ~seed ~n () =
  let engine, trace, net = base_net ?delay ?record ~seed ~n () in
  let initial = List.init n (fun i -> i) in
  let deliveries = Array.init n (fun _ -> ref []) in
  let stacks =
    Array.init n (fun id ->
        let s = Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ~config () in
        Stack.on_deliver s (fun ~origin:_ ~ordered:_ payload ->
            match payload with
            | Load { k; sent_at } ->
                deliveries.(id) :=
                  { k; sent_at; recv_at = Engine.now engine }
                  :: !(deliveries.(id))
            | _ -> ());
        s)
  in
  let metrics = Array.map Stack.metrics stacks in
  { engine; net; trace; stacks; deliveries; metrics }

let trad_world ?delay ?record ?(config = Tr.default_config) ~seed ~n () =
  let engine, trace, net = base_net ?delay ?record ~seed ~n () in
  let initial = List.init n (fun i -> i) in
  let deliveries = Array.init n (fun _ -> ref []) in
  let stacks =
    Array.init n (fun id ->
        let s = Tr.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ~config () in
        Tr.on_deliver s (fun ~origin:_ ~ordered:_ payload ->
            match payload with
            | Load { k; sent_at } ->
                deliveries.(id) :=
                  { k; sent_at; recv_at = Engine.now engine }
                  :: !(deliveries.(id))
            | _ -> ());
        s)
  in
  let metrics = Array.map (fun s -> Process.metrics (Tr.process s)) stacks in
  { engine; net; trace; stacks; deliveries; metrics }

let totem_world ?delay ?record ?(config = Tt.default_config) ~seed ~n () =
  let engine, trace, net = base_net ?delay ?record ~seed ~n () in
  let initial = List.init n (fun i -> i) in
  let deliveries = Array.init n (fun _ -> ref []) in
  let stacks =
    Array.init n (fun id ->
        let s = Tt.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ~config () in
        Tt.on_deliver s (fun ~origin:_ payload ->
            match payload with
            | Load { k; sent_at } ->
                deliveries.(id) :=
                  { k; sent_at; recv_at = Engine.now engine }
                  :: !(deliveries.(id))
            | _ -> ());
        s)
  in
  let metrics = Array.map (fun s -> Process.metrics (Tt.process s)) stacks in
  { engine; net; trace; stacks; deliveries; metrics }

(* ---------- workload ---------- *)

(* Broadcast [count] Load messages, one every [period] ms starting at
   [start], round-robin over senders.  [send] abstracts the primitive. *)
let drive_load w ~send ~start ~period ~count =
  let n = Array.length w.stacks in
  for k = 0 to count - 1 do
    let at = start +. (float_of_int k *. period) in
    let sender = k mod n in
    ignore
      (Engine.schedule w.engine ~delay:at (fun () ->
           send w.stacks.(sender) (Load { k; sent_at = Engine.now w.engine })))
  done

(* ---------- fault injection ---------- *)

(* Periodic transient delay spikes at random nodes: the source of wrong
   suspicions in the responsiveness experiments.  [rate] spikes per second,
   each adding [extra] ms to one node's sends for [width] ms. *)
let inject_spikes w ?(exclude = []) ~until ~rate ~extra ~width () =
  if rate > 0.0 then begin
    let rng = Engine.split_rng w.engine in
    let n = Array.length w.stacks in
    let victims =
      List.filter (fun i -> not (List.mem i exclude)) (List.init n (fun i -> i))
    in
    let period = 1000.0 /. rate in
    let rec arm at =
      if at < until then
        ignore
          (Engine.schedule w.engine ~delay:at (fun () ->
               let v = Rng.pick rng victims in
               Netsim.delay_spike w.net ~nodes:[ v ]
                 ~until:(Engine.now w.engine +. width)
                 ~extra));
      if at < until then arm (at +. period)
    in
    arm (period /. 2.0)
  end

(* Per-link blackouts: one observer loses one peer's messages for [width]
   ms — the observer-local wrong suspicion that corroboration (threshold
   policies) is meant to filter out. *)
let inject_link_flaps w ?(exclude = []) ~until ~rate ~width () =
  if rate > 0.0 then begin
    let rng = Engine.split_rng w.engine in
    let n = Array.length w.stacks in
    let nodes =
      List.filter (fun i -> not (List.mem i exclude)) (List.init n (fun i -> i))
    in
    let period = 1000.0 /. rate in
    let rec arm at =
      if at < until then begin
        ignore
          (Engine.schedule w.engine ~delay:at (fun () ->
               let src = Rng.pick rng nodes in
               let dst = Rng.pick rng (List.filter (fun q -> q <> src) nodes) in
               Netsim.set_link w.net ~src ~dst ~drop:1.0 ();
               ignore
                 (Engine.schedule w.engine ~delay:width (fun () ->
                      Netsim.set_link w.net ~src ~dst ~drop:0.0 ()))));
        arm (at +. period)
      end
    in
    arm (period /. 2.0)
  end

(* ---------- measurements ---------- *)

let latencies_of w node =
  let s = Stats.sample () in
  List.iter (fun d -> Stats.add s (d.recv_at -. d.sent_at)) !(w.deliveries.(node));
  s

let delivered_count w node = List.length !(w.deliveries.(node))

(* Recovery latency: time from the crash to the first delivery (at [node])
   of a message sent after the crash — the client-visible outage after a
   failure, independent of ambient jitter before it. *)
let recovery_after w node ~crash_at =
  !(w.deliveries.(node))
  |> List.filter_map (fun d ->
         if d.sent_at > crash_at then Some d.recv_at else None)
  |> List.fold_left Float.min infinity
  |> fun first -> if first = infinity then nan else first -. crash_at

(* ---------- trace audits ---------- *)

module Audit = Gc_obs.Audit

(* Violations found while auditing experiment cells.  bench/main.ml checks
   this after all experiments ran and fails the whole run: a bench binary
   exiting non-zero means a recorded history broke a protocol invariant. *)
let audit_failures = ref 0

(* Verdicts an experiment prints that its own run contradicts.
   bench/main.ml fails the run on these as on audit failures, so a
   printed conclusion cannot silently become false. *)
let claim_failures = ref 0

let check_claim ~experiment ok claim =
  if not ok then begin
    incr claim_failures;
    Printf.printf "\nCLAIM FAILURE [%s]: %s\n" experiment claim
  end

(* Replay a cell's recorded trace through the offline auditor.  Same-view
   needs each node's full history from time zero, so it is dropped when the
   ring buffer evicted records. *)
let audit_trace ?(checks = Audit.all_checks) ~experiment ~cell trace =
  if Trace.enabled trace then begin
    let checks =
      if Trace.dropped trace > 0 then
        List.filter (fun c -> c <> Audit.Same_view) checks
      else checks
    in
    let report = Audit.run ~checks (Trace.records trace) in
    if not (Audit.ok report) then begin
      incr audit_failures;
      Printf.printf "\nAUDIT FAILURE [%s/%s]:\n" experiment cell;
      Format.printf "%a@." Audit.pp_report report
    end
  end

(* ---------- metrics emission ---------- *)

let merged_metrics w = Metrics.merged (Array.to_list w.metrics)

(* Representative cells accumulated across experiments, then dumped as one
   machine-readable document by [write_metrics_file] (bench/main.ml calls it
   after the selected experiments ran). *)
let metrics_notes : (string * (string * Json.t)) list ref = ref []

let note_metrics ~experiment ~cell m =
  metrics_notes := (experiment, (cell, Metrics.to_json m)) :: !metrics_notes

(* Noting a world's metrics also audits its trace: every reported cell is a
   checked cell. *)
let note_world_metrics ?checks ~experiment ~cell w =
  audit_trace ?checks ~experiment ~cell w.trace;
  note_metrics ~experiment ~cell (merged_metrics w)

let write_metrics_file ?(path = "BENCH_metrics.json") () =
  let notes = List.rev !metrics_notes in
  let experiments =
    List.fold_left
      (fun acc (e, _) -> if List.mem e acc then acc else acc @ [ e ])
      [] notes
  in
  let doc =
    Json.Obj
      (List.map
         (fun e ->
           (e, Json.Obj (List.filter_map
                           (fun (e', cell) -> if e' = e then Some cell else None)
                           notes)))
         experiments)
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nmetrics written to %s (%d experiments, %d cells)\n" path
    (List.length experiments) (List.length notes)

let fmt_int = string_of_int
let fmt_f1 x = if Float.is_nan x then "-" else Printf.sprintf "%.1f" x

let section title claim =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "paper claim: %s\n" claim;
  Printf.printf "================================================================\n\n"

let conclude text = Printf.printf "\n=> %s\n" text

(* Gc_obs: the metrics registry (counters, gauges, log-bucketed
   histograms), its JSON round-trip, cross-node merging, captures, window
   deltas and Prometheus exposition, the trace buffer's bounded capacity,
   structured emission — and the
   architectural end-to-end property the registry exists to expose:
   rbcast-only traffic consumes strictly fewer consensus instances than
   the same traffic totally ordered. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics
module Json = Gc_obs.Json
open Support

type Gc_net.Payload.t += Obs_op of int

let check_float = Alcotest.(check (float 1e-9))

(* ---------- counters and gauges ---------- *)

let test_counters () =
  let m = Metrics.create () in
  check_int "absent counter reads 0" 0 (Metrics.counter m "c");
  Metrics.incr m "c";
  Metrics.incr m "c" ~by:4;
  check_int "incremented" 5 (Metrics.counter m "c");
  Metrics.set_gauge m "g" 7.5;
  Metrics.set_gauge m "g" 3.25;
  check_float "gauge keeps latest" 3.25 (Metrics.gauge m "g");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g" ] (Metrics.names m)

let test_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "counter used as histogram"
    (Invalid_argument "Metrics: x is not a histogram") (fun () ->
      Metrics.observe m "x" 1.0)

(* ---------- histogram quantiles ---------- *)

let test_quantiles () =
  let m = Metrics.create () in
  Alcotest.(check bool)
    "empty histogram quantile is nan" true
    (Float.is_nan (Metrics.quantile m "h" 0.5));
  for v = 1 to 1000 do
    Metrics.observe m "h" (float_of_int v)
  done;
  check_int "count" 1000 (Metrics.hist_count m "h");
  check_float "max exact" 1000.0 (Metrics.hist_max m "h");
  check_float "mean exact" 500.5 (Metrics.hist_mean m "h");
  (* Log-bucketed estimates: within one bucket (~19% relative error). *)
  let within q lo hi =
    let v = Metrics.quantile m "h" q in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%.1f in [%.0f,%.0f]" (q *. 100.0) v lo hi)
      true
      (v >= lo && v <= hi)
  in
  within 0.50 400.0 620.0;
  within 0.95 780.0 1000.0;
  within 0.99 820.0 1000.0;
  let p50 = Metrics.quantile m "h" 0.5
  and p95 = Metrics.quantile m "h" 0.95
  and p99 = Metrics.quantile m "h" 0.99 in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool)
    "clamped to observed max" true
    (Metrics.quantile m "h" 1.0 <= Metrics.hist_max m "h")

(* ---------- merging ---------- *)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c" ~by:3;
  Metrics.incr b "c" ~by:4;
  Metrics.set_gauge a "g" 10.0;
  Metrics.set_gauge b "g" 2.0;
  Metrics.observe a "h" 5.0;
  Metrics.observe b "h" 50.0;
  Metrics.incr b "only_b";
  let m = Metrics.merged [ a; b ] in
  check_int "counters add" 7 (Metrics.counter m "c");
  check_float "gauges keep max" 10.0 (Metrics.gauge m "g");
  check_int "histogram counts add" 2 (Metrics.hist_count m "h");
  check_float "merged max" 50.0 (Metrics.hist_max m "h");
  check_int "entry present in one side survives" 1 (Metrics.counter m "only_b");
  check_int "sources untouched" 3 (Metrics.counter a "c")

(* ---------- JSON round-trip ---------- *)

let test_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m "consensus.instances_decided" ~by:17;
  Metrics.set_gauge m "membership.sender_blocked_ms_total" 0.0;
  for v = 1 to 64 do
    Metrics.observe m "abcast.latency_ms" (float_of_int v *. 0.7)
  done;
  let j = Metrics.to_json m in
  let m' = Metrics.of_json j in
  Alcotest.(check string)
    "to_json (of_json j) = j" (Json.to_string j)
    (Json.to_string (Metrics.to_json m'));
  check_int "counter survives" 17
    (Metrics.counter m' "consensus.instances_decided");
  check_int "histogram count survives" 64
    (Metrics.hist_count m' "abcast.latency_ms");
  check_float "histogram max survives"
    (Metrics.hist_max m "abcast.latency_ms")
    (Metrics.hist_max m' "abcast.latency_ms");
  (* And through the string parser too. *)
  let m'' = Metrics.of_json (Json.of_string (Json.to_string_pretty j)) in
  Alcotest.(check string)
    "text round-trip" (Json.to_string j)
    (Json.to_string (Metrics.to_json m''))

(* ---------- captures, deltas, exposition ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S present" what needle)
    true (contains hay needle)

let capture m = Metrics.merged [ m ]

let test_snapshot_immutable () =
  let m = Metrics.create () in
  Metrics.incr m "c" ~by:2;
  Metrics.observe m "h" 1.0;
  let s = capture m in
  Metrics.incr m "c" ~by:40;
  Metrics.observe m "h" 9.0;
  check_int "capture frozen: counter" 2 (Metrics.counter s "c");
  check_int "capture frozen: hist count" 1 (Metrics.hist_count s "h");
  (* And it round-trips through JSON bit-compatibly. *)
  let j = Metrics.to_json s in
  Alcotest.(check string)
    "capture json round-trip"
    (Json.to_string j)
    (Json.to_string (Metrics.to_json (Metrics.of_json j)))

let test_snapshot_delta () =
  let m = Metrics.create () in
  Metrics.incr m "c" ~by:10;
  Metrics.set_gauge m "g" 1.0;
  for v = 1 to 50 do
    Metrics.observe m "h" (float_of_int v)
  done;
  let before = capture m in
  Metrics.incr m "c" ~by:7;
  Metrics.set_gauge m "g" 2.5;
  for v = 51 to 80 do
    Metrics.observe m "h" (float_of_int v)
  done;
  Metrics.incr m "late";
  let after = capture m in
  let d = Metrics.delta ~before ~after in
  check_int "counters subtract" 7 (Metrics.counter d "c");
  check_float "gauges keep the after reading" 2.5 (Metrics.gauge d "g");
  check_int "histogram window count" 30 (Metrics.hist_count d "h");
  check_int "entries born inside the window survive" 1
    (Metrics.counter d "late");
  (* The window held 51..80 only: its median must sit far above the
     cumulative median (~40), even with one-bucket resolution. *)
  let p50 = Metrics.quantile d "h" 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "window p50 %.1f reflects only the window" p50)
    true
    (p50 >= 50.0 && p50 <= 80.0);
  check_int "delta leaves its after argument alone" 17
    (Metrics.counter after "c")

let test_snapshot_counter_reset () =
  let a = Metrics.create () in
  Metrics.incr a "c" ~by:100;
  for _ = 1 to 20 do
    Metrics.observe a "h" 5.0
  done;
  let before = capture a in
  (* The source restarts: a fresh registry with smaller readings. *)
  let b = Metrics.create () in
  Metrics.incr b "c" ~by:3;
  Metrics.observe b "h" 5.0;
  let after = capture b in
  let d = Metrics.delta ~before ~after in
  check_int "decreased counter: after stands alone" 3 (Metrics.counter d "c");
  check_int "decreased histogram: after stands alone" 1
    (Metrics.hist_count d "h")

(* Record a random sequence, capture at a random split point: the delta
   reads exactly like a registry that recorded only the suffix (counters,
   histogram counts and every bucket), and a restarted source (a fresh
   registry holding less than the capture) comes back unchanged. *)
type obs_step = Incr of int * int | Observe of int * float

let prop_delta_is_suffix =
  let step =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k by -> Incr (k, by)) (int_bound 2) (int_range 1 5);
          map2 (fun k v -> Observe (k, v)) (int_bound 2) (float_bound_inclusive 1e4);
        ])
  in
  let print (steps, split) =
    Printf.sprintf "split=%d [%s]" split
      (String.concat "; "
         (List.map
            (function
              | Incr (k, by) -> Printf.sprintf "incr c%d %d" k by
              | Observe (k, v) -> Printf.sprintf "observe h%d %g" k v)
            steps))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60) step >>= fun steps ->
      map (fun split -> (steps, split)) (int_bound (List.length steps)))
  in
  QCheck.Test.make ~name:"delta equals the suffix's registry" ~count:200
    (QCheck.make ~print gen)
    (fun (steps, split) ->
      let record m = function
        | Incr (k, by) -> Metrics.incr m (Printf.sprintf "c%d" k) ~by
        | Observe (k, v) -> Metrics.observe m (Printf.sprintf "h%d" k) v
      in
      let m = Metrics.create () and suffix = Metrics.create () in
      List.iteri (fun i s -> if i < split then record m s) steps;
      let before = capture m in
      List.iteri
        (fun i s ->
          if i >= split then begin
            record m s;
            record suffix s
          end)
        steps;
      let d = Metrics.delta ~before ~after:m in
      let buckets m name =
        match Metrics.view m name with
        | Some (Metrics.V_hist h) ->
            List.filter (fun (_, c) -> c > 0) h.Metrics.hv_buckets
        | _ -> []
      in
      let same m1 m2 =
        List.for_all
          (fun k ->
            let c = Printf.sprintf "c%d" k and h = Printf.sprintf "h%d" k in
            Metrics.counter m1 c = Metrics.counter m2 c
            && Metrics.hist_count m1 h = Metrics.hist_count m2 h
            && buckets m1 h = buckets m2 h)
          [ 0; 1; 2 ]
      in
      (* A restart: the new incarnation recorded only the suffix, so
         every reading is below the old incarnation's last capture. *)
      List.iter
        (fun k ->
          Metrics.incr m (Printf.sprintf "c%d" k);
          Metrics.observe m (Printf.sprintf "h%d" k) 1.0)
        [ 0; 1; 2 ];
      let restarted = Metrics.delta ~before:m ~after:suffix in
      let json r = Json.to_string (Metrics.to_json ~include_zeros:true r) in
      same d suffix && json restarted = json suffix)
let test_snapshot_quantiles_known () =
  let m = Metrics.create () in
  (* A point mass: every quantile is the exact observed value. *)
  for _ = 1 to 100 do
    Metrics.observe m "point" 42.0
  done;
  let s = capture m in
  check_float "point mass p50" 42.0 (Metrics.quantile s "point" 0.5);
  check_float "point mass p99" 42.0 (Metrics.quantile s "point" 0.99);
  (* A 9:1 bimodal mix: p50 near the low mode, p99 at the high one. *)
  let m2 = Metrics.create () in
  for _ = 1 to 90 do
    Metrics.observe m2 "bi" 1.0
  done;
  for _ = 1 to 10 do
    Metrics.observe m2 "bi" 1000.0
  done;
  let s2 = capture m2 in
  let p50 = Metrics.quantile s2 "bi" 0.5 in
  let p99 = Metrics.quantile s2 "bi" 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "bimodal p50 %.2f stays at the low mode" p50)
    true
    (p50 >= 0.9 && p50 <= 1.25);
  check_float "bimodal p99 clamps to max" 1000.0 p99;
  Alcotest.(check bool)
    "absent histogram quantile is nan" true
    (Float.is_nan (Metrics.quantile s2 "nope" 0.5))

let test_include_zeros () =
  let m = Metrics.create () in
  Metrics.incr m "live";
  Metrics.incr m "dead" ~by:0;
  ignore (Metrics.quantile m "empty_hist" 0.5);
  let default = Json.to_string (Metrics.to_json m) in
  let kept = Json.to_string (Metrics.to_json ~include_zeros:true m) in
  check_contains "default keeps live entries" default "\"live\"";
  Alcotest.(check bool)
    "default drops zero counters" false
    (contains default "\"dead\"");
  check_contains "include_zeros keeps zero counters" kept "\"dead\"";
  (* A capture keeps the zero entries, so its exposition honours the
     same flag. *)
  let s = capture m in
  Alcotest.(check bool)
    "snapshot default drops zeros too" false
    (contains (Json.to_string (Metrics.to_json s)) "\"dead\"");
  check_contains "snapshot include_zeros"
    (Json.to_string (Metrics.to_json ~include_zeros:true s))
    "\"dead\""

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.incr m "abcast.delivered" ~by:12;
  Metrics.set_gauge m "evloop.open_fds" 9.0;
  Metrics.observe m "server.latency_ms" 0.5;
  Metrics.observe m "server.latency_ms" 2.0;
  Metrics.observe m "server.latency_ms" 100.0;
  let text = Metrics.to_prometheus ~labels:[ ("node", "a\\b\"c\nd") ] m in
  (* Dotted names sanitise to the exposition charset, under the gcs_
     namespace. *)
  check_contains "counter TYPE" text "# TYPE gcs_abcast_delivered counter";
  check_contains "counter sample" text "gcs_abcast_delivered{node=";
  check_contains "gauge TYPE" text "# TYPE gcs_evloop_open_fds gauge";
  check_contains "histogram TYPE" text
    "# TYPE gcs_server_latency_ms histogram";
  (* Label values escape backslash, quote and newline. *)
  check_contains "label escaping" text {|node="a\\b\"c\nd"|};
  (* Cumulative buckets end at +Inf = count, with sum and count samples. *)
  check_contains "+Inf bucket" text {|le="+Inf"|};
  check_contains "sum sample" text "gcs_server_latency_ms_sum";
  check_contains "count sample" text "gcs_server_latency_ms_count";
  let inf_line =
    List.find
      (fun l -> contains l {|le="+Inf"|})
      (String.split_on_char '\n' text)
  in
  check_contains "+Inf bucket equals count" inf_line "} 3";
  (* le values are monotone: every bucket count <= the +Inf count. *)
  List.iter
    (fun l ->
      if contains l "_bucket{" && not (contains l "+Inf") then
        match String.rindex_opt l ' ' with
        | Some i ->
            let c =
              float_of_string
                (String.sub l (i + 1) (String.length l - i - 1))
            in
            Alcotest.(check bool) "bucket below count" true (c <= 3.0)
        | None -> Alcotest.fail "unparseable bucket line")
    (String.split_on_char '\n' text)

(* The exact text loopback_smoke.sh and outside scrapers parse: a counter,
   a gauge, a three-sample histogram and a label value that needs every
   escape. *)
let test_prometheus_golden () =
  let m = Metrics.create () in
  Metrics.incr m "abcast.delivered" ~by:12;
  Metrics.set_gauge m "evloop.open_fds" 9.0;
  Metrics.observe m "server.latency_ms" 0.5;
  Metrics.observe m "server.latency_ms" 2.0;
  Metrics.observe m "server.latency_ms" 100.0;
  Alcotest.(check string)
    "prometheus text" {|# TYPE gcs_abcast_delivered counter
gcs_abcast_delivered{node="a\\b\"c\nd"} 12
# TYPE gcs_evloop_open_fds gauge
gcs_evloop_open_fds{node="a\\b\"c\nd"} 9
# TYPE gcs_server_latency_ms histogram
gcs_server_latency_ms_bucket{node="a\\b\"c\nd",le="0.512"} 1
gcs_server_latency_ms_bucket{node="a\\b\"c\nd",le="2.048"} 2
gcs_server_latency_ms_bucket{node="a\\b\"c\nd",le="110.217975"} 3
gcs_server_latency_ms_bucket{node="a\\b\"c\nd",le="+Inf"} 3
gcs_server_latency_ms_sum{node="a\\b\"c\nd"} 102.5
gcs_server_latency_ms_count{node="a\\b\"c\nd"} 3
|}
    (Metrics.to_prometheus ~labels:[ ("node", "a\\b\"c\nd") ] m)

(* ---------- trace capacity and structured emission ---------- *)

let test_trace_capacity () =
  let t = Trace.create ~enabled:true ~capacity:10 () in
  for i = 0 to 24 do
    Trace.emit_event t ~time:(float_of_int i) ~node:0 ~component:"c"
      ~kind:(Gc_obs.Event.kind_of_string "e")
      ~attrs:[ ("i", string_of_int i) ]
      ()
  done;
  let rs = Trace.records t in
  check_int "capacity bounds the buffer" 10 (List.length rs);
  Alcotest.(check (option string))
    "oldest surviving record is #15" (Some "15")
    (Trace.attr (List.hd rs) "i");
  Alcotest.(check (option string))
    "newest record is #24" (Some "24")
    (Trace.attr (List.nth rs 9) "i")

let test_structured_emit () =
  let t = Trace.create ~enabled:true () in
  Trace.emit_event t ~time:1.0 ~node:2 ~component:"layer"
    ~kind:(Gc_obs.Event.kind_of_string "deliver")
    ~attrs:[ ("detail", "free-form detail") ]
    ();
  Trace.emit_event t ~time:2.0 ~node:2 ~component:"layer"
    ~kind:(Gc_obs.Event.kind_of_string "frobnicate") ();
  match Trace.records t with
  | [ r1; r2 ] ->
      Alcotest.(check (option string))
        "attrs carry the detail" (Some "free-form detail")
        (Trace.attr r1 "detail");
      Alcotest.(check string)
        "detail rendering" "detail=free-form detail" (Trace.detail r1);
      Alcotest.(check bool)
        "known tags parse to typed kinds" true
        (r1.Trace.kind = Gc_obs.Event.Deliver);
      Alcotest.(check bool)
        "unknown tags become Custom" true
        (r2.Trace.kind = Gc_obs.Event.Custom "frobnicate");
      Alcotest.(check (list (pair string string)))
        "no attrs by default" [] r2.Trace.attrs
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

(* ---------- end-to-end: rbcast avoids consensus ---------- *)

let run_workload ~ordered =
  let engine = Engine.create ~seed:77L () in
  let trace = Trace.create () in
  let n = 3 in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let initial = List.init n (fun i -> i) in
  let delivered = ref 0 in
  let stacks =
    Array.init n (fun id ->
        let s = Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial () in
        Stack.on_deliver s (fun ~origin:_ ~ordered:_ _ ->
            if id = 0 then incr delivered);
        s)
  in
  for k = 0 to 19 do
    ignore
      (Engine.schedule engine
         ~delay:(100.0 +. (float_of_int k *. 25.0))
         (fun () ->
           let s = stacks.(k mod n) in
           let p = Obs_op (1000 + k) in
           if ordered then Stack.abcast s p else Stack.rbcast s p))
  done;
  Engine.run ~until:5_000.0 engine;
  let m = Metrics.merged (Array.to_list stacks |> List.map Stack.metrics) in
  (!delivered, m)

let test_rbcast_needs_fewer_instances () =
  let d_rb, m_rb = run_workload ~ordered:false in
  let d_ab, m_ab = run_workload ~ordered:true in
  check_int "rbcast delivered all" 20 d_rb;
  check_int "abcast delivered all" 20 d_ab;
  let i_rb = Metrics.counter m_rb "consensus.instances_decided"
  and i_ab = Metrics.counter m_ab "consensus.instances_decided" in
  Alcotest.(check bool)
    (Printf.sprintf
       "rbcast-only uses strictly fewer consensus instances (%d < %d)" i_rb
       i_ab)
    true (i_rb < i_ab);
  Alcotest.(check bool)
    "abcast workload used consensus at all" true (i_ab > 0);
  Alcotest.(check bool)
    "rbcast workload counted its deliveries" true
    (Metrics.counter m_rb "rbcast.delivered" >= 20 * 3)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters;
        Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
        Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
        Alcotest.test_case "merge semantics" `Quick test_merge;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "snapshot is immutable" `Quick
          test_snapshot_immutable;
        Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
        Alcotest.test_case "snapshot counter reset" `Quick
          test_snapshot_counter_reset;
        QCheck_alcotest.to_alcotest prop_delta_is_suffix;
        Alcotest.test_case "snapshot quantiles on known distributions" `Quick
          test_snapshot_quantiles_known;
        Alcotest.test_case "to_json include_zeros" `Quick test_include_zeros;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "prometheus golden text" `Quick
          test_prometheus_golden;
        Alcotest.test_case "trace capacity eviction" `Quick test_trace_capacity;
        Alcotest.test_case "structured emit" `Quick test_structured_emit;
        Alcotest.test_case "rbcast uses fewer consensus instances" `Quick
          test_rbcast_needs_fewer_instances;
      ] );
  ]

(* Backend conformance: the same scripted scenario runs against both
   Runtime implementations through one functor.

   The scenario: three founding members each submit a schedule of
   conflicting (abcast) and commuting (rbcast) operations; every node
   records what its stack delivers.  Obligations checked on every
   backend: agreement (one identical total order of conflicting ops on
   all nodes) and completeness (each class delivered exactly once,
   everywhere).  The sim backend additionally pins determinism — two
   runs from the same seed must produce byte-identical logs — while the
   unix backend (real TCP over loopback, one in-process select loop) is
   only required to be order-isomorphic: the *same* total order on all
   its nodes, not necessarily the sim's. *)

module Stack = Gcs.Gcs_stack
module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Trace = Gc_sim.Trace
module Evloop = Gc_runtime_unix.Evloop
module Ru = Gc_runtime_unix.Runtime_unix
open Support

type Gc_net.Payload.t += Cop of { origin : int; k : int }

let () =
  Gc_net.Payload.register_codec ~tag:"test.cop"
    ~encode:(fun _enc w p ->
      match p with
      | Cop { origin; k } ->
          Gc_net.Wire.varint w origin;
          Gc_net.Wire.varint w k;
          true
      | _ -> false)
    ~decode:(fun _dec r ->
      let origin = Gc_net.Wire.read_varint r in
      let k = Gc_net.Wire.read_varint r in
      Cop { origin; k })

let nodes = 3
let per_node = 6

(* One delivery log entry: (origin, k, ordered). *)
type log = (int * int * bool) list

module type Backend = sig
  val name : string
  val deterministic : bool

  val run_scenario : unit -> log array * Gc_obs.Metrics.t
  (** Build a [nodes]-member cluster, let node [i] submit operations
      [Cop {origin = i; k}] for [k < per_node] (even [k] conflicting via
      abcast, odd [k] commuting via rbcast), and return each node's
      delivery log once everything has been delivered everywhere, plus
      the merged metrics of all stacks (for the stats round-trip
      obligation). *)
end

let submit stacks i k =
  let p = Cop { origin = i; k } in
  if k mod 2 = 0 then Stack.abcast stacks.(i) p else Stack.rbcast stacks.(i) p

let record logs id ~ordered payload =
  match payload with
  | Cop { origin; k } -> logs.(id) <- (origin, k, ordered) :: logs.(id)
  | _ -> ()

let finished logs =
  Array.for_all (fun l -> List.length l = nodes * per_node) logs

let harvest logs = Array.map List.rev logs

(* ---------- backends ---------- *)

module Sim_backend = struct
  let name = "sim"
  let deterministic = true

  let run_scenario () =
    let engine = Engine.create ~seed:4242L () in
    let trace = Trace.create ~enabled:false () in
    let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:nodes () in
    let initial = List.init nodes Fun.id in
    let logs = Array.make nodes [] in
    let stacks =
      Array.init nodes (fun id ->
          let s =
            Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ()
          in
          Stack.on_deliver s (fun ~origin:_ ~ordered payload ->
              record logs id ~ordered payload);
          s)
    in
    for i = 0 to nodes - 1 do
      for k = 0 to per_node - 1 do
        ignore
          (Engine.schedule_at engine
             ~time:(100.0 +. (float_of_int ((i * per_node) + k) *. 15.0))
             (fun () -> submit stacks i k))
      done
    done;
    Engine.run ~until:60_000.0 engine;
    ( harvest logs,
      Gc_obs.Metrics.merged (Array.to_list stacks |> List.map Stack.metrics) )
end

module Unix_backend = struct
  let name = "unix"
  let deterministic = false

  let run_scenario () =
    let loop = Evloop.create () in
    let lo = Unix.inet_addr_loopback in
    let initial = List.init nodes Fun.id in
    let logs = Array.make nodes [] in
    let endpoints =
      Array.init nodes (fun me ->
          Ru.create ~loop ~me ~listen:(Unix.ADDR_INET (lo, 0)) ())
    in
    let peers =
      Array.to_list
        (Array.mapi
           (fun id ep -> (id, Unix.ADDR_INET (lo, Ru.port ep)))
           endpoints)
    in
    Array.iter (fun ep -> Ru.set_peers ep peers) endpoints;
    let config =
      Stack.Config.make ~runtime:Stack.Config.Unix ~hb_period:25.0
        ~consensus_timeout:400.0 ()
    in
    let stacks =
      Array.init nodes (fun id ->
          let s =
            Stack.create (Ru.runtime endpoints.(id)) ~id ~initial ~config ()
          in
          Stack.on_deliver s (fun ~origin:_ ~ordered payload ->
              record logs id ~ordered payload);
          s)
    in
    for i = 0 to nodes - 1 do
      for k = 0 to per_node - 1 do
        ignore
          (Evloop.schedule loop
             ~delay:(50.0 +. (float_of_int ((i * per_node) + k) *. 5.0))
             (fun () -> submit stacks i k))
      done
    done;
    let deadline = Evloop.now loop +. 30_000.0 in
    while (not (finished logs)) && Evloop.now loop < deadline do
      Evloop.run_once loop ~max_wait:20.0
    done;
    Array.iter Ru.shutdown endpoints;
    ( harvest logs,
      Gc_obs.Metrics.merged (Array.to_list stacks |> List.map Stack.metrics) )
end

(* ---------- the conformance obligations ---------- *)

let pp_entry (o, k, ordered) =
  Printf.sprintf "%d.%d%s" o k (if ordered then "!" else "")

let pp_log l = String.concat " " (List.map pp_entry l)

module Conformance (B : Backend) = struct
  let scripted =
    List.concat_map
      (fun i -> List.init per_node (fun k -> (i, k)))
      (List.init nodes Fun.id)

  let check_logs logs =
    Alcotest.(check int) "every node present" nodes (Array.length logs);
    Array.iteri
      (fun id l ->
        Alcotest.(check int)
          (Printf.sprintf "node %d delivered everything" id)
          (nodes * per_node) (List.length l);
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "node %d delivered exactly the script" id)
          (List.sort compare scripted)
          (List.sort compare (List.map (fun (o, k, _) -> (o, k)) l)))
      logs;
    (* Agreement: the subsequence of ordered (conflicting) deliveries is
       identical on every node — one total order. *)
    let ordered_of l = List.filter (fun (_, _, ordered) -> ordered) l in
    let reference = ordered_of logs.(0) in
    Alcotest.(check bool) "conflicting ops exist" true (reference <> []);
    Array.iteri
      (fun id l ->
        if ordered_of l <> reference then
          Alcotest.failf "node %d total order diverges:\n  %s\nvs node 0:\n  %s"
            id (pp_log (ordered_of l)) (pp_log reference))
      logs

  let test_agreement () = check_logs (fst (B.run_scenario ()))

  let test_determinism () =
    if B.deterministic then begin
      let a = fst (B.run_scenario ()) in
      let b = fst (B.run_scenario ()) in
      Array.iteri
        (fun id l ->
          if l <> b.(id) then
            Alcotest.failf "node %d logs differ across identical runs" id)
        a
    end

  (* The live-telemetry obligation: whatever this backend's stacks
     recorded must survive the exact wire path a [Cl_stats] reply takes —
     registry -> JSON body -> framed [Cl_reply] -> decoder -> registry —
     with counters and quantile estimates intact. *)
  let test_stats_roundtrip () =
    let _, metrics = B.run_scenario () in
    let module Metrics = Gc_obs.Metrics in
    let module Proto = Gc_server.Proto in
    let module Frame = Gc_net.Frame in
    let snap = Metrics.merged [ metrics ] in
    Alcotest.(check bool)
      "scenario recorded abcast deliveries" true
      (Metrics.counter snap "abcast.delivered" > 0);
    Alcotest.(check bool)
      "scenario recorded rbcast deliveries" true
      (Metrics.counter snap "rbcast.delivered" > 0);
    let body = Gc_obs.Json.to_string (Metrics.to_json snap) in
    let frame =
      match Frame.encode (Proto.Cl_reply { rid = 7; ok = true; body }) with
      | Ok f -> f
      | Error e -> Alcotest.failf "encode failed: %s" (Frame.error_to_string e)
    in
    let dec = Frame.Decoder.create () in
    Frame.Decoder.feed dec
      (Bytes.of_string frame)
      ~off:0 ~len:(String.length frame);
    match Frame.Decoder.next dec with
    | `Payload (Proto.Cl_reply { rid = 7; ok = true; body = body' }) ->
        let snap' = Metrics.of_json (Gc_obs.Json.of_string body') in
        (* JSON exposition drops zero-valued entries by default, so the
           expectation is the local JSON round-trip, not the raw capture. *)
        Alcotest.(check (list string))
          "names survive the wire"
          (Metrics.names (Metrics.of_json (Metrics.to_json snap)))
          (Metrics.names snap');
        List.iter
          (fun name ->
            Alcotest.(check int)
              (name ^ " counter survives")
              (Metrics.counter snap name)
              (Metrics.counter snap' name))
          [ "abcast.delivered"; "rbcast.delivered"; "consensus.instances_decided" ];
        Alcotest.(check (float 1e-9))
          "latency p99 estimate survives"
          (Metrics.quantile snap "abcast.latency_ms" 0.99)
          (Metrics.quantile snap' "abcast.latency_ms" 0.99)
    | _ -> Alcotest.fail "stats reply did not round-trip the frame codec"

  (* The batching obligation (DESIGN.md Section 15): every backend must
     route submissions through the batcher (the stack default is
     [batch_max = 64]) and expose the batching telemetry — the same wire
     vocabulary ([Gb_fast_batch], one message or many) on sim and TCP
     alike — and order the scenario's conflicting traffic through
     stage-change cuts. *)
  let test_batching_engaged () =
    let _, metrics = B.run_scenario () in
    let module M = Gc_obs.Metrics in
    Alcotest.(check bool)
      "gbcast submissions ride the batcher" true
      (M.hist_count metrics "gbcast.batch_size" > 0);
    Alcotest.(check bool)
      "cuts proposed" true
      (M.counter metrics "gbcast.cuts_proposed" > 0);
    Alcotest.(check bool)
      "conflict-class occupancy gauge exposed" true
      (List.mem "gbcast.conflict_class_occupancy" (M.names metrics))

  let cases =
    Alcotest.test_case
      (Printf.sprintf "%s: one total order, complete delivery" B.name)
      `Quick test_agreement
    :: Alcotest.test_case
         (Printf.sprintf "%s: stats snapshot wire round-trip" B.name)
         `Quick test_stats_roundtrip
    :: Alcotest.test_case
         (Printf.sprintf "%s: submission batching engaged" B.name)
         `Quick test_batching_engaged
    ::
    (if B.deterministic then
       [
         Alcotest.test_case
           (Printf.sprintf "%s: bit-identical replay" B.name)
           `Quick test_determinism;
       ]
     else [])
end

module Sim_conf = Conformance (Sim_backend)
module Unix_conf = Conformance (Unix_backend)

let suite = [ ("conformance", Sim_conf.cases @ Unix_conf.cases) ]

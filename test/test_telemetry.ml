(* The live telemetry plane over a real in-process TCP cluster: the
   admin Cl_stats / Cl_health endpoints served mid-traffic (JSON and
   Prometheus expositions, digest agreement across replicas) and the
   --telemetry-interval JSONL time-series writer.

   Everything runs on one select loop with port-0 binds, driving the
   servers through framed client connections attached to the same loop
   (the synchronous client would deadlock a single-threaded test). *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Telemetry = Gc_server.Telemetry
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics
module Json = Gc_obs.Json

let nodes = 3

let boot_cluster ~loop ~n =
  let lo = Unix.inet_addr_loopback in
  let servers =
    Array.init n (fun id ->
        Server.create ~loop ~id ~initial:(List.init n Fun.id)
          ~config:
            (Stack.Config.make ~runtime:Stack.Config.Unix ~hb_period:25.0
               ~consensus_timeout:400.0 ())
          ~peer_listen:(Unix.ADDR_INET (lo, 0))
          ~client_listen:(Unix.ADDR_INET (lo, 0))
          ())
  in
  let peers =
    Array.to_list
      (Array.mapi
         (fun id s -> (id, Unix.ADDR_INET (lo, Server.peer_port s)))
         servers)
  in
  Array.iter (fun s -> Server.set_peers s peers) servers;
  servers

let connect_client ~loop ~port ~on_payload =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let connecting =
    match Unix.connect sock addr with
    | () -> false
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
  in
  Fconn.attach ~loop ~connecting sock ~on_payload ~on_close:(fun _ -> ())

(* Drive the loop until the pending-reply table drains (or fail). *)
let pump_until loop ~what cond =
  let deadline = Evloop.now loop +. 20_000.0 in
  while (not (cond ())) && Evloop.now loop < deadline do
    Evloop.run_once loop ~max_wait:20.0
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* One framed connection per server plus a tiny request/reply helper. *)
type harness = {
  loop : Evloop.t;
  servers : Server.t array;
  conns : Fconn.t array;
  replies : (int, bool * string) Hashtbl.t;
  mutable next_rid : int;
}

let make_harness () =
  let loop = Evloop.create () in
  let servers = boot_cluster ~loop ~n:nodes in
  let replies = Hashtbl.create 16 in
  let conns =
    Array.map
      (fun s ->
        connect_client ~loop ~port:(Server.client_port s)
          ~on_payload:(fun _ p ->
            match p with
            | Proto.Cl_reply { rid; ok; body } ->
                Hashtbl.replace replies rid (ok, body)
            | _ -> ()))
      servers
  in
  { loop; servers; conns; replies; next_rid = 0 }

let request h ~target make =
  let rid = h.next_rid in
  h.next_rid <- rid + 1;
  Fconn.send h.conns.(target) (make rid);
  pump_until h.loop ~what:(Printf.sprintf "reply %d" rid) (fun () ->
      Hashtbl.mem h.replies rid);
  let ok, body = Hashtbl.find h.replies rid in
  Hashtbl.remove h.replies rid;
  Alcotest.(check bool) (Printf.sprintf "request %d accepted" rid) true ok;
  body

let shutdown h =
  Array.iter Fconn.close h.conns;
  Array.iter Server.shutdown h.servers

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s lacks %S" what k

let load h ~ops =
  for i = 0 to ops - 1 do
    let target = i mod nodes in
    ignore
      (request h ~target (fun rid ->
           if i mod 4 = 0 then
             Proto.Cl_put
               { rid; key = Printf.sprintf "k%d" (i mod 5);
                 value = string_of_int i }
           else Proto.Cl_incr { rid; key = "hits"; delta = 1 }))
  done

(* ---------- the stats endpoint ---------- *)

let test_stats_endpoint () =
  let h = make_harness () in
  load h ~ops:24;
  let stats =
    Array.init nodes (fun target ->
        Json.of_string
          (request h ~target (fun rid ->
               Proto.Cl_stats { rid; format = Proto.Stats_json })))
  in
  Array.iteri
    (fun i j ->
      let what = Printf.sprintf "node %d stats" i in
      Alcotest.(check (option (float 1e-9)))
        (what ^ " node id") (Some (float_of_int i))
        (Json.to_float (member_exn what "node" j));
      let kv = member_exn what "kv" j in
      (* 24 ops, every fourth a put: 6 ordered + 18 commuting applies. *)
      Alcotest.(check (option (float 1e-9)))
        (what ^ " ordered applies") (Some 6.0)
        (Json.to_float (member_exn what "ordered" kv));
      Alcotest.(check (option (float 1e-9)))
        (what ^ " commuting applies") (Some 18.0)
        (Json.to_float (member_exn what "commuting" kv));
      let snap = Metrics.of_json (member_exn what "metrics" j) in
      Alcotest.(check bool)
        (what ^ " delivered abcast traffic") true
        (Metrics.counter snap "abcast.delivered" > 0);
      Alcotest.(check bool)
        (what ^ " counted applies") true
        (Metrics.counter snap "server.applied" >= 24);
      (* Every node originated 8 of the 24 ops: its submit->deliver
         histogram holds exactly those, with a finite estimate. *)
      Alcotest.(check int)
        (what ^ " latency histogram size") 8
        (Metrics.hist_count snap "server.latency_ms");
      Alcotest.(check bool)
        (what ^ " latency p99 finite") true
        (Float.is_finite (Metrics.quantile snap "server.latency_ms" 0.99)))
    stats;
  (* Replicas agree: same order digest everywhere. *)
  let digest i =
    match
      Json.to_str
        (member_exn "kv" "order_digest"
           (member_exn "stats" "kv" stats.(i)))
    with
    | Some d -> d
    | None -> Alcotest.fail "order_digest not a string"
  in
  let d0 = digest 0 in
  for i = 1 to nodes - 1 do
    Alcotest.(check string)
      (Printf.sprintf "node %d order digest agrees" i)
      d0 (digest i)
  done;
  shutdown h

let test_prometheus_and_health () =
  let h = make_harness () in
  load h ~ops:12;
  let prom =
    request h ~target:0 (fun rid ->
        Proto.Cl_stats { rid; format = Proto.Stats_prometheus })
  in
  let has needle =
    Alcotest.(check bool)
      (Printf.sprintf "prometheus body has %S" needle)
      true
      (let nh = String.length prom and nn = String.length needle in
       let rec go i =
         i + nn <= nh && (String.sub prom i nn = needle || go (i + 1))
       in
       go 0)
  in
  has "# TYPE gcs_server_latency_ms histogram";
  has "gcs_server_latency_ms_count{node=\"0\"}";
  has "le=\"+Inf\"";
  has "gcs_abcast_delivered{node=\"0\"}";
  has "gcs_kv_info{node=\"0\",order_digest=\"";
  let health =
    Json.of_string (request h ~target:2 (fun rid -> Proto.Cl_health { rid }))
  in
  Alcotest.(check (option (float 1e-9)))
    "health node" (Some 2.0)
    (Json.to_float (member_exn "health" "node" health));
  Alcotest.(check bool)
    "health alive" true
    (member_exn "health" "alive" health = Json.Bool true);
  Alcotest.(check (option (float 1e-9)))
    "health members" (Some (float_of_int nodes))
    (Json.to_float (member_exn "health" "members" health));
  shutdown h

(* ---------- the JSONL time-series writer ---------- *)

let test_telemetry_writer () =
  let h = make_harness () in
  let path = Filename.temp_file "gcs_telemetry" ".jsonl" in
  let tl =
    Telemetry.start ~loop:h.loop ~server:h.servers.(0) ~interval_ms:10.0
      ~path
  in
  load h ~ops:8;
  (* Let several intervals elapse while the loop runs. *)
  Evloop.run_for h.loop 80.0;
  Telemetry.stop tl;
  Telemetry.stop tl;
  (* idempotent *)
  let lines = ref [] in
  let ic = open_in path in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check bool)
    (Printf.sprintf "several snapshots landed (%d)" (List.length lines))
    true
    (List.length lines >= 3);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      Alcotest.(check (option (float 1e-9)))
        "line node id" (Some 0.0)
        (Json.to_float (member_exn "line" "node" j));
      Alcotest.(check bool)
        "line has a wall-clock ts" true
        (match Json.to_float (member_exn "line" "ts" j) with
        | Some ts -> ts > 1.0e9
        | None -> false);
      let stats = member_exn "line" "stats" j in
      ignore (Metrics.of_json (member_exn "stats" "metrics" stats)))
    lines;
  (* The last snapshot saw the traffic. *)
  let last = Json.of_string (List.nth lines (List.length lines - 1)) in
  let snap =
    Metrics.of_json
      (member_exn "stats" "metrics" (member_exn "line" "stats" last))
  in
  Alcotest.(check bool)
    "final snapshot counted applies" true
    (Metrics.counter snap "server.applied" >= 8);
  (* A restarted writer appends rather than truncating. *)
  let tl2 =
    Telemetry.start ~loop:h.loop ~server:h.servers.(0) ~interval_ms:10.0
      ~path
  in
  Evloop.run_for h.loop 30.0;
  Telemetry.stop tl2;
  let n_after =
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> close_in ic);
    !n
  in
  Alcotest.(check bool)
    (Printf.sprintf "restart appends (%d > %d)" n_after (List.length lines))
    true
    (n_after > List.length lines);
  Sys.remove path;
  shutdown h

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "stats endpoint over live TCP cluster" `Quick
          test_stats_endpoint;
        Alcotest.test_case "prometheus exposition and health" `Quick
          test_prometheus_and_health;
        Alcotest.test_case "jsonl time-series writer" `Quick
          test_telemetry_writer;
      ] );
  ]

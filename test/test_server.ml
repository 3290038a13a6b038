(* Crash recovery of a gcs_server replica over a real in-process TCP
   cluster: a replica crash-stopped the way kill -9 would (its store
   dropped unsynced), restarted from its data directory and sponsored back
   in, must rejoin on the sponsor's full image and end with the same state
   as its peers.  The loopback smoke script drives the same path across
   processes; this brings it into the unit suite.  The same replica core
   also runs the path in virtual time, behind its simulator front door. *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Fstore = Gc_runtime_unix.Fstore
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics
module Replica = Gc_server.Replica
module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Storage = Gc_kernel.Storage
module Client = Gc_replication.Client

let nodes = 3
let lo = Unix.inet_addr_loopback
let initial = List.init nodes Fun.id

let start ~loop ~id ?join_via ~port dir =
  Server.create ~loop ~id ~initial
    ~config:
      (Stack.Config.make ~runtime:Stack.Config.Unix ~hb_period:25.0
         ~consensus_timeout:400.0 ())
    ?join_via ~storage:(Fstore.open_dir ~dir ()) ~snapshot_interval:50.0
    ~sync_replies:true
    ~peer_listen:(Unix.ADDR_INET (lo, port))
    ~client_listen:(Unix.ADDR_INET (lo, 0))
    ()

let set_peers servers =
  let peers =
    Array.to_list
      (Array.mapi (fun id s -> (id, Unix.ADDR_INET (lo, Server.peer_port s))) servers)
  in
  Array.iter (fun s -> Server.set_peers s peers) servers

let crash_rejoin dirs =
  let loop = Evloop.create () in
  let servers = Array.init nodes (fun id -> start ~loop ~id ~port:0 dirs.(id)) in
  set_peers servers;
  let replies = Hashtbl.create 64 in
  let connect s =
    Test_telemetry.connect_client ~loop ~port:(Server.client_port s)
      ~on_payload:(fun _ p ->
        match p with
        | Proto.Cl_reply { rid; ok; _ } -> Hashtbl.replace replies rid ok
        | _ -> ())
  in
  let conns = Array.map connect servers in
  let next_rid = ref 0 in
  (* [ops] writes spread over [targets], then wait for every reply. *)
  let write ~targets ~ops =
    for i = 0 to ops - 1 do
      let rid = !next_rid in
      incr next_rid;
      let target = List.nth targets (i mod List.length targets) in
      Fconn.send conns.(target)
        (if i mod 4 = 0 then
           Proto.Cl_put
             { rid; key = Printf.sprintf "k%d" (i mod 5); value = string_of_int rid }
         else Proto.Cl_incr { rid; key = "hits"; delta = 1 })
    done;
    Test_telemetry.pump_until loop ~what:"replies" (fun () ->
        Hashtbl.length replies = !next_rid);
    Alcotest.(check bool) "every op accepted" true
      (Hashtbl.fold (fun _ ok acc -> ok && acc) replies true)
  in
  write ~targets:[ 0; 1; 2 ] ~ops:60;
  (* Let a few periodic snapshots cover and truncate the log, then write
     on: replica 2 reboots from a snapshot plus a log suffix. *)
  let until = Evloop.now loop +. 150.0 in
  Test_telemetry.pump_until loop ~what:"snapshots" (fun () ->
      Evloop.now loop >= until);
  write ~targets:[ 0; 1; 2 ] ~ops:30;
  (* kill -9: crash-stop the stack and drop the store without sync. *)
  let port = Server.peer_port servers.(2) in
  Stack.crash (Server.stack servers.(2));
  Fconn.close conns.(2);
  write ~targets:[ 0; 1 ] ~ops:40;
  servers.(2) <- start ~loop ~id:2 ~join_via:0 ~port dirs.(2);
  set_peers servers;
  Test_telemetry.pump_until loop ~what:"the restarted replica's listener"
    (fun () -> Server.client_port servers.(2) <> 0);
  conns.(2) <- connect servers.(2);
  write ~targets:[ 0; 1; 2 ] ~ops:30;
  let dump i = Kv.dump (Server.kv servers.(i)) in
  Test_telemetry.pump_until loop ~what:"equal dumps" (fun () ->
      dump 0 = dump 1 && dump 0 = dump 2);
  Alcotest.(check string) "replica 2 matches replica 0" (dump 0) (dump 2);
  Alcotest.(check bool) "sponsor served a full image" true
    (Metrics.counter (Server.metrics servers.(0)) "server.full_transfers" >= 1);
  Array.iter Fconn.close conns;
  Array.iter Server.shutdown servers

(* A client frame whose string length is a 9- or 10-byte varint once
   raised out of the decoder and the event loop, killing the server.  Each
   such frame is now a counted body-level reject: the server goes on
   answering another client, and the sender's own connection, whose
   framing is intact, stays usable (only framing corruption closes a
   connection). *)
let test_hostile_client_frame () =
  let loop = Evloop.create () in
  let servers = Test_telemetry.boot_cluster ~loop ~n:1 in
  let s = servers.(0) in
  let replies = Hashtbl.create 8 in
  let connect () =
    Test_telemetry.connect_client ~loop ~port:(Server.client_port s)
      ~on_payload:(fun _ p ->
        match p with
        | Proto.Cl_reply { rid; ok; _ } -> Hashtbl.replace replies rid ok
        | _ -> ())
  in
  let good = connect () and hostile = connect () in
  let ask conn p rid =
    Fconn.send conn p;
    Test_telemetry.pump_until loop ~what:(Printf.sprintf "reply %d" rid)
      (fun () -> Hashtbl.mem replies rid);
    Alcotest.(check bool) (Printf.sprintf "request %d answered ok" rid) true
      (Hashtbl.find replies rid)
  in
  ask good (Proto.Cl_put { rid = 0; key = "k"; value = "v0" }) 0;
  ask hostile (Proto.Cl_dump { rid = 1 }) 1;
  let rejects () = Metrics.counter (Server.metrics s) "net.frame_reject" in
  let before = rejects () in
  let bodies = Test_wire.hostile_bodies () in
  List.iter
    (fun (_, body) ->
      let f = Test_wire.frame_of_body body in
      ignore (Unix.write_substring (Fconn.fd hostile) f 0 (String.length f)))
    bodies;
  Test_telemetry.pump_until loop ~what:"the hostile frames' rejects" (fun () ->
      rejects () >= before + List.length bodies);
  Alcotest.(check int) "every hostile frame rejected"
    (before + List.length bodies) (rejects ());
  ask good (Proto.Cl_put { rid = 2; key = "k"; value = "v2" }) 2;
  ask hostile (Proto.Cl_dump { rid = 3 }) 3;
  Fconn.close good;
  Fconn.close hostile;
  Array.iter Server.shutdown servers

let test_crash_rejoin_full_image () =
  let dirs = Array.init nodes (fun _ -> Test_storage.temp_dir ()) in
  Fun.protect
    ~finally:(fun () -> Array.iter Test_storage.rm_rf dirs)
    (fun () -> crash_rejoin dirs)

(* The same crash-restart-rejoin in the simulator: three replicas on
   in-memory stores take mixed load from three clients, one of which
   starts at replica 2 and one of which only knows replica 2.  Replica 2
   is killed under load, restarted on its store (the replica bumps its
   boot epoch from the stored one) and sponsored back in by replica 0.
   Every request must be answered and every replica must end with the
   same state. *)
let test_sim_crash_rejoin () =
  let engine = Engine.create ~seed:5L () in
  let trace = Gc_sim.Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:(nodes + 3) () in
  let stores = Array.init nodes (fun _ -> Storage.in_memory ()) in
  let start ?join_via id =
    Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial
      ?join_via ~storage:stores.(id) ()
  in
  let replicas = Array.init nodes (fun id -> start id) in
  let client id targets =
    Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~replicas:targets ()
  in
  let via_0 = client nodes [ 0; 1; 2 ] and via_2 = client (nodes + 1) [ 2; 1; 0 ] in
  let only_2 = client (nodes + 2) [ 2 ] in
  let requested = ref 0 and answered = ref 0 in
  (* [ops] requests from [clients] in turn, one every 5 ms from [at]. *)
  let load ~at ~ops clients =
    for i = 0 to ops - 1 do
      let c = List.nth clients (i mod List.length clients) in
      let k = !requested in
      incr requested;
      let cmd =
        if k mod 4 = 0 then
          Proto.Cl_put { rid = 0; key = Printf.sprintf "k%d" (k mod 5); value = string_of_int k }
        else Proto.Cl_incr { rid = 0; key = "hits"; delta = 1 }
      in
      ignore
        (Engine.schedule engine ~delay:(at +. (5.0 *. float_of_int i)) (fun () ->
             Client.request c ~cmd ~on_reply:(fun _ ~latency:_ -> incr answered)))
    done
  in
  load ~at:300.0 ~ops:300 [ via_0; via_2 ];
  ignore
    (Engine.schedule engine ~delay:1_000.0 (fun () ->
         Stack.crash (Replica.stack replicas.(2))));
  load ~at:2_000.0 ~ops:100 [ via_0; via_2 ];
  ignore
    (Engine.schedule engine ~delay:3_000.0 (fun () ->
         Netsim.recover net 2;
         replicas.(2) <- start ~join_via:0 2));
  load ~at:4_000.0 ~ops:150 [ via_0; via_2; only_2 ];
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "every request answered" !requested !answered;
  let dump i = Kv.dump (Replica.kv replicas.(i)) in
  Alcotest.(check string) "replica 1 matches replica 0" (dump 0) (dump 1);
  Alcotest.(check string) "replica 2 matches replica 0" (dump 0) (dump 2);
  Alcotest.(check bool) "replica 2 replayed its log" true
    (Metrics.counter (Replica.metrics replicas.(2)) "server.recovered_ops" > 0);
  Alcotest.(check bool) "the restarted replica served clients" true
    (Metrics.counter (Replica.metrics replicas.(2)) "server.applied" > 0
    && Metrics.hist_count (Replica.metrics replicas.(2)) "server.latency_ms" > 0)

(* Replica 2 is killed and restarted before monitoring excludes it, so
   replica 0 resyncs it while ordered ops keep running through replica 0.
   Consensus decisions that race ahead of the state transfer carry stage
   cuts; they must reach generic broadcast at the transferred stage.  A
   replica left in an old stage applies only its own cuts from then on,
   and its acks never count, so no commuting op through it is answered. *)
let test_sim_restart_under_ordered_load () =
  let engine = Engine.create ~seed:1L () in
  let trace = Gc_sim.Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:(nodes + 2) () in
  let stores = Array.init nodes (fun _ -> Storage.in_memory ()) in
  let start ?join_via id =
    Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial
      ?join_via ~storage:stores.(id) ()
  in
  let replicas = Array.init nodes (fun id -> start id) in
  let client id target =
    Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~replicas:[ target ] ()
  in
  let via_0 = client nodes 0 and via_2 = client (nodes + 1) 2 in
  let requested = ref 0 and answered = ref 0 in
  (* [ops] requests from [c], one every [every] ms from [at]. *)
  let load ~at ~ops ~every c cmd =
    for i = 0 to ops - 1 do
      incr requested;
      ignore
        (Engine.schedule engine ~delay:(at +. (every *. float_of_int i)) (fun () ->
             Client.request c ~cmd:(cmd i) ~on_reply:(fun _ ~latency:_ ->
                 incr answered)))
    done
  in
  let put i =
    Proto.Cl_put
      { rid = 0; key = Printf.sprintf "k%d" (i mod 5); value = string_of_int i }
  in
  let incr_hits _ = Proto.Cl_incr { rid = 0; key = "hits"; delta = 1 } in
  load ~at:300.0 ~ops:200 ~every:3.0 via_0 (fun i ->
      if i mod 3 = 0 then put i else incr_hits i);
  ignore
    (Engine.schedule engine ~delay:1_000.0 (fun () ->
         Stack.crash (Replica.stack replicas.(2))));
  load ~at:1_100.0 ~ops:800 ~every:3.0 via_0 put;
  ignore
    (Engine.schedule engine ~delay:1_500.0 (fun () ->
         Netsim.recover net 2;
         replicas.(2) <- start ~join_via:0 2));
  let gb i = Stack.generic_broadcast (Replica.stack replicas.(i)) in
  let fast () = Gc_gbcast.Generic_broadcast.fast_delivered_count (gb 2) in
  let fast_before = ref 0 in
  ignore
    (Engine.schedule engine ~delay:5_900.0 (fun () -> fast_before := fast ()));
  let commuting = 200 in
  load ~at:6_000.0 ~ops:commuting ~every:5.0 via_2 incr_hits;
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "every request answered" !requested !answered;
  let stage i = Gc_gbcast.Generic_broadcast.stage (gb i) in
  Alcotest.(check int) "replica 2 in replica 0's stage" (stage 0) (stage 2);
  Alcotest.(check int) "commuting ops through replica 2 fast" commuting
    (fast () - !fast_before);
  let dump i = Kv.dump (Replica.kv replicas.(i)) in
  Alcotest.(check string) "replica 2 matches replica 0" (dump 0) (dump 2)

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "a hostile client frame is rejected, not fatal"
          `Quick test_hostile_client_frame;
        Alcotest.test_case "crash and rejoin on the full image" `Quick
          test_crash_rejoin_full_image;
        Alcotest.test_case "crash and rejoin in virtual time" `Quick
          test_sim_crash_rejoin;
        Alcotest.test_case "restart under ordered load keeps the stage" `Quick
          test_sim_restart_under_ordered_load;
      ] );
  ]

(* Crash recovery of a gcs_server replica over a real in-process TCP
   cluster: a replica crash-stopped the way kill -9 would (its store
   dropped unsynced), restarted from its data directory and sponsored back
   in, must rejoin on the sponsor's full image and end with the same state
   as its peers.  The loopback smoke script drives the same path across
   processes; this brings it into the unit suite. *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Fstore = Gc_runtime_unix.Fstore
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics

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

let test_crash_rejoin_full_image () =
  let dirs = Array.init nodes (fun _ -> Test_storage.temp_dir ()) in
  Fun.protect
    ~finally:(fun () -> Array.iter Test_storage.rm_rf dirs)
    (fun () -> crash_rejoin dirs)

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "crash and rejoin on the full image" `Quick
          test_crash_rejoin_full_image;
      ] );
  ]

module Runtime_unix = Gc_runtime_unix.Runtime_unix
module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Stack = Gcs.Gcs_stack
module View = Gc_membership.View
module Process = Gc_kernel.Process
module Storage = Gc_kernel.Storage
module Json = Gc_obs.Json

type t = {
  id : int;
  endpoint : Runtime_unix.t;
  stack : Stack.t;
  kv : Kv.t;
  storage : Storage.t option;
  incarnation : int;
      (* bumped (and durably persisted) once per boot before serving, so
         this boot's opids can never collide with an in-flight pre-crash
         submission that later gets delivered *)
  persist : unit -> unit; (* snapshot kv+incarnation into the storage slot *)
  metrics : Gc_obs.Metrics.t;
  log : string -> unit;
  sync_replies : bool;
      (* acked-means-durable: fsync the delivery log before answering a
         client, instead of relying on the group-commit timer *)
  mutable next_opid : int;
  pending : (int, Fconn.t * int * float) Hashtbl.t;
      (* opid -> submitting conn, rid, submit time (runtime clock) *)
  mutable clients : Fconn.t list;
  mutable client_listener : Unix.file_descr option;
  loop : Evloop.t;
  started_at : float; (* runtime clock at creation, for uptime *)
}

let id t = t.id
let stack t = t.stack
let kv t = t.kv
let metrics t = t.metrics
let peer_port t = Runtime_unix.port t.endpoint

(* The runtime clock capability: wall-clock under the unix backend,
   virtual time under the simulator — so latency stamps perturb
   neither. *)
let now_ms t = Process.now (Stack.process t.stack)

let client_port t =
  match t.client_listener with Some s -> Fconn.bound_port s | None -> 0

let set_peers t peers = Runtime_unix.set_peers t.endpoint peers

let reply conn ~rid ~ok body =
  if not (Fconn.closed conn) then
    Fconn.send conn (Proto.Cl_reply { rid; ok; body })

let submit t conn ~rid op =
  let seq = t.next_opid in
  t.next_opid <- seq + 1;
  (* Incarnation-scoped opids: the sequence restarts at 0 every boot, the
     incarnation never repeats, so (origin, opid) is unique across
     crashes. *)
  let opid = Gc_kernel.Delivered_set.first_seq ~epoch:t.incarnation + seq in
  Hashtbl.replace t.pending opid (conn, rid, now_ms t);
  let envelope = Proto.Sv_op { origin = t.id; opid; op } in
  if Proto.op_commutes op then Stack.rbcast t.stack envelope
  else Stack.abcast t.stack envelope

(* ---------- telemetry bodies ---------- *)

let uptime_ms t = now_ms t -. t.started_at

let kv_json t : Json.t =
  Obj
    [
      ("order_digest", Str (Kv.order_digest t.kv));
      ("state_digest", Str (Kv.state_digest t.kv));
      ("ordered", Num (float_of_int (Kv.ordered_count t.kv)));
      ("commuting", Num (float_of_int (Kv.commuting_count t.kv)));
    ]

let view_json t : Json.t =
  let v = Stack.view t.stack in
  Obj
    [
      ("vid", Num (float_of_int v.View.vid));
      ( "members",
        Arr (List.map (fun m -> Json.Num (float_of_int m)) v.View.members) );
    ]

let conns_json t : Json.t =
  Arr
    (List.rev_map
       (fun conn ->
         let s = Fconn.stats conn in
         Json.Obj
           [
             ("bytes_in", Num (float_of_int s.Fconn.bytes_in));
             ("bytes_out", Num (float_of_int s.Fconn.bytes_out));
             ("frames_in", Num (float_of_int s.Fconn.frames_in));
             ("frames_out", Num (float_of_int s.Fconn.frames_out));
           ])
       t.clients)

let stats_json t : Json.t =
  Obj
    [
      ("node", Num (float_of_int t.id));
      ("now_ms", Num (now_ms t));
      ("uptime_ms", Num (uptime_ms t));
      ("kv", kv_json t);
      ("view", view_json t);
      ("clients", conns_json t);
      ("metrics", Gc_obs.Metrics.to_json t.metrics);
    ]

let health_json t : Json.t =
  let v = Stack.view t.stack in
  Obj
    [
      ("node", Num (float_of_int t.id));
      ("alive", Bool (Stack.alive t.stack));
      ("joined", Bool (Stack.joined t.stack));
      ("vid", Num (float_of_int v.View.vid));
      ("members", Num (float_of_int (List.length v.View.members)));
      ("clients", Num (float_of_int (List.length t.clients)));
      ("uptime_ms", Num (uptime_ms t));
    ]

let stats_body t format =
  match format with
  | Proto.Stats_json -> Json.to_string (stats_json t)
  | Proto.Stats_prometheus ->
      let labels = [ ("node", string_of_int t.id) ] in
      Gc_obs.Metrics.to_prometheus ~labels t.metrics
      (* Digests ride as an info-style gauge: constant value, identifying
         labels — hex-only values, nothing to escape. *)
      ^ Printf.sprintf
          "# TYPE gcs_kv_info gauge\n\
           gcs_kv_info{node=\"%d\",order_digest=\"%s\",state_digest=\"%s\"} 1\n"
          t.id (Kv.order_digest t.kv) (Kv.state_digest t.kv)

let health_body t = Json.to_string (health_json t)

let on_client_payload t conn payload =
  match payload with
  | Proto.Cl_put { rid; key; value } ->
      submit t conn ~rid (Proto.Put { key; value })
  | Proto.Cl_incr { rid; key; delta } ->
      submit t conn ~rid (Proto.Incr { key; delta })
  | Proto.Cl_get { rid; key } -> (
      match Kv.get t.kv key with
      | Some value -> reply conn ~rid ~ok:true value
      | None -> reply conn ~rid ~ok:false "not found")
  | Proto.Cl_dump { rid } -> reply conn ~rid ~ok:true (Kv.dump t.kv)
  | Proto.Cl_stats { rid; format } ->
      Gc_obs.Metrics.incr t.metrics "server.stats_requests";
      reply conn ~rid ~ok:true (stats_body t format)
  | Proto.Cl_health { rid } ->
      Gc_obs.Metrics.incr t.metrics "server.health_requests";
      reply conn ~rid ~ok:true (health_body t)
  | _ -> Gc_obs.Metrics.incr t.metrics "server.bad_request"

let on_delivery t ~origin:_ ~ordered payload =
  match payload with
  | Proto.Sv_op { origin; opid; op } -> (
      match Kv.apply t.kv ~origin ~opid ~ordered op with
      | None ->
          (* Already applied during log replay or by the installed image —
             the live delivery raced the state transfer.  Skip, don't
             double-apply. *)
          Gc_obs.Metrics.incr t.metrics "server.dup_ops_skipped"
      | Some result ->
          Gc_obs.Metrics.incr t.metrics "server.applied";
          if origin = t.id then
            match Hashtbl.find_opt t.pending opid with
            | Some (conn, rid, submitted) ->
                Hashtbl.remove t.pending opid;
                (* Client-visible submit->deliver latency at the serving
                   replica, split by ordering primitive. *)
                let lat = now_ms t -. submitted in
                Gc_obs.Metrics.observe t.metrics "server.latency_ms" lat;
                Gc_obs.Metrics.observe t.metrics
                  (if ordered then "server.latency_abcast_ms"
                   else "server.latency_rbcast_ms")
                  lat;
                (* Acked-means-durable mode: the delivery was appended to the
                   log just before this callback ran, so one sync here makes
                   the acknowledged op crash-proof before the client hears
                   about it. *)
                (if t.sync_replies then
                   match t.storage with
                   | Some store ->
                       Storage.sync store;
                       Gc_obs.Metrics.incr t.metrics "server.reply_syncs"
                   | None -> ());
                reply conn ~rid ~ok:true result
            | None -> ())
  | _ -> Gc_obs.Metrics.incr t.metrics "server.bad_delivery"

let accept_client t sock _addr =
  Gc_obs.Metrics.incr t.metrics "server.client_accepts";
  t.log "client connected";
  let conn =
    Fconn.attach ~loop:t.loop ~metrics:t.metrics sock
      ~on_payload:(fun conn p -> on_client_payload t conn p)
      ~on_close:(fun conn ->
        t.clients <- List.filter (fun c -> c != conn) t.clients;
        t.log "client disconnected")
  in
  t.clients <- conn :: t.clients

(* ---------- crash recovery ---------- *)

(* The durable snapshot slot holds the incarnation alongside the KV image:
   both must move together (a KV state without the incarnation that
   produced its applied-set would let a rebooted node mint colliding
   opids). *)
let persist_blob kv incarnation =
  let w = Buffer.create 1024 in
  Gc_net.Wire.varint w incarnation;
  Gc_net.Wire.str w (Kv.to_blob kv);
  Buffer.contents w

let create ~loop ~id ~initial ?config ?metrics ?(log = ignore) ?join_via
    ?storage ?(snapshot_interval = 10_000.0) ?(sync_interval = 1_000.0)
    ?(sync_replies = false) ~peer_listen ~client_listen () =
  let metrics =
    match metrics with Some m -> m | None -> Gc_obs.Metrics.create ()
  in
  (* Recovery runs before the stack exists: rebuild the KV from the durable
     snapshot plus the log suffix, bump the incarnation, and persist the
     bump before a single client request can be accepted. *)
  let kv = Kv.create () in
  let incarnation = ref 0 in
  let had_state = ref false in
  let persist () =
    match storage with
    | None -> ()
    | Some store ->
        let _, next = Storage.extent store in
        Storage.save_snapshot store ~index:next (persist_blob kv !incarnation);
        Storage.sync store
  in
  (match storage with
  | None -> ()
  | Some store ->
      let t0 = Unix.gettimeofday () in
      let replay_from =
        match Storage.load_snapshot store with
        | Some (index, blob) ->
            had_state := true;
            (try
               let r = Gc_net.Wire.reader blob in
               incarnation := Gc_net.Wire.read_varint r;
               Kv.restore kv (Gc_net.Wire.read_str r)
             with Gc_net.Wire.Short ->
               Gc_obs.Metrics.incr metrics "server.bad_delivery");
            index
        | None -> 0
      in
      Storage.iter_from store replay_from (fun ~index:_ entry ->
          had_state := true;
          Resync.replay_entry ~kv ~metrics entry);
      incarnation := !incarnation + 1;
      persist ();
      Gc_obs.Metrics.observe metrics "server.recovery_ms"
        ((Unix.gettimeofday () -. t0) *. 1000.);
      log
        (Printf.sprintf "recovered incarnation %d: %s" !incarnation
           (Kv.dump kv)));
  let app_state_provider () = Resync.provide ~kv ~metrics in
  (* Wired up once [t] exists: the installer runs long after [create]
     returns. *)
  let open_listener = ref (fun () -> ()) in
  let app_state_installer payload =
    if Resync.install ~kv ~metrics payload then begin
      (* An installed state must be durable before we serve on top of it —
         otherwise a crash right after the join replays an empty log over a
         stale snapshot. *)
      persist ();
      !open_listener ()
    end
  in
  let endpoint = Runtime_unix.create ~loop ~me:id ~metrics ~listen:peer_listen () in
  let config =
    match config with
    | Some c -> c
    | None -> Stack.Config.make ~runtime:Stack.Config.Unix ()
  in
  (* A replica recovering with a sponsor available comes back as a passive
     joiner: listing itself in the founding view would have the rebuilt
     stack participate from protocol position zero — re-running decided
     consensus instances and re-delivering the prefix — before the resync
     snapshot lands.  Dropping itself keeps every layer quiescent until the
     sponsor's snapshot bootstraps it at the group's current position.
     With no sponsor (first boot, or a full-cluster restart where everyone
     resumes from its own log) it must keep its seat or nobody serves. *)
  let stack_initial =
    if !had_state && join_via <> None then List.filter (fun p -> p <> id) initial
    else initial
  in
  let stack =
    Stack.create (Runtime_unix.runtime endpoint) ~metrics ~id ~initial:stack_initial
      ~config ~app_state_provider ~app_state_installer ?storage
      ~boot_epoch:!incarnation ()
  in
  let t =
    {
      id;
      endpoint;
      stack;
      kv;
      storage;
      incarnation = !incarnation;
      persist;
      metrics;
      log;
      sync_replies;
      next_opid = 0;
      pending = Hashtbl.create 64;
      clients = [];
      client_listener = None;
      loop;
      started_at = Process.now (Stack.process stack);
    }
  in
  (open_listener :=
     fun () ->
       if t.client_listener = None then begin
         t.client_listener <-
           Some
             (Fconn.listen ~loop client_listen ~on_accept:(fun fd addr ->
                  accept_client t fd addr));
         log (Printf.sprintf "serving clients on port %d" (client_port t))
       end);
  (* A founding member (or a lone log-recovered restart) serves clients
     immediately; a joiner defers its listener until the resync install
     lands, so no op can be submitted into the pre-join window where its
     reply would never come. *)
  if join_via = None then !open_listener ();
  Stack.on_deliver stack (fun ~origin ~ordered payload ->
      on_delivery t ~origin ~ordered payload);
  Stack.on_view stack (fun view ->
      log
        (Printf.sprintf "view %d: {%s}" view.View.vid
           (String.concat "," (List.map string_of_int view.View.members))));
  (match storage with
  | None -> ()
  | Some store ->
      let proc = Stack.process stack in
      (* Periodic snapshot + prefix truncation keeps replay bounded.  Gb
         logs each entry write-ahead of [Kv.apply], in the same callback,
         so the snapshot covers every logged entry and the whole prefix
         can go. *)
      ignore
        (Process.every proc ~period:snapshot_interval (fun () ->
             persist ();
             Storage.truncate_before store (snd (Storage.extent store))));
      (* Group-commit heartbeat: bounds the window of acknowledged-but-
         unsynced log entries lost to a power cut to [sync_interval]. *)
      ignore
        (Process.every proc ~period:sync_interval (fun () ->
             Storage.sync store)));
  (* Force the join in case peers still list us from before the crash. *)
  Option.iter (fun via -> Stack.join stack ~force:!had_state ~via) join_via;
  t

let shutdown t =
  (match t.client_listener with
  | Some sock ->
      Evloop.forget t.loop sock;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      t.client_listener <- None
  | None -> ());
  List.iter Fconn.close t.clients;
  t.clients <- [];
  (* Orderly stack teardown flushes the submission/ack batchers and syncs
     the log — a request accepted just before shutdown still replicates. *)
  Stack.shutdown t.stack;
  (match t.storage with
  | Some store ->
      t.persist ();
      Storage.close store
  | None -> ());
  Runtime_unix.shutdown t.endpoint

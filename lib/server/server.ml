module Runtime_unix = Gc_runtime_unix.Runtime_unix
module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Stack = Gcs.Gcs_stack
module View = Gc_membership.View
module Process = Gc_kernel.Process
module Json = Gc_obs.Json

type t = {
  replica : Fconn.t Replica.t;
  endpoint : Runtime_unix.t;
  mutable clients : Fconn.t list;
  mutable client_listener : Unix.file_descr option;
  loop : Evloop.t;
  started_at : float; (* runtime clock at creation, for uptime *)
}

let id t = Replica.id t.replica
let stack t = Replica.stack t.replica
let kv t = Replica.kv t.replica
let metrics t = Replica.metrics t.replica
let peer_port t = Runtime_unix.port t.endpoint
let now_ms t = Process.now (Stack.process (stack t))

let client_port t =
  match t.client_listener with Some s -> Fconn.bound_port s | None -> 0

let set_peers t peers = Runtime_unix.set_peers t.endpoint peers

let reply conn ~rid ~ok body =
  if not (Fconn.closed conn) then
    Fconn.send conn (Proto.Cl_reply { rid; ok; body })

(* ---------- telemetry bodies ---------- *)

let uptime_ms t = now_ms t -. t.started_at

let kv_json t : Json.t =
  Obj
    [
      ("order_digest", Str (Kv.order_digest (kv t)));
      ("state_digest", Str (Kv.state_digest (kv t)));
      ("ordered", Num (float_of_int (Kv.ordered_count (kv t))));
      ("commuting", Num (float_of_int (Kv.commuting_count (kv t))));
    ]

let view_json t : Json.t =
  let v = Stack.view (stack t) in
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
      ("node", Num (float_of_int (id t)));
      ("now_ms", Num (now_ms t));
      ("uptime_ms", Num (uptime_ms t));
      ("kv", kv_json t);
      ("view", view_json t);
      ("clients", conns_json t);
      ("metrics", Gc_obs.Metrics.to_json (metrics t));
    ]

let health_json t : Json.t =
  let v = Stack.view (stack t) in
  Obj
    [
      ("node", Num (float_of_int (id t)));
      ("alive", Bool (Stack.alive (stack t)));
      ("joined", Bool (Stack.joined (stack t)));
      ("vid", Num (float_of_int v.View.vid));
      ("members", Num (float_of_int (List.length v.View.members)));
      ("clients", Num (float_of_int (List.length t.clients)));
      ("uptime_ms", Num (uptime_ms t));
    ]

let stats_body t format =
  match format with
  | Proto.Stats_json -> Json.to_string (stats_json t)
  | Proto.Stats_prometheus ->
      let labels = [ ("node", string_of_int (id t)) ] in
      Gc_obs.Metrics.to_prometheus ~labels (metrics t)
      (* Digests ride as an info-style gauge: constant value, identifying
         labels — hex-only values, nothing to escape. *)
      ^ Printf.sprintf
          "# TYPE gcs_kv_info gauge\n\
           gcs_kv_info{node=\"%d\",order_digest=\"%s\",state_digest=\"%s\"} 1\n"
          (id t) (Kv.order_digest (kv t)) (Kv.state_digest (kv t))

let health_body t = Json.to_string (health_json t)

let on_client_payload t conn payload =
  match payload with
  | Proto.Cl_put { rid; key; value } ->
      Replica.submit t.replica conn ~rid (Proto.Put { key; value })
  | Proto.Cl_incr { rid; key; delta } ->
      Replica.submit t.replica conn ~rid (Proto.Incr { key; delta })
  | Proto.Cl_get { rid; key } -> (
      match Kv.get (kv t) key with
      | Some value -> reply conn ~rid ~ok:true value
      | None -> reply conn ~rid ~ok:false "not found")
  | Proto.Cl_dump { rid } -> reply conn ~rid ~ok:true (Kv.dump (kv t))
  | Proto.Cl_stats { rid; format } ->
      Gc_obs.Metrics.incr (metrics t) "server.stats_requests";
      reply conn ~rid ~ok:true (stats_body t format)
  | Proto.Cl_health { rid } ->
      Gc_obs.Metrics.incr (metrics t) "server.health_requests";
      reply conn ~rid ~ok:true (health_body t)
  | _ -> Gc_obs.Metrics.incr (metrics t) "server.bad_request"

let accept_client t ~log sock _addr =
  Gc_obs.Metrics.incr (metrics t) "server.client_accepts";
  log "client connected";
  let conn =
    Fconn.attach ~loop:t.loop ~metrics:(metrics t) sock
      ~on_payload:(fun conn p -> on_client_payload t conn p)
      ~on_close:(fun conn ->
        t.clients <- List.filter (fun c -> c != conn) t.clients;
        log "client disconnected")
  in
  t.clients <- conn :: t.clients

let create ~loop ~id ~initial ?config ?metrics ?(log = ignore) ?join_via
    ?storage ?snapshot_interval ?sync_replies ~peer_listen
    ~client_listen () =
  let metrics =
    match metrics with Some m -> m | None -> Gc_obs.Metrics.create ()
  in
  let endpoint =
    Runtime_unix.create ~loop ~me:id ~metrics ~listen:peer_listen ()
  in
  let config =
    match config with
    | Some c -> c
    | None -> Stack.Config.make ~runtime:Stack.Config.Unix ()
  in
  let replica =
    Replica.create (Runtime_unix.runtime endpoint) ~id ~initial ~config
      ~metrics ~log ?join_via ?storage ?snapshot_interval ?sync_replies
      ~reply ()
  in
  let t =
    {
      replica;
      endpoint;
      clients = [];
      client_listener = None;
      loop;
      started_at = Process.now (Stack.process (Replica.stack replica));
    }
  in
  (* A joiner defers its listener until the replica serves, so no op can
     be submitted into the pre-join window where its reply would never
     come. *)
  Replica.on_serving replica (fun () ->
      t.client_listener <-
        Some
          (Fconn.listen ~loop client_listen ~on_accept:(fun fd addr ->
               accept_client t ~log fd addr));
      log (Printf.sprintf "serving clients on port %d" (client_port t)));
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
  Replica.shutdown t.replica;
  Runtime_unix.shutdown t.endpoint

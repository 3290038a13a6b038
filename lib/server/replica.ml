module Stack = Gcs.Gcs_stack
module View = Gc_membership.View
module Process = Gc_kernel.Process
module Storage = Gc_kernel.Storage
module Rc = Gc_rchannel.Reliable_channel
module Rpc = Gc_replication.Rpc

type 'c pending = { client : 'c; rid : int; submitted : float }

type 'c t = {
  id : int;
  stack : Stack.t;
  kv : Kv.t;
  storage : Storage.t option;
  incarnation : int;
      (* bumped (and durably persisted) once per boot before serving, so
         this boot's opids can never collide with an in-flight pre-crash
         submission that later gets delivered *)
  metrics : Gc_obs.Metrics.t;
  sync_replies : bool;
      (* acked-means-durable: fsync the delivery log before answering a
         client, instead of relying on the group-commit timer *)
  reply : 'c -> rid:int -> ok:bool -> string -> unit;
  mutable next_opid : int;
  own : (int, 'c pending) Hashtbl.t; (* opid -> op named with [id] *)
  relayed : (int * int, 'c pending) Hashtbl.t;
      (* (origin, opid) -> op named with a client's id (simulator door) *)
  mutable serving : bool;
  mutable on_serving : (unit -> unit) list;
}

let id t = t.id
let stack t = t.stack
let kv t = t.kv
let metrics t = t.metrics

(* The runtime clock: wall-clock under the unix backend, virtual time
   under the simulator — so latency stamps perturb neither. *)
let now_ms t = Process.now (Stack.process t.stack)

let on_serving t f =
  if t.serving then f () else t.on_serving <- f :: t.on_serving

let start_serving t =
  if not t.serving then begin
    t.serving <- true;
    List.iter (fun f -> f ()) (List.rev t.on_serving);
    t.on_serving <- []
  end

let submit_as t client ~rid ~origin ~opid op =
  let p = { client; rid; submitted = now_ms t } in
  if origin = t.id then Hashtbl.replace t.own opid p
  else Hashtbl.replace t.relayed (origin, opid) p;
  let envelope = Proto.Sv_op { origin; opid; op } in
  if Proto.op_commutes op then Stack.rbcast t.stack envelope
  else Stack.abcast t.stack envelope

(* Incarnation-scoped opids: the sequence restarts at 0 every boot, the
   incarnation never repeats, so (origin, opid) is unique across
   crashes. *)
let submit t client ~rid op =
  let seq = t.next_opid in
  t.next_opid <- seq + 1;
  submit_as t client ~rid ~origin:t.id
    ~opid:(Gc_kernel.Delivered_set.first_seq ~epoch:t.incarnation + seq)
    op

let take tbl key =
  let found = Hashtbl.find_opt tbl key in
  if Option.is_some found then Hashtbl.remove tbl key;
  found

let answer t p ~ordered value =
  (* Client-visible submit->deliver latency at the serving replica, split
     by ordering primitive. *)
  let lat = now_ms t -. p.submitted in
  Gc_obs.Metrics.observe t.metrics "server.latency_ms" lat;
  Gc_obs.Metrics.observe t.metrics
    (if ordered then "server.latency_abcast_ms" else "server.latency_rbcast_ms")
    lat;
  (* The delivery was appended to the log just before this callback ran,
     so one sync makes the acknowledged op crash-proof before the client
     hears about it. *)
  (match t.storage with
  | Some store when t.sync_replies ->
      Storage.sync store;
      Gc_obs.Metrics.incr t.metrics "server.reply_syncs"
  | _ -> ());
  t.reply p.client ~rid:p.rid ~ok:true value

let on_delivery t ~ordered payload =
  match payload with
  | Proto.Sv_op { origin; opid; op } -> (
      (* [None]: already applied by log replay, by an installed image the
         delivery raced, or under the same name before a client's retry
         resubmitted it.  Never apply twice. *)
      let result = Kv.apply t.kv ~origin ~opid ~ordered op in
      Gc_obs.Metrics.incr t.metrics
        (match result with
        | None -> "server.dup_ops_skipped"
        | Some _ -> "server.applied");
      let pending =
        if origin = t.id then take t.own opid
        else if Hashtbl.length t.relayed = 0 then None
        else take t.relayed (origin, opid)
      in
      match (pending, result) with
      | None, _ -> ()
      | Some p, Some value -> answer t p ~ordered value
      | Some p, None ->
          let (Proto.Put { key; _ } | Proto.Incr { key; _ }) = op in
          answer t p ~ordered (Option.value ~default:"" (Kv.get t.kv key)))
  | _ -> Gc_obs.Metrics.incr t.metrics "server.bad_delivery"

(* ---------- crash recovery ---------- *)

(* The durable snapshot slot holds the incarnation alongside the KV image:
   both must move together (a KV state without the incarnation that
   produced its applied-set would let a rebooted node mint colliding
   opids). *)
let save store kv incarnation =
  let w = Buffer.create 1024 in
  Gc_net.Wire.varint w incarnation;
  Gc_net.Wire.str w (Kv.to_blob kv);
  Storage.save_snapshot store ~index:(snd (Storage.extent store))
    (Buffer.contents w);
  Storage.sync store

(* Rebuild [kv] from the durable snapshot plus the log suffix; returns the
   stored incarnation and whether the store held any state. *)
let recover ~kv ~metrics store =
  let incarnation = ref 0 and had_state = ref false in
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
  (!incarnation, !had_state)

(* Group-commit period, ms: bounds the acknowledged-but-unsynced log a
   power cut can lose. *)
let sync_interval = 1_000.0

let create (runtime : Gc_kernel.Runtime.t) ~id ~initial ?config ?metrics
    ?(log = ignore) ?join_via ?storage ?(snapshot_interval = 10_000.0)
    ?(sync_replies = false) ~reply () =
  let metrics =
    match metrics with Some m -> m | None -> Gc_obs.Metrics.create ()
  in
  (* Recovery runs before the stack exists: rebuild the KV, bump the
     incarnation, and persist the bump before any op can be accepted. *)
  let kv = Kv.create () in
  let incarnation, had_state =
    match storage with
    | None -> (0, false)
    | Some store ->
        let t0 = runtime.now () in
        let stored, had_state = recover ~kv ~metrics store in
        save store kv (stored + 1);
        Gc_obs.Metrics.observe metrics "server.recovery_ms"
          (runtime.now () -. t0);
        log
          (Printf.sprintf "recovered incarnation %d: %s" (stored + 1)
             (Kv.dump kv));
        (stored + 1, had_state)
  in
  let persist () = Option.iter (fun store -> save store kv incarnation) storage in
  (* Set once [t] exists: the installer runs long after [create] returns. *)
  let installed = ref ignore in
  let app_state_installer payload =
    (* An installed state must be durable before we serve on top of it —
       otherwise a crash right after the join replays an empty log over a
       stale snapshot. *)
    if Resync.install ~kv ~metrics payload then begin
      persist ();
      !installed ()
    end
  in
  (* A replica recovering with a sponsor available comes back as a passive
     joiner: listing itself in the founding view would have the rebuilt
     stack participate from protocol position zero — re-running decided
     consensus instances and re-delivering the prefix — before the resync
     snapshot lands.  With no sponsor (first boot, or a full-cluster
     restart where everyone resumes from its own log) it must keep its
     seat or nobody serves. *)
  let stack_initial =
    if had_state && join_via <> None then List.filter (fun p -> p <> id) initial
    else initial
  in
  let stack =
    Stack.create runtime ~metrics ~id ~initial:stack_initial ?config
      ~app_state_provider:(fun () -> Resync.provide ~kv ~metrics)
      ~app_state_installer ?storage ~boot_epoch:incarnation ()
  in
  let t =
    {
      id;
      stack;
      kv;
      storage;
      incarnation;
      metrics;
      sync_replies;
      reply;
      next_opid = 0;
      own = Hashtbl.create 64;
      relayed = Hashtbl.create 8;
      serving = false;
      on_serving = [];
    }
  in
  (installed := fun () -> start_serving t);
  Stack.on_deliver stack (fun ~origin:_ ~ordered payload ->
      on_delivery t ~ordered payload);
  Stack.on_view stack (fun view ->
      log
        (Printf.sprintf "view %d: {%s}" view.View.vid
           (String.concat "," (List.map string_of_int view.View.members))));
  Option.iter
    (fun store ->
      let proc = Stack.process stack in
      (* Periodic snapshot + prefix truncation keeps replay bounded: Gb
         logs each entry write-ahead of [Kv.apply], in the same callback,
         so the snapshot covers every logged entry. *)
      ignore
        (Process.every proc ~period:snapshot_interval (fun () ->
             persist ();
             Storage.truncate_before store (snd (Storage.extent store))));
      ignore
        (Process.every proc ~period:sync_interval (fun () ->
             Storage.sync store)))
    storage;
  if join_via = None then start_serving t;
  (* Force the join in case peers still list us from before the crash. *)
  Option.iter (fun via -> Stack.join stack ~force:had_state ~via) join_via;
  t

(* Orderly teardown flushes the submission/ack batchers and syncs the log:
   an op accepted just before shutdown still replicates. *)
let shutdown t =
  Stack.shutdown t.stack;
  Option.iter
    (fun store ->
      save store t.kv t.incarnation;
      Storage.close store)
    t.storage

(* ---------- the simulator's front door ---------- *)

let create_rpc runtime ~id ~initial ?config ?join_via ?storage () =
  (* The reply path needs the stack's channel, built inside [create]. *)
  let chan = ref None in
  let reply cid ~rid ~ok body =
    Option.iter
      (fun rc ->
        Rc.send rc ~dst:cid
          (Rpc.Rep { rid; result = Proto.Cl_reply { rid; ok; body } }))
      !chan
  in
  let t = create runtime ~id ~initial ?config ?join_via ?storage ~reply () in
  let rc = Stack.reliable_channel t.stack in
  chan := Some rc;
  on_serving t (fun () ->
      Rc.on_deliver rc (fun ~src:_ payload ->
          match payload with
          | Rpc.Req { cid; rid; cmd = Proto.Cl_put { key; value; _ } } ->
              submit_as t cid ~rid ~origin:cid ~opid:rid (Proto.Put { key; value })
          | Rpc.Req { cid; rid; cmd = Proto.Cl_incr { key; delta; _ } } ->
              submit_as t cid ~rid ~origin:cid ~opid:rid (Proto.Incr { key; delta })
          | Rpc.Req _ -> Gc_obs.Metrics.incr t.metrics "server.bad_request"
          | _ -> ()));
  t

(* Loopback-cluster benchmark program.

   One process boots a three-replica [Gc_server.Server] cluster on one
   [Evloop] over 127.0.0.1 (no injected delay: latency is CPU and queueing
   time) and drives it through two client connections, attached to
   replicas 0 and 1.  One invocation is one measurement:

   - set-up, repeated [setups] times on fresh clusters: boot to the first
     answered op; the last cluster is the one measured;
   - [warmup_ms] of open-loop arrivals (a Poisson schedule drawn from the
     seed, every op timed from the moment it was due), not measured;
   - [durable] only: replica 2 is killed (crash-stop, its store dropped
     unsynced, as kill -9 would) and restarted from its data directory
     under the same load, until it serves a client again;
   - the fixed-rate window: 60% of [--seconds] of open-loop arrivals;
   - a closed loop with [window_per_conn] ops in flight per connection
     for the remaining 40%, for capacity;
   - a drain and the correctness gate.

   The [durable] workload runs every replica on an [Fstore] data directory
   with acked-means-durable replies.

   With [--trace 1] the run also installs taps on public seams — a timing
   wrapper around each replica's [Storage.t] record, a
   [Process.on_receive] tap that re-encodes sampled inbound traffic, a
   [Gcs_stack.on_deliver] tap, an [Evloop] with a metrics registry — and
   reports per-layer figures over the fixed-rate window.  The layers' own
   [Gc_obs.Metrics] counters are read, never written: the benchmark's
   timings live in its own sample buffers.

   Output: one JSON object on the last line of stdout (see run.py). *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Fstore = Gc_runtime_unix.Fstore
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Stack = Gcs.Gcs_stack
module Storage = Gc_kernel.Storage
module Process = Gc_kernel.Process
module Payload = Gc_net.Payload
module Metrics = Gc_obs.Metrics
module Json = Gc_obs.Json

(* ---------- parameters ---------- *)

type spec = {
  rate : float;  (** open-loop arrivals, op/s *)
  put_pct : int;  (** share of [Cl_put] *)
  get_pct : int;  (** share of [Cl_get]; the rest is [Cl_incr] *)
  durable : bool;  (** Fstore + sync_replies + a kill of replica 2 *)
}

let spec_of = function
  | "commute" -> { rate = 3000.0; put_pct = 0; get_pct = 0; durable = false }
  | "conflict" -> { rate = 2500.0; put_pct = 100; get_pct = 0; durable = false }
  | "durable" -> { rate = 1000.0; put_pct = 25; get_pct = 25; durable = true }
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let n_replicas = 3
let n_keys = 8
let setups = 3
let warmup_ms = 500.0
let window_per_conn = 32
let drain_ms = 5000.0
let quiesce_ms = 10_000.0
let probe_ms = 15_000.0
let snapshot_interval = 1000.0
let after_recovery_ms = 500.0

(* One inbound message in [codec_sample] is re-encoded and decoded by the
   traced run's codec tap; its time is scaled back up. *)
let codec_sample = 8

let config = Stack.Config.make ~runtime:Stack.Config.Unix ()
let lo = Unix.inet_addr_loopback
let wall () = Unix.gettimeofday ()

(* ---------- sample buffers ---------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let values t = Array.sub t.a 0 t.n

  let mean t =
    if t.n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 (values t) /. float_of_int t.n

  (* Nearest-rank quantile; 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = values t in
      Array.sort Float.compare s;
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      s.(min t.n rank - 1)
    end

  let median t = quantile t 0.5
  let max t = quantile t 1.0
end

(* ---------- taps (traced runs only) ---------- *)

(* Everything the taps time, recorded only while [on] (the fixed-rate
   window). *)
type probes = {
  mutable on : bool;
  append_us : Samples.t;
  sync_ms : Samples.t;  (** syncs that had appends to flush *)
  snapshot_ms : Samples.t;
  snapshot_bytes : Samples.t;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable inbound : int;
  follower_lag_ms : Samples.t;
}

let probes =
  {
    on = false;
    append_us = Samples.create ();
    sync_ms = Samples.create ();
    snapshot_ms = Samples.create ();
    snapshot_bytes = Samples.create ();
    encode_s = 0.0;
    decode_s = 0.0;
    inbound = 0;
    follower_lag_ms = Samples.create ();
  }

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* The storage tap: the same record with every call timed.  A sync only
   does work when something was appended since the last one, so the tap
   keeps its own dirty bit and times only those. *)
let timed_storage (s : Storage.t) : Storage.t =
  let dirty = ref false in
  {
    s with
    append =
      (fun entry ->
        let idx, dt = timed (fun () -> s.append entry) in
        dirty := true;
        if probes.on then Samples.add probes.append_us (dt *. 1e6);
        idx);
    sync =
      (fun () ->
        let was_dirty = !dirty in
        let (), dt = timed s.sync in
        dirty := false;
        if was_dirty && probes.on then Samples.add probes.sync_ms (dt *. 1e3));
    save_snapshot =
      (fun ~index blob ->
        let (), dt = timed (fun () -> s.save_snapshot ~index blob) in
        if probes.on then begin
          Samples.add probes.snapshot_ms (dt *. 1e3);
          Samples.add probes.snapshot_bytes (float_of_int (String.length blob))
        end);
  }

(* The codec tap: every [codec_sample]-th payload a replica receives from a
   peer is encoded and decoded again, timing the same codec calls the wire
   made.  Loopback self-sends never touch the codec and are skipped. *)
let tap_codec proc =
  let me = Process.id proc in
  Process.on_receive proc (fun ~src payload ->
      if probes.on && src <> me then begin
        probes.inbound <- probes.inbound + 1;
        if probes.inbound mod codec_sample = 0 then
          match timed (fun () -> Payload.encode payload) with
          | Ok bytes, enc ->
              let _, dec = timed (fun () -> Payload.decode bytes) in
              probes.encode_s <- probes.encode_s +. enc;
              probes.decode_s <- probes.decode_s +. dec
          | Error _, _ -> ()
      end)

(* The delivery tap: how long after the first replica delivered an op the
   others deliver it (follower lag). *)
let first_delivery : (int * int, float * int ref) Hashtbl.t = Hashtbl.create 4096

let tap_deliveries stack =
  Stack.on_deliver stack (fun ~origin:_ ~ordered:_ payload ->
      match payload with
      | Proto.Sv_op { origin; opid; _ } when probes.on -> (
          let t = wall () in
          match Hashtbl.find_opt first_delivery (origin, opid) with
          | None -> Hashtbl.replace first_delivery (origin, opid) (t, ref 1)
          | Some (t0, seen) ->
              Samples.add probes.follower_lag_ms ((t -. t0) *. 1e3);
              incr seen;
              if !seen >= n_replicas then Hashtbl.remove first_delivery (origin, opid))
      | _ -> ())

(* ---------- the model: ops, replies and what they may say ---------- *)

type kind = Put | Incr | Get
type phase = Warm | Window | Crash | Closed

type op = {
  conn : int;
  kind : kind;
  key : int;
  due : float;  (** loop time the op was due to be sent *)
  lower : int;  (** increments on [key] this connection had seen acked *)
  phase : phase;
  mutable replies : int;
}

let key_name kind k = Printf.sprintf "%s%d" (if kind = Put then "reg" else "ctr") k

type replica = {
  id : int;
  metrics : Metrics.t;  (** kept across a restart of the same id *)
  dir : string option;
  mutable server : Server.t;
}

type cluster = {
  loop : Evloop.t;
  loop_metrics : Metrics.t option;
  spec : spec;
  traced : bool;
  rng : Random.State.t;
  mutable replicas : replica list;
  mutable conns : Fconn.t array;
  mutable ops : op array;
  mutable n_ops : int;
  mutable outstanding : int;
  sent_incr : int array;  (** per key, increments sent so far *)
  acked_incr : int array array;  (** per connection and key *)
  mutable failed : int;  (** ops refused, unanswered or failing a check *)
  mutable errors : string list;
  latency_ms : Samples.t;  (** window ops, from due time to reply *)
  crash_latency_ms : Samples.t;  (** the same, for ops due around a kill *)
  lag_ms : Samples.t;  (** window ops, send time minus due time *)
  mutable closed_open : bool;  (** refill replies during the closed loop *)
  mutable closed_done : int;
  mutable first_reply : float option;  (** wall clock *)
  mutable probe_conns : Fconn.t list;  (** recovery probes, closed at the end *)
}

let now c = Evloop.now c.loop

let error c msg =
  if List.length c.errors < 20 then c.errors <- msg :: c.errors

let bad_op c op msg =
  c.failed <- c.failed + 1;
  error c (Printf.sprintf "op on conn %d %s: %s" op.conn (key_name op.kind op.key) msg)

let dummy_op =
  { conn = 0; kind = Get; key = 0; due = 0.0; lower = 0; phase = Warm; replies = 0 }

let issue c ~conn ~due ~phase ~kind ~key =
  if c.n_ops = Array.length c.ops then begin
    let b = Array.make (2 * c.n_ops) dummy_op in
    Array.blit c.ops 0 b 0 c.n_ops;
    c.ops <- b
  end;
  let rid = c.n_ops in
  let op =
    { conn; kind; key; due; lower = c.acked_incr.(conn).(key); phase; replies = 0 }
  in
  c.ops.(rid) <- op;
  c.n_ops <- rid + 1;
  c.outstanding <- c.outstanding + 1;
  let name = key_name kind key in
  let payload =
    match kind with
    | Put -> Proto.Cl_put { rid; key = name; value = Printf.sprintf "v%d" rid }
    | Incr ->
        c.sent_incr.(key) <- c.sent_incr.(key) + 1;
        Proto.Cl_incr { rid; key = name; delta = 1 }
    | Get -> Proto.Cl_get { rid; key = name }
  in
  Fconn.send c.conns.(conn) payload;
  if phase = Window then Samples.add c.lag_ms (now c -. due)

(* Every op's kind and key come from the seed. *)
let draw_op c ~conn ~due ~phase =
  let roll = Random.State.int c.rng 100 in
  let kind =
    if roll < c.spec.put_pct then Put
    else if roll < c.spec.put_pct + c.spec.get_pct then Get
    else Incr
  in
  issue c ~conn ~due ~phase ~kind ~key:(Random.State.int c.rng n_keys)

(* The reply check.  A connection always talks to the same replica, which
   applied every increment it acknowledged earlier; so a counter read or
   bumped there is at least what this connection saw acked, and at most
   what all clients have sent. *)
let check_reply c ~rid op ~ok body =
  let count () = int_of_string_opt body in
  match op.kind with
  | Put ->
      if not (ok && body = Printf.sprintf "v%d" rid) then
        bad_op c op ("bad put reply " ^ body)
  | Incr -> (
      match count () with
      | Some v when ok && v > op.lower && v <= c.sent_incr.(op.key) ->
          c.acked_incr.(op.conn).(op.key) <- max v c.acked_incr.(op.conn).(op.key)
      | _ -> bad_op c op ("bad increment reply " ^ body))
  | Get -> (
      match count () with
      | Some v when ok && v >= op.lower && v <= c.sent_incr.(op.key) -> ()
      | _ when (not ok) && body = "not found" && op.lower = 0 -> ()
      | _ -> bad_op c op ("bad read " ^ body))

let on_reply c conn payload =
  match payload with
  | Proto.Cl_reply { rid; ok; body } when rid >= 0 && rid < c.n_ops ->
      let op = c.ops.(rid) in
      op.replies <- op.replies + 1;
      if op.conn <> conn then bad_op c op "reply on the wrong connection"
      else if op.replies > 1 then bad_op c op "answered twice"
      else begin
        c.outstanding <- c.outstanding - 1;
        if c.first_reply = None then c.first_reply <- Some (wall ());
        check_reply c ~rid op ~ok body;
        match op.phase with
        | Window -> Samples.add c.latency_ms (now c -. op.due)
        | Crash -> Samples.add c.crash_latency_ms (now c -. op.due)
        | Closed when c.closed_open ->
            c.closed_done <- c.closed_done + 1;
            draw_op c ~conn ~due:(now c) ~phase:Closed
        | Warm | Closed -> ()
      end
  | _ ->
      c.failed <- c.failed + 1;
      error c "unexpected payload from the server"

(* ---------- cluster ---------- *)

let connect c ~port ~on_payload =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let connecting =
    match Unix.connect sock (Unix.ADDR_INET (lo, port)) with
    | () -> false
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
  in
  Fconn.attach ~loop:c.loop ~connecting sock ~on_payload ~on_close:(fun _ -> ())

let set_peers c =
  let peers =
    List.map (fun r -> (r.id, Unix.ADDR_INET (lo, Server.peer_port r.server))) c.replicas
  in
  List.iter (fun r -> Server.set_peers r.server peers) c.replicas

(* Start replica [id] (replacing any earlier one of that id) and declare
   the mesh; traced clusters get the storage, codec and delivery taps. *)
let add_replica c ~id ?join_via ~port ~metrics ~dir initial =
  let storage =
    Option.map
      (fun dir ->
        let s = Fstore.open_dir ~metrics ~dir () in
        if c.traced then timed_storage s else s)
      dir
  in
  let server =
    Server.create ~loop:c.loop ~id ~initial ~config ~metrics ?join_via ?storage
      ~snapshot_interval ~sync_replies:c.spec.durable
      ~peer_listen:(Unix.ADDR_INET (lo, port))
      ~client_listen:(Unix.ADDR_INET (lo, 0))
      ()
  in
  if c.traced then begin
    tap_codec (Stack.process (Server.stack server));
    tap_deliveries (Server.stack server)
  end;
  let r = { id; metrics; dir; server } in
  c.replicas <- List.filter (fun r' -> r'.id <> id) c.replicas @ [ r ];
  set_peers c;
  r

(* Run the loop until [cond] holds or [bound] ms pass; true if it held. *)
let run_until c ~bound cond =
  let t_end = now c +. bound in
  while (not (cond ())) && now c < t_end do
    Evloop.run_once c.loop ~max_wait:2.0
  done;
  cond ()

(* Boot a cluster and answer its first op; returns it with the set-up time
   in seconds. *)
let boot ~spec ~traced ~seed ~data_dir ~attempt =
  let t0 = wall () in
  let loop_metrics = if traced then Some (Metrics.create ()) else None in
  let loop = Evloop.create ?metrics:loop_metrics () in
  let c =
    {
      loop;
      loop_metrics;
      spec;
      traced;
      rng = Random.State.make [| seed; 0x5eed |];
      replicas = [];
      conns = [||];
      ops = Array.make 65536 dummy_op;
      n_ops = 0;
      outstanding = 0;
      sent_incr = Array.make n_keys 0;
      acked_incr = Array.init 2 (fun _ -> Array.make n_keys 0);
      failed = 0;
      errors = [];
      latency_ms = Samples.create ();
      crash_latency_ms = Samples.create ();
      lag_ms = Samples.create ();
      closed_open = false;
      closed_done = 0;
      first_reply = None;
      probe_conns = [];
    }
  in
  let dir id =
    if spec.durable then
      Some
        (Filename.concat data_dir (Printf.sprintf "setup%d/r%d" attempt id))
    else None
  in
  let initial = List.init n_replicas Fun.id in
  for id = 0 to n_replicas - 1 do
    ignore (add_replica c ~id ~port:0 ~metrics:(Metrics.create ()) ~dir:(dir id) initial)
  done;
  c.conns <-
    Array.init 2 (fun i ->
        let r = List.nth c.replicas i in
        connect c ~port:(Server.client_port r.server) ~on_payload:(fun _ p ->
            on_reply c i p));
  issue c ~conn:0 ~due:(now c) ~phase:Warm ~kind:Incr ~key:0;
  if not (run_until c ~bound:probe_ms (fun () -> c.first_reply <> None)) then
    error c "set-up: first op never answered";
  let setup_s =
    match c.first_reply with Some t -> t -. t0 | None -> wall () -. t0
  in
  (c, setup_s)

let shutdown c =
  Array.iter Fconn.close c.conns;
  List.iter Fconn.close c.probe_conns;
  List.iter (fun r -> Server.shutdown r.server) c.replicas

(* ---------- recovery ---------- *)

(* Time from [t0] (wall clock) until replica [r] answers a client: poll for
   its client listener (opened once its join lands), connect, read. *)
let recovery_probe c (r : replica) ~t0 =
  let answered = ref false in
  let connected = ref false in
  let poll () =
    (if (not !connected) && Server.client_port r.server <> 0 then begin
       connected := true;
       let conn =
         connect c ~port:(Server.client_port r.server) ~on_payload:(fun _ p ->
             match p with Proto.Cl_reply _ -> answered := true | _ -> ())
       in
       c.probe_conns <- conn :: c.probe_conns;
       Fconn.send conn (Proto.Cl_get { rid = 0; key = key_name Incr 0 })
     end);
    !answered
  in
  (poll, fun () -> (wall () -. t0) *. 1e3)

(* Kill replica 2 the way kill -9 would: crash-stop its stack and drop its
   store without sync or close, so appends not yet synced are lost; then
   restart it from its directory on the same peer port, sponsored by 0. *)
let crash_and_restart c =
  let r = List.find (fun r -> r.id = 2) c.replicas in
  let port = Server.peer_port r.server in
  let t0 = wall () in
  Stack.crash (Server.stack r.server);
  let r =
    add_replica c ~id:2 ~join_via:0 ~port ~metrics:r.metrics ~dir:r.dir
      (List.init n_replicas Fun.id)
  in
  recovery_probe c r ~t0

(* ---------- metrics over a window ---------- *)

type snap = {
  merged : Metrics.t;  (** every replica registry plus the loop's *)
  r0 : Metrics.t;  (** replica 0 alone: one copy of per-instance counts *)
  gc : Gc.stat;
  cpu_s : float;  (** process user + system time *)
  at : float;  (** loop ms *)
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let snapshot c =
  let regs = List.map (fun r -> r.metrics) c.replicas in
  let regs = match c.loop_metrics with Some m -> m :: regs | None -> regs in
  {
    merged = Metrics.merged regs;
    r0 = Metrics.merged [ (List.hd c.replicas).metrics ];
    gc = Gc.quick_stat ();
    cpu_s = cpu ();
    at = now c;
  }

let counter_delta a b name = Metrics.counter b name - Metrics.counter a name

(* A histogram restricted to the samples recorded between two snapshots:
   count, sum and per-bucket counts subtract. *)
type hist_delta = { count : int; total : float; buckets : int array }

let hist_delta a b name =
  let buckets = Array.make Metrics.n_buckets 0 in
  let pick m sign =
    match Metrics.view m name with
    | Some (Metrics.V_hist h) ->
        List.iter (fun (i, n) -> buckets.(i) <- buckets.(i) + (sign * n)) h.hv_buckets;
        (h.hv_count, h.hv_sum)
    | _ -> (0, 0.0)
  in
  let ca, sa = pick a (-1) in
  let cb, sb = pick b 1 in
  { count = cb - ca; total = sb -. sa; buckets }

let hist_mean d = if d.count = 0 then 0.0 else d.total /. float_of_int d.count

let hist_quantile d q =
  if d.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int d.count))) in
    let acc = ref 0 and found = ref (Metrics.n_buckets - 1) in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             found := i;
             raise Exit
           end)
         d.buckets
     with Exit -> ());
    Metrics.bucket_upper !found
  end

let whole_hist m name = hist_delta (Metrics.create ()) m name

let layer_metrics c ~a ~b ~ops ~to_blob_ms ~blob_bytes =
  let per_op x = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops in
  let per_kop x = 1000.0 *. per_op x in
  let cnt = counter_delta a.merged b.merged in
  let h = hist_delta a.merged b.merged in
  let window_ms = b.at -. a.at in
  let fast = cnt "gbcast.fast_deliveries" and cut = cnt "gbcast.cut_deliveries" in
  let final = Metrics.merged (List.map (fun r -> r.metrics) c.replicas) in
  let fops = float_of_int (max ops 1) in
  let scale = float_of_int codec_sample *. 1e6 /. fops in
  [
    ("evloop.busy_frac", (h "evloop.callback_ms").total /. window_ms);
    ("evloop.callback_p99_ms", hist_quantile (h "evloop.callback_ms") 0.99);
    ("evloop.timer_lag_p99_ms", hist_quantile (h "evloop.timer_lag_ms") 0.99);
    ("net.frames_per_op", per_op (cnt "net.frames_out"));
    ("net.bytes_per_op", per_op (cnt "net.bytes_out"));
    ("codec.encode_us_per_op", probes.encode_s *. scale);
    ("codec.decode_us_per_op", probes.decode_s *. scale);
    ("rchannel.sends_per_op", per_op (cnt "rchannel.sends"));
    ("rchannel.retransmissions_per_kop", per_kop (cnt "rchannel.retransmissions"));
    ("rbcast.broadcasts_per_op", per_op (cnt "rbcast.broadcasts"));
    ( "consensus.instances_per_kop",
      per_kop (counter_delta a.r0 b.r0 "consensus.instances_decided") );
    ("consensus.rounds_mean", hist_mean (hist_delta a.r0 b.r0 "consensus.rounds"));
    ("abcast.batch_size_mean", hist_mean (h "abcast.batch_size"));
    ("abcast.latency_p50_ms", hist_quantile (h "abcast.latency_ms") 0.5);
    ( "gbcast.fast_frac",
      if fast + cut = 0 then 0.0 else float_of_int fast /. float_of_int (fast + cut) );
    ("gbcast.freezes_per_kop", per_kop (cnt "gbcast.freezes"));
    ("gbcast.latency_p50_ms", hist_quantile (h "gbcast.latency_ms") 0.5);
    ("gbcast.batch_size_mean", hist_mean (h "gbcast.batch_size"));
    ("gbcast.ack_batch_size_mean", hist_mean (h "gbcast.ack_batch_size"));
    ("storage.appends_per_op", per_op (cnt "storage.appends"));
    ("storage.append_us_mean", Samples.mean probes.append_us);
    ("storage.syncs_per_op", per_op (cnt "storage.syncs"));
    ("storage.sync_p50_ms", Samples.quantile probes.sync_ms 0.5);
    ("storage.sync_p99_ms", Samples.quantile probes.sync_ms 0.99);
    ("storage.snapshot_ms_max", Samples.max probes.snapshot_ms);
    ("storage.snapshot_bytes", Samples.max probes.snapshot_bytes);
    ("kv.to_blob_ms", to_blob_ms);
    ("kv.blob_bytes", blob_bytes);
    ("server.commit_p50_ms", hist_quantile (h "server.latency_ms") 0.5);
    ("server.local_recovery_ms", hist_mean (whole_hist final "server.recovery_ms"));
    ("membership.join_ms", hist_mean (whole_hist final "membership.join_ms"));
    ( "server.delta_transfers",
      float_of_int (Metrics.counter final "server.delta_transfers") );
    ( "server.full_transfers",
      float_of_int (Metrics.counter final "server.full_transfers") );
    ("deliver.follower_lag_p50_ms", Samples.quantile probes.follower_lag_ms 0.5);
    ("gc.minor_words_per_op", (b.gc.minor_words -. a.gc.minor_words) /. fops);
    ("gc.major_collections", float_of_int (b.gc.major_collections - a.gc.major_collections));
    ("loadgen.lag_p99_ms", Samples.quantile c.lag_ms 0.99);
  ]

(* ---------- the run ---------- *)

let cluster_digests c =
  List.map
    (fun r ->
      let kv = Server.kv r.server in
      (r.id, Kv.order_digest kv, Kv.state_digest kv, Kv.applied_count kv))
    c.replicas

let writes c =
  let n = ref 0 in
  for i = 0 to c.n_ops - 1 do
    if c.ops.(i).kind <> Get then incr n
  done;
  !n

(* The correctness gate after the drain: every op answered exactly once,
   and every replica applied exactly the writes sent (nothing lost across
   the kill, nothing doubled), in one order, to one state that matches the
   model. *)
let verify c ~label =
  let expected = writes c in
  let converged () =
    List.for_all (fun r -> Kv.applied_count (Server.kv r.server) = expected) c.replicas
  in
  if not (run_until c ~bound:quiesce_ms converged) then
    error c (label ^ ": replicas did not apply every write");
  match cluster_digests c with
  | [] -> ()
  | (_, od, sd, _) :: _ as ds ->
      List.iter
        (fun (id, od', sd', n) ->
          if od' <> od || sd' <> sd || n <> expected then
            error c
              (Printf.sprintf "%s: replica %d diverges (applied %d of %d)" label id
                 n expected))
        ds;
      List.iter
        (fun r ->
          let kv = Server.kv r.server in
          for k = 0 to n_keys - 1 do
            let ctr = Kv.get kv (key_name Incr k) in
            let want = c.sent_incr.(k) in
            if not (ctr = (if want = 0 then None else Some (string_of_int want))) then
              error c (Printf.sprintf "%s: replica %d ctr%d wrong" label r.id k);
            match Kv.get kv (key_name Put k) with
            | None -> ()
            | Some v -> (
                let put_by rid = c.ops.(rid).kind = Put && c.ops.(rid).key = k in
                match Scanf.sscanf_opt v "v%d%!" Fun.id with
                | Some rid when rid >= 0 && rid < c.n_ops && put_by rid -> ()
                | _ -> error c (Printf.sprintf "%s: replica %d reg%d holds %s" label r.id k v))
          done)
        c.replicas

(* Open-loop arrivals at the workload's rate on a Poisson schedule drawn
   from the seed, on either connection, until [stop]; [phase] labels each op
   by its due time and [tick] runs once per loop iteration. *)
let open_loop c ~phase ~stop ~tick =
  let rate_per_ms = c.spec.rate /. 1000.0 in
  let next = ref (now c) in
  while not (stop (now c)) do
    let t = now c in
    tick t;
    while !next <= t do
      draw_op c ~conn:(Random.State.int c.rng 2) ~due:!next ~phase:(phase !next);
      next := !next -. (Float.log (1.0 -. Random.State.float c.rng 1.0) /. rate_per_ms)
    done;
    Evloop.run_once c.loop ~max_wait:(Float.max 0.0 (Float.min 2.0 (!next -. now c)))
  done

(* One measurement: [setups] boots (all but the last shut down at once),
   warm-up, the durable kill, the fixed-rate window, the closed loop, the
   drain and the correctness gate.  Prints the result and says whether
   every check passed. *)
let run ~workload ~seed ~seconds ~traced ~data_dir =
  let spec = spec_of workload in
  let setup_samples = Samples.create () in
  let rec boots attempt =
    let c, s = boot ~spec ~traced ~seed ~data_dir ~attempt in
    Samples.add setup_samples s;
    if attempt + 1 < setups then begin
      shutdown c;
      boots (attempt + 1)
    end
    else c
  in
  let c = boots 0 in
  let open_ms = seconds *. 1000.0 *. 0.6 and closed_ms = seconds *. 1000.0 *. 0.4 in
  let warm_end = now c +. warmup_ms in
  open_loop c ~phase:(fun _ -> Warm) ~stop:(fun t -> t >= warm_end) ~tick:ignore;
  (* durable: kill replica 2 under the same open-loop load, restart it and
     keep the load on until it serves again *)
  let recovery_ms =
    if spec.durable then begin
      let t_crash = now c in
      let poll, elapsed = crash_and_restart c in
      let served = ref None in
      open_loop c
        ~phase:(fun _ -> Crash)
        ~stop:(fun t ->
          match !served with
          | Some (ts, _) -> t >= ts +. after_recovery_ms
          | None -> t >= t_crash +. probe_ms)
        ~tick:(fun t -> if !served = None && poll () then served := Some (t, elapsed ()));
      match !served with
      | Some (_, ms) -> ms
      | None ->
          error c "restarted replica never served a client";
          0.0
    end
    else 0.0
  in
  (* the fixed-rate window *)
  let snap_a = snapshot c in
  let w1 = snap_a.at +. open_ms in
  probes.on <- c.traced;
  open_loop c ~phase:(fun _ -> Window) ~stop:(fun t -> t >= w1) ~tick:ignore;
  probes.on <- false;
  let snap_b = snapshot c in
  let window_ops =
    let n = ref 0 in
    for i = 0 to c.n_ops - 1 do
      if c.ops.(i).phase = Window then incr n
    done;
    !n
  in
  if not (run_until c ~bound:drain_ms (fun () -> c.outstanding = 0)) then
    error c "open loop: drain timed out";
  (* closed loop *)
  c.closed_open <- true;
  c.closed_done <- 0;
  let t0 = now c in
  for conn = 0 to 1 do
    for _ = 1 to window_per_conn do
      draw_op c ~conn ~due:t0 ~phase:Closed
    done
  done;
  ignore (run_until c ~bound:closed_ms (fun () -> false));
  c.closed_open <- false;
  let capacity = float_of_int c.closed_done /. ((now c -. t0) /. 1000.0) in
  if not (run_until c ~bound:drain_ms (fun () -> c.outstanding = 0)) then
    error c "closed loop: drain timed out";
  verify c ~label:"after drain";
  for i = 0 to c.n_ops - 1 do
    if c.ops.(i).replies = 0 then c.failed <- c.failed + 1
  done;
  let layers =
    if traced then begin
      (* kv snapshot cost at the final state size, on replica 0 *)
      let kv0 = Server.kv (List.hd c.replicas).server in
      let blob_ms = Samples.create () in
      let blob_bytes = ref 0 in
      for _ = 1 to 3 do
        let blob, dt = timed (fun () -> Kv.to_blob kv0) in
        blob_bytes := String.length blob;
        Samples.add blob_ms (dt *. 1e3)
      done;
      let live = (Gc.stat ()).Gc.live_words in
      ("gc.live_words_per_op", float_of_int live /. float_of_int (max 1 c.n_ops))
      :: ("recovery.serve_ms", recovery_ms)
      :: ("recovery.client_p99_ms", Samples.quantile c.crash_latency_ms 0.99)
      :: layer_metrics c ~a:snap_a ~b:snap_b ~ops:window_ops
           ~to_blob_ms:(Samples.median blob_ms)
           ~blob_bytes:(float_of_int !blob_bytes)
    end
    else []
  in
  shutdown c;
  let e2e =
    [
      ("latency_p50_ms", Samples.quantile c.latency_ms 0.50);
      ("latency_p90_ms", Samples.quantile c.latency_ms 0.90);
      (* reported, not bounded: it does not repeat across runs *)
      ("latency_p99_ms", Samples.quantile c.latency_ms 0.99);
      ("capacity_ops", capacity);
      ("cpu_us_per_op", (snap_b.cpu_s -. snap_a.cpu_s) *. 1e6 /. float_of_int (max 1 window_ops));
      ( "heap_peak_mb",
        float_of_int (snap_b.gc.Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0 );
      ("setup_s", Samples.median setup_samples);
    ]
  in
  let num x = Json.Num x in
  let metrics kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let correct = c.errors = [] && c.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int c.n_ops));
            ("failed", num (float_of_int c.failed));
            ("errors", Json.Arr (List.rev_map (fun e -> Json.Str e) c.errors));
            ("end_to_end", metrics e2e);
            ("per_layer", metrics layers);
            ( "info",
              metrics
                [
                  ("window_ops", float_of_int window_ops);
                  ("rate_ops", spec.rate);
                  ("capacity_window", float_of_int (2 * window_per_conn));
                  ("setups", float_of_int (Samples.count setup_samples));
                ] );
          ]));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let traced = ref false and data_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "commute | conflict | durable");
      ("--seed", Arg.Set_int seed, "seed of the arrival schedule and op mix");
      ("--seconds", Arg.Set_float seconds, "measured seconds (open + closed loop)");
      ("--trace", Arg.Int (fun i -> traced := i <> 0), "1: install the per-layer taps");
      ("--data-dir", Arg.Set_string data_dir, "scratch directory for Fstore data");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --data-dir D";
  if not (run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:!traced
            ~data_dir:!data_dir)
  then exit 1

module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Ab = Gc_abcast.Atomic_broadcast
module Gb = Gc_gbcast.Generic_broadcast
module Conflict = Gc_gbcast.Conflict
module View = Gc_membership.View
module Gm = Gc_membership.Group_membership
module Mon = Gc_monitoring.Monitoring

type config = {
  hb_period : float;
  consensus_timeout : float;
  consensus_adaptive : bool;
  exclusion_timeout : float;
  rto : float;
  stuck_after : float;
  policy : Mon.policy;
  state_transfer_delay : float;
  gb_ack_mode : Gb.ack_mode;
  same_view_delivery : bool;
  batch_max : int;
  batch_delay : float;
}

let default_config =
  {
    hb_period = 20.0;
    consensus_timeout = 200.0;
    consensus_adaptive = false;
    exclusion_timeout = 5000.0;
    rto = 50.0;
    stuck_after = 10_000.0;
    policy = Mon.Threshold 2;
    state_transfer_delay = 0.0;
    gb_ack_mode = Gb.All_members;
    same_view_delivery = true;
    batch_max = 64;
    batch_delay = 1.0;
  }

module Config = struct
  type t = config
  type runtime = Sim | Unix

  (* Wall-clock timing for the real-network backend: heartbeats and
     timeouts that are comfortable in simulated milliseconds would flap
     under OS scheduling jitter and TCP round-trips. *)
  let unix_default =
    {
      default_config with
      hb_period = 100.0;
      consensus_timeout = 1_000.0;
      exclusion_timeout = 8_000.0;
      rto = 150.0;
      stuck_after = 30_000.0;
    }

  let make ?(runtime = Sim) ?hb_period ?consensus_timeout ?consensus_adaptive
      ?exclusion_timeout ?rto ?stuck_after ?policy ?state_transfer_delay
      ?gb_ack_mode ?same_view_delivery ?batch_max ?batch_delay () =
    let base = match runtime with Sim -> default_config | Unix -> unix_default in
    let dfl field = function Some v -> v | None -> field base in
    {
      hb_period = dfl (fun c -> c.hb_period) hb_period;
      consensus_timeout = dfl (fun c -> c.consensus_timeout) consensus_timeout;
      consensus_adaptive =
        dfl (fun c -> c.consensus_adaptive) consensus_adaptive;
      exclusion_timeout = dfl (fun c -> c.exclusion_timeout) exclusion_timeout;
      rto = dfl (fun c -> c.rto) rto;
      stuck_after = dfl (fun c -> c.stuck_after) stuck_after;
      policy = dfl (fun c -> c.policy) policy;
      state_transfer_delay =
        dfl (fun c -> c.state_transfer_delay) state_transfer_delay;
      gb_ack_mode = dfl (fun c -> c.gb_ack_mode) gb_ack_mode;
      same_view_delivery =
        dfl (fun c -> c.same_view_delivery) same_view_delivery;
      batch_max = dfl (fun c -> c.batch_max) batch_max;
      batch_delay = dfl (fun c -> c.batch_delay) batch_delay;
    }
end

type Gc_net.Payload.t +=
  | Gcs_app of { klass : Conflict.klass; body : Gc_net.Payload.t }
  | Gcs_snapshot of {
      next_instance : int;
      ab_delivered : Gc_kernel.Delivered_set.t;
      gb_stage : int;
      gb_delivered : Gc_kernel.Delivered_set.t;
      app : Gc_net.Payload.t option;
    }

let () =
  Gc_net.Payload.register_printer (function
    | Gcs_app { klass; body } ->
        let k =
          match klass with Conflict.Commuting -> "rbcast" | Conflict.Ordered -> "abcast"
        in
        Some (Printf.sprintf "gcs.%s(%s)" k (Gc_net.Payload.to_string body))
    | Gcs_snapshot { next_instance; gb_stage; _ } ->
        Some (Printf.sprintf "gcs.snapshot(inst=%d,stage=%d)" next_instance gb_stage)
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  let module D = Gc_kernel.Delivered_set in
  Gc_net.Payload.register_codec ~tag:"gcs"
    ~encode:(fun enc w p ->
      match p with
      | Gcs_app { klass; body } ->
          W.u8 w 0;
          W.u8 w (match klass with Conflict.Commuting -> 0 | Conflict.Ordered -> 1);
          enc w body;
          true
      | Gcs_snapshot { next_instance; ab_delivered; gb_stage; gb_delivered; app }
        ->
          W.u8 w 1;
          W.varint w next_instance;
          D.write w ab_delivered;
          W.varint w gb_stage;
          D.write w gb_delivered;
          W.option w enc app;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 0 ->
          let klass =
            match W.read_u8 r with
            | 0 -> Conflict.Commuting
            | 1 -> Conflict.Ordered
            | k ->
                Gc_net.Payload.malformed (Printf.sprintf "gcs klass %d" k)
          in
          let body = dec r in
          Gcs_app { klass; body }
      | 1 ->
          let next_instance = W.read_varint r in
          let ab_delivered = D.read r in
          let gb_stage = W.read_varint r in
          let gb_delivered = D.read r in
          let app = W.read_option r dec in
          Gcs_snapshot { next_instance; ab_delivered; gb_stage; gb_delivered; app }
      | k -> Gc_net.Payload.malformed (Printf.sprintf "gcs constructor %d" k))

(* The conflict relation of Section 3.3: rbcast-class application messages
   commute with each other; everything else (abcast-class application
   messages, membership changes) is ordered against everything.  Declared
   in indexed form — two conflict classes with a 2x2 matrix — so the
   generic-broadcast fast path answers "conflicts with anything pending?"
   from two occupancy counters instead of scanning the pending set. *)
let stack_conflict =
  Conflict.two_class
    ~classify:(function
      | Gcs_app { klass = Conflict.Commuting; _ } -> Conflict.Commuting
      | _ -> Conflict.Ordered)

type t = {
  proc : Process.t;
  fd : Fd.t;
  rc : Rc.t;
  rb : Rb.t;
  ab : Ab.t;
  gb : Gb.t;
  membership : Gm.t;
  monitoring : Mon.t;
  storage : Gc_kernel.Storage.t option;
  mutable subscribers :
    (origin:int -> ordered:bool -> Gc_net.Payload.t -> unit) list;
}

let create runtime ?metrics ~id ~initial ?(config = default_config)
    ?app_state_provider ?app_state_installer ?storage ?(boot_epoch = 0) () =
  let proc = Process.create ?metrics runtime ~id in
  let fd = Fd.create proc ~hb_period:config.hb_period ~peers:initial () in
  let rc =
    Rc.create proc ~epoch:boot_epoch ~rto:config.rto
      ~stuck_after:config.stuck_after ()
  in
  (* Every layer that numbers its own messages gets the boot epoch: a
     restarted process must never reuse a channel generation or a broadcast
     id from a previous incarnation, or peers' per-stream state and dedup
     sets silently swallow its new traffic. *)
  let rb = Rb.create proc ~epoch:boot_epoch rc in
  let ab =
    Ab.create proc ~rc ~rb ~fd ~suspect_timeout:config.consensus_timeout
      ~adaptive:config.consensus_adaptive ~epoch:boot_epoch ~members:initial
      ()
  in
  (* Default All_members mode: ordered traffic (including view changes)
     rides the consensus-backed cut path and stays live with f < n/2;
     commuting traffic uses the all-ack fast path until a dead member is
     excluded. *)
  (* The durable log hangs off generic broadcast only: gb is the delivery
     surface the application sees (every abcast rides through it), so one
     layer logging means one record per delivered message — giving both
     layers the log would replay everything twice. *)
  let gb =
    Gb.create proc ~rc ~rb ~ab ~conflict:stack_conflict
      ~ack_mode:config.gb_ack_mode ~batch_max:config.batch_max
      ~batch_delay:config.batch_delay ?storage ~epoch:boot_epoch
      ~members:initial ()
  in
  let ab_ref = ref ab and gb_ref = ref gb in
  (* Copies: the simulator hands payloads over by reference, so a live set
     would show the joiner ids delivered here after the snapshot. *)
  let state_provider () =
    Gcs_snapshot
      {
        next_instance = Ab.next_instance !ab_ref;
        ab_delivered = Gc_kernel.Delivered_set.copy (Ab.delivered !ab_ref);
        gb_stage = Gb.stage !gb_ref;
        gb_delivered = Gc_kernel.Delivered_set.copy (Gb.delivered !gb_ref);
        app = Option.map (fun f -> f ()) app_state_provider;
      }
  in
  let state_installer snapshot =
    match snapshot with
    | Gcs_snapshot { next_instance; ab_delivered; gb_stage; gb_delivered; app }
      ->
        (* Member lists follow from the view installation that the membership
           layer performs right after installing the snapshot.  Atomic
           broadcast goes last: it applies the decisions that raced ahead of
           the transfer, and the stage cuts among them must find generic
           broadcast at the transferred stage and the application on the
           transferred state. *)
        Gb.bootstrap !gb_ref ~stage:gb_stage ~delivered:gb_delivered;
        (match (app, app_state_installer) with
        | Some s, Some f -> f s
        | _ -> ());
        Ab.bootstrap !ab_ref ~next_instance ~members:(Ab.members !ab_ref)
          ~delivered:ab_delivered
    | _ -> ()
  in
  (* Same view delivery (Section 4.4) comes from routing view changes
     through generic broadcast, where they conflict with everything.  The
     ablation routes them through plain atomic broadcast instead: still
     totally ordered, but no longer ordered against the commuting fast path,
     so a commuting message may be delivered in different views at different
     processes. *)
  let transport =
    if config.same_view_delivery then
      {
        Gm.broadcast = (fun payload -> Gb.gbcast gb payload);
        subscribe = (fun f -> Gb.on_deliver gb f);
      }
    else
      {
        Gm.broadcast = (fun payload -> Ab.abcast ab payload);
        subscribe = (fun f -> Ab.on_deliver ab f);
      }
  in
  let membership =
    Gm.create proc ~rc ~transport
      ~state_transfer_delay:config.state_transfer_delay ~state_provider
      ~state_installer ~initial:(View.initial initial) ()
  in
  let monitoring =
    Mon.create proc ~fd ~rc ~membership
      ~exclusion_timeout:config.exclusion_timeout ~policy:config.policy ()
  in
  let t =
    {
      proc;
      fd;
      rc;
      rb;
      ab;
      gb;
      membership;
      monitoring;
      storage;
      subscribers = [];
    }
  in
  (* Keep the lower layers' member sets in lockstep with the view: this runs
     while the view-change message is being delivered, i.e. at the same point
     of the total order at every process. *)
  Gm.on_view membership (fun v ->
      let old_members = Ab.members ab in
      Ab.set_members ab v.View.members;
      Gb.set_members gb v.View.members;
      Fd.set_peers fd v.View.members;
      (* Obligations towards excluded processes lapse (Section 3.3.2). *)
      List.iter
        (fun q -> if not (View.mem v q) then Rc.forget rc q)
        old_members);
  Gb.on_deliver gb (fun ~origin payload ->
      match payload with
      | Gcs_app { klass; body } ->
          let ordered = klass = Conflict.Ordered in
          List.iter (fun f -> f ~origin ~ordered body) (List.rev t.subscribers)
      | _ -> ());
  t

let abcast t body =
  Gb.gbcast t.gb (Gcs_app { klass = Conflict.Ordered; body })

let rbcast t body =
  Gb.gbcast t.gb (Gcs_app { klass = Conflict.Commuting; body })

let on_deliver t f = t.subscribers <- f :: t.subscribers

let join ?force t ~via = Gm.join ?force t.membership ~via
let add t p = Gm.add t.membership p
let remove t q = Gm.remove t.membership q
let join_remove_list t ~adds ~removes = Gm.join_remove_list t.membership ~adds ~removes
let view t = Gm.view t.membership
let joined t = Gm.joined t.membership
let left t = Gm.left t.membership
let on_view t f = Gm.on_view t.membership f

let id t = Process.id t.proc
let crash t = Process.crash t.proc

(* Orderly teardown, distinct from [crash] (which the fuzzer uses to model
   fail-stop): emit whatever the submission/ack batchers are still parking —
   otherwise a message submitted within [batch_delay] of teardown is
   silently dropped — then make the log durable, then stop. *)
let shutdown t =
  Gb.flush t.gb;
  (* The flushed broadcasts route through our own reliable channel first
     (the uniform loopback hop); deliver that hop now so they are relayed
     to the peers before the process stops existing. *)
  Rc.drain_loopback t.rc;
  (match t.storage with Some s -> Gc_kernel.Storage.sync s | None -> ());
  Process.crash t.proc

let alive t = Process.alive t.proc

let process t = t.proc
let metrics t = Process.metrics t.proc
let failure_detector t = t.fd
let reliable_channel t = t.rc
let atomic_broadcast t = t.ab
let generic_broadcast t = t.gb
let membership t = t.membership
let monitoring t = t.monitoring

module Process = Gc_kernel.Process
module Rc = Gc_rchannel.Reliable_channel

type transport = {
  broadcast : Gc_net.Payload.t -> unit;
  subscribe : (origin:int -> Gc_net.Payload.t -> unit) -> unit;
}

type Gc_net.Payload.t +=
  | Mb_join_req of { p : int }
  | Mb_change of { adds : int list; removes : int list; sponsor : int }
  | Mb_state of { view : View.t; snapshot : Gc_net.Payload.t option }

let () =
  Gc_net.Payload.register_printer (function
    | Mb_join_req { p } -> Some (Printf.sprintf "mb.join_req(%d)" p)
    | Mb_change { adds; removes; _ } ->
        Some
          (Printf.sprintf "mb.change(+%d,-%d)" (List.length adds)
             (List.length removes))
    | Mb_state { view; _ } ->
        Some (Format.asprintf "mb.state(%a)" View.pp view)
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  Gc_net.Payload.register_codec ~tag:"mb"
    ~encode:(fun enc w p ->
      match p with
      | Mb_join_req { p } ->
          W.u8 w 0;
          W.varint w p;
          true
      | Mb_change { adds; removes; sponsor } ->
          W.u8 w 1;
          W.list w W.varint adds;
          W.list w W.varint removes;
          W.varint w sponsor;
          true
      | Mb_state { view; snapshot } ->
          W.u8 w 2;
          W.varint w view.View.vid;
          W.list w W.varint view.View.members;
          W.option w enc snapshot;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 0 ->
          Mb_join_req { p = W.read_varint r }
      | 1 ->
          let adds = W.read_list r W.read_varint in
          let removes = W.read_list r W.read_varint in
          let sponsor = W.read_varint r in
          Mb_change { adds; removes; sponsor }
      | 2 ->
          let vid = W.read_varint r in
          let members = W.read_list r W.read_varint in
          let snapshot = W.read_option r dec in
          Mb_state { view = { View.vid; members }; snapshot }
      | k -> Gc_net.Payload.malformed (Printf.sprintf "mb constructor %d" k))

type t = {
  proc : Process.t;
  rc : Rc.t;
  transport : transport;
  state_transfer_delay : float;
  state_provider : (unit -> Gc_net.Payload.t) option;
  state_installer : (Gc_net.Payload.t -> unit) option;
  mutable current : View.t;
  mutable joined : bool;
  mutable left : bool;
  mutable pending_removes : int list; (* proposed in the current view *)
  mutable view_subscribers : (View.t -> unit) list;
  mutable n_views : int;
  mutable join_requested_at : float option; (* pending join, for join_ms *)
  mutable change_proposed_at : float option; (* pending local change, for change_ms *)
}

let view t = t.current
let joined t = t.joined
let left t = t.left
let on_view t f = t.view_subscribers <- f :: t.view_subscribers
let view_changes t = t.n_views

let me t = Process.id t.proc

let install t v =
  t.current <- v;
  t.pending_removes <- [];
  t.n_views <- t.n_views + 1;
  Process.incr t.proc "membership.view_changes";
  (match t.change_proposed_at with
  | Some since ->
      t.change_proposed_at <- None;
      Process.observe t.proc "membership.change_ms" (Process.now t.proc -. since)
  | None -> ());
  Process.event t.proc ~component:"membership" ~kind:Gc_obs.Event.ViewInstall
    ~msg:(Printf.sprintf "view:%d" v.View.vid)
    ~attrs:
      [
        ("vid", string_of_int v.View.vid);
        ("view", Format.asprintf "%a" View.pp v);
      ]
    ();
  List.iter (fun f -> f v) (List.rev t.view_subscribers);
  if t.joined && not (View.mem v (me t)) then begin
    t.left <- true;
    if Process.traced t.proc then
      Process.event t.proc ~component:"membership"
        ~kind:(Gc_obs.Event.Custom "left") ()
  end

let handle_change t ~adds ~removes ~sponsor =
  let adds = List.filter (fun p -> not (View.mem t.current p)) adds
  and removes = List.filter (fun q -> View.mem t.current q) removes in
  if adds <> [] || removes <> [] then begin
    let v' = View.apply t.current ~adds ~removes in
    install t v';
    (* The sponsor ships the snapshot to each joiner once the change has a
       place in the total order, so the snapshot corresponds to a view
       boundary. *)
    if sponsor = me t && t.joined && not t.left then
      List.iter
        (fun p ->
          ignore
            (Process.timer t.proc ~delay:t.state_transfer_delay (fun () ->
                 (* Snapshot and view are captured together, at send time, so
                    the joiner resumes from a consistent point of the total
                    order. *)
                 let snapshot = Option.map (fun f -> f ()) t.state_provider in
                 Rc.send t.rc ~dst:p
                   (Mb_state { view = t.current; snapshot }))))
        adds
  end

let create proc ~rc ~transport ?(state_transfer_delay = 0.0) ?state_provider
    ?state_installer ~initial () =
  let t =
    {
      proc;
      rc;
      transport;
      state_transfer_delay;
      state_provider;
      state_installer;
      current = initial;
      joined = View.mem initial (Process.id proc);
      left = false;
      pending_removes = [];
      view_subscribers = [];
      n_views = 0;
      join_requested_at = None;
      change_proposed_at = None;
    }
  in
  (* The paper's membership never blocks senders during a view change; the
     gauge exists so merged reports show the 0 explicitly, against the
     traditional stack's [traditional.blocked_ms_total]. *)
  Gc_obs.Metrics.set_gauge (Process.metrics proc)
    "membership.sender_blocked_ms_total" 0.0;
  transport.subscribe (fun ~origin payload ->
      match payload with
      | Mb_change { adds; removes; sponsor } ->
          (* Changes proposed by processes that are no longer members are
             void — e.g. stale exclusions accumulated by a partitioned
             minority must not fire after the network heals. *)
          if View.mem t.current origin then
            handle_change t ~adds ~removes ~sponsor
      | _ -> ());
  Rc.on_deliver rc (fun ~src:_ payload ->
      match payload with
      | Mb_join_req { p } ->
          (* Sponsor side: only members broadcast the change. *)
          if t.joined && not t.left then
            if not (View.mem t.current p) then
              t.transport.broadcast
                (Mb_change { adds = [ p ]; removes = []; sponsor = me t })
            else if p <> me t then begin
              (* [p] is still in the view: it crashed and restarted before
                 monitoring excluded it.  No view change is needed — resync
                 it directly with a fresh snapshot, or its join request
                 would be dropped on the floor and the process would hang
                 unjoined until its own exclusion and re-add. *)
              Process.incr t.proc "membership.resyncs";
              ignore
                (Process.timer t.proc ~delay:t.state_transfer_delay (fun () ->
                     let snapshot = Option.map (fun f -> f ()) t.state_provider in
                     Rc.send t.rc ~dst:p
                       (Mb_state { view = t.current; snapshot })))
            end
      | Mb_state { view; snapshot } ->
          if not t.joined then begin
            (match (snapshot, t.state_installer) with
            | Some s, Some f -> f s
            | _ -> ());
            t.joined <- true;
            (match t.join_requested_at with
            | Some since ->
                t.join_requested_at <- None;
                Process.observe t.proc "membership.join_ms"
                  (Process.now t.proc -. since)
            | None -> ());
            install t view
          end
      | _ -> ());
  t

let join ?(force = false) t ~via =
  (* A process excluded earlier may rejoin: it re-enters the joiner path and
     waits for a fresh state transfer.  [force] covers the process that
     cannot know it was excluded (e.g. it sat in a minority partition and the
     members' channels to it lapsed): it demotes itself and rejoins. *)
  if t.left || force then begin
    t.left <- false;
    t.joined <- false
  end;
  if not t.joined then begin
    if t.join_requested_at = None then
      t.join_requested_at <- Some (Process.now t.proc);
    Rc.send t.rc ~dst:via (Mb_join_req { p = me t })
  end

let add t p =
  if t.joined && (not t.left) && not (View.mem t.current p) then begin
    if t.change_proposed_at = None then
      t.change_proposed_at <- Some (Process.now t.proc);
    t.transport.broadcast (Mb_change { adds = [ p ]; removes = []; sponsor = me t })
  end

let remove t q =
  if
    t.joined && (not t.left)
    && View.mem t.current q
    && not (List.mem q t.pending_removes)
  then begin
    t.pending_removes <- q :: t.pending_removes;
    if t.change_proposed_at = None then
      t.change_proposed_at <- Some (Process.now t.proc);
    t.transport.broadcast
      (Mb_change { adds = []; removes = [ q ]; sponsor = me t })
  end

let join_remove_list t ~adds ~removes =
  if t.joined && not t.left then
    t.transport.broadcast (Mb_change { adds; removes; sponsor = me t })

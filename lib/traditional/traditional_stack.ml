module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Consensus = Gc_consensus.Consensus
module Sorted = Gc_sim.Sorted
module View = Gc_membership.View

(* How a view change is agreed (Section 2.1 of the paper):
   - [Coordinator]: Isis-style — the first non-suspected member collects the
     flush responses and unilaterally broadcasts the install (Figure 1);
   - [Consensus_based]: Phoenix-style — every member broadcasts its flush
     state, merges, and the (view, cut) pair is decided by the consensus
     component among the old members (Figure 2), tolerating a crashed
     would-be coordinator without the retry dance. *)
type view_agreement = Coordinator | Consensus_based

type config = {
  hb_period : float;
  fd_timeout : float;
  rto : float;
  flush_timeout : float;
  rejoin_delay : float;
  state_transfer_delay : float;
  view_agreement : view_agreement;
}

let default_config =
  {
    hb_period = 20.0;
    fd_timeout = 1000.0;
    rto = 50.0;
    flush_timeout = 1500.0;
    rejoin_delay = 500.0;
    state_transfer_delay = 100.0;
    view_agreement = Coordinator;
  }

type vsid = int * int (* sender, sender-global counter *)
type rid = int * int (* origin, origin counter: dedup for ordered payloads *)

type inner =
  | Plain of { origin : int; body : Gc_net.Payload.t }
  | Ordered of { gseq : int; rid : rid; body : Gc_net.Payload.t }

type vsmsg = { vsid : vsid; vid : int; inner : inner }

type epoch = int * int (* counter, initiator: lexicographic *)

type Gc_net.Payload.t +=
  | Tr_vs of vsmsg
  | Tr_ack of { vsid : vsid }
  | Tr_flreq of { epoch : epoch; proposal : int list }
  | Tr_flresp of { epoch : epoch; unstable : vsmsg list }
  | Tr_install of { epoch : epoch; view : View.t; deliver : vsmsg list }
  | Tr_seqreq of { rid : rid; body : Gc_net.Payload.t }
  | Tr_joinreq of { p : int; rejoin : bool }
  | Tr_leavereq of { p : int }
  | Tr_state of { view : View.t; last_gseq : int; app : Gc_net.Payload.t option }
  | Tr_vc_proposal of {
      view : View.t;
      deliver : vsmsg list;
      joiners : int list;
    }

let () =
  Gc_net.Payload.register_printer (function
    | Tr_vs { vsid = s, c; vid; _ } -> Some (Printf.sprintf "tr.vs#%d.%d@v%d" s c vid)
    | Tr_ack { vsid = s, c } -> Some (Printf.sprintf "tr.ack#%d.%d" s c)
    | Tr_flreq { epoch = e, i; _ } -> Some (Printf.sprintf "tr.flreq(%d,%d)" e i)
    | Tr_flresp { epoch = e, i; _ } -> Some (Printf.sprintf "tr.flresp(%d,%d)" e i)
    | Tr_install { view; _ } -> Some (Format.asprintf "tr.install(%a)" View.pp view)
    | Tr_seqreq { rid = o, k; _ } -> Some (Printf.sprintf "tr.seqreq#%d.%d" o k)
    | Tr_joinreq { p; _ } -> Some (Printf.sprintf "tr.join(%d)" p)
    | Tr_leavereq { p } -> Some (Printf.sprintf "tr.leave(%d)" p)
    | Tr_state { view; _ } -> Some (Format.asprintf "tr.state(%a)" View.pp view)
    | Tr_vc_proposal { view; _ } ->
        Some (Format.asprintf "tr.vc_proposal(%a)" View.pp view)
    | _ -> None)

type flush = {
  f_epoch : epoch;
  f_proposal : int list;
  f_old_members : int list;
  responses : (int, vsmsg list) Hashtbl.t;
  joiners : int list;
}

type t = {
  proc : Process.t;
  fd : Fd.t;
  monitor : Fd.monitor;
  rc : Rc.t;
  config : config;
  app_state_provider : (unit -> Gc_net.Payload.t) option;
  app_state_installer : (Gc_net.Payload.t -> unit) option;
  mutable view : View.t;
  mutable active : bool;
  mutable killed : bool;
  mutable leaving : bool;
  (* view synchrony *)
  mutable vs_counter : int;
  unstable : (vsid, vsmsg * (int, unit) Hashtbl.t) Hashtbl.t;
  vs_seen : (vsid, unit) Hashtbl.t; (* vs messages already processed *)
  mutable future : vsmsg list; (* messages tagged with a future view *)
  (* sequencer atomic broadcast *)
  mutable next_gseq : int; (* sequencer side *)
  mutable last_gseq : int; (* delivery side *)
  ord_buf : (int, rid * Gc_net.Payload.t) Hashtbl.t;
  delivered_rids : (rid, unit) Hashtbl.t;
  mutable rid_counter : int;
  pending_req : (rid, Gc_net.Payload.t) Hashtbl.t;
  assigned_rids : (rid, unit) Hashtbl.t; (* sequencer dedup *)
  (* flush / membership *)
  mutable cur_epoch : epoch;
  mutable epoch_counter : int;
  mutable my_flush : flush option;
  mutable early_flresp : (epoch * int * vsmsg list) list;
      (* Phoenix: responses to a flush whose [Tr_flreq] has not arrived *)
  mutable consensus : Consensus.t option; (* Phoenix mode only *)
  mutable pending_joins : (int * bool) list; (* (p, rejoin) *)
  mutable pending_leaves : int list;
  mutable blocked_since : float option;
  mutable out_queue : (unit -> unit) list; (* app ops deferred by a flush *)
  (* instrumentation *)
  mutable blocked_total : float;
  mutable excluded_since : float option;
  mutable excluded_total : float;
  mutable n_exclusions : int;
  mutable n_views : int;
  mutable subscribers :
    (origin:int -> ordered:bool -> Gc_net.Payload.t -> unit) list;
  mutable view_subscribers : (View.t -> unit) list;
}

let me t = Process.id t.proc
let view t = t.view
let is_member t = t.active
let alive t = Process.alive t.proc
let id t = me t
let crash t = Process.crash t.proc
let on_deliver t f = t.subscribers <- f :: t.subscribers
let on_view t f = t.view_subscribers <- f :: t.view_subscribers
let blocked t = t.blocked_since <> None

let blocked_time_total t =
  t.blocked_total
  +. match t.blocked_since with Some s -> Process.now t.proc -. s | None -> 0.0

let exclusions_suffered t = t.n_exclusions

let excluded_time_total t =
  t.excluded_total
  +. match t.excluded_since with Some s -> Process.now t.proc -. s | None -> 0.0

let view_changes t = t.n_views
let process t = t.proc
let reliable_channel t = t.rc

let sequencer t = View.primary t.view

let notify t ~origin ~ordered body =
  List.iter (fun f -> f ~origin ~ordered body) (List.rev t.subscribers)

let send_members t payload =
  List.iter (fun q -> if q <> me t then Rc.send t.rc ~dst:q payload)
    t.view.View.members

(* Suspicion-filtered membership: the fused FD/membership coupling.  The
   first non-suspected member acts as view-change coordinator. *)
let alive_members t =
  List.filter (fun q -> not (Fd.suspected t.monitor q)) t.view.View.members

(* ---------- ordered (sequencer) delivery ---------- *)

let rec try_deliver_ordered t =
  match Hashtbl.find_opt t.ord_buf (t.last_gseq + 1) with
  | None -> ()
  | Some (rid, body) ->
      Hashtbl.remove t.ord_buf (t.last_gseq + 1);
      t.last_gseq <- t.last_gseq + 1;
      Hashtbl.remove t.pending_req rid;
      if not (Hashtbl.mem t.delivered_rids rid) then begin
        Hashtbl.replace t.delivered_rids rid ();
        if Process.traced t.proc then
          Process.event t.proc ~component:"traditional"
            ~kind:Gc_obs.Event.Deliver
            ~msg:(Printf.sprintf "tr:%d.%d" (fst rid) (snd rid))
            ~attrs:
              [ ("ordered", "true"); ("gseq", string_of_int t.last_gseq) ]
            ();
        notify t ~origin:(fst rid) ~ordered:true body
      end;
      try_deliver_ordered t

(* Drain the buffer across a view change: gaps belong to the dead sequencer
   and are re-requested by their origins.  Entries at or below [last_gseq]
   are stale — their slot was already delivered, jumped over by an earlier
   drain, or absorbed into a state-transfer snapshot — and delivering them
   now would reorder this node against everyone who delivered them in
   place, so they are dropped. *)
let drain_ordered_after_flush t =
  let entries =
    Sorted.bindings t.ord_buf
    |> List.filter (fun (gseq, _) -> gseq > t.last_gseq)
  in
  Hashtbl.reset t.ord_buf;
  List.iter
    (fun (gseq, (rid, body)) ->
      t.last_gseq <- max t.last_gseq gseq;
      Hashtbl.remove t.pending_req rid;
      if not (Hashtbl.mem t.delivered_rids rid) then begin
        Hashtbl.replace t.delivered_rids rid ();
        if Process.traced t.proc then
          Process.event t.proc ~component:"traditional"
            ~kind:Gc_obs.Event.Deliver
            ~msg:(Printf.sprintf "tr:%d.%d" (fst rid) (snd rid))
            ~attrs:[ ("ordered", "true"); ("gseq", string_of_int gseq) ]
            ();
        notify t ~origin:(fst rid) ~ordered:true body
      end)
    entries

(* ---------- view-synchronous delivery and stability ---------- *)

let track_unstable t m =
  if not (Hashtbl.mem t.unstable m.vsid) then begin
    let ackers = Hashtbl.create 8 in
    Hashtbl.replace ackers (me t) ();
    Hashtbl.replace t.unstable m.vsid (m, ackers)
  end

let check_stable t vsid =
  match Hashtbl.find_opt t.unstable vsid with
  | None -> ()
  | Some (_, ackers) ->
      if List.for_all (fun q -> Hashtbl.mem ackers q) t.view.View.members then
        Hashtbl.remove t.unstable vsid

let vs_process t m =
  if not (Hashtbl.mem t.vs_seen m.vsid) then begin
    Hashtbl.replace t.vs_seen m.vsid ();
    track_unstable t m;
    send_members t (Tr_ack { vsid = m.vsid });
    check_stable t m.vsid;
    match m.inner with
    | Plain { origin; body } ->
        if Process.traced t.proc then
          Process.event t.proc ~component:"traditional"
            ~kind:Gc_obs.Event.Deliver
            ~msg:(Printf.sprintf "trvs:%d.%d" (fst m.vsid) (snd m.vsid))
            ~attrs:[ ("ordered", "false") ]
            ();
        notify t ~origin ~ordered:false body
    | Ordered { gseq; rid; body } ->
        (* Slots at or below [last_gseq] are already settled (see
           [drain_ordered_after_flush]); buffering them again would only
           resurface them out of order at the next flush. *)
        if gseq > t.last_gseq && not (Hashtbl.mem t.ord_buf gseq) then
          Hashtbl.replace t.ord_buf gseq (rid, body);
        try_deliver_ordered t
  end

let vs_receive t m =
  if t.active then begin
    if m.vid = t.view.View.vid then vs_process t m
    else if m.vid > t.view.View.vid then t.future <- m :: t.future
    (* m.vid < vid: late message from a closed view — the flush already
       settled its fate (view synchrony discard rule). *)
  end

(* ---------- sending ---------- *)

let vs_send t m =
  track_unstable t m;
  send_members t (Tr_vs m);
  (* Local copy processed directly (self-ack recorded in track_unstable). *)
  vs_process t m

let fresh_vsid t =
  let v = (me t, t.vs_counter) in
  t.vs_counter <- t.vs_counter + 1;
  v

let enqueue_or t f =
  if (not t.active) || blocked t then t.out_queue <- f :: t.out_queue else f ()

let rec vscast t body =
  enqueue_or t (fun () -> vscast_now t body)

and vscast_now t body =
  let m =
    { vsid = fresh_vsid t; vid = t.view.View.vid; inner = Plain { origin = me t; body } }
  in
  vs_send t m

let sequence_now t rid body =
  let gseq = t.next_gseq in
  t.next_gseq <- gseq + 1;
  Hashtbl.replace t.assigned_rids rid ();
  let m =
    { vsid = fresh_vsid t; vid = t.view.View.vid; inner = Ordered { gseq; rid; body } }
  in
  vs_send t m

let rec abcast t body =
  let rid = (me t, t.rid_counter) in
  t.rid_counter <- t.rid_counter + 1;
  if Process.traced t.proc then
    Process.event t.proc ~component:"traditional" ~kind:Gc_obs.Event.Send
      ~msg:(Printf.sprintf "tr:%d.%d" (fst rid) (snd rid))
      ();
  Hashtbl.replace t.pending_req rid body;
  enqueue_or t (fun () -> abcast_route t rid body)

and abcast_route t rid body =
  if Hashtbl.mem t.pending_req rid then
    match sequencer t with
    | Some s when s = me t -> sequence_now t rid body
    | Some s -> Rc.send t.rc ~dst:s (Tr_seqreq { rid; body })
    | None -> ()

let rec handle_seqreq t ~rid ~body =
  if t.active then begin
    if Some (me t) = sequencer t then begin
      if
        (not (Hashtbl.mem t.assigned_rids rid))
        && not (Hashtbl.mem t.delivered_rids rid)
      then
        if blocked t then
          t.out_queue <- (fun () -> handle_seqreq t ~rid ~body) :: t.out_queue
        else sequence_now t rid body
    end
    else
      (* Not the sequencer (stale addressing): forward. *)
      match sequencer t with
      | Some s when s <> me t -> Rc.send t.rc ~dst:s (Tr_seqreq { rid; body })
      | _ -> ()
  end

(* ---------- flush protocol (membership + view synchrony) ---------- *)

(* [unstable] is keyed by vsid, so key order is vsid order. *)
let unstable_list t = List.map fst (Sorted.values t.unstable)

let start_block t =
  if t.blocked_since = None then t.blocked_since <- Some (Process.now t.proc)

let end_block t =
  match t.blocked_since with
  | Some s ->
      let span = Process.now t.proc -. s in
      t.blocked_total <- t.blocked_total +. span;
      Process.observe t.proc "traditional.blocked_ms" span;
      Gc_obs.Metrics.set_gauge
        (Process.metrics t.proc)
        "traditional.blocked_ms_total" t.blocked_total;
      t.blocked_since <- None
  | None -> ()

let epoch_gt a b = compare a b > 0

let rec maybe_coordinate t =
  if t.active && Process.alive t.proc then begin
    let alive = alive_members t in
    let joins =
      List.filter (fun (p, _) -> not (View.mem t.view p)) t.pending_joins
    in
    let want =
      List.filter (fun q -> not (List.mem q t.pending_leaves)) alive
      @ List.map fst joins
    in
    let change_needed = want <> t.view.View.members in
    let i_coordinate =
      match alive with c :: _ -> c = me t | [] -> false
    in
    (* Primary-partition rule: never install a minority view. *)
    let majority = 2 * List.length alive > View.size t.view in
    if change_needed && i_coordinate && majority then begin
      let already =
        match t.my_flush with
        | Some f -> f.f_proposal = want
        | None -> false
      in
      if not already then start_flush t want (List.map fst joins)
    end
  end

and start_flush t proposal joiners =
  t.epoch_counter <- t.epoch_counter + 1;
  let epoch = (t.epoch_counter, me t) in
  let old_members = t.view.View.members in
  let f =
    {
      f_epoch = epoch;
      f_proposal = proposal;
      f_old_members = old_members;
      responses = Hashtbl.create 8;
      joiners;
    }
  in
  t.my_flush <- Some f;
  Process.incr t.proc "traditional.flushes";
  if Process.traced t.proc then
    Process.event t.proc ~component:"traditional"
      ~kind:(Gc_obs.Event.Custom "flush_start")
      ~attrs:
        [
          ("epoch", Printf.sprintf "%d,%d" (fst epoch) (snd epoch));
          ("proposal", String.concat ";" (List.map string_of_int proposal));
        ]
      ();
  (* Ask every surviving old member (they hold old-view state); pure joiners
     have nothing to flush. *)
  let responders = List.filter (fun q -> List.mem q old_members) proposal in
  adopt_flush t epoch;
  Hashtbl.replace f.responses (me t) (unstable_list t);
  List.iter
    (fun q ->
      if q <> me t then Rc.send t.rc ~dst:q (Tr_flreq { epoch; proposal }))
    responders;
  (* Phoenix: the initiator's own state also goes to everyone, since every
     member builds the merge. *)
  (if t.config.view_agreement = Consensus_based then
     List.iter
       (fun q ->
         if q <> me t then
           Rc.send t.rc ~dst:q (Tr_flresp { epoch; unstable = unstable_list t }))
       responders);
  check_flush_complete t

and adopt_flush t epoch =
  if epoch_gt epoch t.cur_epoch then t.cur_epoch <- epoch;
  t.early_flresp <-
    List.filter (fun (e, _, _) -> not (epoch_gt t.cur_epoch e)) t.early_flresp;
  start_block t;
  (* If no install arrives (coordinator crashed mid-flush), retry from the
     current suspicion picture. *)
  ignore
    (Process.timer t.proc ~delay:t.config.flush_timeout (fun () ->
         if blocked t && t.active then maybe_coordinate t))

and handle_flreq t ~src ~epoch ~proposal =
  if t.active && epoch_gt epoch t.cur_epoch then begin
    adopt_flush t epoch;
    match t.config.view_agreement with
    | Coordinator ->
        Rc.send t.rc ~dst:src (Tr_flresp { epoch; unstable = unstable_list t })
    | Consensus_based ->
        (* Phoenix: every member collects everyone's state and proposes the
           merged (view, cut) to consensus, so any member's proposal is a
           complete cut. *)
        let old_members = t.view.View.members in
        let joiners =
          List.filter (fun p -> not (List.mem p old_members)) proposal
        in
        let f =
          {
            f_epoch = epoch;
            f_proposal = proposal;
            f_old_members = old_members;
            responses = Hashtbl.create 8;
            joiners;
          }
        in
        t.my_flush <- Some f;
        Hashtbl.replace f.responses (me t) (unstable_list t);
        let early, later =
          List.partition (fun (e, _, _) -> e = epoch) t.early_flresp
        in
        t.early_flresp <- later;
        List.iter
          (fun (_, q, l) ->
            if not (Hashtbl.mem f.responses q) then
              Hashtbl.replace f.responses q l)
          early;
        List.iter
          (fun q ->
            if q <> me t && List.mem q old_members then
              Rc.send t.rc ~dst:q (Tr_flresp { epoch; unstable = unstable_list t }))
          proposal;
        check_flush_complete t
  end

and handle_flresp t ~src ~epoch ~unstable =
  match t.my_flush with
  | Some f when f.f_epoch = epoch ->
      if not (Hashtbl.mem f.responses src) then begin
        Hashtbl.replace f.responses src unstable;
        check_flush_complete t
      end
  | _ when epoch_gt epoch t.cur_epoch ->
      (* Phoenix: every old member sends its response to every other, and
         FIFO holds only per sender, so a peer's response can overtake the
         initiator's [Tr_flreq].  Dropping it would leave this member's
         merge incomplete forever, and the consensus over the old view
         would wait on its proposal; keep it until the request arrives. *)
      t.early_flresp <- (epoch, src, unstable) :: t.early_flresp
  | _ -> ()

and check_flush_complete t =
  match t.my_flush with
  | None -> ()
  | Some f ->
      let responders =
        List.filter (fun q -> List.mem q f.f_old_members) f.f_proposal
      in
      if List.for_all (fun q -> Hashtbl.mem f.responses q) responders then begin
        (* Merge unstable messages across responders: the view-synchrony
           cut. *)
        let merged = Hashtbl.create 32 in
        Sorted.iter
          (fun _src l ->
            List.iter (fun m -> Hashtbl.replace merged m.vsid m) l)
          f.responses;
        let deliver = Sorted.values merged in
        let new_view =
          { View.vid = t.view.View.vid + 1; members = f.f_proposal }
        in
        match (t.config.view_agreement, t.consensus) with
        | Consensus_based, Some cons ->
            (* Phoenix: agree on the (view, cut, joiners) via consensus among
               the old members; the install happens on decide. *)
            Consensus.propose cons ~inst:new_view.View.vid
              ~members:f.f_old_members
              (Tr_vc_proposal
                 { view = new_view; deliver; joiners = f.joiners })
        | _ when epoch_gt t.cur_epoch f.f_epoch ->
            (* A concurrent coordinator started a higher-epoch flush while we
               collected responses: abandon ours instead of installing a
               rival view with the same vid (and a rival sequencer reusing
               the same sequence numbers). *)
            t.my_flush <- None
        | _ ->
        t.my_flush <- None;
        let install = Tr_install { epoch = f.f_epoch; view = new_view; deliver } in
        (* Everyone learns: survivors install, the excluded learn their fate,
           joiners wait for the state snapshot sent below. *)
        let audience =
          List.sort_uniq Int.compare (f.f_old_members @ f.f_proposal)
        in
        List.iter
          (fun q -> if q <> me t then Rc.send t.rc ~dst:q install)
          audience;
        apply_install t ~view:new_view ~deliver;
        List.iter
          (fun p ->
            ignore
              (Process.timer t.proc ~delay:t.config.state_transfer_delay
                 (fun () ->
                   let app =
                     Option.map (fun g -> g ()) t.app_state_provider
                   in
                   Rc.send t.rc ~dst:p
                     (Tr_state { view = t.view; last_gseq = t.last_gseq; app }))))
          f.joiners
      end

and apply_install t ~view ~deliver =
  (* Deliver the cut (messages someone saw but we might not have). *)
  List.iter (fun m -> vs_process t m) deliver;
  drain_ordered_after_flush t;
  (* The sequencing baton may change hands: the new sequencer continues right
     after the last sequence number the view synchrony cut agreed on. *)
  t.next_gseq <- t.last_gseq + 1;
  Hashtbl.reset t.unstable;
  t.view <- view;
  t.n_views <- t.n_views + 1;
  t.pending_joins <-
    List.filter (fun (p, _) -> not (View.mem view p)) t.pending_joins;
  t.pending_leaves <- List.filter (fun p -> View.mem view p) t.pending_leaves;
  Fd.set_peers t.fd view.View.members;
  end_block t;
  Process.incr t.proc "traditional.view_changes";
  Process.event t.proc ~component:"traditional" ~kind:Gc_obs.Event.ViewInstall
    ~msg:(Printf.sprintf "view:%d" view.View.vid)
    ~attrs:
      [
        ("vid", string_of_int view.View.vid);
        ("view", Format.asprintf "%a" View.pp view);
      ]
    ();
  List.iter (fun f -> f view) (List.rev t.view_subscribers);
  (* Replay messages that arrived tagged with this view before we got here. *)
  let future = List.rev t.future in
  t.future <- [];
  List.iter (fun m -> vs_receive t m) future;
  (* Re-route unordered requests to the (possibly new) sequencer. *)
  List.iter
    (fun (rid, body) ->
      if not (Hashtbl.mem t.delivered_rids rid) then abcast_route t rid body)
    (Sorted.bindings t.pending_req);
  (* Unblock queued application operations. *)
  let q = List.rev t.out_queue in
  t.out_queue <- [];
  List.iter (fun f -> f ()) q;
  maybe_coordinate t

and handle_install t ~epoch ~view ~deliver =
  (* Installs from an epoch older than one we already adopted lost the race
     to a concurrent coordinator: applying them would fork the view. *)
  if t.active && not (epoch_gt t.cur_epoch epoch) then begin
    if epoch_gt epoch t.cur_epoch then t.cur_epoch <- epoch;
    if View.mem view (me t) then apply_install t ~view ~deliver
    else begin
      (* Excluded: the traditional stack kills the process, which must later
         rejoin with a state transfer (Section 4.3). *)
      t.active <- false;
      t.killed <- true;
      end_block t;
      t.view <- view;
      if not t.leaving then begin
        t.n_exclusions <- t.n_exclusions + 1;
        t.excluded_since <- Some (Process.now t.proc);
        Process.incr t.proc "traditional.exclusions";
        Process.event t.proc ~component:"traditional" ~kind:Gc_obs.Event.Exclude
          ~attrs:[ ("peer", string_of_int (me t)) ]
          ();
        schedule_rejoin t
      end
    end
  end

and schedule_rejoin t =
  ignore
    (Process.timer t.proc ~delay:t.config.rejoin_delay (fun () ->
         if t.killed && not t.leaving then begin
           (match
              List.filter (fun q -> q <> me t) t.view.View.members
            with
           | via :: _ ->
               Rc.send t.rc ~dst:via (Tr_joinreq { p = me t; rejoin = true })
           | [] -> ());
           (* Keep retrying until a state transfer reinstates us. *)
           schedule_rejoin t
         end))

let handle_joinreq t ~p ~rejoin =
  if t.active then begin
    if not (List.mem_assoc p t.pending_joins) && not (View.mem t.view p) then
      t.pending_joins <- (p, rejoin) :: t.pending_joins;
    match alive_members t with
    | c :: _ when c = me t -> maybe_coordinate t
    | c :: _ -> Rc.send t.rc ~dst:c (Tr_joinreq { p; rejoin })
    | [] -> ()
  end

let handle_leavereq t ~p =
  if t.active then begin
    if not (List.mem p t.pending_leaves) && View.mem t.view p then
      t.pending_leaves <- p :: t.pending_leaves;
    match alive_members t with
    | c :: _ when c = me t -> maybe_coordinate t
    | c :: _ -> Rc.send t.rc ~dst:c (Tr_leavereq { p })
    | [] -> ()
  end

let handle_state t ~view ~last_gseq ~app =
  if not t.active then begin
    (match (app, t.app_state_installer) with
    | Some s, Some f -> f s
    | _ -> ());
    t.view <- view;
    t.last_gseq <- last_gseq;
    t.next_gseq <- last_gseq + 1;
    t.active <- true;
    t.killed <- false;
    Hashtbl.reset t.unstable;
    Hashtbl.reset t.ord_buf;
    (match t.excluded_since with
    | Some s ->
        t.excluded_total <- t.excluded_total +. (Process.now t.proc -. s);
        t.excluded_since <- None
    | None -> ());
    Fd.set_peers t.fd view.View.members;
    t.n_views <- t.n_views + 1;
    Process.event t.proc ~component:"traditional" ~kind:Gc_obs.Event.ViewInstall
      ~msg:(Printf.sprintf "view:%d" view.View.vid)
      ~attrs:
        [
          ("vid", string_of_int view.View.vid);
          ("view", Format.asprintf "%a" View.pp view);
          ("rejoin", "true");
        ]
      ();
    List.iter (fun f -> f view) (List.rev t.view_subscribers);
    (* Flush operations queued while we were out. *)
    let q = List.rev t.out_queue in
    t.out_queue <- [];
    List.iter (fun f -> f ()) q
  end

let create runtime ~id ~initial ?(config = default_config)
    ?app_state_provider ?app_state_installer () =
  let proc = Process.create runtime ~id in
  Process.incr ~by:0 proc "traditional.flushes";
  Process.incr ~by:0 proc "traditional.view_changes";
  Process.incr ~by:0 proc "traditional.exclusions";
  Gc_obs.Metrics.set_gauge (Process.metrics proc)
    "traditional.blocked_ms_total" 0.0;
  let fd = Fd.create proc ~hb_period:config.hb_period ~peers:initial () in
  let rc = Rc.create proc ~rto:config.rto () in
  let t_ref = ref None in
  let monitor =
    Fd.monitor fd ~label:"traditional" ~timeout:config.fd_timeout
      ~on_suspect:(fun _q ->
        match !t_ref with Some t -> maybe_coordinate t | None -> ())
      ()
  in
  let t =
    {
      proc;
      fd;
      monitor;
      rc;
      config;
      app_state_provider;
      app_state_installer;
      view = View.initial initial;
      active = List.mem id initial;
      killed = false;
      leaving = false;
      vs_counter = 0;
      unstable = Hashtbl.create 64;
      vs_seen = Hashtbl.create 256;
      future = [];
      next_gseq = 1;
      last_gseq = 0;
      ord_buf = Hashtbl.create 32;
      delivered_rids = Hashtbl.create 256;
      rid_counter = 0;
      pending_req = Hashtbl.create 32;
      assigned_rids = Hashtbl.create 256;
      cur_epoch = (0, -1);
      epoch_counter = 0;
      my_flush = None;
      early_flresp = [];
      consensus = None;
      pending_joins = [];
      pending_leaves = [];
      blocked_since = None;
      out_queue = [];
      blocked_total = 0.0;
      excluded_since = None;
      excluded_total = 0.0;
      n_exclusions = 0;
      n_views = 0;
      subscribers = [];
      view_subscribers = [];
    }
  in
  t_ref := Some t;
  (if config.view_agreement = Consensus_based then begin
     let rb = Rb.create proc rc in
     let on_decide ~inst v =
       match (!t_ref, v) with
       | Some t, Tr_vc_proposal { view; deliver; joiners } ->
           if t.active && inst = t.view.View.vid + 1 then begin
             t.my_flush <- None;
             if View.mem view (me t) then begin
               apply_install t ~view ~deliver;
               (* The head of the new view sponsors the joiners' state. *)
               if View.primary t.view = Some (me t) then
                 List.iter
                   (fun p ->
                     ignore
                       (Process.timer t.proc
                          ~delay:t.config.state_transfer_delay (fun () ->
                            let app =
                              Option.map (fun g -> g ()) t.app_state_provider
                            in
                            Rc.send t.rc ~dst:p
                              (Tr_state
                                 { view = t.view; last_gseq = t.last_gseq; app }))))
                   joiners
             end
             else
               handle_install t ~epoch:t.cur_epoch ~view ~deliver:[]
           end
       | _ -> ()
     in
     let on_solicit ~inst:_ =
       (* A consensus instance we have not proposed for: our merge is not
          complete yet; completing it (or a new suspicion shrinking the
          responder set) triggers our proposal. *)
       match !t_ref with Some t -> check_flush_complete t | None -> ()
     in
     let cons =
       Consensus.create proc ~rc ~rb ~fd ~suspect_timeout:config.fd_timeout
         ~on_decide ~on_solicit ()
     in
     t.consensus <- Some cons
   end);
  Rc.on_deliver rc (fun ~src payload ->
      match payload with
      | Tr_vs m -> vs_receive t m
      | Tr_ack { vsid } -> (
          match Hashtbl.find_opt t.unstable vsid with
          | Some (_, ackers) ->
              Hashtbl.replace ackers src ();
              check_stable t vsid
          | None -> ())
      | Tr_flreq { epoch; proposal } -> handle_flreq t ~src ~epoch ~proposal
      | Tr_flresp { epoch; unstable } -> handle_flresp t ~src ~epoch ~unstable
      | Tr_install { epoch; view; deliver } -> handle_install t ~epoch ~view ~deliver
      | Tr_seqreq { rid; body } -> handle_seqreq t ~rid ~body
      | Tr_joinreq { p; rejoin } -> handle_joinreq t ~p ~rejoin
      | Tr_leavereq { p } -> handle_leavereq t ~p
      | Tr_state { view; last_gseq; app } -> handle_state t ~view ~last_gseq ~app
      | _ -> ());
  t

let join t ~via =
  if not t.active then
    Rc.send t.rc ~dst:via (Tr_joinreq { p = me t; rejoin = false })

let leave t =
  if t.active then begin
    t.leaving <- true;
    match alive_members t with
    | c :: _ when c = me t -> handle_leavereq t ~p:(me t)
    | c :: _ -> Rc.send t.rc ~dst:c (Tr_leavereq { p = me t })
    | [] -> ()
  end

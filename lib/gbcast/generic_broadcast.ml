module Process = Gc_kernel.Process
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Ab = Gc_abcast.Atomic_broadcast
module Delivered = Gc_kernel.Delivered_set
module Sorted = Gc_sim.Sorted

type msg = { origin : int; gseq : int; body : Gc_net.Payload.t }

let msg_id m = (m.origin, m.gseq)
let compare_id (a : int * int) b = compare a b
let compare_msg a b = compare_id (msg_id a) (msg_id b)

type Gc_net.Payload.t +=
  | Gb_fast_batch of msg list
  | Gb_acks of ((int * int) * int) list (* (id, stage) per acknowledged msg *)
  | Gb_state of { stage : int; acked : msg list; pending : msg list }
  | Gb_cut of { stage : int; first : msg list; rest : msg list }

let () =
  Gc_net.Payload.register_printer (function
    (* One-element containers print as the plain message or ack they
       carry. *)
    | Gb_fast_batch [ m ] ->
        Some (Printf.sprintf "gb.fast#%d.%d" m.origin m.gseq)
    | Gb_fast_batch ms ->
        Some
          (Printf.sprintf "gb.fastbatch[%s]"
             (String.concat ";"
                (List.map
                   (fun m -> Printf.sprintf "%d.%d" m.origin m.gseq)
                   ms)))
    | Gb_acks [ ((o, s), stage) ] ->
        Some (Printf.sprintf "gb.ack#%d.%d@%d" o s stage)
    | Gb_acks l ->
        Some
          (Printf.sprintf "gb.acks[%s]"
             (String.concat ";"
                (List.map
                   (fun ((o, s), stage) ->
                     Printf.sprintf "%d.%d@%d" o s stage)
                   l)))
    | Gb_state { stage; _ } -> Some (Printf.sprintf "gb.state@%d" stage)
    | Gb_cut { stage; first; rest } ->
        Some
          (Printf.sprintf "gb.cut@%d(%d+%d)" stage (List.length first)
             (List.length rest))
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  let write_msg enc w m =
    W.varint w m.origin;
    W.varint w m.gseq;
    enc w m.body
  in
  let read_msg dec r =
    let origin = W.read_varint r in
    let gseq = W.read_varint r in
    let body = dec r in
    { origin; gseq; body }
  in
  let write_ack w ((o, s), stage) =
    W.varint w o;
    W.varint w s;
    W.varint w stage
  in
  let read_ack r =
    let o = W.read_varint r in
    let s = W.read_varint r in
    let stage = W.read_varint r in
    ((o, s), stage)
  in
  Gc_net.Payload.register_codec ~tag:"gb"
    ~encode:(fun enc w p ->
      match p with
      | Gb_state { stage; acked; pending } ->
          W.u8 w 2;
          W.varint w stage;
          W.list w (write_msg enc) acked;
          W.list w (write_msg enc) pending;
          true
      | Gb_cut { stage; first; rest } ->
          W.u8 w 3;
          W.varint w stage;
          W.list w (write_msg enc) first;
          W.list w (write_msg enc) rest;
          true
      | Gb_fast_batch ms ->
          W.u8 w 4;
          W.list w (write_msg enc) ms;
          true
      | Gb_acks l ->
          W.u8 w 5;
          W.list w write_ack l;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 2 ->
          let stage = W.read_varint r in
          let acked = W.read_list r (read_msg dec) in
          let pending = W.read_list r (read_msg dec) in
          Gb_state { stage; acked; pending }
      | 3 ->
          let stage = W.read_varint r in
          let first = W.read_list r (read_msg dec) in
          let rest = W.read_list r (read_msg dec) in
          Gb_cut { stage; first; rest }
      | 4 -> Gb_fast_batch (W.read_list r (read_msg dec))
      | 5 -> Gb_acks (W.read_list r read_ack)
      | k -> Gc_net.Payload.malformed (Printf.sprintf "gb constructor %d" k))

type ack_mode = Two_thirds | All_members

(* Stage-change proposals are staggered by member rank, [cut_backoff] ms
   apart, so that normally a single cut is broadcast. *)
let cut_backoff = 15.0

(* A stage-table entry; [cls]: its conflict class; [acked]: this process
   acked it in the current stage. *)
type entry = { msg : msg; cls : int; mutable acked : bool }

type t = {
  proc : Process.t;
  rb : Rb.t;
  rc : Rc.t;
  ab : Ab.t;
  storage : Gc_kernel.Storage.t option;
  conflict : Conflict.t;
  occupancy : int array; (* entries of [tracked] per conflict class *)
  ack_mode : ack_mode;
  mutable member_list : int list;
  mutable next_gseq : int;
  mutable stage : int;
  mutable frozen : bool;
  (* The stage table: every rdelivered message not yet g-delivered (the
     pending ones), plus every message this process acked in the current
     stage.  Acked entries survive local fast delivery until the stage
     ends: the ack rule and the published stage state must keep seeing
     them, otherwise a conflicting message could gather a quorum too, or a
     fast-delivered message could drop out of the stage-change cut.  So a
     delivered id is held iff it is acked.  [track] and [untrack] are the
     only writers of the table's key set and of [occupancy], which counts
     its entries by class. *)
  tracked : (int * int, entry) Hashtbl.t;
  delivered : Delivered.t;
  acks : (int * (int * int), int list) Hashtbl.t;
  (* (stage, message id) -> members that acked it in that stage.  Member
     ids, not ranks: acks for a later stage may arrive before a view change
     moves the ranks.  A tally goes when its message is delivered or its
     stage ends, so the table holds only messages still collecting acks. *)
  (* stage -> sender -> (acked, pending) *)
  states : (int, (int, msg list * msg list) Hashtbl.t) Hashtbl.t;
  mutable cut_proposed : int; (* the stage this process proposed a cut for *)
  mutable cut_timer_armed : int; (* the stage its proposal timer waits on *)
  cut_wait : float; (* hold before even rank 0 proposes; see [try_cut] *)
  submit_batch : msg Batcher.t;
  ack_batch : ((int * int) * int) Batcher.t;
  sent_at : (int, float) Hashtbl.t;
      (* own gseq -> local clock at submit, until local delivery: the
         latency metric's stamp never leaves this process *)
  mutable subscribers : (origin:int -> Gc_net.Payload.t -> unit) list;
  mutable n_delivered : int;
  mutable n_fast : int;
  mutable froze_at : float; (* freeze time of the current stage, for check_ms *)
  c_submitted : Gc_obs.Metrics.counter;
  c_delivered : Gc_obs.Metrics.counter;
  c_fast : Gc_obs.Metrics.counter;
  c_cut : Gc_obs.Metrics.counter;
  g_occupancy : Gc_obs.Metrics.gauge;
}

(* Fast-path acknowledgement quorum A. *)
let ack_quorum t =
  let n = List.length t.member_list in
  match t.ack_mode with
  | Two_thirds -> ((2 * n) + 1 + 2) / 3 (* ceil((2n+1)/3) *)
  | All_members -> n

(* Stage-change state quorum C.  Correctness needs (i) completeness,
   A + C - n >= 1, and (ii) a conflict-free must-deliver-first list,
   3 * min(A, C) > 2n or A = n.  Two_thirds uses A = C = ceil((2n+1)/3)
   (f < n/3); All_members uses A = n, C = 1: any single state already
   contains every possibly-fast-delivered message, so stage changes only
   depend on atomic broadcast (f < n/2). *)
let chk_quorum t =
  match t.ack_mode with
  | Two_thirds ->
      let n = List.length t.member_list in
      ((2 * n) + 1 + 2) / 3
  | All_members -> 1

let member t = List.mem (Process.id t.proc) t.member_list

let send_all t payload =
  let me = Process.id t.proc in
  List.iter (fun q -> if q <> me then Rc.send t.rc ~dst:q payload)
    t.member_list

let note_occupancy t =
  Gc_obs.Metrics.set t.g_occupancy (float_of_int (Hashtbl.length t.tracked))

(* Enter a newly rdelivered message in the stage table, unless it is
   delivered or held already; [true] if it was new. *)
let track t m =
  let id = msg_id m in
  let fresh = not (Delivered.mem t.delivered id || Hashtbl.mem t.tracked id) in
  if fresh then begin
    let cls = t.conflict.classify m.body in
    Hashtbl.replace t.tracked id { msg = m; cls; acked = false };
    t.occupancy.(cls) <- t.occupancy.(cls) + 1
  end;
  fresh

let untrack t id cls =
  Hashtbl.remove t.tracked id;
  t.occupancy.(cls) <- t.occupancy.(cls) - 1

(* Untrack every delivered entry, and apply [survivor] to the others.
   Removals commute in the counters; the ids are sorted only because an
   unsorted fold may not feed protocol state. *)
let untrack_delivered t survivor =
  Hashtbl.fold
    (fun id e gone ->
      if Delivered.mem t.delivered id then (id, e.cls) :: gone
      else begin
        survivor e;
        gone
      end)
    t.tracked []
  |> List.sort (fun (a, _) (b, _) -> compare_id a b)
  |> List.iter (fun (id, cls) -> untrack t id cls)

(* Write-ahead delivery log: appended after dedup accepts the id, before
   subscribers run.  [ordered] records whether the message's conflict
   class conflicts with itself, so recovery can tell totally-ordered
   deliveries from commuting ones.  A payload without a codec is counted
   and delivered anyway (sim-only). *)
let log_delivery t m ~ordered =
  match t.storage with
  | None -> ()
  | Some store -> (
      match Gc_net.Payload.encode m.body with
      | Ok payload ->
          ignore
            (Gc_kernel.Storage.append store
               (Gc_kernel.Storage.Record.encode
                  {
                    Gc_kernel.Storage.Record.origin = m.origin;
                    seq = t.n_delivered;
                    ordered;
                    payload;
                  }))
      | Error _ -> Process.incr t.proc "storage.append_skipped")

let observe_latency t gseq =
  match Hashtbl.find_opt t.sent_at gseq with
  | Some at ->
      Hashtbl.remove t.sent_at gseq;
      Process.observe t.proc "gbcast.latency_ms" (Process.now t.proc -. at)
  | None -> ()

let deliver t m =
  let id = msg_id m in
  if Delivered.add t.delivered id then begin
    Hashtbl.remove t.acks (t.stage, id);
    (* An acked entry stays until the stage ends.  A cut may deliver a
       message this process never tracked. *)
    let cls =
      match Hashtbl.find_opt t.tracked id with
      | Some { acked = false; cls; _ } ->
          untrack t id cls;
          cls
      | Some { cls; _ } -> cls
      | None -> t.conflict.classify m.body
    in
    let ordered = t.conflict.matrix cls cls in
    log_delivery t m ~ordered;
    t.n_delivered <- t.n_delivered + 1;
    Gc_obs.Metrics.bump t.c_delivered;
    if m.origin = Process.id t.proc then observe_latency t m.gseq;
    if Process.traced t.proc then
      (* The conflict class rides along so the auditor can tell which
         delivery pairs must agree in order: a message conflicting with
         itself conflicts with every message of its class (the stack's
         relation orders Ordered x Ordered and Ordered x Commuting). *)
      Process.event t.proc ~component:"gbcast" ~kind:Gc_obs.Event.Deliver
        ~msg:(Printf.sprintf "gb:%d.%d" m.origin m.gseq)
        ~attrs:
          [
            ("origin", string_of_int m.origin);
            ("gseq", string_of_int m.gseq);
            ("cls", if ordered then "conflicting" else "commuting");
          ]
        ();
    List.iter (fun f -> f ~origin:m.origin m.body) t.subscribers
  end

let tracked_msgs t keep =
  List.sort compare_msg
    (Hashtbl.fold
       (fun id e acc -> if keep id e then e.msg :: acc else acc)
       t.tracked [])

let pending_msgs t =
  tracked_msgs t (fun id _ -> not (Delivered.mem t.delivered id))

let acked_msgs t = tracked_msgs t (fun _ e -> e.acked)

let state_table t stage =
  match Hashtbl.find_opt t.states stage with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.states stage tbl;
      tbl

let ackers t id stage =
  Option.value ~default:[] (Hashtbl.find_opt t.acks (stage, id))

(* An ack only counts towards a fast delivery in its own stage, while the
   message is undelivered: acks for delivered messages and ended stages
   are ignored rather than tallied forever. *)
let record_ack t ~src id stage =
  if stage >= t.stage && not (Delivered.mem t.delivered id) then begin
    let members = ackers t id stage in
    if not (List.mem src members) then
      Hashtbl.replace t.acks (stage, id) (src :: members)
  end

(* Freeze the fast path and publish our stage state.  Every process freezes
   on detecting a conflict locally or on hearing any other process's state
   broadcast for the current stage. *)
let rec freeze t =
  if member t && not t.frozen then begin
    t.frozen <- true;
    t.froze_at <- Process.now t.proc;
    Process.incr t.proc "gbcast.freezes";
    if Process.traced t.proc then
      Process.event t.proc ~component:"gbcast"
        ~kind:(Gc_obs.Event.Custom "freeze")
        ~attrs:[ ("stage", string_of_int t.stage) ]
        ();
    let acked = acked_msgs t and pending = pending_msgs t in
    record_state t ~src:(Process.id t.proc) ~stage:t.stage ~acked ~pending;
    (* In all-members mode a cut needs no remote states (C = 1): each process
       freezes on its own evidence (the conflicting message reaches everyone
       by reliable broadcast) and any single state is a complete cut, so the
       n^2 state exchange is skipped entirely. *)
    if t.ack_mode = Two_thirds then
      send_all t (Gb_state { stage = t.stage; acked; pending })
  end

and record_state t ~src ~stage ~acked ~pending =
  (* States for stages we have not reached yet (their sender raced ahead of a
     cut still in our delivery queue) are stored and consulted when the cut
     moves us there; see [apply_cut]. *)
  if stage >= t.stage then begin
    let tbl = state_table t stage in
    if not (Hashtbl.mem tbl src) then Hashtbl.replace tbl src (acked, pending);
    if stage = t.stage then begin
      freeze t;
      try_cut t
    end
  end

(* Compute and abcast a cut once a quorum of stage states is in.  With
   C = A = ceil((2n+1)/3), a message fast-delivered anywhere was acked by at
   least [threshold = A + C - n] respondents (quorum intersection), and no
   two conflicting messages can both reach the threshold (3C > 2n), so
   [first] is complete and internally conflict-free. *)
and try_cut t =
  if member t && t.cut_proposed <> t.stage && t.cut_timer_armed <> t.stage
  then begin
    (* Stagger proposals by member rank so that normally exactly one cut is
       broadcast; higher-ranked members take over (after their backoff) if
       the natural proposer is dead.  Every rank, rank 0 included, first
       holds the cut for [cut_wait]: a longer stage cycle lets more ordered
       messages pile up for the next cut, so each consensus instance orders
       more of them (DESIGN §15). *)
    let rank =
      let rec idx i = function
        | [] -> 0
        | q :: rest -> if q = Process.id t.proc then i else idx (i + 1) rest
      in
      idx 0 t.member_list
    in
    t.cut_timer_armed <- t.stage;
    let stage = t.stage in
    ignore
      (Process.timer t.proc
         ~delay:(t.cut_wait +. (float_of_int rank *. cut_backoff))
         (fun () ->
           (* Re-armable: if the cut cannot be built yet (states still
              missing in two-thirds mode), the next recorded state retries. *)
           if t.cut_timer_armed = stage then t.cut_timer_armed <- -1;
           if t.stage = stage && t.frozen then force_cut t))
  end

and force_cut t =
  if member t && t.cut_proposed <> t.stage then begin
    let tbl = state_table t t.stage in
    let c = chk_quorum t in
    if Hashtbl.length tbl >= c then begin
      let n = List.length t.member_list in
      let threshold = max 1 (ack_quorum t + c - n) in
      let tally : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let mentioned : (int * int, msg) Hashtbl.t = Hashtbl.create 16 in
      Sorted.iter
        (fun _src (acked, pending) ->
          List.iter
            (fun m ->
              let id = msg_id m in
              Hashtbl.replace mentioned id m;
              Hashtbl.replace tally id
                (1 + Option.value ~default:0 (Hashtbl.find_opt tally id)))
            acked;
          List.iter (fun m -> Hashtbl.replace mentioned (msg_id m) m) pending)
        tbl;
      let first, rest =
        Hashtbl.fold (fun _ m acc -> m :: acc) mentioned []
        |> List.sort compare_msg
        |> List.partition (fun m ->
               Option.value ~default:0 (Hashtbl.find_opt tally (msg_id m))
               >= threshold)
      in
      t.cut_proposed <- t.stage;
      Process.incr t.proc "gbcast.cuts_proposed";
      if Process.traced t.proc then
        Process.event t.proc ~component:"gbcast"
          ~kind:(Gc_obs.Event.Custom "propose_cut")
          ~attrs:
            [
              ("stage", string_of_int t.stage);
              ("first", string_of_int (List.length first));
              ("rest", string_of_int (List.length rest));
            ]
          ();
      Ab.abcast t.ab (Gb_cut { stage = t.stage; first; rest })
    end
  end

(* Fast-path examination of a pending message: acknowledge it unless it
   conflicts with another message of the stage; a conflict changes stage.
   The "conflicts with anything pending or acked?" probe reads the
   per-class occupancy counters — O(classes) — instead of scanning every
   stage-relevant message. *)
let rec examine t m =
  let id = msg_id m in
  match Hashtbl.find_opt t.tracked id with
  | Some ({ acked = false; _ } as e) when member t && not t.frozen ->
      (* In all-members mode, a self-conflicting (ordered-class) message never
         takes the fast path: routing it through the stage-change cut keeps
         its delivery live with f < n/2, since the cut only needs atomic
         broadcast. *)
      let self_conflicting =
        t.ack_mode = All_members && t.conflict.matrix e.cls e.cls
      in
      let conflicts_with_stage =
        self_conflicting
        || Conflict.blocked t.conflict ~occupancy:t.occupancy e.cls
      in
      if conflicts_with_stage then freeze t
      else begin
        e.acked <- true;
        record_ack t ~src:(Process.id t.proc) id t.stage;
        Batcher.add t.ack_batch (id, t.stage);
        try_fast_deliver t id
      end
  | _ -> ()

and try_fast_deliver t id =
  match Hashtbl.find_opt t.tracked id with
  | Some e
    when (not (Delivered.mem t.delivered id))
         && List.length (ackers t id t.stage) >= ack_quorum t ->
      t.n_fast <- t.n_fast + 1;
      Gc_obs.Metrics.bump t.c_fast;
      if Process.traced t.proc then
        Process.event t.proc ~component:"gbcast"
          ~kind:(Gc_obs.Event.Custom "fast_deliver")
          ~attrs:
            [
              ("origin", string_of_int (fst id));
              ("gseq", string_of_int (snd id));
            ]
          ();
      deliver t e.msg
  | _ -> ()

(* Acks buffered by [examine] go out at the end of the handler that
   produced them: one [Gb_acks] vector per incoming fast batch instead of
   n-1 unicasts per message (the batcher's tick watermark is only a safety
   net). *)
let flush_acks t = Batcher.flush t.ack_batch

let reexamine_pending t =
  List.iter (fun m -> examine t m) (pending_msgs t)

let apply_cut t ~stage ~first ~rest =
  if stage = t.stage then begin
    (* Check-phase latency: time from freezing the fast path to applying the
       winning cut.  Members that never froze (the cut outran the conflict
       evidence) have nothing to report. *)
    if t.frozen then
      Process.observe t.proc "gbcast.check_ms"
        (Process.now t.proc -. t.froze_at);
    let via_cut m =
      if not (Delivered.mem t.delivered (msg_id m)) then
        Gc_obs.Metrics.bump t.c_cut;
      deliver t m
    in
    List.iter via_cut first;
    List.iter via_cut rest;
    (* New stage: stale acks and states are dropped, and so are the stage
       table's delivered entries; the survivors (messages that arrived
       during the change) lose their acks and are re-examined. *)
    Hashtbl.remove t.states stage;
    Hashtbl.filter_map_inplace
      (fun (s, _) members -> if s <= stage then None else Some members)
      t.acks;
    untrack_delivered t (fun e -> e.acked <- false);
    t.stage <- stage + 1;
    t.frozen <- false;
    if Process.traced t.proc then
      Process.event t.proc ~component:"gbcast"
        ~kind:(Gc_obs.Event.Custom "new_stage")
        ~attrs:[ ("stage", string_of_int t.stage) ]
        ();
    reexamine_pending t;
    (* Some members may already have frozen the new stage (their states were
       stored above while we were still behind). *)
    if (not t.frozen) && Hashtbl.length (state_table t t.stage) > 0 then begin
      freeze t;
      try_cut t
    end
    else if t.frozen then try_cut t
  end

let create proc ~rc ~rb ~ab ~conflict ?(ack_mode = Two_thirds)
    ?(batch_max = 1) ?(batch_delay = 1.0) ?storage ?(epoch = 0) ~members () =
  if batch_max < 1 then invalid_arg "Generic_broadcast.create: batch_max < 1";
  let metrics = Process.metrics proc in
  (* Lazy only to tie the knot: the batchers' emits read the live member
     list, and they cannot run before [create] returns. *)
  let rec t =
    lazy
      {
        proc;
        rb;
        rc;
        ab;
        storage;
        conflict;
        occupancy = Array.make conflict.classes 0;
        ack_mode;
        member_list = members;
        next_gseq = Delivered.first_seq ~epoch;
        stage = 0;
        frozen = false;
        tracked = Hashtbl.create 64;
        delivered = Delivered.create ();
        acks = Hashtbl.create 256;
        states = Hashtbl.create 8;
        cut_proposed = -1;
        cut_timer_armed = -1;
        cut_wait = (if batch_max = 1 then 0.0 else batch_delay);
        submit_batch =
          Batcher.create proc ~metric:"gbcast.batch_size" ~max_batch:batch_max
            ~max_delay:batch_delay
            ~emit:(fun ms ->
              let t = Lazy.force t in
              Rb.broadcast t.rb ~dests:t.member_list (Gb_fast_batch ms))
            ();
        (* Acks batch only when submissions do: with [batch_max = 1] each
           ack leaves at once, the unbatched protocol's traffic. *)
        ack_batch =
          Batcher.create proc ~metric:"gbcast.ack_batch_size"
            ~max_batch:(if batch_max = 1 then 1 else max batch_max 16)
            ~max_delay:batch_delay
            ~emit:(fun l -> send_all (Lazy.force t) (Gb_acks l))
            ();
        sent_at = Hashtbl.create 64;
        subscribers = [];
        n_delivered = 0;
        n_fast = 0;
        froze_at = 0.0;
        c_submitted = Gc_obs.Metrics.counter_handle metrics "gbcast.submitted";
        c_delivered = Gc_obs.Metrics.counter_handle metrics "gbcast.delivered";
        c_fast = Gc_obs.Metrics.counter_handle metrics "gbcast.fast_deliveries";
        c_cut = Gc_obs.Metrics.counter_handle metrics "gbcast.cut_deliveries";
        g_occupancy =
          Gc_obs.Metrics.gauge_handle metrics "gbcast.conflict_class_occupancy";
      }
  in
  let t = Lazy.force t in
  Process.incr ~by:0 proc "gbcast.fast_deliveries";
  Process.incr ~by:0 proc "gbcast.cut_deliveries";
  Rb.on_deliver rb (fun ~origin:_ payload ->
      match payload with
      | Gb_fast_batch ms ->
          (* Messages are tracked and examined in submission order, so
             per-sender FIFO and intra-batch conflict behaviour do not
             depend on how the submissions were batched. *)
          List.iter (fun m -> if track t m then examine t m) ms;
          flush_acks t;
          note_occupancy t
      | _ -> ());
  Rc.on_deliver rc (fun ~src payload ->
      match payload with
      | Gb_acks l ->
          List.iter
            (fun (id, stage) ->
              record_ack t ~src id stage;
              if stage = t.stage then try_fast_deliver t id)
            l
      | Gb_state { stage; acked; pending } ->
          (* A state for a stage we have not reached yet can only result from
             reordering relative to the cut that ends our stage; it is keyed
             by its stage and consulted when we get there. *)
          List.iter (fun m -> ignore (track t m)) (acked @ pending);
          record_state t ~src ~stage ~acked ~pending;
          note_occupancy t
      | _ -> ());
  Ab.on_deliver ab (fun ~origin:_ payload ->
      match payload with
      | Gb_cut { stage; first; rest } ->
          apply_cut t ~stage ~first ~rest;
          (* Re-examining the pending survivors may have produced acks. *)
          flush_acks t;
          note_occupancy t
      | _ -> ());
  t

let gbcast t body =
  if member t then begin
    let m = { origin = Process.id t.proc; gseq = t.next_gseq; body } in
    Hashtbl.replace t.sent_at m.gseq (Process.now t.proc);
    t.next_gseq <- t.next_gseq + 1;
    Gc_obs.Metrics.bump t.c_submitted;
    if Process.traced t.proc then
      Process.event t.proc ~component:"gbcast" ~kind:Gc_obs.Event.Send
        ~msg:(Printf.sprintf "gb:%d.%d" m.origin m.gseq)
        ();
    Batcher.add t.submit_batch m
  end

let flush t =
  Batcher.flush t.submit_batch;
  flush_acks t

(* Kept in dispatch order: subscribers run in the order they subscribed. *)
let on_deliver t f = t.subscribers <- t.subscribers @ [ f ]
let set_members t members = t.member_list <- members
let members t = t.member_list
let delivered_count t = t.n_delivered
let fast_delivered_count t = t.n_fast
let stage t = t.stage
let delivered t = t.delivered

let ack_tallies t = Hashtbl.length t.acks

let bootstrap t ~stage ~delivered =
  t.stage <- stage;
  Delivered.union_into ~into:t.delivered delivered;
  (* Stragglers rdelivered before the transfer completed are already
     delivered at the snapshot source: purge them, or they would stay in
     the occupancy counters forever and freeze the fast path on every message
     they conflict with. *)
  untrack_delivered t ignore;
  note_occupancy t;
  (* Own submissions the transferred set covers are never delivered here:
     their stamps go with them. *)
  let me = Process.id t.proc in
  Hashtbl.filter_map_inplace
    (fun gseq at ->
      if Delivered.mem t.delivered (me, gseq) then None else Some at)
    t.sent_at;
  (* States published by members already frozen in this stage may be waiting. *)
  if Hashtbl.length (state_table t t.stage) > 0 then begin
    freeze t;
    try_cut t
  end

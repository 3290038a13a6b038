module Process = Gc_kernel.Process
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Consensus = Gc_consensus.Consensus
module Sorted = Gc_sim.Sorted

type msg = { origin : int; mseq : int; body : Gc_net.Payload.t }

let msg_id m = (m.origin, m.mseq)

(* The not-yet-delivered set, kept sorted by id so a proposal batch is read
   off in one O(p) pass instead of the fold-plus-sort the flat table
   needed on every proposal. *)
module Pending = Map.Make (struct
  type t = int * int

  let compare (a : int * int) (b : int * int) = Stdlib.compare a b
end)

module Delivered = Gc_kernel.Delivered_set

type Gc_net.Payload.t +=
  | Ab_batch of msg list
  | Ab_submit of msg
        (* one submission riding one reliable broadcast; distinct from
           [Ab_batch], which is a consensus proposal value *)

let () =
  Gc_net.Payload.register_printer (function
    | Ab_submit m ->
        Some
          (Printf.sprintf "ab.data#%d.%d(%s)" m.origin m.mseq
             (Gc_net.Payload.to_string m.body))
    | Ab_batch l ->
        (* Listing the message ids makes the rendering content-distinguishing,
           so equality of the printed form means equality of the batch — the
           trace auditor compares decision values by this string. *)
        Some
          (Printf.sprintf "ab.batch[%s]"
             (String.concat ";"
                (List.map
                   (fun m -> Printf.sprintf "%d.%d" m.origin m.mseq)
                   l)))
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  let write_msg enc w m =
    W.varint w m.origin;
    W.varint w m.mseq;
    enc w m.body
  in
  let read_msg dec r =
    let origin = W.read_varint r in
    let mseq = W.read_varint r in
    let body = dec r in
    { origin; mseq; body }
  in
  Gc_net.Payload.register_codec ~tag:"ab"
    ~encode:(fun enc w p ->
      match p with
      | Ab_batch l ->
          W.u8 w 1;
          W.list w (write_msg enc) l;
          true
      | Ab_submit m ->
          W.u8 w 2;
          write_msg enc w m;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 1 -> Ab_batch (W.read_list r (read_msg dec))
      | 2 -> Ab_submit (read_msg dec r)
      | k -> Gc_net.Payload.malformed (Printf.sprintf "ab constructor %d" k))

type t = {
  proc : Process.t;
  rb : Rb.t;
  mutable consensus : Consensus.t option;
  mutable member_list : int list;
  mutable next_mseq : int;
  mutable next_to_apply : int; (* next consensus instance to apply *)
  mutable pending : msg Pending.t; (* rdelivered, not yet adelivered *)
  mutable pending_n : int; (* cardinal of [pending], kept incrementally *)
  delivered : Delivered.t;
  mutable proposed : int; (* the last instance this process proposed for *)
  decided_batches : (int, msg list) Hashtbl.t; (* out-of-order decisions *)
  mutable max_solicited : int;
  sent_at : (int, float) Hashtbl.t;
      (* own mseq -> local clock at submit, until local delivery: the
         latency metric's stamp never leaves this process *)
  mutable subscribers : (origin:int -> Gc_net.Payload.t -> unit) list;
  mutable n_delivered : int;
  c_submitted : Gc_obs.Metrics.counter;
  c_delivered : Gc_obs.Metrics.counter;
  g_pending : Gc_obs.Metrics.gauge;
}

let consensus_of t =
  match t.consensus with
  | Some c -> c
  | None -> invalid_arg "Atomic_broadcast: consensus not wired"

let member t = List.mem (Process.id t.proc) t.member_list

(* Current proposal: the pending set, already sorted and disjoint from the
   delivered set (delivery and bootstrap both purge it), read off in one
   pass. *)
let current_batch t =
  List.rev (Pending.fold (fun _ m acc -> m :: acc) t.pending [])

let note_pending t =
  Gc_obs.Metrics.set t.g_pending (float_of_int t.pending_n)

let pending_add t id m =
  t.pending <- Pending.add id m t.pending;
  t.pending_n <- t.pending_n + 1

let pending_remove t id =
  if Pending.mem id t.pending then begin
    t.pending <- Pending.remove id t.pending;
    t.pending_n <- t.pending_n - 1
  end

let try_start t =
  if member t && t.proposed <> t.next_to_apply then begin
    let batch = current_batch t in
    if batch <> [] || t.max_solicited >= t.next_to_apply then begin
      t.proposed <- t.next_to_apply;
      Process.incr t.proc "abcast.proposals";
      Process.observe t.proc "abcast.batch_size"
        (float_of_int (List.length batch));
      Consensus.propose (consensus_of t) ~inst:t.next_to_apply
        ~members:t.member_list (Ab_batch batch)
    end
  end

let observe_latency t mseq =
  match Hashtbl.find_opt t.sent_at mseq with
  | Some at ->
      Hashtbl.remove t.sent_at mseq;
      Process.observe t.proc "abcast.latency_ms" (Process.now t.proc -. at)
  | None -> ()

let apply_decisions t =
  let rec loop () =
    match Hashtbl.find_opt t.decided_batches t.next_to_apply with
    | None -> ()
    | Some batch ->
        Hashtbl.remove t.decided_batches t.next_to_apply;
        t.next_to_apply <- t.next_to_apply + 1;
        List.iter
          (fun m ->
            let id = msg_id m in
            if Delivered.add t.delivered id then begin
              pending_remove t id;
              t.n_delivered <- t.n_delivered + 1;
              Gc_obs.Metrics.bump t.c_delivered;
              if m.origin = Process.id t.proc then
                observe_latency t m.mseq;
              if Process.traced t.proc then
                Process.event t.proc ~component:"abcast"
                  ~kind:Gc_obs.Event.Deliver
                  ~msg:(Printf.sprintf "ab:%d.%d" m.origin m.mseq)
                  ~attrs:
                    [
                      ("origin", string_of_int m.origin);
                      ("mseq", string_of_int m.mseq);
                      ("inst", string_of_int (t.next_to_apply - 1));
                    ]
                  ();
              List.iter (fun f -> f ~origin:m.origin m.body) t.subscribers
            end)
          batch;
        loop ()
  in
  loop ();
  (* Consensus keeps nothing for instances applied here. *)
  Consensus.forget_below (consensus_of t) ~inst:t.next_to_apply;
  note_pending t;
  try_start t

let on_decide t ~inst v =
  match v with
  | Ab_batch batch ->
      if inst >= t.next_to_apply then begin
        Hashtbl.replace t.decided_batches inst batch;
        apply_decisions t
      end
  | _ -> ()

let on_solicit t ~inst =
  if inst > t.max_solicited then t.max_solicited <- inst;
  if inst >= t.next_to_apply then try_start t

let create proc ~rc ~rb ~fd ?(suspect_timeout = 200.0) ?(adaptive = false)
    ?(epoch = 0) ~members () =
  let metrics = Process.metrics proc in
  let t =
    {
      proc;
      rb;
      consensus = None;
      member_list = members;
      next_mseq = Delivered.first_seq ~epoch;
      next_to_apply = 0;
      pending = Pending.empty;
      pending_n = 0;
      delivered = Delivered.create ();
      proposed = -1;
      decided_batches = Hashtbl.create 16;
      max_solicited = -1;
      sent_at = Hashtbl.create 64;
      subscribers = [];
      n_delivered = 0;
      c_submitted = Gc_obs.Metrics.counter_handle metrics "abcast.submitted";
      c_delivered = Gc_obs.Metrics.counter_handle metrics "abcast.delivered";
      g_pending = Gc_obs.Metrics.gauge_handle metrics "abcast.pending_size";
    }
  in
  Process.incr ~by:0 proc "abcast.delivered";
  let consensus =
    Consensus.create proc ~rc ~rb ~fd ~suspect_timeout ~adaptive
      ~score:(function Ab_batch l -> List.length l | _ -> 0)
      ~on_decide:(fun ~inst v -> on_decide t ~inst v)
      ~on_solicit:(fun ~inst -> on_solicit t ~inst)
      ()
  in
  t.consensus <- Some consensus;
  Rb.on_deliver rb (fun ~origin:_ payload ->
      match payload with
      | Ab_submit m ->
          let id = msg_id m in
          if not (Delivered.mem t.delivered id || Pending.mem id t.pending)
          then begin
            pending_add t id m;
            note_pending t;
            try_start t
          end
      | _ -> ());
  t

let abcast t body =
  if member t then begin
    let m = { origin = Process.id t.proc; mseq = t.next_mseq; body } in
    Hashtbl.replace t.sent_at m.mseq (Process.now t.proc);
    t.next_mseq <- t.next_mseq + 1;
    Gc_obs.Metrics.bump t.c_submitted;
    if Process.traced t.proc then
      Process.event t.proc ~component:"abcast" ~kind:Gc_obs.Event.Send
        ~msg:(Printf.sprintf "ab:%d.%d" m.origin m.mseq)
        ();
    Rb.broadcast t.rb ~dests:t.member_list (Ab_submit m)
  end

(* Kept in dispatch order: subscribers run in the order they subscribed. *)
let on_deliver t f = t.subscribers <- t.subscribers @ [ f ]
let set_members t members = t.member_list <- members
let members t = t.member_list

let bootstrap t ~next_instance ~members ~delivered =
  t.member_list <- members;
  t.next_to_apply <- next_instance;
  (* Decisions for instances below the transferred starting point can
     never be consulted again; [apply_decisions] below has consensus forget
     them too. *)
  Hashtbl.filter_map_inplace
    (fun inst v -> if inst < next_instance then None else Some v)
    t.decided_batches;
  Delivered.union_into ~into:t.delivered delivered;
  (* Stragglers rdelivered before the transfer completed are already
     delivered at the snapshot source: purge them, or every future proposal
     would re-propose them forever. *)
  t.pending <-
    Pending.filter (fun id _ -> not (Delivered.mem t.delivered id)) t.pending;
  t.pending_n <- Pending.cardinal t.pending;
  (* Own submissions the transferred set covers are never delivered here:
     their stamps go with them. *)
  let me = Process.id t.proc in
  Hashtbl.filter_map_inplace
    (fun mseq at ->
      if Delivered.mem t.delivered (me, mseq) then None else Some at)
    t.sent_at;
  note_pending t;
  (* Decisions that raced ahead of the state transfer may already be waiting;
     apply them from the new starting point. *)
  apply_decisions t

let delivered_count t = t.n_delivered
let next_instance t = t.next_to_apply
let delivered t = t.delivered
let pending_count t = t.pending_n

let lowest_held t =
  (* A proposal marker below [next_to_apply] is for an applied instance. *)
  let proposed = if t.proposed >= t.next_to_apply then [ t.proposed ] else [] in
  match
    List.sort Int.compare
      (proposed @ Sorted.keys t.decided_batches
      @ Option.to_list (Consensus.lowest_held (consensus_of t)))
  with
  | [] -> None
  | inst :: _ -> Some inst

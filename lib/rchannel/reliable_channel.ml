module Process = Gc_kernel.Process
module Engine = Gc_sim.Engine
module Sorted = Gc_sim.Sorted

(* [gen] is the connection generation: [forget] starts a new generation, so
   that the receiver does not wait forever for sequence numbers whose
   messages were dropped with the old output buffer (the moral equivalent of
   a TCP reset). *)
type Gc_net.Payload.t +=
  | Rc_data of { gen : int; seq : int; inner : Gc_net.Payload.t }
  | Rc_ack of { gen : int; cum : int; repoch : int }
        (* [repoch]: the receiver's boot epoch.  A jump tells the sender its
           peer restarted and lost the incoming stream state, so the acked
           prefix must not be trusted and the unacked suffix needs a fresh
           generation (see [renumber]). *)

let () =
  Gc_net.Payload.register_printer (function
    | Rc_data { gen; seq; inner } ->
        Some
          (Printf.sprintf "rc.data#%d.%d(%s)" gen seq
             (Gc_net.Payload.to_string inner))
    | Rc_ack { gen; cum; _ } -> Some (Printf.sprintf "rc.ack#%d<=%d" gen cum)
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  Gc_net.Payload.register_codec ~tag:"rc"
    ~encode:(fun enc w p ->
      match p with
      | Rc_data { gen; seq; inner } ->
          W.u8 w 0;
          W.varint w gen;
          W.varint w seq;
          enc w inner;
          true
      | Rc_ack { gen; cum; repoch } ->
          W.u8 w 1;
          W.varint w gen;
          W.varint w cum;
          W.varint w repoch;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 0 ->
          let gen = W.read_varint r in
          let seq = W.read_varint r in
          let inner = dec r in
          Rc_data { gen; seq; inner }
      | 1 ->
          let gen = W.read_varint r in
          let cum = W.read_varint r in
          let repoch = W.read_varint r in
          Rc_ack { gen; cum; repoch }
      | k -> Gc_net.Payload.malformed (Printf.sprintf "rc constructor %d" k))

type pending = {
  inner : Gc_net.Payload.t;
  since : float; (* first transmission time *)
  mutable last_tx : float; (* most recent (re)transmission *)
  mutable tries : int; (* retransmissions so far: the backoff exponent *)
}

type outgoing = {
  mutable gen : int;
  window : pending Window.t; (* unacked, seq-indexed; seqs assigned by push *)
  mutable stuck_reported : bool;
  mutable peer_epoch : int; (* last repoch acked by this dst; -1 = unknown *)
}

type incoming = {
  mutable gen : int;
  mutable expected : int; (* next in-order seq to deliver *)
  buffer : (int, Gc_net.Payload.t) Hashtbl.t; (* out-of-order arrivals *)
  mutable ack_owed : bool; (* an ack timer is armed for this stream *)
}

type t = {
  proc : Process.t;
  epoch : int; (* this process's boot epoch; scopes generation numbers *)
  rto : float;
  stuck_after : float;
  max_burst : int; (* retransmissions per destination per tick *)
  out : (int, outgoing) Hashtbl.t;
  inc : (int, incoming) Hashtbl.t;
  mutable subscribers : (src:int -> Gc_net.Payload.t -> unit) list;
  mutable on_stuck : (dst:int -> age:float -> unit) option;
  loopback : Gc_net.Payload.t Queue.t; (* self-sends awaiting their 0-delay hop *)
  sends : Gc_obs.Metrics.counter;
  acks : Gc_obs.Metrics.counter;
  window_occupancy : Gc_obs.Metrics.gauge;
  window_peak : Gc_obs.Metrics.gauge;
}

(* Retransmission intervals back off per packet: rto, 2*rto, 4*rto, then
   capped at 8*rto, so a destination that stays silent costs a bounded,
   decaying stream instead of a full-window storm every tick. *)
let backoff_cap = 3

(* Generations are scoped by the sender's boot epoch: a process that
   crashed and restarted opens its streams at [epoch lsl gen_bits], which
   is strictly above anything its previous incarnation used, so receivers
   take the reset branch instead of silently acking (and so losing) the
   restarted sender's fresh seq-0 stream against their stale [expected].
   [forget] and [renumber] bump within the epoch's block; 2^20 bumps per
   boot is unreachable. *)
let gen_bits = 20

(* One ack per stream per [ack_delay] instead of one per data frame: the
   first frame that leaves a stream owing an ack arms the timer. *)
let ack_delay = 5.0

let retx_interval t p = t.rto *. float_of_int (1 lsl min p.tries backoff_cap)

let note_window t (o : outgoing) =
  let len = float_of_int (Window.length o.window) in
  Gc_obs.Metrics.set t.window_occupancy len;
  if len > Gc_obs.Metrics.get t.window_peak then
    Gc_obs.Metrics.set t.window_peak len

let outgoing_for t dst =
  match Hashtbl.find_opt t.out dst with
  | Some o -> o
  | None ->
      let o =
        {
          gen = t.epoch lsl gen_bits;
          window = Window.create ();
          stuck_reported = false;
          peer_epoch = -1;
        }
      in
      Hashtbl.replace t.out dst o;
      o

let incoming_for t src =
  match Hashtbl.find_opt t.inc src with
  | Some i -> i
  | None ->
      let i =
        { gen = 0; expected = 0; buffer = Hashtbl.create 8; ack_owed = false }
      in
      Hashtbl.replace t.inc src i;
      i

let deliver t ~src inner =
  List.iter (fun f -> f ~src inner) t.subscribers

(* Cumulative ack: everything below [expected] has been delivered.  Sent
   from the stream's ack timer, so it reads the state at firing time. *)
let send_ack t ~src (i : incoming) =
  i.ack_owed <- false;
  Gc_obs.Metrics.bump t.acks;
  Process.send t.proc ~dst:src
    (Rc_ack { gen = i.gen; cum = i.expected - 1; repoch = t.epoch })

let handle_data t ~src ~gen ~seq ~inner =
  let i = incoming_for t src in
  if gen > i.gen then begin
    (* The sender reset the stream: earlier sequence numbers are gone. *)
    i.gen <- gen;
    i.expected <- 0;
    Hashtbl.reset i.buffer
  end;
  if gen < i.gen then
    (* Stale-generation retransmission.  Acking it with the *current* gen
       would manufacture acknowledgements for sequence numbers of the new
       stream the old-gen copy says nothing about; drop it silently. *)
    Process.incr t.proc "rchannel.stale_gen_ignored"
  else begin
    if seq >= i.expected && not (Hashtbl.mem i.buffer seq) then
      Hashtbl.replace i.buffer seq inner;
    (* Flush the in-order prefix. *)
    let rec flush () =
      match Hashtbl.find_opt i.buffer i.expected with
      | Some payload ->
          Hashtbl.remove i.buffer i.expected;
          let s = i.expected in
          i.expected <- s + 1;
          if Process.traced t.proc then
            Process.event t.proc ~component:"rchannel" ~kind:Gc_obs.Event.Deliver
              ~msg:(Printf.sprintf "rc:%d.%d.%d" src i.gen s)
              ~attrs:
                [
                  ("src", string_of_int src);
                  ("gen", string_of_int i.gen);
                  ("seq", string_of_int s);
                ]
              ();
          deliver t ~src payload;
          flush ()
      | None -> ()
    in
    flush ();
    (* A duplicate owes an ack too: the sender retransmitted because it
       has not seen one. *)
    if not i.ack_owed then begin
      i.ack_owed <- true;
      ignore
        (Process.timer t.proc ~delay:ack_delay (fun () -> send_ack t ~src i))
    end
  end

(* Paced resend toward one destination: at most [max_burst] due packets
   per call, due-ness governed by each packet's exponential backoff.
   Shared by the periodic retransmit tick and the post-renumber catch-up
   so every resend path honours the same pacing. *)
let resend_due t dst (o : outgoing) ~now =
  let sent = ref 0 in
  Window.iter_while o.window (fun seq p ->
      if !sent >= t.max_burst then false
      else begin
        if now -. p.last_tx >= retx_interval t p then begin
          p.last_tx <- now;
          p.tries <- p.tries + 1;
          incr sent;
          Process.incr t.proc "rchannel.retransmissions";
          Process.send t.proc ~dst (Rc_data { gen = o.gen; seq; inner = p.inner })
        end;
        true
      end);
  if !sent > 0 then
    Process.observe t.proc "rchannel.retransmit_burst" (float_of_int !sent)

(* The destination restarted: its incoming state for this stream — the
   delivered prefix, the reorder buffer — is gone, so the acknowledged
   prefix is only as durable as whatever the layers above persisted, and
   the unacked suffix would be silently swallowed by the ghost of the old
   stream (acked against a stale [expected], never delivered).  Reopen the
   stream: new generation, unacked entries renumbered from seq 0, all
   marked immediately due, but resent under the regular [max_burst]
   pacing — one inline burst now, the rest via the rto tick — so a large
   window does not greet the freshly rebooted peer with a synchronous
   packet storm.  Entries keep their [since] so stuck detection still
   measures the real age of the obligation. *)
let renumber t dst (o : outgoing) =
  let pending = List.map snd (Window.to_list o.window) in
  Window.reset o.window;
  o.gen <- o.gen + 1;
  o.stuck_reported <- false;
  Process.incr t.proc "rchannel.stream_resets";
  if Process.traced t.proc then
    Process.event t.proc ~component:"rchannel"
      ~kind:(Gc_obs.Event.Custom "stream_reset")
      ~attrs:[ ("dst", string_of_int dst); ("gen", string_of_int o.gen) ]
      ();
  let now = Process.now t.proc in
  List.iter
    (fun p ->
      (* Backdating by 2*rto (not exactly rto) keeps the due test robust
         to float rounding. *)
      p.last_tx <- now -. (2.0 *. t.rto);
      p.tries <- 0;
      ignore (Window.push o.window p))
    pending;
  resend_due t dst o ~now;
  note_window t o

let handle_ack t ~src ~gen ~cum ~repoch =
  match Hashtbl.find_opt t.out src with
  | None -> ()
  | Some o ->
      (* A repoch jump outranks the cumulative ack: the new incarnation's
         [expected] says nothing about what the old one delivered.  The
         epoch is monotonic per boot, so duplicated or reordered old acks
         (carrying the old epoch) can never fake a restart. *)
      if o.peer_epoch >= 0 && repoch > o.peer_epoch then begin
        o.peer_epoch <- repoch;
        renumber t src o
      end
      else begin
        if repoch > o.peer_epoch then o.peer_epoch <- repoch;
        if gen = o.gen then begin
          let released = Window.advance_to o.window cum in
          if released > 0 then begin
            o.stuck_reported <- false;
            note_window t o
          end
        end
      end

let retransmit t =
  let now = Process.now t.proc in
  (* Key-sorted so retransmissions hit the network in the same dst order on
     every replay. *)
  Sorted.iter
    (fun dst (o : outgoing) ->
      (* Resend only packets whose per-packet backoff interval has elapsed
         since their last transmission, at most [max_burst] per tick; the
         scan still walks the ineligible tail but sends nothing for it. *)
      resend_due t dst o ~now;
      match (Window.peek_oldest o.window, t.on_stuck) with
      | Some oldest, Some f when not o.stuck_reported ->
          let age = now -. oldest.since in
          if age > t.stuck_after then begin
            o.stuck_reported <- true;
            Process.incr t.proc "rchannel.stuck_detections";
            if Process.traced t.proc then
              Process.event t.proc ~component:"rchannel"
                ~kind:(Gc_obs.Event.Custom "stuck")
                ~attrs:
                  [
                    ("dst", string_of_int dst);
                    ("age_ms", Printf.sprintf "%.0f" age);
                  ]
                ();
            f ~dst ~age
          end
      | _ -> ())
    t.out

let create proc ?(epoch = 0) ?(rto = 50.0) ?(stuck_after = 10_000.0)
    ?(max_burst = 64) () =
  let metrics = Process.metrics proc in
  let t =
    {
      proc;
      epoch;
      rto;
      stuck_after;
      max_burst;
      out = Hashtbl.create 16;
      inc = Hashtbl.create 16;
      subscribers = [];
      on_stuck = None;
      loopback = Queue.create ();
      sends = Gc_obs.Metrics.counter_handle metrics "rchannel.sends";
      acks = Gc_obs.Metrics.counter_handle metrics "rchannel.acks";
      window_occupancy =
        Gc_obs.Metrics.gauge_handle metrics "rchannel.window_occupancy";
      window_peak = Gc_obs.Metrics.gauge_handle metrics "rchannel.window_peak";
    }
  in
  (* Pre-register the headline counters so merged reports carry them even
     when nothing fired (absent and zero must read the same). *)
  Process.incr ~by:0 proc "rchannel.sends";
  Process.incr ~by:0 proc "rchannel.acks";
  Process.incr ~by:0 proc "rchannel.retransmissions";
  Process.incr ~by:0 proc "rchannel.stream_resets";
  Process.on_receive proc (fun ~src payload ->
      match payload with
      | Rc_data { gen; seq; inner } -> handle_data t ~src ~gen ~seq ~inner
      | Rc_ack { gen; cum; repoch } -> handle_ack t ~src ~gen ~cum ~repoch
      | _ -> ());
  ignore (Process.every proc ~period:rto (fun () -> retransmit t));
  t

let send t ~dst payload =
  if Process.alive t.proc then begin
    Gc_obs.Metrics.bump t.sends;
    if dst = Process.id t.proc then begin
      (* Local loopback: deliver through the event queue so that a broadcast
         to a set including self behaves uniformly (no synchronous
         reentrancy).  The payload waits in [loopback] rather than in the
         timer closure so an orderly shutdown can drain it synchronously —
         an alive-guarded timer is silently skipped once the process
         crashes, and a broadcast flushed in the same instant as the crash
         would otherwise die on this self-hop before ever being relayed. *)
      Queue.push payload t.loopback;
      ignore
        (Process.timer t.proc ~delay:0.0 (fun () ->
             match Queue.take_opt t.loopback with
             | Some p -> deliver t ~src:dst p
             | None -> ()))
    end
    else begin
      let o = outgoing_for t dst in
      let now = Process.now t.proc in
      let seq =
        Window.push o.window
          { inner = payload; since = now; last_tx = now; tries = 0 }
      in
      note_window t o;
      if Process.traced t.proc then
        Process.event t.proc ~component:"rchannel" ~kind:Gc_obs.Event.Send
          ~msg:(Printf.sprintf "rc:%d.%d.%d" (Process.id t.proc) o.gen seq)
          ~attrs:[ ("dst", string_of_int dst) ]
          ();
      Process.send t.proc ~dst (Rc_data { gen = o.gen; seq; inner = payload })
    end
  end

(* Deliver any self-sends still waiting on their zero-delay hop, now.
   Orderly teardown calls this after flushing the ordering layers'
   batchers: a broadcast routes through the sender's own channel first
   (see [send]), and crashing before that hop lands would silently drop
   the message before it was ever relayed to a peer.  The timers armed for
   the drained payloads find the queue empty and no-op. *)
let drain_loopback t =
  let me = Process.id t.proc in
  let rec go () =
    match Queue.take_opt t.loopback with
    | Some p ->
        deliver t ~src:me p;
        go ()
    | None -> ()
  in
  go ()

(* Kept in dispatch order: subscribers run in the order they subscribed. *)
let on_deliver t f = t.subscribers <- t.subscribers @ [ f ]
let set_on_stuck t f = t.on_stuck <- Some f

let forget t dst =
  match Hashtbl.find_opt t.out dst with
  | None -> ()
  | Some o ->
      (* Drop the buffered output and reset the stream: the next message to
         [dst] starts a fresh generation, so the receiver does not block on
         the sequence numbers we just discarded. *)
      Window.reset o.window;
      o.stuck_reported <- false;
      o.gen <- o.gen + 1

let unacked t ~dst =
  match Hashtbl.find_opt t.out dst with
  | None -> 0
  | Some o -> Window.length o.window

(** Reliable FIFO point-to-point channels ("Reliable Channel" in Figure 9).

    Guarantees, per ordered pair of processes (p, q):

    - {b no loss}: if p and q are correct and p sends m, q eventually
      delivers m (retransmission until acknowledged);
    - {b no duplication}: each message is delivered at most once;
    - {b FIFO}: messages from p are delivered at q in sending order.

    This is the abstraction the paper implements over TCP [15]; here it runs
    over the lossy, reordering simulated transport.

    The channel also implements the paper's {e output-triggered suspicion}
    hook (Section 3.3.2): a message that stays unacknowledged longer than
    [stuck_after] triggers [on_stuck], which the monitoring component may
    turn into an exclusion; {!forget} then releases the output buffer. *)

type t

val create :
  Gc_kernel.Process.t ->
  ?epoch:int ->
  ?rto:float ->
  ?stuck_after:float ->
  ?max_burst:int ->
  unit ->
  t
(** [epoch] (default 0) is this process's boot incarnation; pass a value
    strictly greater than any previous boot's after a crash-restart.  It
    scopes the channel's generation numbers (streams open at
    [epoch lsl 20]) and rides every acknowledgement, which is how both
    directions of a stream survive a peer restart: receivers reset their
    incoming state on the higher generation, and a sender that sees the
    acked epoch jump reopens the stream — unacked messages are renumbered
    into a fresh generation and resent, instead of being acked into the
    void against the dead incarnation's delivery cursor.

    [rto] is the retransmission period (default 50 ms); [stuck_after] the
    output-buffer age that triggers the stuck callback (default 10_000 ms —
    "long timeout values", as the paper prescribes for output-triggered
    suspicion).

    Retransmission is per packet: a packet is resent only once it has been
    unacknowledged for a full [rto] since its last transmission, with
    per-packet exponential backoff (rto, 2rto, 4rto, capped at 8rto), and at
    most [max_burst] packets (default 64) are resent per destination per
    tick — a large backlog decays instead of storming the network every
    [rto].  [rto] must exceed {!ack_delay} plus the round trip. *)

val ack_delay : float
(** 5 ms.  Acknowledgements are cumulative and delayed, as TCP's are: a
    stream that receives data arms one timer of [ack_delay], and its
    firing sends a single ack covering everything delivered by then (a
    retransmitted duplicate arms it too, so it is re-acked within
    [ack_delay]).  An ack therefore lags its data by at most [ack_delay],
    and an [rto] below [ack_delay] plus the round trip would resend every
    packet once before its ack lands.  Every caller uses an [rto] of at
    least 50 ms. *)

val send : t -> dst:int -> Gc_net.Payload.t -> unit
(** Enqueue [payload] for reliable FIFO delivery at [dst].  Sending to
    yourself delivers locally (via the event queue, not synchronously). *)

val drain_loopback : t -> unit
(** Deliver any self-sends still waiting on their zero-delay event-queue
    hop, synchronously.  Orderly teardown calls this between flushing the
    ordering layers' batchers and crashing the process: a broadcast routes
    through the sender's own channel first, and a crash in the same
    instant would otherwise drop it on the self-hop before any peer saw
    it.  A no-op when nothing is queued. *)

val on_deliver : t -> (src:int -> Gc_net.Payload.t -> unit) -> unit
(** Subscribe to delivered payloads.  All subscribers see every delivery. *)

val set_on_stuck : t -> (dst:int -> age:float -> unit) -> unit
(** Install the output-triggered suspicion callback.  It fires at most once
    per destination per stuck episode (rearmed by {!forget} or by progress). *)

val forget : t -> int -> unit
(** Drop all undelivered output buffered for the given destination and stop
    retransmitting to it — called after the destination has been excluded
    from the membership, when the obligation to deliver lapses. *)

val unacked : t -> dst:int -> int
(** Number of messages buffered for [dst] awaiting acknowledgement. *)

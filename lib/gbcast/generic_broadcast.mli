(** Thrifty generic broadcast ("Generic Broadcast" in Figure 9) — the paper's
    replacement for view synchrony.

    Guarantees (Pedone–Schiper [29, 30]):

    - the usual reliable-broadcast properties (validity, uniform agreement,
      integrity), plus
    - {b generic order}: if [Conflict.conflicts conflict m m'] and two
      processes deliver both, they deliver them in the same order.

    Non-conflicting messages take a {e fast path} with no consensus: the
    message is reliably broadcast, every process acknowledges it to everyone
    (unless it conflicts with something already acknowledged in the current
    stage), and it is g-delivered on receipt of a quorum of
    [A = ceil((2n+1)/3)] acknowledgements.  Two conflicting messages can
    never both be fast-delivered: their ack quorums would intersect in a
    process that acknowledged both, which the ack rule forbids.

    When a conflict does appear, the {e stage} changes (the thrifty use of
    atomic broadcast, [1]):

    + every process freezes its fast path and broadcasts its stage state
      (messages acknowledged, messages pending);
    + any process that collects [C = ceil((2n+1)/3)] states computes a cut:
      messages acknowledged by at least [A + C - n] respondents {e may} have
      been fast-delivered somewhere and form the must-deliver-first list
      (quorum intersection makes this list complete and conflict-free);
      everything else pending forms the ordered tail;
    + the cut is broadcast through the {e atomic broadcast} component; the
      first cut for the stage in the total order wins, everyone applies it
      (deliver the first list, then the tail, skipping duplicates) and moves
      to the next stage.

    So consensus runs only when conflicting messages are actually broadcast —
    with the empty conflict relation this component never touches atomic
    broadcast, and with the total conflict relation it behaves like atomic
    broadcast (Section 3.2.1).

    {b Resilience}: the fast path and the stage change require [n - f >=
    ceil((2n+1)/3)] live members, i.e. [f < n/3] (Pedone–Schiper's published
    requirement), while the underlying atomic broadcast alone tolerates
    [f < n/2].  Size replica groups accordingly (e.g. 4 or 5 replicas to
    survive one crash with the fast path active). *)

type t

type ack_mode =
  | Two_thirds
      (** The published quorums: fast delivery and stage changes both use
          [ceil((2n+1)/3)]-member quorums, tolerating [f < n/3]. *)
  | All_members
      (** Stability-style variant: fast delivery waits for {e every}
          member's acknowledgement, which lets a stage change proceed from a
          single process's state (any fast-delivered message was acked by
          all, so one state is complete) — the cut then only depends on
          atomic broadcast and everything except the fast path tolerates
          [f < n/2].  Additionally, self-conflicting (ordered-class)
          messages skip the fast path entirely and ride the cut.  A dead
          member stalls the fast path until the membership above excludes
          it, which is exactly the division of labour the paper assigns to
          the monitoring component. *)

val create :
  Gc_kernel.Process.t ->
  rc:Gc_rchannel.Reliable_channel.t ->
  rb:Gc_rbcast.Reliable_broadcast.t ->
  ab:Gc_abcast.Atomic_broadcast.t ->
  conflict:Conflict.t ->
  ?ack_mode:ack_mode ->
  ?batch_max:int ->
  ?batch_delay:float ->
  ?storage:Gc_kernel.Storage.t ->
  ?epoch:int ->
  members:int list ->
  unit ->
  t
(** [ack_mode] defaults to [Two_thirds] (the paper-cited algorithm); the
    full stack uses [All_members] for [f < n/2] robustness.  Stage-change
    proposals are staggered by member rank, 15 ms apart, so that normally a
    single cut is broadcast; rank 0 proposes after the cut wait below.

    [conflict] is a class specification ({!Conflict.t}).  Each tracked
    message's class is computed once and counted per class, so the
    per-message "conflicts with anything pending?" probe is O(classes)
    ({!Conflict.blocked}), however many messages are pending.

    [batch_max] (default 1 = unbatched) and [batch_delay] (default 1 ms)
    batch submissions through a size/tick watermark ({!Batcher}):
    up to [batch_max] messages ride one reliable broadcast, and their
    fast-path acknowledgements ride one vector, amortising the O(n^2)
    relay and O(n) ack cost per application message.  Per-sender FIFO is
    preserved; with [batch_max = 1] every message and every ack leaves at
    once in a one-element container, the unbatched protocol's traffic.
    The same pair sets the cut wait: with [batch_max > 1] every member
    holds its stage-change proposal [batch_delay] ms after freezing
    (before its rank's backoff), so the ordered messages that arrive
    meanwhile wait for the next cut instead of each stage cutting at
    once; with [batch_max = 1] there is no wait.

    [storage], when given, receives one {!Gc_kernel.Storage.Record} per
    g-delivered message, appended between duplicate suppression and the
    subscriber callbacks (write-ahead with respect to the application);
    the record's [ordered] flag says whether the message's conflict class
    conflicts with itself.

    [epoch] (default 0) is the boot incarnation: message ids are
    [(origin, gseq)] and receivers dedup on them for the life of the run,
    so a restarted process numbers its submissions from
    {!Gc_kernel.Delivered_set.first_seq}[ ~epoch], above every previous
    incarnation's. *)

val gbcast : t -> Gc_net.Payload.t -> unit
(** Generic-broadcast [payload] to the current members. *)

val on_deliver : t -> (origin:int -> Gc_net.Payload.t -> unit) -> unit

val flush : t -> unit
(** Emit anything parked in the submission and acknowledgement batchers
    immediately — part of orderly shutdown: without it a gbcast during the
    last [batch_delay] before teardown is silently dropped. *)

val set_members : t -> int list -> unit
(** Replace the member set (affects quorum sizes and destinations for new
    traffic).  As with atomic broadcast, call it only at agreed points of the
    delivery order. *)

val members : t -> int list

(** {1 Introspection (tests and benches)} *)

val delivered_count : t -> int

val fast_delivered_count : t -> int
(** Messages delivered by quorum acknowledgement, without consensus. *)

val stage : t -> int
(** Current stage number = number of stage changes applied locally; each
    stage change is exactly one message through atomic broadcast. *)

val ack_tallies : t -> int
(** Fast-path acknowledgement tallies held: one per message and stage still
    collecting acks.  Bounded by the messages in flight, not by how many
    were ever delivered. *)

val delivered : t -> Gc_kernel.Delivered_set.t
(** The live delivered set: {!Gc_kernel.Delivered_set.copy} it to ship it. *)

val bootstrap : t -> stage:int -> delivered:Gc_kernel.Delivered_set.t -> unit
(** Joiner initialisation from a state transfer: start at [stage], treating
    the ids in [delivered] as already delivered. *)

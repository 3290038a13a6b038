(** Atomic broadcast by reduction to consensus ("Atomic Broadcast" in
    Figure 9), following Chandra–Toueg [10].

    Payloads are disseminated with reliable broadcast; delivery order is
    fixed by a sequence of consensus instances, each deciding a {e batch} of
    not-yet-delivered messages.  Decisions are applied in instance order, and
    messages inside a batch in the proposer's (deterministic) order, so every
    process delivers the same messages in the same total order:

    - {b validity}: a correct broadcaster eventually delivers its message;
    - {b uniform agreement}: if any process delivers m, all correct members
      deliver m;
    - {b uniform total order}: any two processes deliver common messages in
      the same order;
    - {b integrity}: at most once, only if broadcast.

    Because the underlying consensus tolerates wrong suspicions, this
    component does {e not} depend on group membership — the architectural
    inversion the paper advocates (Section 3.1.1).  The membership layer
    above changes the member set by injecting view-change messages into this
    very total order, then calling {!set_members} while the decision is being
    applied; the member set used by consensus instance [k] is therefore a
    deterministic function of decisions [0..k-1] at every process. *)

type t

val create :
  Gc_kernel.Process.t ->
  rc:Gc_rchannel.Reliable_channel.t ->
  rb:Gc_rbcast.Reliable_broadcast.t ->
  fd:Gc_fd.Failure_detector.t ->
  ?suspect_timeout:float ->
  ?adaptive:bool ->
  ?epoch:int ->
  members:int list ->
  unit ->
  t
(** Build the component with an initial static member list.  The component
    owns its consensus instance stack (wired to the given failure detector
    with the aggressive [suspect_timeout], default 200 ms; [adaptive]
    switches it to the self-tuning monitor).

    [epoch] (default 0) is the boot incarnation: message ids are
    [(origin, mseq)] and receivers dedup on them for the life of the run,
    so a restarted process numbers its submissions from
    {!Gc_kernel.Delivered_set.first_seq}[ ~epoch], above every previous
    incarnation's.  (No durable log here: generic broadcast keeps it.)

    Each submission rides its own reliable broadcast ([Ab_submit]) at
    once.  Batching happens at the proposal: each consensus instance
    decides the whole pending set.

    The [abcast.latency_ms] histogram is observed at the origin only, from
    a submit-time stamp this process keeps until it delivers the message;
    no clock reading crosses the wire. *)

val abcast : t -> Gc_net.Payload.t -> unit
(** Broadcast [payload] to the current members with total-order delivery.
    No-op if this process is not currently a member. *)

val on_deliver : t -> (origin:int -> Gc_net.Payload.t -> unit) -> unit
(** Subscribe to adeliver events.  Subscribers run synchronously while a
    decision is applied; they may call {!set_members} (membership layer) or
    {!abcast}. *)

val set_members : t -> int list -> unit
(** Replace the member set.  Must only be called from an {!on_deliver}
    callback (or before any broadcast), so that all processes switch at the
    same point of the total order. *)

val members : t -> int list

val bootstrap :
  t -> next_instance:int -> members:int list ->
  delivered:Gc_kernel.Delivered_set.t -> unit
(** Joiner initialisation from a state transfer: start applying decisions at
    [next_instance] among [members], treating the ids in [delivered] as
    already delivered (so re-proposed stragglers are not delivered twice)
    and purging them from the pending set. *)

val delivered : t -> Gc_kernel.Delivered_set.t
(** The live delivered set: {!Gc_kernel.Delivered_set.copy} it to ship it. *)

(** {1 Introspection (tests and benches)} *)

val delivered_count : t -> int
val next_instance : t -> int

(** Messages rdelivered but not yet adelivered (the proposal backlog). *)
val pending_count : t -> int

val lowest_held : t -> int option
(** The lowest consensus instance this process still holds any state for
    (proposal marker, decided batch or consensus table): never below
    {!next_instance}, since consensus forgets every applied instance. *)

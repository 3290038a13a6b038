(** Simulated unreliable transport ("Unreliable Transport" in Figure 9 of the
    paper).

    Provides unreliable, unordered, point-to-point datagram delivery between
    numbered nodes over the discrete-event {!Gc_sim.Engine}:

    - each message is delayed by a draw from the link's delay distribution,
      so messages can be reordered;
    - each message is dropped with the link's drop probability, and
      {e duplicated} with the link's duplication probability (a second,
      independently delayed copy — real UDP duplicates packets);
    - crashed nodes neither send nor receive; {!recover} models a machine
      freeze ending: the node rejoins delivery with its state intact (the
      crash-stop view of the {e process} is the kernel layer's business —
      a {!crash}/{!recover} pair here is a network-level freeze);
    - the node set can be partitioned; messages across partition boundaries
      are dropped at send time;
    - transient delay spikes can be injected per node, to provoke wrong
      failure suspicions (Section 4.3 of the paper).

    Nothing here retransmits or orders — those are the jobs of the reliable
    channel layer built on top. *)

type t

val create :
  Gc_sim.Engine.t ->
  ?trace:Gc_sim.Trace.t ->
  ?delay:Delay.t ->
  ?drop:float ->
  ?dup:float ->
  n:int ->
  unit ->
  t
(** [create engine ~n ()] builds a network of nodes [0 .. n-1].  [delay]
    (default {!Delay.lan}), [drop] (default [0.]) and [dup] (default [0.])
    apply to every link unless overridden with {!set_link}. *)

val engine : t -> Gc_sim.Engine.t
val size : t -> int

val register : t -> node:int -> (src:int -> Payload.t -> unit) -> unit
(** Install the receive handler for [node].  At most one handler per node;
    registering again replaces it (used when a process restarts as a fresh
    incarnation). *)

val send : t -> src:int -> dst:int -> Payload.t -> unit
(** Fire-and-forget datagram, counted by {!messages_sent}.  Sends from
    crashed nodes, to crashed nodes, or across a partition boundary are
    silently dropped. *)

val crash : t -> int -> unit
(** Crash [node]: all future sends and deliveries involving it are
    suppressed (in-flight messages to it are dropped on arrival).  Emits a
    [Crash] flight-recorder event. *)

val recover : t -> int -> unit
(** Undo {!crash}: [node] resumes sending and receiving (messages sent to
    it while crashed stay lost).  Emits a [Custom "recover"] flight-recorder
    event.  No-op on a live node. *)

val alive : t -> int -> bool

val set_link :
  t ->
  src:int ->
  dst:int ->
  ?delay:Delay.t ->
  ?drop:float ->
  ?dup:float ->
  unit ->
  unit
(** Override delay, drop and/or duplication probability of the directed
    link [src -> dst]. *)

val link_drop : t -> src:int -> dst:int -> float
(** Current drop probability of the directed link (lets fault injectors
    save and restore the base rate around a burst). *)

val link_dup : t -> src:int -> dst:int -> float
(** Current duplication probability of the directed link. *)

val partition : t -> int list list -> unit
(** Split the nodes into the given groups; nodes absent from every group form
    an implicit extra group.  Replaces any previous partition. *)

val heal : t -> unit
(** Remove the partition. *)

val delay_spike : t -> nodes:int list -> until:float -> extra:float -> unit
(** Add [extra] ms to every message {e sent by} the given nodes until virtual
    time [until].  Models transient overload / GC pauses that cause wrong
    suspicions. *)

(** {1 Accounting} *)

val messages_sent : t -> int
val messages_delivered : t -> int

val messages_dropped : t -> int
(** All drops: {!messages_dropped_policy} + {!messages_dropped_gone}. *)

val messages_dropped_policy : t -> int
(** Drops the network chose to make: lossy-link coin tosses and partition
    boundaries. *)

val messages_dropped_gone : t -> int
(** Drops because an endpoint was gone: dead sender or receiver at send
    time, receiver dead (or handler never registered) when the message
    arrived. *)

val messages_duplicated : t -> int
(** Extra copies injected by link duplication. *)

val reset_counters : t -> unit

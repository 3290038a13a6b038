(** Chandra–Toueg ◇S consensus ("Consensus" in Figure 9).

    The rotating-coordinator algorithm of Chandra and Toueg [10], the one the
    paper's architecture rests on: it tolerates [f < n/2] crashes and an
    {e unbounded number of wrong suspicions} — a suspicion costs at most one
    extra round, never an exclusion.  This is precisely why the architecture
    can put atomic broadcast below group membership (Section 3.1.1).

    Each round [r] of instance [i] has the classic four phases:

    + every participant sends its current estimate (with the round stamp of
      its last adoption) to the round's coordinator,
      [coord(r) = members.((r-1) mod n)];
    + the coordinator collects a majority of estimates, adopts one with the
      highest stamp, and proposes it to all;
    + every participant waits for the proposal {e or} a suspicion of the
      coordinator from the failure detector; on proposal it adopts the value
      and acknowledges, then moves to round [r+1]; on suspicion it moves on
      without acknowledging;
    + a coordinator that gathers a majority of acknowledgements reliably
      broadcasts the decision, which stops the instance everywhere.

    Instances are independent and may run concurrently; values are opaque
    network payloads.  A process that receives traffic for an instance it has
    not started is {e solicited}: the layer above is asked to propose, so
    reactive participants join in (used by atomic broadcast). *)

type t

val create :
  Gc_kernel.Process.t ->
  rc:Gc_rchannel.Reliable_channel.t ->
  rb:Gc_rbcast.Reliable_broadcast.t ->
  fd:Gc_fd.Failure_detector.t ->
  ?suspect_timeout:float ->
  ?adaptive:bool ->
  ?score:(Gc_net.Payload.t -> int) ->
  on_decide:(inst:int -> Gc_net.Payload.t -> unit) ->
  on_solicit:(inst:int -> unit) ->
  unit ->
  t
(** [suspect_timeout] (default 200 ms) is the aggressive timeout of the
    monitor used to suspect coordinators — deliberately small, per
    Section 4.3 of the paper.  [adaptive] (default false) replaces the fixed
    timeout with a Chen-style adaptive monitor
    ({!Gc_fd.Failure_detector.adaptive_monitor}) that self-tunes to the
    observed heartbeat jitter.  Suspicion-driven round changes are paced
    25 ms apart, so that a period in which every coordinator is suspected
    (e.g. a partition) cycles rounds at a bounded rate.  [score] breaks ties between same-stamp
    estimates in the coordinator's adoption step (higher wins); the atomic
    broadcast layer uses it to prefer non-empty batches so that decided
    batches make progress.  [on_solicit] fires (once per instance) when
    traffic arrives for an unstarted instance. *)

val propose : t -> inst:int -> members:int list -> Gc_net.Payload.t -> unit
(** Start (or join) instance [inst] among [members] with the given initial
    value.  All participants of an instance must supply the same [members]
    list — in the architecture this is guaranteed because the member list of
    instance [k] is a deterministic function of the decisions
    [0 .. k-1].  Proposing twice, or to an instance that is decided or
    forgotten ({!forget_below}), is a no-op. *)

val forget_below : t -> inst:int -> unit
(** Raise the floor to [inst] (a lower value is a no-op): every instance
    below it is forgotten — its round state, decided mark, solicitation
    mark and backlog go, and later traffic, proposals and decisions for it
    are dropped.  The layer above calls this once it has applied every
    decision below [inst]; until then a decided instance is held only as
    the fact that it decided. *)

val lowest_held : t -> int option
(** The lowest instance any of the tables still holds ([None] when they
    are all empty); never below the floor.  For tests. *)

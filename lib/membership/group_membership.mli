(** Primary-partition group membership on top of atomic broadcast ("Group
    Membership" in Figure 9).

    The inversion at the heart of the paper (Section 3.1.1): view changes are
    ordinary messages pushed through the totally-ordered broadcast below, so
    every process installs the same sequence of views with no dedicated view
    agreement protocol — the ordering problem is solved once, in the
    broadcast component.  Because view changes share the delivery order with
    application messages, each application message is delivered in the same
    view everywhere ({e same view delivery}, Section 4.4), and nothing ever
    blocks senders during a change.

    The component is transport-agnostic: it broadcasts through a caller-
    supplied handle, which the full stack points at generic broadcast (view
    changes are [Ordered]-class, hence totally ordered with respect to
    everything, per Section 3.3).

    Operations ([join], [remove], [join_remove_list]) match the paper's
    interface.  Exclusion {e decisions} do not live here — they belong to the
    monitoring component. *)

type transport = {
  broadcast : Gc_net.Payload.t -> unit;
      (** totally-ordered broadcast (abcast, or generic broadcast with an
          [Ordered] classification) *)
  subscribe : (origin:int -> Gc_net.Payload.t -> unit) -> unit;
      (** deliveries of the same broadcast *)
}

type t

val create :
  Gc_kernel.Process.t ->
  rc:Gc_rchannel.Reliable_channel.t ->
  transport:transport ->
  ?state_transfer_delay:float ->
  ?state_provider:(unit -> Gc_net.Payload.t) ->
  ?state_installer:(Gc_net.Payload.t -> unit) ->
  initial:View.t ->
  unit ->
  t
(** A founding member starts with [initial] containing itself; a joiner
    starts with [initial] {e not} containing itself and calls {!join}.

    [state_provider]/[state_installer] serialise and install the snapshot
    shipped to joiners (the stack packs broadcast bookkeeping and application
    state in it); the provider runs at send time, so snapshot and view are
    captured at the same point of the total order.
    [state_transfer_delay] (default 0) models snapshot serialisation time —
    the knob the responsiveness experiments turn, since this is the cost
    wrongly excluded processes pay in traditional stacks. *)

val join : ?force:bool -> t -> via:int -> unit
(** Ask member [via] to sponsor us into the group.  On completion the view
    (including us) is installed and {!joined} becomes true.  Retry with a
    different sponsor if nothing happens (sponsor crash).  [force] (default
    false) demotes this process to joiner first — for a process that may
    have been excluded without learning it (e.g. after a partition, when the
    members' reliable channels to it lapsed).

    A join request from a process still present in [via]'s current view does
    not broadcast a view change: the sponsor resyncs the (evidently
    restarted) process directly with a fresh snapshot against the current
    view, counting [membership.resyncs] — without this, a process that
    crashes and rejoins faster than its exclusion is silently ignored and
    hangs unjoined. *)

val add : t -> int -> unit
(** Member-side: sponsor process [p] into the group (broadcasts the view
    change; the state snapshot is sent when the change is delivered). *)

val remove : t -> int -> unit
(** Propose excluding [q] (or leaving, when [q] is the caller).  Idempotent
    per view. *)

val join_remove_list : t -> adds:int list -> removes:int list -> unit
(** Batch view change: one new view applying all operations at once. *)

val view : t -> View.t
val joined : t -> bool
(** A founding member is joined from the start; a joiner after state
    transfer. *)

val left : t -> bool
(** True once a delivered view excludes this process. *)

val on_view : t -> (View.t -> unit) -> unit
(** Called at every view installation ([new_view] in Figure 9), including the
    joiner's first. *)

val view_changes : t -> int
(** Number of views installed locally (for tests and benches). *)

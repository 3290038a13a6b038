(** The traditional GM-VS architecture (Figures 1–2 of the paper), built over
    the same simulated substrate as the new stack — the baseline every
    comparison experiment runs against.

    Structure (Isis-style, Section 2.1.1):

    - {b membership + failure detection, fused}: one failure-detector timeout
      drives exclusion directly — a suspicion {e is} an exclusion proposal.
      The first non-suspected member coordinates a view change;
    - {b view synchrony with blocking flush} (sending view delivery): during
      a view change every member stops sending, reports its unstable
      messages, and the coordinator re-injects the union before installing
      the view — the Sync behaviour of Ensemble (Section 2.2), whose sender
      blocking Section 4.4 of the paper criticises;
    - {b fixed-sequencer atomic broadcast on top of view synchrony}: the head
      of the view assigns sequence numbers; when it crashes, ordering stalls
      until the membership below delivers a new view (the dependence of
      atomic broadcast on membership, Section 2.3.2);
    - {b kill-and-rejoin}: a wrongly excluded process learns of its exclusion,
      "commits suicide" and rejoins through a state transfer — the cost that
      forces traditional systems to use large detection timeouts
      (Section 4.3).

    The deliberate contrast with {!Gcs.Gcs_stack}: suspicion = exclusion, a
    third ordering protocol (views) besides the sequencer and the flush, and
    sender blocking during view changes. *)

type view_agreement =
  | Coordinator
      (** Isis-style: the first non-suspected member collects the flush and
          broadcasts the install (Figure 1). *)
  | Consensus_based
      (** Phoenix-style: every member merges the flushed state and the
          (view, cut) is decided by consensus among the old members
          (Figure 2) — no coordinator-crash retry dance. *)

type config = {
  hb_period : float;  (** heartbeat period, ms (default 20) *)
  fd_timeout : float;
      (** the single, fused detection timeout: drives both ordering recovery
          and exclusion (default 1000 — traditional systems must keep this
          large, see Section 4.3) *)
  rto : float;  (** reliable-channel retransmission period (default 50) *)
  flush_timeout : float;
      (** blocked members restart the view change if no install arrives
          (coordinator crash) (default 1500) *)
  rejoin_delay : float;
      (** time before an excluded process attempts to rejoin (default 500) *)
  state_transfer_delay : float;
      (** snapshot serialisation time for joiners/rejoiners (default 100) *)
  view_agreement : view_agreement;
      (** how view changes are agreed (default [Coordinator]) *)
}

val default_config : config

type t

val create :
  Gc_kernel.Runtime.t ->
  id:int ->
  initial:int list ->
  ?config:config ->
  ?app_state_provider:(unit -> Gc_net.Payload.t) ->
  ?app_state_installer:(Gc_net.Payload.t -> unit) ->
  unit ->
  t
(** As in {!Gcs.Gcs_stack.create}: founders list themselves in [initial];
    later processes pass the current membership and {!join}. *)

val abcast : t -> Gc_net.Payload.t -> unit
(** Sequencer-ordered broadcast (total order).  Queued while the stack is
    blocked by a flush, and while excluded. *)

val vscast : t -> Gc_net.Payload.t -> unit
(** View-synchronous broadcast (FIFO per sender, same set in each view). *)

val on_deliver :
  t -> (origin:int -> ordered:bool -> Gc_net.Payload.t -> unit) -> unit

val join : t -> via:int -> unit
val leave : t -> unit

val view : t -> Gc_membership.View.t
val is_member : t -> bool
(** Operational member of the current view (false while excluded or before
    joining). *)

val on_view : t -> (Gc_membership.View.t -> unit) -> unit

val crash : t -> unit
val alive : t -> bool
val id : t -> int

(** {1 Instrumentation (the quantities the paper's Section 4 argues about)} *)

val blocked : t -> bool
(** Currently blocked by a flush (sending view delivery). *)

val blocked_time_total : t -> float
(** Cumulative ms this process spent with sending blocked. *)

val exclusions_suffered : t -> int
(** Times this (live) process was excluded and had to rejoin. *)

val excluded_time_total : t -> float
(** Cumulative ms spent outside the membership due to exclusions. *)

val view_changes : t -> int
val process : t -> Gc_kernel.Process.t

val reliable_channel : t -> Gc_rchannel.Reliable_channel.t
(** The stack's reliable channel — also the door for client traffic
    (request/reply payloads of services built on the stack). *)

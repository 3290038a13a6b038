(** The full new-architecture group communication stack (Figure 9 of the
    paper): the library's main public entry point.

    One [Gcs_stack.t] per process assembles, bottom-up:

    {v
      Application
        Group Membership          (views = totally-ordered messages)
          Generic Broadcast       (rbcast / abcast, conflict-driven ordering)
            Atomic Broadcast      (consensus-based, membership-independent)
              Consensus           (Chandra–Toueg <>S)
        Monitoring                (exclusion policies, decoupled from FD)
          Failure Detection       (heartbeats; short + long monitors)
            Reliable Channel      (FIFO, retransmission, stuck detection)
              Unreliable Transport (simulated network)
    v}

    Applications broadcast with {!abcast} (total order) or {!rbcast}
    (unordered with respect to other {!rbcast} messages, ordered with respect
    to {!abcast} messages) — exactly the two generic-broadcast invocations of
    the paper's Section 3.3, with the conflict relation

    {v
               rbcast       abcast
    rbcast   no conflict   conflict
    abcast    conflict     conflict
    v}

    Membership operations ({!join}, {!add}, {!remove}, {!join_remove_list})
    and view notifications ({!on_view}) follow the paper's interface.
    Exclusions are decided by the monitoring component according to the
    configured policy — a failure suspicion never removes anyone by itself. *)

type config = {
  hb_period : float;  (** heartbeat period, ms (default 20) *)
  consensus_timeout : float;
      (** aggressive FD timeout used to suspect coordinators (default 200) *)
  consensus_adaptive : bool;
      (** use the self-tuning adaptive monitor instead of the fixed
          consensus timeout (default false) *)
  exclusion_timeout : float;
      (** conservative FD timeout used by monitoring (default 5000) *)
  rto : float;  (** reliable-channel retransmission period (default 50) *)
  stuck_after : float;
      (** reliable-channel output-stuck threshold (default 10000) *)
  policy : Gc_monitoring.Monitoring.policy;
      (** exclusion policy (default [Threshold 2]) *)
  state_transfer_delay : float;
      (** snapshot serialisation time for joiners, ms (default 0) *)
  gb_ack_mode : Gc_gbcast.Generic_broadcast.ack_mode;
      (** generic-broadcast fast-path quorum (default [All_members]: every
          layer tolerates f < n/2, but commuting traffic stalls between a
          member's crash and its exclusion; [Two_thirds] keeps the fast path
          live with f < n/3, per the published algorithm) *)
  same_view_delivery : bool;
      (** route view changes through generic broadcast so every message is
          delivered in the same view everywhere (default true, the paper's
          design); false is the ablation: view changes ride plain atomic
          broadcast and commuting messages may straddle views (Section 4.4) *)
  batch_max : int;
      (** generic broadcast's submission batching watermark (default 64):
          up to this many application messages ride one reliable
          broadcast / one acknowledgement vector, amortising the O(n^2)
          relay and O(n) ack cost per message; 1 disables batching *)
  batch_delay : float;
      (** tick watermark, ms (default 1): a partial batch is flushed this
          long after its first message, bounding added latency.  With
          [batch_max > 1] it is also the wait before a stage-change cut is
          proposed ({!Gc_gbcast.Generic_broadcast.create}) *)
}

val default_config : config

(** Smart constructor for {!config}.  New code should build configurations
    with {!Config.make} — the record type stays exposed above for reads and
    pattern matches, but constructing it literally means every new knob is a
    breaking change, while [make] grows backwards-compatibly. *)
module Config : sig
  type t = config

  type runtime = Sim | Unix
      (** Which backend the configuration is tuned for.  [Sim] keeps the
          historical defaults (simulated milliseconds); [Unix] rebases the
          timing defaults for wall-clock TCP deployments ([hb_period] 100ms,
          [consensus_timeout] 1s, [exclusion_timeout] 8s, [rto] 150ms,
          [stuck_after] 30s).  Explicit arguments always win. *)

  val unix_default : t
  (** The [Unix] timing baseline, i.e. [make ~runtime:Unix ()]. *)

  val make :
    ?runtime:runtime ->
    ?hb_period:float ->
    ?consensus_timeout:float ->
    ?consensus_adaptive:bool ->
    ?exclusion_timeout:float ->
    ?rto:float ->
    ?stuck_after:float ->
    ?policy:Gc_monitoring.Monitoring.policy ->
    ?state_transfer_delay:float ->
    ?gb_ack_mode:Gc_gbcast.Generic_broadcast.ack_mode ->
    ?same_view_delivery:bool ->
    ?batch_max:int ->
    ?batch_delay:float ->
    unit ->
    t
  (** Every omitted argument takes its value from the [runtime] baseline
      ({!default_config} for [Sim], {!unix_default} for [Unix]); the historical
      arity [make ()] is unchanged and means [make ~runtime:Sim ()]. *)
end

module Conflict = Gc_gbcast.Conflict
(** Re-exported so applications that decode [Gcs_app] envelopes (e.g. a
    server replaying its durable log) can name the conflict classes
    without depending on the gbcast layer directly. *)

(** The stack's own payloads, exposed for crash recovery: the durable
    delivery log stores generic-broadcast bodies verbatim, so a recovering
    application decodes [Gcs_app] envelopes back out of its log.
    [Gcs_snapshot] is the joiner state-transfer container (ordering-layer
    bookkeeping plus the application's opaque state). *)
type Gc_net.Payload.t +=
  | Gcs_app of { klass : Gc_gbcast.Conflict.klass; body : Gc_net.Payload.t }
  | Gcs_snapshot of {
      next_instance : int;
      ab_delivered : Gc_kernel.Delivered_set.t;
      gb_stage : int;
      gb_delivered : Gc_kernel.Delivered_set.t;
      app : Gc_net.Payload.t option;
    }

type t

val create :
  Gc_kernel.Runtime.t ->
  ?metrics:Gc_obs.Metrics.t ->
  id:int ->
  initial:int list ->
  ?config:config ->
  ?app_state_provider:(unit -> Gc_net.Payload.t) ->
  ?app_state_installer:(Gc_net.Payload.t -> unit) ->
  ?storage:Gc_kernel.Storage.t ->
  ?boot_epoch:int ->
  unit ->
  t
(** Build the stack for node [id].  [initial] is the founding view: a
    founding member lists itself in [initial]; a process joining later passes
    the current membership (without itself) and calls {!join}.  The app state
    hooks serialise/install application state for joiner state transfer,
    as in the traditional and Totem stacks.  [storage], when given, is the
    durable delivery log: generic broadcast (the delivery surface for every
    application message) appends one record per delivery, write-ahead of
    the application callbacks.
    [boot_epoch] (default 0) is this boot's incarnation number: a process
    restarting after a crash must pass a strictly larger value than its
    previous boot.  It scopes every identifier the stack mints — reliable
    channel generations (so streams reopen both directions instead of
    losing traffic against peers' stale per-stream state, see
    {!Gc_rchannel.Reliable_channel.create}) and the per-origin broadcast
    ids of the rbcast/abcast/gbcast layers (so peers' dedup sets never
    mistake a new incarnation's messages for already-seen ones).
    [metrics] (default: a fresh registry) collects every layer's counters and
    latency histograms; read it back with {!metrics}. *)

(** {1 Broadcast (generic broadcast: Section 3.3)} *)

val abcast : t -> Gc_net.Payload.t -> unit
(** Totally-ordered broadcast to the current view. *)

val rbcast : t -> Gc_net.Payload.t -> unit
(** Reliable broadcast: unordered against other [rbcast] messages (fast path,
    no consensus), totally ordered against [abcast] messages and view
    changes. *)

val on_deliver :
  t -> (origin:int -> ordered:bool -> Gc_net.Payload.t -> unit) -> unit
(** Application deliveries, in generic-broadcast order.  [ordered] tells
    which primitive the origin used. *)

(** {1 Membership} *)

val join : ?force:bool -> t -> via:int -> unit
(** Ask [via] to sponsor this process into the group; [force] rejoins even if
    this process still believes it is a member (post-partition recovery). *)

val add : t -> int -> unit
val remove : t -> int -> unit
val join_remove_list : t -> adds:int list -> removes:int list -> unit
val view : t -> Gc_membership.View.t
val joined : t -> bool
val left : t -> bool
val on_view : t -> (Gc_membership.View.t -> unit) -> unit

(** {1 Process control} *)

val id : t -> int
val crash : t -> unit
(** Crash-stop the whole process (simulation control). *)

val shutdown : t -> unit
(** Orderly teardown: flush generic broadcast's submission/ack batchers (a
    message submitted within [batch_delay] of teardown would otherwise be
    silently dropped), sync the durable log if one is attached, then crash
    the process.  Use {!crash} to model fail-stop. *)

val alive : t -> bool

(** {1 Component access (tests, benches, advanced use)} *)

val process : t -> Gc_kernel.Process.t

val metrics : t -> Gc_obs.Metrics.t
(** The node's metrics registry (counters, gauges, latency histograms from
    every layer of this stack).  Merge across nodes with
    {!Gc_obs.Metrics.merged}. *)

val failure_detector : t -> Gc_fd.Failure_detector.t
val reliable_channel : t -> Gc_rchannel.Reliable_channel.t
val atomic_broadcast : t -> Gc_abcast.Atomic_broadcast.t
val generic_broadcast : t -> Gc_gbcast.Generic_broadcast.t
val membership : t -> Gc_membership.Group_membership.t
val monitoring : t -> Gc_monitoring.Monitoring.t

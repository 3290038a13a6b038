(** Per-node process context: the glue every protocol component is built on.

    A [Process.t] owns one node of the group and gives its components:

    - message fan-out: components subscribe with {!on_receive}; each incoming
      payload is offered to every subscriber, which pattern-matches on its
      own extensible-variant constructors and ignores the rest (this mirrors
      the event routing of the Appia/Cactus frameworks the paper used);
    - {e alive-guarded} timers: when the process crashes, pending and
      periodic timers silently stop firing, so no protocol code runs at a
      dead process (crash-stop);
    - a private random stream, tracing tagged with the node id, and a
      per-node {!Gc_obs.Metrics} registry every layer records into.

    Every capability is routed through the {!Runtime} seam, so the same
    protocol code runs unchanged on the deterministic simulator and on the
    real-network unix backend; no protocol module can name a backend type. *)

type t

val create : ?metrics:Gc_obs.Metrics.t -> Runtime.t -> id:int -> t
(** Create the process for node [id] on the given runtime and hook it into
    the transport.  [metrics] defaults to a fresh registry. *)

val id : t -> int

val metrics : t -> Gc_obs.Metrics.t
(** The node's metrics registry (shared by every layer on this node). *)

val now : t -> float
val alive : t -> bool

val backend : t -> string
(** The runtime backend's name (["sim"], ["unix"]) — for logs only. *)

val oracle_alive : t -> int -> bool
(** Whether the {e environment} knows peer [q] to be alive — the sim's
    omniscient oracle behind the [fd.wrong_suspicions] and
    [monitoring.wrongful_exclusions] counters.  Always [false] on real
    networks, where ground truth is unknowable. *)

val rand_float : t -> float -> float
(** Uniform draw in [\[0, bound)] from the process's private stream. *)

val rand_int : t -> int -> int
(** Uniform draw in [\[0, bound)] (positive [bound]). *)

val send : t -> dst:int -> Gc_net.Payload.t -> unit
(** Unreliable datagram send ([u-send] in Figure 9 of the paper).  No-op if
    the process is dead. *)

val on_receive : t -> (src:int -> Gc_net.Payload.t -> unit) -> unit
(** Subscribe a component to incoming payloads ([u-receive]). *)

val timer : t -> delay:float -> (unit -> unit) -> Runtime.timer
(** One-shot timer; the callback is skipped if the process has died. *)

type periodic

val every : t -> period:float -> (unit -> unit) -> periodic
(** Periodic timer firing each [period] ms.  Stops when cancelled or when
    the process dies. *)

val cancel_periodic : periodic -> unit

val crash : t -> unit
(** Crash-stop: mark dead, stop the transport endpoint, run the registered
    {!on_crash} hooks (environment-side bookkeeping, not protocol code). *)

val on_crash : t -> (unit -> unit) -> unit

val traced : t -> bool
(** Whether tracing is enabled — guard for emissions whose attribute
    construction is itself costly (e.g. payload rendering). *)

val event :
  t -> component:string -> kind:Gc_obs.Event.kind -> ?msg:string ->
  ?attrs:(string * string) list -> unit -> unit
(** Typed lifecycle event stamped with this node, the current time and
    the node's Lamport clock; [msg] is the stable message id the event
    concerns (e.g. ["ab:0.3"]). *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter in the node's metrics registry. *)

val observe : t -> string -> float -> unit
(** Record a histogram sample in the node's metrics registry. *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge in the node's metrics registry to its latest reading. *)

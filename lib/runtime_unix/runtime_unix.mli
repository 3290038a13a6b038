(** The real-network backend of the {!Gc_kernel.Runtime} seam.

    One value owns one node's endpoint: a TCP listener its peers dial, a
    lazily-dialled outbound connection per peer, and the OS clock/timers of
    a shared {!Evloop}.  Datagrams are {!Gc_net.Frame}-framed payloads
    wrapped in a [Datagram] envelope carrying the sender id, so the
    receiving end demultiplexes without per-connection handshakes and
    reconnects are stateless.

    Unreliability contract: sends while a peer is unreachable (no
    connection, dial in progress past the buffer cap, connection reset)
    are silently dropped — exactly the [u-send] the protocol stack is
    built to tolerate; the reliable channel layer retransmits.

    Several nodes may share one {!Evloop} (and hence one OS process):
    that is how the backend-conformance tests run a whole cluster
    in-process over the loopback interface. *)

type t

type Gc_net.Payload.t += Datagram of { src : int; inner : Gc_net.Payload.t }
(** The peer-mesh envelope; registered with the payload codec under tag
    ["dg"]. *)

val create :
  loop:Evloop.t ->
  me:int ->
  ?metrics:Gc_obs.Metrics.t ->
  ?trace:Gc_sim.Trace.t ->
  ?listen:Unix.sockaddr ->
  unit ->
  t
(** Create node [me]'s endpoint.  [listen] (e.g. loopback port 0 in
    tests) accepts peer dial-ins; omit it for a send-only endpoint.
    [metrics] receives [net.*] counters ([net.frame_reject],
    [net.tx_drop], [net.reconnects]). *)

val port : t -> int
(** Actual bound listen port (after a port-0 bind); 0 without listener. *)

val set_peers : t -> (int * Unix.sockaddr) list -> unit
(** Declare the dialable address of each peer id.  Sends to undeclared
    ids are dropped. *)

val runtime : t -> Gc_kernel.Runtime.t
(** The capability record to hand to {!Gc_kernel.Process.create} /
    [Gcs_stack.create]. *)

val shutdown : t -> unit
(** Close the listener and every connection. *)

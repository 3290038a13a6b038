(** A non-blocking TCP connection carrying {!Gc_net.Frame}-framed
    payloads, driven by an {!Evloop}.

    Used for both halves of the real runtime: the peer mesh between
    [gcs_server] daemons and the client connections a server accepts.
    Reads are decoded incrementally, each frame body in place.  Writes
    are coalesced: {!send} encodes the payload once and appends the frame
    to the connection's output buffer, and the connection flushes that
    buffer with one [write(2)] per {!Evloop} turn, from work it
    {!Evloop.defer}s — so a turn's frames leave together before the loop
    next blocks, and a send made outside the loop goes out at the start of
    the next {!Evloop.run_once}.  Whatever the socket does not accept
    waits for writability.  Rejected frames are counted
    ([net.frame_reject]) and skipped; a framing-level corruption or peer
    hangup closes the connection and fires [on_close] exactly once. *)

type t

val attach :
  loop:Evloop.t ->
  ?metrics:Gc_obs.Metrics.t ->
  ?connecting:bool ->
  Unix.file_descr ->
  on_payload:(t -> Gc_net.Payload.t -> unit) ->
  on_close:(t -> unit) ->
  t
(** Take ownership of a socket (sets it non-blocking).  [connecting] marks
    an in-progress [Unix.connect]: sends are buffered until the socket
    reports writable and [SO_ERROR] is clean. *)

val send : t -> Gc_net.Payload.t -> unit
(** Frame and enqueue one payload; it is written before the loop next
    blocks.  A frame that would take the unwritten output past the
    256 KiB cap triggers an immediate flush first, and is dropped only if
    it still does not fit.  Such frames and unencodable payloads are
    dropped — datagram semantics; the reliable-channel layer above
    retransmits — and counted as [net.tx_drop].  A frame longer than the
    cap itself can never be sent: it is dropped at once and counted as
    [net.tx_oversize] as well. *)

val close : t -> unit
(** Idempotent; fires [on_close].  Queued frames are written first, as far
    as the socket accepts them without blocking, so a send followed by a
    close still delivers. *)

val closed : t -> bool

val fd : t -> Unix.file_descr

type stats = {
  bytes_in : int;  (** bytes read off the socket *)
  bytes_out : int;  (** bytes actually written (not merely buffered) *)
  frames_in : int;  (** complete frames decoded *)
  frames_out : int;  (** frames enqueued for sending *)
}

val stats : t -> stats
(** This connection's lifetime I/O counters — the per-connection load
    the server's [Stats] endpoint reports.  When [attach] was given
    [?metrics], the same quantities also accumulate into the shared
    registry as [net.bytes_in]/[net.bytes_out]/[net.frames_in]/
    [net.frames_out], alongside [net.writes] ([write(2)] calls that moved
    bytes), [net.tx_drop] and [net.tx_oversize]. *)

val listen :
  loop:Evloop.t ->
  Unix.sockaddr ->
  on_accept:(Unix.file_descr -> Unix.sockaddr -> unit) ->
  Unix.file_descr
(** Bind + listen (accept backlog 64) + watch: every inbound connection
    is handed to [on_accept] (the socket is already non-blocking). *)

val bound_port : Unix.file_descr -> int
(** The actual port of a bound socket (for [port 0] binds in tests). *)

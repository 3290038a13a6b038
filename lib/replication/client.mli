(** Simulated client of a replicated service.

    Clients are plain processes outside the replica group.  A client sends
    each request to one replica and waits; on timeout it rotates to the next
    replica and resends {e with the same request id} (replicas dedup by
    client and request id, so retries are safe); a [Redirect] reply
    retargets it at the current primary (passive replication).  Latency is measured from
    the {e first} send, so failovers show up in the client-perceived numbers
    — the responsiveness the paper's Section 4.3 is about. *)

type t

val create :
  Gc_kernel.Runtime.t ->
  id:int ->
  replicas:int list ->
  ?timeout:float ->
  unit ->
  t
(** [timeout] (default 500 ms) is the per-attempt wait before retrying on the
    next replica. *)

val request :
  t ->
  cmd:Gc_net.Payload.t ->
  on_reply:(Gc_net.Payload.t -> latency:float -> unit) ->
  unit
(** Issue [cmd]; [on_reply] fires exactly once, with the end-to-end latency
    in virtual ms. *)

val retries : t -> int
(** Total timeout-driven resends so far. *)

val outstanding : t -> int
(** Requests not yet answered. *)

val process : t -> Gc_kernel.Process.t

(** One [gcs_server] daemon: a {!Replica} over the real-network runtime,
    plus a client-facing TCP listener speaking {!Proto} frames.

    Requests enter on a client connection and are submitted to the
    replica ([Cl_put] via abcast, [Cl_incr] via rbcast); when the
    daemon's own stack delivers an op it submitted, the submitting client
    gets its {!Proto.Cl_reply}.  Reads ([Cl_get], [Cl_dump]) are answered
    from the local {!Kv} replica immediately, and the admin requests
    ([Cl_stats], [Cl_health]) from the telemetry bodies below. *)

type t

val create :
  loop:Gc_runtime_unix.Evloop.t ->
  id:int ->
  initial:int list ->
  ?config:Gcs.Gcs_stack.config ->
  ?metrics:Gc_obs.Metrics.t ->
  ?log:(string -> unit) ->
  ?join_via:int ->
  ?storage:Gc_kernel.Storage.t ->
  ?snapshot_interval:float ->
  ?sync_replies:bool ->
  peer_listen:Unix.sockaddr ->
  client_listen:Unix.sockaddr ->
  unit ->
  t
(** Boot the daemon: bind the peer listener, assemble the stack.  A
    founding member lists itself in [initial] and accepts clients
    immediately; a later joiner passes the current membership and
    [join_via] (its sponsor) and defers its client listener until its
    state-transfer install lands — an op submitted into the pre-join
    window could be consumed by the incoming snapshot without its reply
    ever firing.  Port 0 binds are supported; read the real ports back
    with {!peer_port} / {!client_port} (0 while a joiner's listener is
    still deferred), then declare the mesh with {!set_peers}.

    [storage] (typically {!Gc_runtime_unix.Fstore} over [--data-dir])
    makes the replica crash-recoverable: before the stack boots, the KV is
    rebuilt from the durable snapshot plus the delivery-log suffix, the
    opid incarnation is bumped and durably persisted, and a rejoin then
    installs the sponsor's {!Kv.to_blob} image (see {!Resync}), which
    replaces the rebuilt state wholesale.  [snapshot_interval] (ms,
    default 10s) is the periodic snapshot + log-truncation cadence; the
    log is synced every second, which bounds how much
    acknowledged-but-unsynced log a power cut can lose.
    [sync_replies] (default false) syncs the delivery log before each
    client reply instead — acked-means-durable at the cost of one fsync
    per originated op. *)

val set_peers : t -> (int * Unix.sockaddr) list -> unit

val stats_json : t -> Gc_obs.Json.t
(** The full telemetry snapshot a [Cl_stats] (JSON format) reply
    carries: node id, uptime, KV digests/counters, current view,
    per-client-connection I/O, and the whole metrics registry under
    ["metrics"] (parse with {!Gc_obs.Metrics.of_json}).  Also what the
    [--telemetry-interval] JSONL writer appends each tick. *)

val stats_body : t -> Proto.stats_format -> string
(** [stats_json] rendered per the requested exposition format —
    compact JSON or Prometheus text (with a [gcs_kv_info] digest line). *)

val health_body : t -> string
(** Small JSON liveness summary ([Cl_health] reply body). *)


val peer_port : t -> int
val client_port : t -> int
val id : t -> int
val stack : t -> Gcs.Gcs_stack.t
val kv : t -> Kv.t
val metrics : t -> Gc_obs.Metrics.t
val shutdown : t -> unit

(** Application state for (re)joining and rebooting replicas: boot replay
    of the durable log ({!replay_entry}) and the serve/install sides of
    the state transfer that rides inside the membership snapshot
    ({!provide}, {!install}), factored out of {!Server} so they are
    unit-testable without a socket in sight.

    State transfer is always the full {!Kv.to_blob} image, whose size
    follows the key space and the number of (origin, incarnation)
    streams, not the history.  [Kv.restore] replaces the joiner's state
    wholesale, so the installed image is exact however the commuting
    deliveries interleaved on either side. *)

val replay_entry : kv:Kv.t -> metrics:Gc_obs.Metrics.t -> string -> unit
(** Replay one durable-log entry through the applied-set at boot: fresh
    ops are applied and count [server.recovered_ops], ops the snapshot
    already covers count [server.dup_ops_skipped], and entries that did
    not carry a replicated KV operation (membership traffic also rides
    the logged broadcast layer) are skipped. *)

val provide : kv:Kv.t -> metrics:Gc_obs.Metrics.t -> Gc_net.Payload.t
(** The app payload for a joiner: a {!Proto.Sv_state} image of [kv],
    counted as [server.full_transfers]. *)

val install : kv:Kv.t -> metrics:Gc_obs.Metrics.t -> Gc_net.Payload.t -> bool
(** Install a {!provide} payload; [true] once the image is restored.  A
    payload that is not a state image, or a corrupt blob, leaves [kv]
    untouched, counts [server.bad_delivery] and returns [false]. *)

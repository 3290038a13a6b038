(** The [gcs_server] wire protocol: client requests, server replies, and
    the replicated operation envelope, all as {!Gc_net.Payload.t}
    extensions registered with the binary codec (tag ["cl"]) so they
    cross both the client TCP connection and the server peer mesh.

    Clients pick the ordering primitive by op: [Cl_put] conflicts (it
    overwrites) and rides atomic broadcast; [Cl_incr] commutes with other
    increments and rides the generic-broadcast fast path; [Cl_get] and
    [Cl_dump] are answered locally by the serving replica. *)

type op =
  | Put of { key : string; value : string }  (** conflicting: abcast *)
  | Incr of { key : string; delta : int }  (** commuting: rbcast *)

val op_commutes : op -> bool
val op_to_string : op -> string

type stats_format = Stats_json | Stats_prometheus
(** Exposition format of a [Cl_stats] reply body: the registry's compact
    JSON (parse with {!Gc_obs.Metrics.of_json} via the ["metrics"]
    member) or Prometheus text exposition. *)

type Gc_net.Payload.t +=
  | Cl_put of { rid : int; key : string; value : string }
  | Cl_incr of { rid : int; key : string; delta : int }
  | Cl_get of { rid : int; key : string }
  | Cl_dump of { rid : int }
  | Cl_reply of { rid : int; ok : bool; body : string }
      (** Every request is answered by exactly one [Cl_reply] echoing its
          [rid]. *)
  | Sv_op of { origin : int; opid : int; op : op }
      (** The replicated envelope servers broadcast through the stack;
          [origin]'s server answers the submitting client when its own
          stack delivers the envelope. *)
  | Cl_stats of { rid : int; format : stats_format }
      (** Admin: full telemetry snapshot of the serving replica — its
          metrics registry (every protocol layer, the event loop, the
          network edge) plus KV order/state digests and view.  Answered
          locally, never replicated. *)
  | Cl_health of { rid : int }
      (** Admin: one-line liveness summary (view, joined/alive flags,
          client count, uptime) — cheap enough for tight poll loops. *)
  | Sv_state of { blob : string }
      (** Application state for a joiner: a {!Kv.to_blob} image, carried
          inside the membership snapshot.  The only state-transfer
          payload: the image is O(keys + streams), not O(history). *)

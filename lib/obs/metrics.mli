(** Per-node registry of named counters, gauges and log-bucketed latency
    histograms.

    The registry is designed to be left on in every run: recording a
    counter is one integer increment, recording a histogram sample is one
    array bump plus four scalar updates.  Names are flat dotted strings
    ([layer.metric], e.g. ["consensus.instances_decided"],
    ["abcast.latency_ms"]); entries are created lazily on first use, so
    layers never need to pre-register anything.

    Histograms use 4 log-spaced buckets per octave starting at 0.001 ms
    (128 buckets total), giving quantile estimates within ~19% relative
    error over the whole simulated-latency range; exact min/max/sum/count
    are kept alongside and quantiles are clamped to the observed extremes.

    A metric name denotes one kind for the lifetime of the registry —
    using it as a different kind raises [Invalid_argument]. *)

type t

val create : unit -> t

(** {1 Recording} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at 0 on first use). *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge to its latest reading. *)

val observe : t -> string -> float -> unit
(** Record one histogram sample (unit: whatever the metric's name says,
    milliseconds for the built-in [*_ms] metrics). *)

(** {1 Handles}

    For hot paths: a handle is resolved once, from a literal name, and
    recording through it skips the string lookup.  The entry is still
    created on first record, not when the handle is made, so a registry
    reads the same whichever way a site records into it. *)

type counter
type gauge

val counter_handle : t -> string -> counter
(** A handle on the counter [name]. *)

val gauge_handle : t -> string -> gauge
(** A handle on the gauge [name]. *)

val bump : ?by:int -> counter -> unit
(** {!incr} through a handle. *)

val set : gauge -> float -> unit
(** {!set_gauge} through a handle. *)

val get : gauge -> float
(** The gauge's reading, as {!val-gauge} returns it. *)

(** {1 Reading} *)

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> float
(** 0.0 when absent. *)

val hist_count : t -> string -> int

val quantile : t -> string -> float -> float
(** [quantile t name 0.99] — [nan] when the histogram is absent or empty. *)

val hist_max : t -> string -> float
val hist_mean : t -> string -> float

val names : t -> string list
(** All registered metric names, sorted. *)

(** {1 Frozen views}

    An immutable copy of one entry, safe to hold across further
    recording. *)

type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** [infinity] when empty *)
  hv_max : float;  (** [neg_infinity] when empty *)
  hv_buckets : (int * int) list;
      (** sparse [(bucket index, count)], ascending, non-empty buckets
          only *)
}

type view = V_counter of int | V_gauge of float | V_hist of hist_view

val view : t -> string -> view option

val n_buckets : int
(** Number of histogram buckets (shared by every histogram). *)

val bucket_upper : int -> float
(** Upper edge of bucket [i] — the representative value quantile
    estimation reports for samples in that bucket. *)

(** {1 Merging}

    Cross-node aggregation: counters and histogram buckets add, gauges
    keep the maximum (the interesting cross-node reading for e.g. blocked
    time). *)

val merge_into : into:t -> t -> unit
val merged : t list -> t
(** [merged [m]] is a capture of [m]: a copy that further recording into
    [m] leaves unchanged.  It is exact while [m]'s gauges are
    non-negative, since a merged gauge starts from 0. *)

(** {1 Windows}

    The live telemetry plane: a daemon answers a [Stats] request with its
    registry, and a monitoring client ([gcs_top]) subtracts consecutive
    replies to get per-window rates and latency distributions. *)

val delta : before:t -> after:t -> t
(** The window between two captures of the same registry: counters and
    histogram buckets subtract, gauges keep the [after] reading.  A
    counter or histogram that {e decreased} means the source restarted
    between captures; the [after] value then stands alone (the Prometheus
    counter-reset convention).  A delta histogram's min/max are bounded
    by the edges of the window's occupied buckets (the exact extremes of
    just the window are unknowable from cumulative captures).  Entries
    only in [before] are dropped. *)

(** {1 Serialisation} *)

val to_json : ?include_zeros:bool -> t -> Json.t
(** Self-describing object: each entry carries its ["type"], counters and
    gauges their ["value"], histograms count/sum/min/max, derived
    p50/p90/p95/p99, and sparse non-empty buckets.  Zero counters and
    empty histograms are omitted unless [include_zeros] (default false)
    — pass [true] when diffing dumps across runs or replicas, where a
    metric that never fired must stay distinguishable from one that was
    never registered. *)

val of_json : Json.t -> t
(** Inverse of {!to_json} (derived quantiles are recomputed from buckets).
    @raise Invalid_argument when the value is not an object. *)

val to_prometheus : ?labels:(string * string) list -> t -> string
(** Prometheus text exposition: [# TYPE] comments, dotted metric names
    mapped to [gcs_layer_metric],
    histograms as cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count].  [labels] are attached to every sample; label values are
    escaped per the exposition format (backslash, double quote,
    newline). *)

val pp : Format.formatter -> t -> unit
(** Human-readable table, one metric per line. *)

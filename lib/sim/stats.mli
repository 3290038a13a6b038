(** Measurement helpers for experiments: samples and formatted
    summary rows.

    All experiment tables in the benchmark harness are produced from these
    aggregates, so the formatting lives here rather than being re-invented in
    every bench. *)

(** {1 Sample sets} *)

type sample
(** A growable set of float observations (e.g. latencies in ms). *)

val sample : unit -> sample
val add : sample -> float -> unit
val count : sample -> int
val mean : sample -> float
(** Mean of the observations; [nan] when empty. *)

val min_value : sample -> float
val max_value : sample -> float

val percentile : sample -> float -> float
(** [percentile s p] for [p] in [\[0,100\]]: linear interpolation between
    the two closest ranks of the sorted observations (rank
    [p/100 * (count - 1)], so the median of 1..100 is 50.5); [nan] when
    empty. *)

val median : sample -> float

(** {1 Table formatting} *)

val fmt_ms : float -> string
(** Render a duration in ms with adaptive precision ("-" for [nan]). *)

val print_table : header:string list -> string list list -> unit
(** Print an aligned plain-text table on stdout. *)

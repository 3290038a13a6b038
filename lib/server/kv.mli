(** The replicated application every [gcs_server] runs: a string key/value
    table whose [Put]s are totally ordered and whose [Incr]s commute.

    Besides the table it keeps the evidence the CI smoke test compares
    across replicas: a hash chain over the ordered deliveries (identical
    on every replica iff the stack delivered the same total order), the
    applied-set and counters of applied operations. *)

type t

val create : unit -> t

val apply :
  t -> origin:int -> opid:int -> ordered:bool -> Proto.op -> string option
(** Apply one delivered operation, recording [(origin, opid)] in the
    applied-set; returns a rendering of the new value (the body of the
    originating client's reply), or [None] if it was already applied
    (boot replays the log over a snapshot that may already cover part of
    it: overlap is expected). *)

val seen : t -> origin:int -> opid:int -> bool
(** Has [(origin, opid)] already been applied? *)

val get : t -> string -> string option

val ordered_count : t -> int
val commuting_count : t -> int

val applied_count : t -> int
(** Size of the applied-set — the number of distinct operations ever
    applied, ordered and commuting alike. *)

val order_digest : t -> string
(** Hex head of the order chain: each ordered delivery [(origin, opid, op)]
    replaces the head with MD5 of the old head plus the entry, so equal
    heads mean equal delivery sequences. *)

val state_digest : t -> string
(** MD5 (hex) over the sorted key/value table — equal across replicas
    once traffic has quiesced, even though commuting deliveries may have
    interleaved differently. *)

val dump : t -> string
(** One-line summary: both digests and both counters. *)

val to_blob : t -> string
(** Deterministic wire serialisation of the whole state — table, order
    chain head, compact applied-set, counters — for the durable snapshot
    slot and for state transfer to joiners.  Its size follows the key
    space and the number of (origin, incarnation) streams, not the
    history. *)

val restore : t -> string -> unit
(** Replace this state with a {!to_blob} image.
    @raise Gc_net.Wire.Short on a truncated blob or one whose order-chain
    head is not 16 bytes; [t] is left untouched. *)

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
    (recovery replays the log, then a peer delta: overlap is expected). *)

val seen : t -> origin:int -> opid:int -> bool
(** Has [(origin, opid)] already been applied? *)

val get : t -> string -> string option

val ordered_count : t -> int
val commuting_count : t -> int

val applied_count : t -> int
(** Size of the applied-set — the number of distinct operations ever
    applied, ordered and commuting alike. *)

val applied_digest : t -> string
(** 16 raw bytes: the XOR of MD5 over every applied [(origin, opid)] id.
    Order-independent — two replicas that applied the same {e set} of
    operations report the same digest regardless of how their commuting
    deliveries interleaved, and (with [applied_count]) unequal sets
    collide only with negligible probability.  This is the cross-replica
    comparable cursor that delta state transfer verifies against. *)

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
    chain head, compact applied-set and its digest, counters — for the
    durable snapshot slot and for full state transfer to joiners. *)

val restore : t -> string -> unit
(** Replace this state with a {!to_blob} image.
    @raise Gc_net.Wire.Short on a truncated blob or one whose digests are
    not 16 bytes. *)

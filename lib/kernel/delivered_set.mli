(** Watermark-compacted set of delivered message ids [(origin, seq)]: the
    stack's one dedup structure (rbcast, abcast, gbcast, the server's
    applied-set, state-transfer snapshots) and the owner of the
    epoch-scoped id format.

    A process numbers its messages from {!first_seq}[ ~epoch] in boot
    epoch [epoch], so a restarted origin never reuses an old id.  Each
    [(origin, epoch)] stream is consecutive, so its delivered ids are a
    long contiguous prefix plus a few stragglers decided out of order.
    The set stores exactly that: per stream a watermark [w] ("every id of
    the stream below [w] is in the set") and a sparse overflow above it.
    Probes are O(1) amortised and do not allocate; memory is proportional
    to the streams plus the {e live} out-of-order ids, not to the
    delivered history.  Ids must be non-negative. *)

type t

val first_seq : epoch:int -> int
(** The first id of boot epoch [epoch] (epoch 0 starts at 0); each epoch
    has room for 2{^40} ids. *)

val create : unit -> t

val add : t -> int * int -> bool
(** Insert an id.  Returns [false] when it was already present.  Inserting
    the id at its stream's watermark advances the watermark past any
    previously-overflowed contiguous successors. *)

val mem : t -> int * int -> bool

val cardinal : t -> int
(** Number of ids in the set. *)

val overflow_size : t -> int
(** Ids held sparsely above their stream's watermark: the live
    out-of-order residue (introspection and gauges). *)

val copy : t -> t
(** An independent copy, e.g. to ship while the original keeps growing. *)

val union_into : into:t -> t -> unit
(** Add every id of the second set to [into], in O(streams + overflow). *)

val write : Gc_net.Wire.writer -> t -> unit
(** Compact codec: per stream, in stream order, the watermark plus the
    sorted overflow ids, so equal sets encode to equal bytes. *)

val read : Gc_net.Wire.reader -> t
(** Inverse of {!write}.  @raise Gc_net.Wire.Short on truncated input. *)

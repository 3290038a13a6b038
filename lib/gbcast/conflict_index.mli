(** Occupancy index over the stage-relevant message set.

    The generic-broadcast fast path must answer, once per examined message:
    "does [m] conflict with any {e other} message currently relevant to the
    stage?" (relevant = pending or acknowledged in the stage).  Scanning the
    relevant set makes that O(M) per message — O(M^2) per stage, the
    dominant cost under commuting-only load where a stage never ends.

    This index tracks the relevant set incrementally and answers the
    question from its {!Conflict.t} specification:

    - [Indexed] specifications keep a per-conflict-class occupancy counter:
      a probe consults [classes] counters and the class matrix — O(classes),
      independent of how many messages are pending;
    - bare [Relation] specifications keep the payloads and fall back to the
      linear scan the index replaces, preserving exact semantics for
      arbitrary relations.

    The structure is a {e set} keyed by message id: {!add} is idempotent
    and {!remove} tolerates absent ids.  Generic broadcast keeps it equal to
    the key set of its one stage table. *)

type id = int * int

type t

val create : Conflict.t -> t

val add : t -> id -> Gc_net.Payload.t -> unit
(** Track a message.  Idempotent: re-adding a tracked id is a no-op (the
    first payload's class sticks — ids are globally unique, so a tracked id
    always denotes the same payload). *)

val remove : t -> id -> unit
(** Stop tracking an id (no-op when untracked). *)

val mem : t -> id -> bool

val occupancy : t -> int
(** Number of tracked messages. *)

val blocked : t -> excluding:id -> Gc_net.Payload.t -> bool
(** [blocked t ~excluding:id p]: does [p] conflict with any tracked message
    other than [id]?  The exclusion lets callers probe for a message that is
    itself already tracked (the examined message sits in the pending set). *)

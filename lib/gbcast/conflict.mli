(** Conflict relations for generic broadcast.

    A conflict relation says which pairs of messages must be delivered in the
    same order everywhere.  Generic broadcast pays ordering cost only for
    conflicting pairs (Section 3.2.1 of the paper).

    Two representations coexist:

    - a bare pairwise {!relation} — maximally general, but the broadcast
      layer can only evaluate "does [m] conflict with anything pending?" by
      scanning every pending message;
    - an {!index} — messages are mapped onto a small number of {e conflict
      classes} with a class-level conflict matrix, so the same question is
      answered from per-class occupancy counters in O(classes), independent
      of how many messages are pending (see {!Conflict_index}).

    Any relation expressible as classes + matrix should use the indexed
    form; {!check} recovers the pairwise view when one is needed. *)

type relation = Gc_net.Payload.t -> Gc_net.Payload.t -> bool
(** [conflict m m'] — must be symmetric.  Reflexivity is not required: the
    relation is only ever consulted on distinct messages. *)

val none : relation
(** Nothing conflicts: generic broadcast degenerates to reliable broadcast. *)

val all : relation
(** Everything conflicts: generic broadcast degenerates to atomic
    broadcast. *)

type klass = Commuting | Ordered
(** The paper's two-class instantiation (Section 3.3): [Commuting] messages
    ([rbcast] invocations, e.g. passive-replication updates) conflict only
    with [Ordered] ones; [Ordered] messages ([abcast] invocations, e.g.
    primary-change) conflict with everything. *)

val by_class : classify:(Gc_net.Payload.t -> klass) -> relation
(** The conflict relation induced by the rbcast/abcast class table of
    Section 3.3:

    {v
               rbcast       abcast
    rbcast   no conflict   conflict
    abcast    conflict     conflict
    v} *)

type index = {
  classes : int;  (** number of conflict classes, [>= 1] *)
  classify : Gc_net.Payload.t -> int;
      (** total map into [\[0, classes)]; must be a pure function of the
          payload *)
  matrix : int -> int -> bool;
      (** class-level conflict; must be symmetric on [\[0, classes)^2] *)
}

type t = Relation of relation | Indexed of index
(** A conflict specification as handed to {!Generic_broadcast.create}. *)

val of_relation : relation -> t

val indexed :
  classes:int ->
  classify:(Gc_net.Payload.t -> int) ->
  matrix:(int -> int -> bool) ->
  t
(** Raises [Invalid_argument] if [classes < 1]. *)

val two_class : classify:(Gc_net.Payload.t -> klass) -> t
(** The indexed form of {!by_class}: class 0 = [Commuting], class 1 =
    [Ordered], conflict everywhere except [Commuting x Commuting]. *)

val check : t -> relation
(** The pairwise view of a specification — [check (of_relation r) = r];
    for an indexed specification, the relation induced by classifying both
    payloads and consulting the matrix. *)

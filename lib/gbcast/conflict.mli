(** Conflict relations for generic broadcast.

    A conflict relation says which pairs of messages must be delivered in the
    same order everywhere.  Generic broadcast pays ordering cost only for
    conflicting pairs (Section 3.2.1 of the paper).

    A relation is a {e class specification}: every message falls into one of
    a small number of conflict classes, and a symmetric class-level matrix
    says which classes conflict.  Two messages conflict iff their classes
    do.  The broadcast layer classifies a message once, keeps one occupancy
    counter per class, and answers "does [m] conflict with anything in the
    stage?" from those counters in O(classes), however many messages are
    pending ({!blocked}). *)

type t = private {
  classes : int;  (** number of conflict classes, [>= 1] *)
  classify : Gc_net.Payload.t -> int;
      (** total map into [\[0, classes)]; a pure function of the payload *)
  matrix : int -> int -> bool;
      (** class-level conflict, symmetric on [\[0, classes)^2] *)
}

val make :
  classes:int ->
  classify:(Gc_net.Payload.t -> int) ->
  matrix:(int -> int -> bool) ->
  t
(** Raises [Invalid_argument] if [classes < 1] or [matrix] is not
    symmetric on [\[0, classes)^2]. *)

val none : t
(** One class that commutes with itself: generic broadcast degenerates to
    reliable broadcast. *)

val all : t
(** One class that conflicts with itself: generic broadcast degenerates to
    atomic broadcast. *)

type klass = Commuting | Ordered
(** The paper's two-class instantiation (Section 3.3): [Commuting] messages
    ([rbcast] invocations, e.g. passive-replication updates) conflict only
    with [Ordered] ones; [Ordered] messages ([abcast] invocations, e.g.
    primary-change) conflict with everything. *)

val two_class : classify:(Gc_net.Payload.t -> klass) -> t
(** The rbcast/abcast class table of Section 3.3, with class 0 =
    [Commuting] and class 1 = [Ordered]:

    {v
               rbcast       abcast
    rbcast   no conflict   conflict
    abcast    conflict     conflict
    v} *)

val conflicts : t -> Gc_net.Payload.t -> Gc_net.Payload.t -> bool
(** The pairwise view: classify both payloads and consult the matrix. *)

val blocked : t -> occupancy:int array -> int -> bool
(** [blocked c ~occupancy k]: does a tracked message of class [k] conflict
    with any {e other} tracked message?  [occupancy.(j)] counts the tracked
    messages of class [j], the probed message included. *)

(** Causal flight recorder for simulation runs.

    Components emit typed lifecycle events ({!Gc_obs.Event.t}); every
    record carries the emitting node's Lamport clock, so a recorded run
    is an execution history the offline auditor ({!Gc_obs.Audit}) can
    replay and check.  The recorder also owns the per-node Lamport
    clocks: {!emit_event} ticks the emitter's clock, and the network layer
    calls {!merge_clock} when a datagram arrives so causality crosses
    node boundaries.

    Tracing is off by default and costs one branch per emit when
    disabled (clocks do not advance while disabled). *)

type record = Gc_obs.Event.t = {
  time : float;  (** virtual time of the event *)
  node : int;  (** emitting process, [-1] for the environment *)
  lamport : int;  (** Lamport clock of the emitter at the event *)
  component : string;  (** e.g. "consensus", "fd" *)
  kind : Gc_obs.Event.kind;
  msg : string option;  (** stable message id, e.g. ["ab:0.3"] *)
  attrs : (string * string) list;
      (** structured attributes, e.g. [("inst", "4"); ("round", "2")] *)
}

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** A trace buffer keeping at most [capacity] (default 100_000) most recent
    records. *)

val enabled : t -> bool

(** {1 Lamport clocks} *)

val clock : t -> node:int -> int
(** Current Lamport clock of [node] (0 if it never emitted). *)

val merge_clock : t -> node:int -> clock:int -> unit
(** Receiver-side merge: advance [node]'s clock to
    [max local clock + 1] so every event it emits after a message
    arrival is causally after the sender's events.  No-op while
    disabled. *)

(** {1 Emission} *)

val emit_event :
  t ->
  time:float ->
  node:int ->
  component:string ->
  kind:Gc_obs.Event.kind ->
  ?msg:string ->
  ?attrs:(string * string) list ->
  unit ->
  unit
(** Record a typed event, ticking [node]'s Lamport clock. *)

(** {1 Inspection} *)

val detail : record -> string
(** Attributes rendered as ["k=v k=v ..."]. *)

val attr : record -> string -> string option
(** [attr r k] is the value of attribute [k], if present. *)

val records : t -> record list
(** Records in emission order. *)

val find :
  t -> ?node:int -> ?component:string -> ?event:string ->
  ?kind:Gc_obs.Event.kind -> ?msg:string -> ?attr:string * string ->
  unit -> record list
(** Records matching all the given filters; [?event] matches the
    canonical string tag of the kind, [?attr:(k, v)] keeps records
    carrying exactly that attribute binding. *)

val dropped : t -> int
(** Records evicted by the ring buffer since creation (or the last
    {!clear}).  When non-zero, the surviving records are a suffix of the
    run: order-based audits stay sound, but checks that need each node's
    full history from time zero (same-view delivery) may be misled. *)

val clear : t -> unit
(** Drop all records and reset the Lamport clocks. *)

val save_jsonl : t -> string -> unit
(** Dump the buffered records as JSON-lines, one event per line —
    the format [gcs_trace] consumes. *)

val pp_record : Format.formatter -> record -> unit

(** One replica of the replicated KV service, on any runtime: active
    replication over generic broadcast (paper §3.2.2, §4.2).

    Every replica applies every op to its {!Kv}.  A {!Proto.Incr}
    commutes and rides the fast path (rbcast); a {!Proto.Put} is totally
    ordered (abcast).  An op travels as a {!Proto.Sv_op} named
    [(origin, opid)], and the {!Kv} applied-set applies each name once.
    The core names no socket, event loop or OS clock, so it has two front
    doors: {!Server} over TCP, and {!create_rpc} for simulated clients.

    {b Replies.}  Whichever replica holds a pending entry for a delivered
    name answers it, once.  If that replica had already applied the name
    (a client's retry resubmitted an op applied before the retry
    arrived), the answer is the key's current value. *)

type 'c t
(** A replica whose front door names a client by a ['c]: a TCP
    connection for {!Server}, a node id for {!create_rpc}. *)

val create :
  Gc_kernel.Runtime.t ->
  id:int ->
  initial:int list ->
  ?config:Gcs.Gcs_stack.config ->
  ?metrics:Gc_obs.Metrics.t ->
  ?log:(string -> unit) ->
  ?join_via:int ->
  ?storage:Gc_kernel.Storage.t ->
  ?snapshot_interval:float ->
  ?sync_replies:bool ->
  reply:('c -> rid:int -> ok:bool -> string -> unit) ->
  unit ->
  'c t
(** Recover from [storage] if given, then assemble the stack; the
    arguments mean what they mean for {!Server.create}, and recovery is
    timed ([server.recovery_ms]) on the runtime clock.  [reply] sends one
    answer to a client. *)

val on_serving : 'c t -> (unit -> unit) -> unit
(** Run the callback once the replica may take ops: at once unless it
    joins via a sponsor, else when the state-transfer install lands (an
    op submitted earlier could be swallowed by the image, unanswered). *)

val submit : 'c t -> 'c -> rid:int -> Proto.op -> unit
(** Broadcast an op named by this replica's id and a fresh
    incarnation-scoped opid; answer the client with [rid] on delivery. *)

val create_rpc :
  Gc_kernel.Runtime.t ->
  id:int ->
  initial:int list ->
  ?config:Gcs.Gcs_stack.config ->
  ?join_via:int ->
  ?storage:Gc_kernel.Storage.t ->
  unit ->
  int t
(** The simulator's front door: once serving, the replica takes each
    {!Gc_replication.Rpc.Req} on its stack's reliable channel whose [cmd]
    is a [Proto.Cl_put] or [Proto.Cl_incr] (their own [rid] is unused),
    submits it named by the client's [(cid, rid)], and answers with an
    [Rpc.Rep] carrying a {!Proto.Cl_reply}. *)

val shutdown : 'c t -> unit
(** Flush and stop the stack, then persist and close the store. *)

val id : 'c t -> int
val stack : 'c t -> Gcs.Gcs_stack.t
val kv : 'c t -> Kv.t
val metrics : 'c t -> Gc_obs.Metrics.t

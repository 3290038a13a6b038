(** Active replication (state-machine approach [33]) over {e generic}
    broadcast — Section 3.2.2 of the paper, with the Section 4.2
    bank-account scenario as its workload.

    Every replica runs the deterministic state machine and the contacted
    replica replies.  Each command is broadcast through its
    generic-broadcast class: commands classified [Commuting] (e.g.
    deposits) take the consensus-free fast path, commands classified
    [Ordered] (e.g. withdrawals) are totally ordered against everything.
    Replicas may apply commuting commands in different orders — which is
    exactly why they must commute — and still converge.  A classifier that
    answers [Ordered] for every command is active replication over atomic
    broadcast.  Retries are made safe by an at-most-once table keyed by
    (client, request id), which also serves cached replies when a client
    retries through a different replica after a crash. *)

type t

val create :
  Gc_kernel.Runtime.t ->
  id:int ->
  initial:int list ->
  ?config:Gcs.Gcs_stack.config ->
  classify:(Gc_net.Payload.t -> Gc_gbcast.Conflict.klass) ->
  make_sm:(unit -> State_machine.t) ->
  unit ->
  t
(** [classify] maps each {e command} to its broadcast class (e.g.
    {!State_machine.Bank.classify}). *)

val stack : t -> Gcs.Gcs_stack.t
val commands_applied : t -> int
val crash : t -> unit

val snapshot : t -> Gc_net.Payload.t
(** Current state-machine snapshot (tests: replica convergence checks). *)

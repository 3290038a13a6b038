(** A Totem-style single-ring stack (Figure 4 of the paper) — the second
    monolithic baseline of the paper's survey (Section 2.1.4).

    Structure:

    - {b token-ring atomic broadcast}: the members form a logical ring and
      circulate a token; only the token holder assigns sequence numbers and
      broadcasts its queued messages, so ordering is free of any central
      sequencer but latency is bound by the token rotation;
    - {b membership below, fused with failure detection}: when a member is
      suspected (or the token is lost with a crashed holder), the lowest
      non-suspected member runs a {e recovery} phase — the paper's
      "Recovery" layer — collecting every survivor's undelivered messages
      and highest sequence number, re-injecting the union, installing the
      new ring and regenerating the token;
    - like the Isis-style baseline, a wrongly suspected member is excluded
      and must rejoin with a state transfer.

    As in the paper's discussion (Section 2.3.2), the atomic broadcast
    depends on the membership: a broken ring cannot order anything until the
    membership below delivers a new ring. *)

type config = {
  hb_period : float;  (** heartbeat period, ms (default 20) *)
  fd_timeout : float;  (** fused detection/exclusion timeout (default 1000) *)
  rto : float;  (** reliable-channel retransmission period (default 50) *)
  token_idle_delay : float;
      (** pause before forwarding an empty token (default 5), bounding idle
          rotation traffic *)
  max_per_token : int;
      (** flow control: messages a holder may sequence per visit (default 10) *)
  recovery_timeout : float;
      (** survivors restart recovery if no install arrives (default 1500) *)
  rejoin_delay : float;  (** wait before an excluded process rejoins (default 500) *)
  state_transfer_delay : float;  (** snapshot serialisation time (default 100) *)
}

val default_config : config

type t

val create :
  Gc_kernel.Runtime.t ->
  id:int ->
  initial:int list ->
  ?config:config ->
  ?app_state_provider:(unit -> Gc_net.Payload.t) ->
  ?app_state_installer:(Gc_net.Payload.t -> unit) ->
  unit ->
  t

val abcast : t -> Gc_net.Payload.t -> unit
(** Queue a message; it is sequenced at the next token visit. *)

val on_deliver : t -> (origin:int -> Gc_net.Payload.t -> unit) -> unit
(** Agreed (total-order) delivery. *)

val join : t -> via:int -> unit
val view : t -> Gc_membership.View.t
val is_member : t -> bool
val on_view : t -> (Gc_membership.View.t -> unit) -> unit

val crash : t -> unit
val alive : t -> bool
val id : t -> int

(** {1 Instrumentation} *)

val token_passes : t -> int
val view_changes : t -> int
val exclusions_suffered : t -> int
val process : t -> Gc_kernel.Process.t

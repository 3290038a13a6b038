(** The scheduler/transport seam: every capability a {!Process} (and hence
    every protocol layer) may use, as a record of closures.

    Two backends implement it:

    - {!of_netsim}: the deterministic discrete-event simulator
      ({!Gc_sim.Engine} + {!Gc_net.Netsim}) — virtual clock, seeded
      randomness, simulated datagrams.  The substrate for tests, fuzzing
      and benches; runs with the same seed replay bit-for-bit.
    - [Gc_runtime_unix.runtime]: the OS clock, a [Unix.select] event loop
      and TCP-mesh datagrams with {!Gc_net.Frame} framing.  The substrate
      for [gcs_server] production deployments.

    Protocol modules never see the concrete backend: they receive
    capabilities through {!Process} ([now], [send], [timer], [rand], ...),
    so the same stack code drives both worlds. *)

type timer = { cancel : unit -> unit }
(** Handle to a scheduled callback; {!cancel} is idempotent. *)

val cancel : timer -> unit

type rng = {
  rand_float : float -> float;  (** uniform in [\[0, bound)] *)
  rand_int : int -> int;  (** uniform in [\[0, bound)], positive bound *)
}
(** A private random stream.  Sim: split off the engine's seeded root —
    deterministic.  Unix: OS entropy. *)

type t = {
  backend : string;  (** ["sim"] or ["unix"], for logs and assertions *)
  now : unit -> float;
  (** milliseconds — virtual on the sim backend, monotonic wall-clock
      since runtime start on the unix backend *)
  schedule : delay:float -> (unit -> unit) -> timer;
  (** run the callback [delay] ms from now *)
  send : src:int -> dst:int -> Gc_net.Payload.t -> unit;
  (** unreliable datagram; fire-and-forget, may drop silently *)
  register : node:int -> (src:int -> Gc_net.Payload.t -> unit) -> unit;
  (** install the receive handler for a local node (replaces any prior) *)
  detach : int -> unit;
  (** crash-stop a node's endpoint: stop delivering to and from it *)
  oracle_alive : int -> bool;
  (** omniscient liveness oracle, used {e only} for wrong-suspicion
      observability counters.  The sim knows; the unix backend returns
      [false] (a real network cannot know, so nothing is counted wrong) *)
  split_rng : unit -> rng;
  trace : Gc_sim.Trace.t;  (** flight recorder shared by local nodes *)
}

val of_netsim : Gc_net.Netsim.t -> trace:Gc_sim.Trace.t -> t
(** The deterministic simulator backend.  Draws nothing from the engine's
    random streams by itself: RNG splits happen exactly when a process
    asks, so existing seeded runs replay unchanged. *)

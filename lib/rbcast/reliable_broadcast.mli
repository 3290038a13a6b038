(** Reliable broadcast over reliable channels.

    Relay-on-first-delivery broadcast with the classic guarantees:

    - {b validity}: if a correct process broadcasts m, it eventually
      delivers m;
    - {b agreement}: if a correct process delivers m, every correct process
      in m's destination set eventually delivers m (each process relays m to
      the whole destination set before delivering it);
    - {b integrity}: m is delivered at most once, and only if broadcast.

    Destination sets are per-broadcast, so the layer works unchanged as the
    membership above evolves.  Used by consensus (decision dissemination),
    atomic broadcast (payload dissemination) and generic broadcast. *)

type t

val create : Gc_kernel.Process.t -> ?epoch:int -> Gc_rchannel.Reliable_channel.t -> t
(** [epoch] (default 0) is the boot incarnation: broadcast ids are
    [(origin, bid)] and receivers dedup on them for the life of the run, so
    a restarted process must number its broadcasts above every previous
    incarnation's or peers silently drop its new messages as duplicates. *)

val broadcast : t -> dests:int list -> Gc_net.Payload.t -> unit
(** Reliably broadcast to [dests] (the sender should normally be included;
    it then delivers its own message too). *)

val on_deliver : t -> (origin:int -> Gc_net.Payload.t -> unit) -> unit
(** Subscribe to deliveries; [origin] is the broadcasting process, not the
    relay the message arrived from. *)

val delivered_count : t -> int

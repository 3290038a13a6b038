(** Deterministic state machines for replication, plus the example machines
    used throughout the paper's discussion.

    A machine is a record of closures over hidden mutable state: [apply]
    executes one command and returns its reply, [snapshot]/[restore]
    serialise the full state for joiner/rejoiner transfers.  Commands and
    replies are network payloads, so they travel unmodified through the
    broadcast layers. *)

type t = {
  apply : Gc_net.Payload.t -> Gc_net.Payload.t;
  snapshot : unit -> Gc_net.Payload.t;
  restore : Gc_net.Payload.t -> unit;
}

(** {1 Bank accounts (Section 4.2 of the paper)}

    Deposits commute with each other; withdrawals (which must not overdraw)
    conflict with everything — the paper's showcase for generic broadcast. *)
module Bank : sig
  type Gc_net.Payload.t +=
    | Deposit of { account : int; amount : int }
    | Withdraw of { account : int; amount : int }
    | Balance of { account : int }
    | Bank_ok of { balance : int }
    | Bank_insufficient
    | Bank_state of (int * int) list

  val make : unit -> t
end

(** {1 Key-value store}

    Writes to different keys commute; a write and any write or read of the
    same key conflict; reads commute with each other — a finer-grained
    conflict relation exercised directly on generic broadcast in the
    examples. *)
module Kv : sig
  type Gc_net.Payload.t +=
    | Put of { key : string; data : string }
    | Get of { key : string }
    | Kv_value of string option
    | Kv_unit
    | Kv_state of (string * string) list

  val make : unit -> t

  val conflict : Gc_gbcast.Conflict.t
  (** A put conflicts with every put and get whose key falls in its bucket
      (32 buckets of [Hashtbl.hash key]); gets commute with each other;
      any other payload conflicts with everything.  Exact up to buckets:
      puts on distinct keys that share a bucket are ordered too, which
      costs them a stage change, not correctness. *)
end

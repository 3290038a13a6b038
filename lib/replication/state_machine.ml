type t = {
  apply : Gc_net.Payload.t -> Gc_net.Payload.t;
  snapshot : unit -> Gc_net.Payload.t;
  restore : Gc_net.Payload.t -> unit;
}

module Bank = struct
  type Gc_net.Payload.t +=
    | Deposit of { account : int; amount : int }
    | Withdraw of { account : int; amount : int }
    | Balance of { account : int }
    | Bank_ok of { balance : int }
    | Bank_insufficient
    | Bank_state of (int * int) list

  let () =
    Gc_net.Payload.register_printer (function
      | Deposit { account; amount } -> Some (Printf.sprintf "deposit(%d,+%d)" account amount)
      | Withdraw { account; amount } -> Some (Printf.sprintf "withdraw(%d,-%d)" account amount)
      | Balance { account } -> Some (Printf.sprintf "balance(%d)" account)
      | Bank_ok { balance } -> Some (Printf.sprintf "ok(%d)" balance)
      | Bank_insufficient -> Some "insufficient"
      | Bank_state l -> Some (Printf.sprintf "bank_state(%d accts)" (List.length l))
      | _ -> None)

  let make () =
    let accounts : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let balance a = Option.value ~default:0 (Hashtbl.find_opt accounts a) in
    let apply = function
      | Deposit { account; amount } ->
          let b = balance account + amount in
          Hashtbl.replace accounts account b;
          Bank_ok { balance = b }
      | Withdraw { account; amount } ->
          let b = balance account in
          if b >= amount then begin
            Hashtbl.replace accounts account (b - amount);
            Bank_ok { balance = b - amount }
          end
          else Bank_insufficient
      | Balance { account } -> Bank_ok { balance = balance account }
      | _ -> invalid_arg "Bank.apply: unknown command"
    in
    let snapshot () =
      Bank_state (Gc_sim.Sorted.bindings ~cmp:Int.compare accounts)
    in
    let restore = function
      | Bank_state l ->
          Hashtbl.reset accounts;
          List.iter (fun (k, v) -> Hashtbl.replace accounts k v) l
      | _ -> invalid_arg "Bank.restore: bad snapshot"
    in
    { apply; snapshot; restore }

end

module Kv = struct
  type Gc_net.Payload.t +=
    | Put of { key : string; data : string }
    | Get of { key : string }
    | Kv_value of string option
    | Kv_unit
    | Kv_state of (string * string) list

  let () =
    Gc_net.Payload.register_printer (function
      | Put { key; _ } -> Some (Printf.sprintf "put(%s)" key)
      | Get { key } -> Some (Printf.sprintf "get(%s)" key)
      | Kv_value _ -> Some "kv_value"
      | Kv_unit -> Some "kv_unit"
      | Kv_state l -> Some (Printf.sprintf "kv_state(%d keys)" (List.length l))
      | _ -> None)

  let make () =
    let store : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let apply = function
      | Put { key; data } ->
          Hashtbl.replace store key data;
          Kv_unit
      | Get { key } -> Kv_value (Hashtbl.find_opt store key)
      | _ -> invalid_arg "Kv.apply: unknown command"
    in
    let snapshot () =
      Kv_state (Gc_sim.Sorted.bindings ~cmp:String.compare store)
    in
    let restore = function
      | Kv_state l ->
          Hashtbl.reset store;
          List.iter (fun (k, v) -> Hashtbl.replace store k v) l
      | _ -> invalid_arg "Kv.restore: bad snapshot"
    in
    { apply; snapshot; restore }

  (* Classes [0, buckets) are puts and [buckets, 2 * buckets) gets, by key
     bucket; class [2 * buckets] is every other payload. *)
  let buckets = 32
  let other = 2 * buckets

  let conflict =
    let bucket key = Hashtbl.hash (key : string) mod buckets in
    Gc_gbcast.Conflict.make ~classes:(other + 1)
      ~classify:(function
        | Put { key; _ } -> bucket key
        | Get { key } -> buckets + bucket key
        | _ -> other)
      ~matrix:(fun a b ->
        a = other || b = other
        || ((a < buckets || b < buckets) && a mod buckets = b mod buckets))
end

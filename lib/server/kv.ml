module W = Gc_net.Wire
module Delivered = Gc_kernel.Delivered_set

type t = {
  table : (string, string) Hashtbl.t;
  mutable order_head : string; (* MD5 chain over the ordered deliveries *)
  (* Exactly-once evidence: every applied (origin, opid).  Makes replay
     idempotent — boot replays the log suffix over a snapshot that may
     already cover part of it, and live deliveries may race a restored
     image; every path funnels through [apply]. *)
  mutable applied : Delivered.t;
  mutable ordered : int;
  mutable commuting : int;
}

let create () =
  {
    table = Hashtbl.create 64;
    order_head = String.make 16 '\000';
    applied = Delivered.create ();
    ordered = 0;
    commuting = 0;
  }

let get t key = Hashtbl.find_opt t.table key
let seen t ~origin ~opid = Delivered.mem t.applied (origin, opid)

let apply t ~origin ~opid ~ordered op =
  if not (Delivered.add t.applied (origin, opid)) then None
  else begin
    if ordered then begin
      t.ordered <- t.ordered + 1;
      t.order_head <-
        Digest.string
          (Printf.sprintf "%s%d.%d:%s;" t.order_head origin opid
             (Proto.op_to_string op))
    end
    else t.commuting <- t.commuting + 1;
    match op with
    | Proto.Put { key; value } ->
        Hashtbl.replace t.table key value;
        Some value
    | Proto.Incr { key; delta } ->
        let current =
          match Hashtbl.find_opt t.table key with
          | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
          | None -> 0
        in
        let value = string_of_int (current + delta) in
        Hashtbl.replace t.table key value;
        Some value
  end

let ordered_count t = t.ordered
let commuting_count t = t.commuting
let applied_count t = Delivered.cardinal t.applied
let order_digest t = Digest.to_hex t.order_head

let state_digest t =
  let entries =
    Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) t.table []
  in
  Digest.to_hex (Digest.string (String.concat ";" (List.sort compare entries)))

let dump t =
  Printf.sprintf "order=%s state=%s ordered=%d commuting=%d" (order_digest t)
    (state_digest t) t.ordered t.commuting

(* Snapshot serialisation: everything above, wire-encoded.  Both sides are
   deterministic (sorted table, compact applied-set) so equal states produce
   equal blobs. *)

let to_blob t =
  let w = Buffer.create 1024 in
  W.varint w t.ordered;
  W.varint w t.commuting;
  W.str w t.order_head;
  let entries =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  in
  W.list w (fun w kv -> W.pair w W.str W.str kv) entries;
  Delivered.write w t.applied;
  Buffer.contents w

let restore t blob =
  let r = W.reader blob in
  let ordered = W.read_varint r in
  let commuting = W.read_varint r in
  let order_head = W.read_str r in
  if String.length order_head <> 16 then raise W.Short;
  let entries = W.read_list r (fun r -> W.read_pair r W.read_str W.read_str) in
  let applied = Delivered.read r in
  Hashtbl.reset t.table;
  List.iter (fun (k, v) -> Hashtbl.replace t.table k v) entries;
  t.applied <- applied;
  t.order_head <- order_head;
  t.ordered <- ordered;
  t.commuting <- commuting

module Process = Gc_kernel.Process
module Rc = Gc_rchannel.Reliable_channel
module Delivered = Gc_kernel.Delivered_set

type Gc_net.Payload.t +=
  | Rb_msg of {
      origin : int;
      bid : int;
      inner : Gc_net.Payload.t;
      dests : int list;
    }

let () =
  Gc_net.Payload.register_printer (function
    | Rb_msg { origin; bid; inner; _ } ->
        Some
          (Printf.sprintf "rb#%d.%d(%s)" origin bid
             (Gc_net.Payload.to_string inner))
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  Gc_net.Payload.register_codec ~tag:"rb"
    ~encode:(fun enc w p ->
      match p with
      | Rb_msg { origin; bid; inner; dests } ->
          W.varint w origin;
          W.varint w bid;
          W.list w W.varint dests;
          enc w inner;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      let origin = W.read_varint r in
      let bid = W.read_varint r in
      let dests = W.read_list r W.read_varint in
      let inner = dec r in
      Rb_msg { origin; bid; inner; dests })

type t = {
  proc : Process.t;
  rc : Rc.t;
  seen : Delivered.t; (* (origin, bid) already delivered *)
  mutable next_bid : int;
  mutable subscribers : (origin:int -> Gc_net.Payload.t -> unit) list;
  mutable delivered : int;
  delivered_count : Gc_obs.Metrics.counter;
  broadcasts : Gc_obs.Metrics.counter;
}

let deliver t ~origin inner =
  t.delivered <- t.delivered + 1;
  Gc_obs.Metrics.bump t.delivered_count;
  List.iter (fun f -> f ~origin inner) t.subscribers

let handle t = function
  | Rb_msg { origin; bid; inner; dests } as msg ->
      if Delivered.add t.seen (origin, bid) then begin
        (* Relay before delivering: if we deliver, every correct destination
           has the message in some correct process's reliable channel. *)
        let me = Process.id t.proc in
        List.iter
          (fun dst -> if dst <> me && dst <> origin then Rc.send t.rc ~dst msg)
          dests;
        if List.mem me dests || me = origin then begin
          if Process.traced t.proc then
            Process.event t.proc ~component:"rbcast" ~kind:Gc_obs.Event.Deliver
              ~msg:(Printf.sprintf "rb:%d.%d" origin bid)
              ();
          deliver t ~origin inner
        end
      end
  | _ -> ()

let create proc ?(epoch = 0) rc =
  let t =
    {
      proc;
      rc;
      seen = Delivered.create ();
      next_bid = Delivered.first_seq ~epoch;
      subscribers = [];
      delivered = 0;
      delivered_count =
        Gc_obs.Metrics.counter_handle (Process.metrics proc) "rbcast.delivered";
      broadcasts =
        Gc_obs.Metrics.counter_handle (Process.metrics proc) "rbcast.broadcasts";
    }
  in
  Rc.on_deliver rc (fun ~src:_ payload -> handle t payload);
  t

let broadcast t ~dests inner =
  Gc_obs.Metrics.bump t.broadcasts;
  let origin = Process.id t.proc in
  let bid = t.next_bid in
  t.next_bid <- bid + 1;
  if Process.traced t.proc then
    Process.event t.proc ~component:"rbcast" ~kind:Gc_obs.Event.Send
      ~msg:(Printf.sprintf "rb:%d.%d" origin bid)
      ~attrs:[ ("dests", string_of_int (List.length dests)) ]
      ();
  let msg = Rb_msg { origin; bid; inner; dests } in
  (* Routing through our own reliable channel (loopback included) funnels the
     message into [handle], which relays and delivers exactly once. *)
  Rc.send t.rc ~dst:origin msg

(* Kept in dispatch order: subscribers run in the order they subscribed. *)
let on_deliver t f = t.subscribers <- t.subscribers @ [ f ]
let delivered_count t = t.delivered

module Runtime = Gc_kernel.Runtime
module Payload = Gc_net.Payload
module Wire = Gc_net.Wire

type Payload.t += Datagram of { src : int; inner : Payload.t }

let () =
  Payload.register_printer (function
    | Datagram { src; inner } ->
        Some (Printf.sprintf "dg<%d>(%s)" src (Payload.to_string inner))
    | _ -> None);
  Payload.register_codec ~tag:"dg"
    ~encode:(fun enc w p ->
      match p with
      | Datagram { src; inner } ->
          Wire.varint w src;
          enc w inner;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      let src = Wire.read_varint r in
      let inner = dec r in
      Datagram { src; inner })

(* Wait at least this long between dial attempts to an unreachable peer. *)
let redial_ms = 200.0

type peer_link = {
  addr : Unix.sockaddr;
  mutable conn : Fconn.t option;
  mutable last_dial : float; (* loop time of the last connect attempt *)
}

type t = {
  loop : Evloop.t;
  me : int;
  metrics : Gc_obs.Metrics.t option;
  trace : Gc_sim.Trace.t;
  handlers : (int, src:int -> Payload.t -> unit) Hashtbl.t;
  peers : (int, peer_link) Hashtbl.t;
  mutable inbound : Fconn.t list;
  mutable listener : Unix.file_descr option;
  mutable detached : bool;
  rng_seed : Gc_sim.Rng.t; (* entropy-seeded root for per-process splits *)
}

let bump t name =
  match t.metrics with
  | Some m -> Gc_obs.Metrics.incr m name
  | None -> ()

let deliver t ~src inner =
  if not t.detached then
    match Hashtbl.find_opt t.handlers t.me with
    | Some handler -> handler ~src inner
    | None -> ()

let on_peer_payload t _conn payload =
  match payload with
  | Datagram { src; inner } -> deliver t ~src inner
  | _ -> bump t "net.frame_reject" (* peers only speak Datagram *)

let accept_inbound t client _addr =
  let conn =
    Fconn.attach ~loop:t.loop ?metrics:t.metrics client
      ~on_payload:(fun conn p -> on_peer_payload t conn p)
      ~on_close:(fun conn ->
        t.inbound <- List.filter (fun c -> c != conn) t.inbound)
  in
  t.inbound <- conn :: t.inbound

let create ~loop ~me ?metrics ?trace ?listen () =
  let trace =
    match trace with Some tr -> tr | None -> Gc_sim.Trace.create ~enabled:false ()
  in
  let t =
    {
      loop;
      me;
      metrics;
      trace;
      handlers = Hashtbl.create 4;
      peers = Hashtbl.create 16;
      inbound = [];
      listener = None;
      detached = false;
      rng_seed =
        (* Entropy, not determinism: the real runtime's jitter should not
           repeat across daemon restarts. *)
        Gc_sim.Rng.create
          (Int64.logxor
             (Int64.of_float (Unix.gettimeofday () *. 1e6))
             (Int64.of_int ((Unix.getpid () * 1_000_003) + me)));
    }
  in
  (match listen with
  | Some addr ->
      t.listener <-
        Some (Fconn.listen ~loop addr ~on_accept:(fun fd a -> accept_inbound t fd a))
  | None -> ());
  t

let port t =
  match t.listener with Some sock -> Fconn.bound_port sock | None -> 0

let set_peers t peers =
  List.iter
    (fun (id, addr) ->
      if id <> t.me && not (Hashtbl.mem t.peers id) then
        Hashtbl.replace t.peers id
          { addr; conn = None; last_dial = Float.neg_infinity })
    peers

let dial t link =
  link.last_dial <- Evloop.now t.loop;
  bump t "net.reconnects";
  match Unix.socket (Unix.domain_of_sockaddr link.addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | sock -> (
      Unix.set_nonblock sock;
      let connecting =
        match Unix.connect sock link.addr with
        | () -> false
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
        | exception Unix.Unix_error _ ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            (* gcs-lint: allow B2 — Exit is control flow, not a fault: the
               [dial] wrapper below catches it to abandon this attempt *)
            raise Exit
      in
      let conn =
        Fconn.attach ~loop:t.loop ?metrics:t.metrics ~connecting sock
          ~on_payload:(fun conn p -> on_peer_payload t conn p)
          ~on_close:(fun _ -> link.conn <- None)
      in
      link.conn <- Some conn)

let dial t link = try dial t link with Exit -> ()

let send t ~src ~dst payload =
  if not t.detached then
    if dst = t.me then
      (* Local loopback: defer to a zero-delay timer so delivery never
         reenters the caller's stack frame (matches the simulator). *)
      ignore
        (Evloop.schedule t.loop ~delay:0.0 (fun () ->
             deliver t ~src payload))
    else
      match Hashtbl.find_opt t.peers dst with
      | None -> bump t "net.tx_drop"
      | Some link -> (
          (match link.conn with
          | None when Evloop.now t.loop -. link.last_dial >= redial_ms ->
              dial t link
          | _ -> ());
          match link.conn with
          | None -> bump t "net.tx_drop"
          | Some conn -> Fconn.send conn (Datagram { src; inner = payload }))

let shutdown t =
  t.detached <- true;
  (match t.listener with
  | Some sock ->
      Evloop.forget t.loop sock;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      t.listener <- None
  | None -> ());
  List.iter Fconn.close t.inbound;
  t.inbound <- [];
  (* Close peer links in node-id order so shutdown traffic (FIN ordering,
     trace records) does not depend on Hashtbl layout. *)
  Gc_sim.Sorted.iter ~cmp:Int.compare
    (fun _ link -> match link.conn with Some c -> Fconn.close c | None -> ())
    t.peers

let runtime t =
  {
    Runtime.backend = "unix";
    now = (fun () -> Evloop.now t.loop);
    schedule = (fun ~delay f -> Evloop.schedule t.loop ~delay f);
    send = send t;
    register = (fun ~node f -> Hashtbl.replace t.handlers node f);
    detach = (fun node -> if node = t.me then shutdown t);
    oracle_alive = (fun _ -> false);
    split_rng =
      (fun () ->
        let rng = Gc_sim.Rng.split t.rng_seed in
        {
          Runtime.rand_float = (fun bound -> Gc_sim.Rng.float rng bound);
          rand_int = (fun bound -> Gc_sim.Rng.int rng bound);
        });
    trace = t.trace;
  }

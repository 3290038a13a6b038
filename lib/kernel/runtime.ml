type timer = { cancel : unit -> unit }

let cancel t = t.cancel ()

type rng = { rand_float : float -> float; rand_int : int -> int }

type t = {
  backend : string;
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> timer;
  send : src:int -> dst:int -> Gc_net.Payload.t -> unit;
  register : node:int -> (src:int -> Gc_net.Payload.t -> unit) -> unit;
  detach : int -> unit;
  oracle_alive : int -> bool;
  split_rng : unit -> rng;
  trace : Gc_sim.Trace.t;
}

let of_netsim net ~trace =
  let engine = Gc_net.Netsim.engine net in
  {
    backend = "sim";
    now = (fun () -> Gc_sim.Engine.now engine);
    schedule =
      (fun ~delay f ->
        let h = Gc_sim.Engine.schedule engine ~delay f in
        { cancel = (fun () -> Gc_sim.Engine.cancel h) });
    send = Gc_net.Netsim.send net;
    register = (fun ~node f -> Gc_net.Netsim.register net ~node f);
    detach = (fun node -> Gc_net.Netsim.crash net node);
    oracle_alive = (fun node -> Gc_net.Netsim.alive net node);
    split_rng =
      (fun () ->
        let rng = Gc_sim.Engine.split_rng engine in
        {
          rand_float = (fun bound -> Gc_sim.Rng.float rng bound);
          rand_int = (fun bound -> Gc_sim.Rng.int rng bound);
        });
    trace;
  }

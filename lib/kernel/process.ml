module Trace = Gc_sim.Trace

type t = {
  id : int;
  runtime : Runtime.t;
  metrics : Gc_obs.Metrics.t;
  rng : Runtime.rng;
  mutable alive : bool;
  mutable subscribers : (src:int -> Gc_net.Payload.t -> unit) list;
  mutable crash_hooks : (unit -> unit) list;
}

(* Offer a payload to each subscriber in turn (a recursion, not a
   [List.iter] closure: this runs for every payload a node receives). *)
let rec offer ~src payload = function
  | [] -> ()
  | f :: rest ->
      f ~src payload;
      offer ~src payload rest

let create ?metrics runtime ~id =
  let metrics =
    match metrics with Some m -> m | None -> Gc_obs.Metrics.create ()
  in
  let t =
    {
      id;
      runtime;
      metrics;
      rng = runtime.Runtime.split_rng ();
      alive = true;
      subscribers = [];
      crash_hooks = [];
    }
  in
  runtime.Runtime.register ~node:id (fun ~src payload ->
      if t.alive then offer ~src payload t.subscribers);
  t

let id t = t.id
let metrics t = t.metrics
let now t = t.runtime.Runtime.now ()
let alive t = t.alive
let backend t = t.runtime.Runtime.backend
let oracle_alive t q = t.runtime.Runtime.oracle_alive q
let rand_float t bound = t.rng.Runtime.rand_float bound
let rand_int t bound = t.rng.Runtime.rand_int bound

let send t ~dst payload =
  if t.alive then t.runtime.Runtime.send ~src:t.id ~dst payload

(* Kept in dispatch order, oldest first, so layers receive messages in the
   order they were stacked. *)
let on_receive t f = t.subscribers <- t.subscribers @ [ f ]

let timer t ~delay f =
  t.runtime.Runtime.schedule ~delay (fun () -> if t.alive then f ())

type periodic = { mutable stopped : bool }

let every t ~period f =
  let handle = { stopped = false } in
  let rec arm () =
    ignore
      (t.runtime.Runtime.schedule ~delay:period (fun () ->
           if t.alive && not handle.stopped then begin
             f ();
             arm ()
           end))
  in
  arm ();
  handle

let cancel_periodic handle = handle.stopped <- true

let trace t = t.runtime.Runtime.trace
let traced t = Trace.enabled (trace t)

let event t ~component ~kind ?msg ?attrs () =
  Trace.emit_event (trace t) ~time:(now t) ~node:t.id ~component ~kind ?msg
    ?attrs ()

let incr ?by t name = Gc_obs.Metrics.incr ?by t.metrics name
let observe t name value = Gc_obs.Metrics.observe t.metrics name value
let set_gauge t name value = Gc_obs.Metrics.set_gauge t.metrics name value

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.runtime.Runtime.detach t.id;
    List.iter (fun f -> f ()) (List.rev t.crash_hooks)
  end

let on_crash t f = t.crash_hooks <- f :: t.crash_hooks

module Engine = Gc_sim.Engine
module Rng = Gc_sim.Rng
module Trace = Gc_sim.Trace

type link = {
  mutable delay : Delay.t;
  mutable drop : float;
  mutable dup : float;
}

type t = {
  engine : Engine.t;
  trace : Trace.t;
  rng : Rng.t;
  n : int;
  links : link array array; (* links.(src).(dst) *)
  handlers : (src:int -> Payload.t -> unit) option array;
  alive : bool array;
  mutable group_of : int array option; (* partition: node -> group id *)
  spike_until : float array;
  spike_extra : float array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_policy : int; (* lossy link, partition boundary *)
  mutable dropped_gone : int; (* dead endpoint, missing handler *)
  mutable duplicated : int;
}

let create engine ?(trace = Trace.create ()) ?(delay = Delay.lan)
    ?(drop = 0.0) ?(dup = 0.0) ~n () =
  {
    engine;
    trace;
    rng = Engine.split_rng engine;
    n;
    links =
      Array.init n (fun _ -> Array.init n (fun _ -> { delay; drop; dup }));
    handlers = Array.make n None;
    alive = Array.make n true;
    group_of = None;
    spike_until = Array.make n 0.0;
    spike_extra = Array.make n 0.0;
    sent = 0;
    delivered = 0;
    dropped_policy = 0;
    dropped_gone = 0;
    duplicated = 0;
  }

let engine t = t.engine
let size t = t.n

let drop_policy t = t.dropped_policy <- t.dropped_policy + 1
let drop_gone t = t.dropped_gone <- t.dropped_gone + 1

let check_node t node name =
  if node < 0 || node >= t.n then
    invalid_arg (Printf.sprintf "Netsim.%s: node %d out of range" name node)

let register t ~node f =
  check_node t node "register";
  t.handlers.(node) <- Some f

let alive t node =
  check_node t node "alive";
  t.alive.(node)

let crash t node =
  check_node t node "crash";
  if t.alive.(node) then begin
    t.alive.(node) <- false;
    Trace.emit_event t.trace ~time:(Engine.now t.engine) ~node ~component:"net"
      ~kind:Gc_obs.Event.Crash ()
  end

let recover t node =
  check_node t node "recover";
  if not t.alive.(node) then begin
    t.alive.(node) <- true;
    Trace.emit_event t.trace ~time:(Engine.now t.engine) ~node ~component:"net"
      ~kind:(Gc_obs.Event.Custom "recover") ()
  end

let set_link t ~src ~dst ?delay ?drop ?dup () =
  check_node t src "set_link";
  check_node t dst "set_link";
  let l = t.links.(src).(dst) in
  (match delay with Some d -> l.delay <- d | None -> ());
  (match drop with Some d -> l.drop <- d | None -> ());
  match dup with Some d -> l.dup <- d | None -> ()

let link_drop t ~src ~dst =
  check_node t src "link_drop";
  check_node t dst "link_drop";
  t.links.(src).(dst).drop

let link_dup t ~src ~dst =
  check_node t src "link_dup";
  check_node t dst "link_dup";
  t.links.(src).(dst).dup

let partition t groups =
  let g = Array.make t.n (-1) in
  List.iteri
    (fun gid members ->
      List.iter
        (fun node ->
          check_node t node "partition";
          g.(node) <- gid)
        members)
    groups;
  (* Nodes not mentioned form one extra implicit group. *)
  let extra = List.length groups in
  Array.iteri (fun i gid -> if gid = -1 then g.(i) <- extra) g;
  t.group_of <- Some g;
  Trace.emit_event t.trace ~time:(Engine.now t.engine) ~node:(-1)
    ~component:"net" ~kind:(Gc_obs.Event.Custom "partition") ()

let heal t =
  t.group_of <- None;
  Trace.emit_event t.trace ~time:(Engine.now t.engine) ~node:(-1)
    ~component:"net" ~kind:(Gc_obs.Event.Custom "heal") ()

let delay_spike t ~nodes ~until ~extra =
  List.iter
    (fun node ->
      check_node t node "delay_spike";
      t.spike_until.(node) <- until;
      t.spike_extra.(node) <- extra)
    nodes

let same_side t src dst =
  match t.group_of with
  | None -> true
  | Some g -> g.(src) = g.(dst)

let send t ~src ~dst payload =
  check_node t src "send";
  check_node t dst "send";
  t.sent <- t.sent + 1;
  let link = t.links.(src).(dst) in
  (* Keep the guard order (and hence the RNG consumption pattern) stable:
     the drop coin is only tossed for messages both endpoints could carry,
     exactly as before the drop split. *)
  if not (t.alive.(src) && t.alive.(dst)) then drop_gone t
  else if not (same_side t src dst) then drop_policy t
  else if Rng.bernoulli t.rng link.drop then drop_policy t
  else begin
    let now = Engine.now t.engine in
    let spike =
      if now < t.spike_until.(src) then t.spike_extra.(src) else 0.0
    in
    (* The datagram happens-after everything the sender did so far: carry
       the sender's Lamport clock and merge it at the destination before
       the handler runs, so causality crosses node boundaries. *)
    let sent_clock = Trace.clock t.trace ~node:src in
    let schedule_copy () =
      let delay = Delay.sample link.delay t.rng +. spike in
      ignore
        (Engine.schedule t.engine ~delay (fun () ->
             if t.alive.(dst) then
               match t.handlers.(dst) with
               | None -> drop_gone t
               | Some h ->
                   t.delivered <- t.delivered + 1;
                   Trace.merge_clock t.trace ~node:dst ~clock:sent_clock;
                   if Trace.enabled t.trace then
                     Trace.emit_event t.trace ~time:(Engine.now t.engine)
                       ~node:dst ~component:"net" ~kind:Gc_obs.Event.Recv
                       ~attrs:
                         [
                           ("from", string_of_int src);
                           ("payload", Payload.to_string payload);
                         ]
                       ();
                   h ~src payload
             else drop_gone t))
    in
    schedule_copy ();
    if link.dup > 0.0 && Rng.bernoulli t.rng link.dup then begin
      t.duplicated <- t.duplicated + 1;
      schedule_copy ()
    end
  end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped_policy + t.dropped_gone
let messages_dropped_policy t = t.dropped_policy
let messages_dropped_gone t = t.dropped_gone
let messages_duplicated t = t.duplicated

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped_policy <- 0;
  t.dropped_gone <- 0;
  t.duplicated <- 0

(* Shared helpers for the test suites: build a simulated world with the
   substrate stack (process, failure detector, reliable channel, reliable
   broadcast) on every node. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Rng = Gc_sim.Rng
module Delay = Gc_net.Delay
module Netsim = Gc_net.Netsim
module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Consensus = Gc_consensus.Consensus

type node = {
  proc : Process.t;
  fd : Fd.t;
  rc : Rc.t;
  rb : Rb.t;
}

type world = {
  engine : Engine.t;
  net : Netsim.t;
  trace : Trace.t;
  nodes : node array;
}

let ids n = List.init n (fun i -> i)

(* [wrap i runtime] may replace node [i]'s runtime capabilities, e.g. to
   skew its clock. *)
let make_world ?(seed = 42L) ?(delay = Delay.lan) ?(drop = 0.0)
    ?(hb_period = 20.0) ?(rto = 50.0) ?(stuck_after = 10_000.0)
    ?(wrap = fun _ runtime -> runtime) ~n () =
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:true () in
  let net = Netsim.create engine ~trace ~delay ~drop ~n () in
  let peer_ids = ids n in
  let nodes =
    Array.init n (fun i ->
        let runtime = wrap i (Gc_kernel.Runtime.of_netsim net ~trace) in
        let proc = Process.create runtime ~id:i in
        let fd = Fd.create proc ~hb_period ~peers:peer_ids () in
        let rc = Rc.create proc ~rto ~stuck_after () in
        let rb = Rb.create proc rc in
        { proc; fd; rc; rb })
  in
  { engine; net; trace; nodes }

let run_until w time = Engine.run ~until:time w.engine

let check_list_int = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a deterministic scenario for every seed in [0, count) — cheap
   schedule-space exploration used by the protocol tests. *)
let for_seeds ?(count = 10) f =
  for s = 0 to count - 1 do
    f (Int64.of_int (1000 + s))
  done

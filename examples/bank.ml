(* The replicated bank of the paper's Section 4.2.

   Run with:  dune exec examples/bank.exe

   Every replica executes every command (active replication on
   [Gc_server.Replica], the same replica core gcs_server runs over TCP), and
   the broadcast primitive follows the command's class:

   - with GENERIC broadcast, deposits (commutative [Incr]s of the account)
     ride the consensus-free fast path and only withdrawals (an ordered
     [Put] that empties the account) pay for total order;
   - with ATOMIC broadcast, every operation is submitted as a [Put] and
     pays for consensus — the "non-necessary overhead" the paper points
     out.

   Both runs use the same seed, network and workload. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Replica = Gc_server.Replica
module Proto = Gc_server.Proto
module Client = Gc_replication.Client
module Stats = Gc_sim.Stats

let n_replicas = 3
let n_clients = 2
let n_requests = 40

let workload rng ~use_generic k =
  (* 80% deposits, 20% withdrawals, across 4 accounts. *)
  let key = Printf.sprintf "acct%d" (Gc_sim.Rng.int rng 4) in
  if use_generic && k mod 5 <> 4 then Proto.Cl_incr { rid = 0; key; delta = 10 }
  else Proto.Cl_put { rid = 0; key; value = "0" }

let run_scheme name ~use_generic =
  let engine = Engine.create ~seed:11L () in
  let trace = Trace.create () in
  let net =
    Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:(n_replicas + n_clients)
      ()
  in
  let replicas = List.init n_replicas (fun i -> i) in
  let latencies = Stats.sample () in
  let stacks =
    List.map
      (fun id ->
        Replica.stack
          (Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id
             ~initial:replicas ()))
      replicas
  in
  let clients =
    List.init n_clients (fun i ->
        Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:(n_replicas + i) ~replicas ())
  in
  let rng = Engine.split_rng engine in
  Netsim.reset_counters net;
  for k = 0 to n_requests - 1 do
    let cmd = workload rng ~use_generic k in
    let client = List.nth clients (k mod n_clients) in
    ignore
      (Engine.schedule engine ~delay:(float_of_int (k * 25)) (fun () ->
           Client.request client ~cmd ~on_reply:(fun _ ~latency ->
               Stats.add latencies latency)))
  done;
  let horizon = (float_of_int n_requests *. 25.0) +. 2_000.0 in
  Engine.run ~until:horizon engine;
  let consensus_instances =
    Gc_abcast.Atomic_broadcast.next_instance
      (Gcs.Gcs_stack.atomic_broadcast (List.hd stacks))
  in
  let fast =
    Gc_gbcast.Generic_broadcast.fast_delivered_count
      (Gcs.Gcs_stack.generic_broadcast (List.hd stacks))
  in
  Printf.printf
    "%-26s  served %3d/%d  mean %6s ms  p95 %6s ms  consensus instances %3d  fast-path %3d  msgs %d\n"
    name (Stats.count latencies) n_requests
    (Stats.fmt_ms (Stats.mean latencies))
    (Stats.fmt_ms (Stats.percentile latencies 95.0))
    consensus_instances fast
    (Netsim.messages_sent net)

let () =
  print_endline
    "Replicated bank (Section 4.2): 80% deposits / 20% withdrawals, 3 replicas";
  print_endline "";
  run_scheme "generic broadcast" ~use_generic:true;
  run_scheme "atomic broadcast" ~use_generic:false;
  print_endline "";
  print_endline
    "Generic broadcast pays consensus only around withdrawals; atomic\n\
     broadcast pays for every operation."

(* E2 — Section 4.2: generic broadcast makes commutative operations cheap.

   The paper's bank: deposits commute, withdrawals conflict.  We sweep the
   fraction of commutative operations and compare the replicated store over
   generic broadcast (class-aware) against the same service where every
   command goes through atomic broadcast. *)

open Bench_util
module Replica = Gc_server.Replica
module Proto = Gc_server.Proto
module Client = Gc_replication.Client

let n_replicas = 3
let n_requests = 60
let request_period = 25.0

(* A deposit commutes: an [Incr] of the account.  A withdrawal is an
   ordered [Put] on the account (the store has no conditional debit, so it
   withdraws the whole balance).  The atomic side orders every op: each is
   a [Put], whose value does not matter to the costs measured here.  Both
   sides draw the same numbers, so they see the same accounts. *)
let workload rng ~use_generic ~commuting_pct =
  let key = Printf.sprintf "acct%d" (Rng.int rng 4) in
  let deposit = Rng.int rng 100 < commuting_pct in
  if use_generic && deposit then Proto.Cl_incr { rid = 0; key; delta = 10 }
  else Proto.Cl_put { rid = 0; key; value = (if deposit then "10" else "0") }

let run_cell ~use_generic ~commuting_pct ~seed =
  let engine, trace, net = base_net ~seed ~n:(n_replicas + 1) () in
  let replicas = List.init n_replicas (fun i -> i) in
  let stacks =
    List.map
      (fun id ->
        Replica.stack
          (Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id
             ~initial:replicas ()))
      replicas
  in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:n_replicas ~replicas () in
  let rng = Engine.split_rng engine in
  let lat = Stats.sample () in
  Engine.run ~until:300.0 engine;
  Netsim.reset_counters net;
  for k = 0 to n_requests - 1 do
    let cmd = workload rng ~use_generic ~commuting_pct in
    ignore
      (Engine.schedule engine
         ~delay:(float_of_int k *. request_period)
         (fun () ->
           Client.request client ~cmd ~on_reply:(fun _ ~latency ->
               Stats.add lat latency)))
  done;
  Engine.run
    ~until:(300.0 +. (float_of_int n_requests *. request_period) +. 2_000.0)
    engine;
  let stack0 = List.hd stacks in
  let instances =
    Gc_abcast.Atomic_broadcast.next_instance (Stack.atomic_broadcast stack0)
  in
  let fast =
    Gc_gbcast.Generic_broadcast.fast_delivered_count
      (Stack.generic_broadcast stack0)
  in
  let cell =
    Printf.sprintf "%s-%d%%"
      (if use_generic then "generic" else "atomic")
      commuting_pct
  in
  audit_trace ~experiment:"e2" ~cell trace;
  note_metrics ~experiment:"e2" ~cell
    (Metrics.merged (List.map Stack.metrics stacks));
  (Stats.count lat, Stats.mean lat, Stats.percentile lat 95.0, instances, fast,
   Netsim.messages_sent net)

let run () =
  section "E2  Generic vs atomic broadcast on the bank workload (Section 4.2)"
    "commutative operations (deposits) need no ordering: generic broadcast \
     skips consensus for them, atomic broadcast pays for every operation";
  let rows =
    List.concat_map
      (fun commuting_pct ->
        let served_g, mean_g, p95_g, inst_g, fast_g, msg_g =
          run_cell ~use_generic:true ~commuting_pct ~seed:211L
        and served_a, mean_a, p95_a, inst_a, _fast_a, msg_a =
          run_cell ~use_generic:false ~commuting_pct ~seed:211L
        in
        [
          [
            Printf.sprintf "%3d%%" commuting_pct;
            "generic";
            Printf.sprintf "%d/%d" served_g n_requests;
            fmt_f1 mean_g;
            fmt_f1 p95_g;
            fmt_int inst_g;
            fmt_int fast_g;
            fmt_int msg_g;
          ];
          [
            "";
            "atomic";
            Printf.sprintf "%d/%d" served_a n_requests;
            fmt_f1 mean_a;
            fmt_f1 p95_a;
            fmt_int inst_a;
            "0";
            fmt_int msg_a;
          ];
        ])
      [ 0; 25; 50; 75; 90; 100 ]
  in
  Stats.print_table
    ~header:
      [
        "commuting"; "broadcast"; "served"; "mean ms"; "p95 ms";
        "consensus inst"; "fast-path"; "msgs";
      ]
    rows;
  conclude
    "generic broadcast's consensus usage falls towards zero as the workload \
     commutes; atomic broadcast's stays proportional to the request count. \
     At 100% commuting the generic run uses no consensus at all (pure fast \
     path)."

(* Tests for the simulated unreliable transport. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Delay = Gc_net.Delay
module Netsim = Gc_net.Netsim
module Payload = Gc_net.Payload

type Payload.t += Ping of int

let make ?(seed = 1L) ?(delay = Delay.Constant 1.0) ?(drop = 0.0) n =
  let engine = Engine.create ~seed () in
  let net = Netsim.create engine ~delay ~drop ~n () in
  (engine, net)

let collect net node log =
  Netsim.register net ~node (fun ~src payload ->
      match payload with Ping k -> log := (src, k) :: !log | _ -> ())

let test_basic_delivery () =
  let engine, net = make 2 in
  let log = ref [] in
  collect net 1 log;
  Netsim.send net ~src:0 ~dst:1 (Ping 7);
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 7) ] !log;
  Alcotest.(check (float 0.001)) "constant delay" 1.0 (Engine.now engine)

let test_drop_all () =
  let engine, net = make ~drop:1.0 2 in
  let log = ref [] in
  collect net 1 log;
  for k = 1 to 20 do
    Netsim.send net ~src:0 ~dst:1 (Ping k)
  done;
  Engine.run engine;
  Support.check_int "nothing delivered" 0 (List.length !log);
  Support.check_int "all counted dropped" 20 (Netsim.messages_dropped net)

let test_drop_probabilistic () =
  let engine, net = make ~seed:5L ~drop:0.5 2 in
  let log = ref [] in
  collect net 1 log;
  let total = 2000 in
  for k = 1 to total do
    Netsim.send net ~src:0 ~dst:1 (Ping k)
  done;
  Engine.run engine;
  let got = List.length !log in
  Support.check_bool
    (Printf.sprintf "roughly half delivered (%d/%d)" got total)
    true
    (got > 900 && got < 1100)

let test_crash_stops_delivery () =
  let engine, net = make 2 in
  let log = ref [] in
  collect net 1 log;
  Netsim.crash net 1;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Support.check_int "no delivery to crashed" 0 (List.length !log);
  Support.check_bool "alive flag" false (Netsim.alive net 1)

let test_crashed_cannot_send () =
  let engine, net = make 2 in
  let log = ref [] in
  collect net 1 log;
  Netsim.crash net 0;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Support.check_int "no send from crashed" 0 (List.length !log)

let test_in_flight_to_crashed_dropped () =
  let engine, net = make ~delay:(Delay.Constant 10.0) 2 in
  let log = ref [] in
  collect net 1 log;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  (* Crash the destination while the message is in flight. *)
  ignore (Engine.schedule engine ~delay:5.0 (fun () -> Netsim.crash net 1));
  Engine.run engine;
  Support.check_int "in-flight message lost" 0 (List.length !log)

let test_partition_blocks_cross_traffic () =
  let engine, net = make 4 in
  let log2 = ref [] and log1 = ref [] in
  collect net 2 log2;
  collect net 1 log1;
  Netsim.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Netsim.send net ~src:0 ~dst:2 (Ping 1);
  Netsim.send net ~src:0 ~dst:1 (Ping 2);
  Engine.run engine;
  Support.check_int "cross-partition blocked" 0 (List.length !log2);
  Support.check_int "same side ok" 1 (List.length !log1);
  Netsim.heal net;
  Netsim.send net ~src:0 ~dst:2 (Ping 3);
  Engine.run engine;
  Support.check_int "after heal" 1 (List.length !log2)

let test_partition_implicit_group () =
  let engine, net = make 3 in
  let log = ref [] in
  collect net 2 log;
  (* Node 2 is not mentioned: it forms its own implicit group. *)
  Netsim.partition net [ [ 0; 1 ] ];
  Netsim.send net ~src:0 ~dst:2 (Ping 1);
  Engine.run engine;
  Support.check_int "isolated" 0 (List.length !log)

let test_delay_spike () =
  let engine, net = make 2 in
  let arrivals = ref [] in
  Netsim.register net ~node:1 (fun ~src:_ _ ->
      arrivals := Engine.now engine :: !arrivals);
  Netsim.delay_spike net ~nodes:[ 0 ] ~until:50.0 ~extra:100.0;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  (* Second message sent after the spike window. *)
  ignore
    (Engine.schedule engine ~delay:60.0 (fun () ->
         Netsim.send net ~src:0 ~dst:1 (Ping 2)));
  Engine.run engine;
  (* The spiked first message (sent at 0, +100 ms spike, +1 ms link) lands at
     101; the post-spike message (sent at 60) overtakes it and lands at 61. *)
  match List.rev !arrivals with
  | [ first; second ] ->
      Alcotest.(check (float 0.001)) "normal overtakes" 61.0 first;
      Alcotest.(check (float 0.001)) "spiked arrives late" 101.0 second
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_set_link_override () =
  let engine, net = make 2 in
  Netsim.set_link net ~src:0 ~dst:1 ~delay:(Delay.Constant 42.0) ();
  let at = ref nan in
  Netsim.register net ~node:1 (fun ~src:_ _ -> at := Engine.now engine);
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Alcotest.(check (float 0.001)) "overridden delay" 42.0 !at

let test_determinism () =
  let run seed =
    let engine, net = make ~seed ~delay:Delay.lan ~drop:0.2 3 in
    let log = ref [] in
    collect net 2 log;
    for k = 1 to 50 do
      Netsim.send net ~src:0 ~dst:2 (Ping k);
      Netsim.send net ~src:1 ~dst:2 (Ping (1000 + k))
    done;
    Engine.run engine;
    (!log, Engine.now engine)
  in
  let a = run 9L and b = run 9L in
  Support.check_bool "identical runs" true (a = b);
  let c = run 10L in
  Support.check_bool "different seed differs" true (a <> c)

let test_recover_rejoins_delivery () =
  let engine = Engine.create ~seed:1L () in
  let trace = Trace.create ~enabled:true () in
  let net = Netsim.create engine ~trace ~delay:(Delay.Constant 1.0) ~n:2 () in
  let log = ref [] in
  collect net 1 log;
  Netsim.crash net 1;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Support.check_int "lost while frozen" 0 (List.length !log);
  Support.check_int "counted as gone drop" 1 (Netsim.messages_dropped_gone net);
  Netsim.recover net 1;
  Support.check_bool "alive again" true (Netsim.alive net 1);
  Netsim.send net ~src:0 ~dst:1 (Ping 2);
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "post-recover delivery" [ (0, 2) ] !log;
  (* Both lifecycle transitions are on the flight recorder. *)
  Support.check_int "crash recorded" 1
    (List.length (Trace.find trace ~node:1 ~component:"net" ~event:"crash" ()));
  Support.check_int "recover recorded" 1
    (List.length (Trace.find trace ~node:1 ~component:"net" ~event:"recover" ()))

let test_recover_live_node_noop () =
  let engine, net = make 2 in
  Netsim.recover net 1;
  Support.check_bool "still alive" true (Netsim.alive net 1);
  ignore engine

let test_drop_counter_split () =
  let engine, net = make ~drop:1.0 3 in
  let log = ref [] in
  collect net 1 log;
  (* Lossy link: the network chose to drop — policy. *)
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Support.check_int "policy drop" 1 (Netsim.messages_dropped_policy net);
  Support.check_int "no gone drop yet" 0 (Netsim.messages_dropped_gone net);
  (* Partition boundary: also the network's choice — policy. *)
  Netsim.set_link net ~src:0 ~dst:2 ~drop:0.0 ();
  Netsim.partition net [ [ 0; 1 ]; [ 2 ] ];
  Netsim.send net ~src:0 ~dst:2 (Ping 2);
  Engine.run engine;
  Support.check_int "partition drop is policy" 2
    (Netsim.messages_dropped_policy net);
  Netsim.heal net;
  (* Dead endpoint: not a network decision — gone. *)
  Netsim.crash net 2;
  Netsim.send net ~src:0 ~dst:2 (Ping 3);
  Netsim.send net ~src:2 ~dst:1 (Ping 4);
  Engine.run engine;
  Support.check_int "dead endpoints are gone drops" 2
    (Netsim.messages_dropped_gone net);
  Support.check_int "total is the sum" 4 (Netsim.messages_dropped net)

let test_duplication_and_drop_counters () =
  let engine = Engine.create ~seed:3L () in
  let net = Netsim.create engine ~delay:(Delay.Constant 1.0) ~dup:1.0 ~n:2 () in
  let log = ref [] in
  collect net 1 log;
  Netsim.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  Support.check_int "original + duplicate delivered" 2 (List.length !log);
  Support.check_int "duplication counted" 1 (Netsim.messages_duplicated net);
  (* A dead receiver is a gone drop, never a policy drop. *)
  Netsim.crash net 1;
  Netsim.send net ~src:0 ~dst:1 (Ping 2);
  Engine.run engine;
  Support.check_int "gone drop" 1 (Netsim.messages_dropped_gone net);
  Support.check_int "no policy drop" 0 (Netsim.messages_dropped_policy net)

let test_dup_zero_does_not_perturb_rng () =
  (* dup = 0.0 must not consume random draws: a lossy run with and without
     the duplication feature configured off is bit-identical. *)
  let run ~dup =
    let engine = Engine.create ~seed:11L () in
    let net = Netsim.create engine ~delay:Delay.lan ~drop:0.3 ~dup ~n:2 () in
    let log = ref [] in
    collect net 1 log;
    for k = 1 to 100 do
      Netsim.send net ~src:0 ~dst:1 (Ping k)
    done;
    Engine.run engine;
    (!log, Engine.now engine)
  in
  Support.check_bool "identical" true (run ~dup:0.0 = run ~dup:0.0)

let test_delay_mean_sanity () =
  (* The sampled mean of each distribution should match its analytic mean. *)
  let rng = Gc_sim.Rng.create 2L in
  let check_dist d =
    let total = ref 0.0 in
    let trials = 50_000 in
    for _ = 1 to trials do
      total := !total +. Delay.sample d rng
    done;
    let sampled = !total /. float_of_int trials in
    let analytic = Delay.mean d in
    Support.check_bool
      (Printf.sprintf "mean %.3f vs %.3f" sampled analytic)
      true
      (Float.abs (sampled -. analytic) /. analytic < 0.05)
  in
  check_dist Delay.lan;
  check_dist Delay.wan;
  check_dist (Delay.Uniform { lo = 1.0; hi = 9.0 });
  check_dist (Delay.Lognormal { min = 1.0; mu = 0.0; sigma = 0.5 })

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
        Alcotest.test_case "drop all" `Quick test_drop_all;
        Alcotest.test_case "drop probabilistic" `Quick test_drop_probabilistic;
        Alcotest.test_case "crash stops delivery" `Quick test_crash_stops_delivery;
        Alcotest.test_case "crashed cannot send" `Quick test_crashed_cannot_send;
        Alcotest.test_case "in-flight to crashed dropped" `Quick
          test_in_flight_to_crashed_dropped;
        Alcotest.test_case "partition blocks cross traffic" `Quick
          test_partition_blocks_cross_traffic;
        Alcotest.test_case "partition implicit group" `Quick
          test_partition_implicit_group;
        Alcotest.test_case "delay spike" `Quick test_delay_spike;
        Alcotest.test_case "set_link override" `Quick test_set_link_override;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "recover rejoins delivery" `Quick
          test_recover_rejoins_delivery;
        Alcotest.test_case "recover live node is a no-op" `Quick
          test_recover_live_node_noop;
        Alcotest.test_case "drop counter split" `Quick test_drop_counter_split;
        Alcotest.test_case "duplication + drop counters" `Quick
          test_duplication_and_drop_counters;
        Alcotest.test_case "dup=0 leaves rng untouched" `Quick
          test_dup_zero_does_not_perturb_rng;
        Alcotest.test_case "delay distribution means" `Quick test_delay_mean_sanity;
      ] );
  ]

(* Tests for the traditional GM-VS baseline stack: sequencer total order,
   view synchrony, suspicion = exclusion coupling, blocking flush,
   kill-and-rejoin. *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Trace = Gc_sim.Trace
module View = Gc_membership.View
module Tr = Gc_traditional.Traditional_stack
open Support

type Gc_net.Payload.t += Op of int | AppState of int list

let make ?(config = Tr.default_config) ?(n_founders = None) ~n ~seed () =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let founders = match n_founders with None -> n | Some f -> f in
  let initial = List.init founders (fun i -> i) in
  let ordered_log = Array.make n [] in
  let all_log = Array.make n [] in
  let stacks =
    Array.init n (fun id ->
        let provider () = AppState (List.rev ordered_log.(id)) in
        let installer = function
          | AppState l -> ordered_log.(id) <- List.rev l
          | _ -> ()
        in
        let s =
          Tr.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ~config ~app_state_provider:provider
            ~app_state_installer:installer ()
        in
        Tr.on_deliver s (fun ~origin:_ ~ordered payload ->
            match payload with
            | Op k ->
                all_log.(id) <- k :: all_log.(id);
                if ordered then ordered_log.(id) <- k :: ordered_log.(id)
            | _ -> ());
        s)
  in
  (engine, net, stacks, ordered_log, all_log)

let hist log i = List.rev log.(i)

let test_sequencer_total_order () =
  let engine, _net, stacks, ordered, _ = make ~n:3 ~seed:1L () in
  for k = 0 to 8 do
    Tr.abcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all delivered" 9 (List.length (hist ordered 0));
  for i = 1 to 2 do
    check_list_int "same order" (hist ordered 0) (hist ordered i)
  done

let test_vscast_delivery () =
  let engine, _net, stacks, _, all = make ~n:3 ~seed:2L () in
  for k = 0 to 5 do
    Tr.vscast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  for i = 0 to 2 do
    check_list_int "same set"
      (List.sort compare (hist all 0))
      (List.sort compare (hist all i));
    check_int "six messages" 6 (List.length (hist all i))
  done

let test_vscast_fifo_per_sender () =
  let engine, _net, stacks, _, all = make ~n:2 ~seed:3L () in
  for k = 0 to 9 do
    Tr.vscast stacks.(0) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  check_list_int "FIFO at receiver" (List.init 10 (fun i -> i)) (hist all 1)

let test_sequencer_crash_recovery () =
  for_seeds ~count:6 (fun seed ->
      let engine, _net, stacks, ordered, _ = make ~n:3 ~seed () in
      Tr.abcast stacks.(1) (Op 1);
      ignore
        (Engine.schedule engine ~delay:100.0 (fun () -> Tr.crash stacks.(0)));
      (* Requests issued while the sequencer is dead but not yet excluded:
         they must survive the view change and be re-sequenced. *)
      ignore
        (Engine.schedule engine ~delay:300.0 (fun () ->
             Tr.abcast stacks.(1) (Op 2);
             Tr.abcast stacks.(2) (Op 3)));
      Engine.run ~until:60_000.0 engine;
      check_list_int "crashed sequencer excluded" [ 1; 2 ]
        (Tr.view stacks.(1)).View.members;
      let h1 = hist ordered 1 and h2 = hist ordered 2 in
      check_list_int "agree" h1 h2;
      check_list_int "all three ordered ops" [ 1; 2; 3 ] (List.sort compare h1))

let test_suspicion_is_exclusion () =
  (* The traditional coupling: a transient spike exceeding the single FD
     timeout removes a perfectly alive process. *)
  let config = { Tr.default_config with fd_timeout = 300.0 } in
  let engine, net, stacks, _, _ = make ~config ~n:3 ~seed:5L () in
  Netsim.delay_spike net ~nodes:[ 2 ] ~until:1200.0 ~extra:600.0;
  Engine.run ~until:900.0 engine;
  (* Before the rejoin completes: the live process is out. *)
  check_bool "excluded despite being alive" true
    (not (View.mem (Tr.view stacks.(0)) 2));
  check_bool "victim knows" true (not (Tr.is_member stacks.(2)));
  Engine.run ~until:30_000.0 engine;
  check_bool "exclusion was counted" true (Tr.exclusions_suffered stacks.(2) >= 1)

let test_wrongly_excluded_rejoins () =
  let config =
    { Tr.default_config with fd_timeout = 300.0; state_transfer_delay = 50.0 }
  in
  let engine, net, stacks, ordered, _ = make ~config ~n:3 ~seed:6L () in
  Tr.abcast stacks.(0) (Op 1);
  Netsim.delay_spike net ~nodes:[ 2 ] ~until:1200.0 ~extra:600.0;
  ignore
    (Engine.schedule engine ~delay:4000.0 (fun () -> Tr.abcast stacks.(0) (Op 2)));
  Engine.run ~until:60_000.0 engine;
  check_bool "rejoined" true (Tr.is_member stacks.(2));
  check_int "exclusion counted" 1 (Tr.exclusions_suffered stacks.(2));
  check_bool "downtime measured" true (Tr.excluded_time_total stacks.(2) > 0.0);
  check_list_int "full view restored" [ 0; 1; 2 ]
    (List.sort compare (Tr.view stacks.(0)).View.members);
  (* State transfer restored the ordered history at the rejoiner. *)
  check_list_int "history intact after rejoin" (hist ordered 0) (hist ordered 2)

let test_flush_blocks_senders () =
  let config = { Tr.default_config with fd_timeout = 300.0 } in
  let engine, _net, stacks, ordered, _ = make ~config ~n:4 ~seed:7L () in
  ignore (Engine.schedule engine ~delay:100.0 (fun () -> Tr.crash stacks.(3)));
  (* Broadcast during the detection + flush window. *)
  for k = 0 to 9 do
    ignore
      (Engine.schedule engine
         ~delay:(150.0 +. float_of_int (k * 60))
         (fun () -> Tr.abcast stacks.(k mod 3) (Op k)))
  done;
  Engine.run ~until:60_000.0 engine;
  check_int "all ten delivered" 10 (List.length (hist ordered 0));
  for i = 1 to 2 do
    check_list_int "order agreed" (hist ordered 0) (hist ordered i)
  done;
  let blocked_somewhere =
    List.exists (fun i -> Tr.blocked_time_total stacks.(i) > 0.0) [ 0; 1; 2 ]
  in
  check_bool "senders were blocked during the change" true blocked_somewhere

let test_join_mid_stream () =
  let config = { Tr.default_config with state_transfer_delay = 20.0 } in
  let engine, _net, stacks, ordered, _ =
    make ~config ~n:4 ~n_founders:(Some 3) ~seed:8L ()
  in
  Tr.abcast stacks.(0) (Op 1);
  ignore
    (Engine.schedule engine ~delay:500.0 (fun () -> Tr.join stacks.(3) ~via:1));
  ignore
    (Engine.schedule engine ~delay:3000.0 (fun () -> Tr.abcast stacks.(2) (Op 2)));
  Engine.run ~until:60_000.0 engine;
  check_bool "joined" true (Tr.is_member stacks.(3));
  check_list_int "view includes joiner" [ 0; 1; 2; 3 ]
    (List.sort compare (Tr.view stacks.(0)).View.members);
  check_list_int "joiner history complete" [ 1; 2 ] (hist ordered 3)

let test_leave () =
  let engine, _net, stacks, _, _ = make ~n:3 ~seed:9L () in
  ignore (Engine.schedule engine ~delay:100.0 (fun () -> Tr.leave stacks.(2)));
  Engine.run ~until:20_000.0 engine;
  check_list_int "view shrunk" [ 0; 1 ] (Tr.view stacks.(0)).View.members;
  check_bool "leaver inactive" true (not (Tr.is_member stacks.(2)));
  check_int "voluntary leave is not an exclusion" 0
    (Tr.exclusions_suffered stacks.(2))

let test_view_synchrony_cut () =
  (* Messages vscast just before a member crashes must be delivered by all
     survivors (the flush re-injects unstable messages). *)
  for_seeds ~count:6 (fun seed ->
      let config = { Tr.default_config with fd_timeout = 300.0 } in
      let engine, _net, stacks, _, all = make ~config ~n:4 ~seed () in
      ignore
        (Engine.schedule engine ~delay:100.0 (fun () ->
             Tr.vscast stacks.(0) (Op 1);
             Tr.vscast stacks.(1) (Op 2);
             (* node 3 crashes an instant after the broadcasts take off *)
             ignore
               (Engine.schedule engine ~delay:1.0 (fun () ->
                    Tr.crash stacks.(3)))));
      Engine.run ~until:60_000.0 engine;
      for i = 0 to 2 do
        check_list_int
          (Printf.sprintf "survivor %d has the cut" i)
          [ 1; 2 ]
          (List.sort compare (hist all i))
      done)

let test_minority_partition_stalls () =
  (* Primary-partition rule: the minority side must not install a view or
     keep ordering; the majority side continues. *)
  let config = { Tr.default_config with fd_timeout = 300.0 } in
  let engine, net, stacks, ordered, _ = make ~config ~n:5 ~seed:11L () in
  Tr.abcast stacks.(0) (Op 1);
  ignore
    (Engine.schedule engine ~delay:300.0 (fun () ->
         Netsim.partition net [ [ 0; 1; 2 ]; [ 3; 4 ] ]));
  ignore
    (Engine.schedule engine ~delay:2_000.0 (fun () -> Tr.abcast stacks.(1) (Op 2)));
  Engine.run ~until:10_000.0 engine;
  check_list_int "majority carries on" [ 1; 2 ] (hist ordered 0);
  check_list_int "majority view" [ 0; 1; 2 ] (Tr.view stacks.(0)).View.members;
  (* Minority: no new view installed (still the full founding view), no
     post-partition deliveries. *)
  check_int "minority view unchanged" 5 (View.size (Tr.view stacks.(3)));
  check_list_int "minority frozen" [ 1 ] (hist ordered 3)

let test_abcast_before_any_view_change_cheap () =
  (* Failure-free runs never trigger the flush machinery. *)
  let engine, _net, stacks, ordered, _ = make ~n:3 ~seed:12L () in
  for k = 0 to 4 do
    Tr.abcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:10_000.0 engine;
  check_int "no view changes" 0 (Tr.view_changes stacks.(0));
  check_int "no blocking" 0 (int_of_float (Tr.blocked_time_total stacks.(0)));
  check_int "all delivered" 5 (List.length (hist ordered 0))

(* ---------- Phoenix-style (consensus-based) view agreement ---------- *)

let phoenix_config =
  { Tr.default_config with view_agreement = Tr.Consensus_based }

let test_phoenix_total_order () =
  let engine, _net, stacks, ordered, _ =
    make ~config:phoenix_config ~n:3 ~seed:31L ()
  in
  for k = 0 to 8 do
    Tr.abcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all delivered" 9 (List.length (hist ordered 0));
  for i = 1 to 2 do
    check_list_int "same order" (hist ordered 0) (hist ordered i)
  done

let test_phoenix_sequencer_crash () =
  for_seeds ~count:5 (fun seed ->
      let config = { phoenix_config with fd_timeout = 300.0 } in
      let engine, _net, stacks, ordered, _ = make ~config ~n:4 ~seed () in
      Tr.abcast stacks.(1) (Op 1);
      ignore
        (Engine.schedule engine ~delay:100.0 (fun () -> Tr.crash stacks.(0)));
      ignore
        (Engine.schedule engine ~delay:300.0 (fun () ->
             Tr.abcast stacks.(1) (Op 2);
             Tr.abcast stacks.(2) (Op 3)));
      Engine.run ~until:60_000.0 engine;
      check_list_int "crashed sequencer excluded" [ 1; 2; 3 ]
        (List.sort compare (Tr.view stacks.(1)).View.members);
      let h1 = hist ordered 1 in
      check_list_int "agree" h1 (hist ordered 2);
      check_list_int "agree" h1 (hist ordered 3);
      check_list_int "all ordered ops" [ 1; 2; 3 ] (List.sort compare h1))

let test_phoenix_early_flush_response () =
  (* Regression: in Phoenix every old member sends its flush response to
     every other, and FIFO holds only per sender, so a peer's response can
     overtake the initiator's request.  A member that dropped it never
     completed its merge, never proposed, and the consensus over the old
     view blocked every survivor forever.  Over seeds 1..40, both the
     sequencer-crash shape and the wrongly-excluded shape land such an
     overtake on some seeds. *)
  let config = { phoenix_config with fd_timeout = 300.0 } in
  for s = 1 to 40 do
    let engine, _net, stacks, ordered, _ =
      make ~config ~n:4 ~seed:(Int64.of_int s) ()
    in
    Tr.abcast stacks.(1) (Op 1);
    ignore
      (Engine.schedule engine ~delay:100.0 (fun () -> Tr.crash stacks.(0)));
    ignore
      (Engine.schedule engine ~delay:300.0 (fun () ->
           Tr.abcast stacks.(1) (Op 2);
           Tr.abcast stacks.(2) (Op 3)));
    Engine.run ~until:30_000.0 engine;
    for i = 1 to 3 do
      check_list_int
        (Printf.sprintf "seed %d: survivor %d installed the view" s i)
        [ 1; 2; 3 ]
        (List.sort compare (Tr.view stacks.(i)).View.members);
      check_list_int
        (Printf.sprintf "seed %d: survivor %d ordered every op" s i)
        [ 1; 2; 3 ]
        (List.sort compare (hist ordered i))
    done
  done;
  let config = { config with state_transfer_delay = 50.0 } in
  for s = 1 to 40 do
    let engine, net, stacks, ordered, _ =
      make ~config ~n:4 ~seed:(Int64.of_int s) ()
    in
    Tr.abcast stacks.(0) (Op 1);
    Netsim.delay_spike net ~nodes:[ 2 ] ~until:1200.0 ~extra:600.0;
    ignore
      (Engine.schedule engine ~delay:5_000.0 (fun () ->
           Tr.abcast stacks.(0) (Op 2)));
    Engine.run ~until:60_000.0 engine;
    check_bool (Printf.sprintf "seed %d: rejoined" s) true
      (Tr.is_member stacks.(2));
    check_list_int
      (Printf.sprintf "seed %d: history intact" s)
      (hist ordered 0) (hist ordered 2)
  done

let test_phoenix_view_synchrony_cut () =
  for_seeds ~count:5 (fun seed ->
      let config = { phoenix_config with fd_timeout = 300.0 } in
      let engine, _net, stacks, _, all = make ~config ~n:4 ~seed () in
      ignore
        (Engine.schedule engine ~delay:100.0 (fun () ->
             Tr.vscast stacks.(0) (Op 1);
             Tr.vscast stacks.(1) (Op 2);
             ignore
               (Engine.schedule engine ~delay:1.0 (fun () ->
                    Tr.crash stacks.(3)))));
      Engine.run ~until:60_000.0 engine;
      for i = 0 to 2 do
        check_list_int
          (Printf.sprintf "survivor %d has the cut" i)
          [ 1; 2 ]
          (List.sort compare (hist all i))
      done)

let test_phoenix_wrongly_excluded_rejoins () =
  let config =
    { phoenix_config with fd_timeout = 300.0; state_transfer_delay = 50.0 }
  in
  let engine, net, stacks, ordered, _ = make ~config ~n:4 ~seed:33L () in
  Tr.abcast stacks.(0) (Op 1);
  Netsim.delay_spike net ~nodes:[ 2 ] ~until:1200.0 ~extra:600.0;
  ignore
    (Engine.schedule engine ~delay:5_000.0 (fun () -> Tr.abcast stacks.(0) (Op 2)));
  Engine.run ~until:60_000.0 engine;
  check_bool "was excluded" true (Tr.exclusions_suffered stacks.(2) >= 1);
  check_bool "rejoined" true (Tr.is_member stacks.(2));
  check_list_int "history intact" (hist ordered 0) (hist ordered 2)

let suite =
  [
    ( "traditional",
      [
        Alcotest.test_case "sequencer total order" `Quick test_sequencer_total_order;
        Alcotest.test_case "vscast delivery" `Quick test_vscast_delivery;
        Alcotest.test_case "vscast fifo per sender" `Quick
          test_vscast_fifo_per_sender;
        Alcotest.test_case "sequencer crash recovery" `Slow
          test_sequencer_crash_recovery;
        Alcotest.test_case "suspicion is exclusion" `Quick test_suspicion_is_exclusion;
        Alcotest.test_case "wrongly excluded rejoins" `Quick
          test_wrongly_excluded_rejoins;
        Alcotest.test_case "flush blocks senders" `Quick test_flush_blocks_senders;
        Alcotest.test_case "join mid-stream" `Quick test_join_mid_stream;
        Alcotest.test_case "leave" `Quick test_leave;
        Alcotest.test_case "view synchrony cut" `Slow test_view_synchrony_cut;
        Alcotest.test_case "minority partition stalls" `Quick
          test_minority_partition_stalls;
        Alcotest.test_case "failure-free never flushes" `Quick
          test_abcast_before_any_view_change_cheap;
        Alcotest.test_case "phoenix: total order" `Quick test_phoenix_total_order;
        Alcotest.test_case "phoenix: sequencer crash" `Slow
          test_phoenix_sequencer_crash;
        Alcotest.test_case "phoenix: early flush response kept" `Slow
          test_phoenix_early_flush_response;
        Alcotest.test_case "phoenix: view synchrony cut" `Slow
          test_phoenix_view_synchrony_cut;
        Alcotest.test_case "phoenix: wrongly excluded rejoins" `Quick
          test_phoenix_wrongly_excluded_rejoins;
      ] );
  ]

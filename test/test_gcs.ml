(* Integration tests for the full new-architecture stack (Figure 9): both
   broadcast classes, crash-driven exclusion, joins with state transfer, and
   the suspicion-vs-exclusion decoupling of Section 4.3. *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Trace = Gc_sim.Trace
module View = Gc_membership.View
module Stack = Gcs.Gcs_stack
module Gb = Gc_gbcast.Generic_broadcast
open Support

type Gc_net.Payload.t += Op of int | State of int list

let make_stacks ?(config = Stack.default_config) ?(n_founders = None) ~n ~seed
    () =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let founders =
    match n_founders with None -> n | Some f -> f
  in
  let initial = List.init founders (fun i -> i) in
  let applied = Array.make n [] in
  let stacks =
    Array.init n (fun id ->
        let app_state_provider () = State (List.rev applied.(id)) in
        let app_state_installer = function
          | State ops -> applied.(id) <- List.rev ops
          | _ -> ()
        in
        let s =
          Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ~config ~app_state_provider
            ~app_state_installer ()
        in
        Stack.on_deliver s (fun ~origin:_ ~ordered:_ payload ->
            match payload with
            | Op k -> applied.(id) <- k :: applied.(id)
            | _ -> ());
        s)
  in
  (engine, net, stacks, applied)

let history applied i = List.rev applied.(i)

let test_basic_ordered_broadcast () =
  let engine, _net, stacks, applied = make_stacks ~n:3 ~seed:1L () in
  for k = 0 to 5 do
    Stack.abcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all delivered" 6 (List.length (history applied 0));
  for i = 1 to 2 do
    check_list_int "identical order" (history applied 0) (history applied i)
  done

let test_rbcast_fast_and_agreed () =
  let engine, _net, stacks, applied = make_stacks ~n:3 ~seed:2L () in
  for k = 0 to 9 do
    Stack.rbcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  for i = 0 to 2 do
    check_list_int "same set"
      (List.sort compare (history applied 0))
      (List.sort compare (history applied i))
  done;
  (* Commuting messages never touch consensus: stage stays 0. *)
  check_int "no stage change" 0
    (Gc_gbcast.Generic_broadcast.stage (Stack.generic_broadcast stacks.(0)))

let test_crash_leads_to_exclusion_and_progress () =
  for_seeds ~count:5 (fun seed ->
      let config = Stack.Config.make ~exclusion_timeout:500.0 () in
      let engine, _net, stacks, applied = make_stacks ~config ~n:4 ~seed () in
      Stack.abcast stacks.(0) (Op 1);
      ignore
        (Engine.schedule engine ~delay:300.0 (fun () -> Stack.crash stacks.(3)));
      ignore
        (Engine.schedule engine ~delay:3000.0 (fun () ->
             Stack.abcast stacks.(1) (Op 2)));
      Engine.run ~until:60_000.0 engine;
      (* Crashed member excluded everywhere among survivors. *)
      for i = 0 to 2 do
        check_list_int
          (Printf.sprintf "view at %d" i)
          [ 0; 1; 2 ]
          (Stack.view stacks.(i)).View.members
      done;
      for i = 0 to 2 do
        check_list_int "history" [ 1; 2 ] (history applied i)
      done)

let test_wrong_suspicion_does_not_exclude () =
  (* The paper's Section 4.3: consensus-level suspicions (small timeout) do
     not remove anyone; only the conservative monitoring component does.  A
     spike longer than the consensus timeout but shorter than the exclusion
     timeout must leave the membership intact while messages keep flowing. *)
  let config =
    Stack.Config.make ~consensus_timeout:80.0 ~exclusion_timeout:4000.0 ()
  in
  let engine, net, stacks, applied = make_stacks ~config ~n:3 ~seed:5L () in
  Netsim.delay_spike net ~nodes:[ 0 ] ~until:600.0 ~extra:300.0;
  for k = 0 to 5 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int (k * 100)) (fun () ->
           Stack.abcast stacks.(k mod 3) (Op k)))
  done;
  Engine.run ~until:60_000.0 engine;
  check_int "membership intact" 3 (View.size (Stack.view stacks.(0)));
  check_int "all delivered" 6 (List.length (history applied 0));
  for i = 1 to 2 do
    check_list_int "total order held" (history applied 0) (history applied i)
  done

let test_join_mid_stream () =
  let engine, _net, stacks, applied =
    make_stacks ~n:4 ~n_founders:(Some 3) ~seed:7L ()
  in
  Stack.abcast stacks.(0) (Op 1);
  Stack.abcast stacks.(1) (Op 2);
  ignore
    (Engine.schedule engine ~delay:500.0 (fun () -> Stack.join stacks.(3) ~via:0));
  ignore
    (Engine.schedule engine ~delay:3000.0 (fun () ->
         Stack.abcast stacks.(2) (Op 3)));
  Engine.run ~until:60_000.0 engine;
  check_bool "joiner joined" true (Stack.joined stacks.(3));
  for i = 0 to 3 do
    check_list_int
      (Printf.sprintf "view at %d" i)
      [ 0; 1; 2; 3 ]
      (Stack.view stacks.(i)).View.members
  done;
  (* The joiner's state (transferred ops + live ops) matches the members'. *)
  for i = 0 to 3 do
    check_list_int (Printf.sprintf "history at %d" i) [ 1; 2; 3 ]
      (history applied i)
  done

let test_leave_gracefully () =
  let engine, _net, stacks, _ = make_stacks ~n:3 ~seed:9L () in
  Stack.remove stacks.(2) 2;
  Engine.run ~until:20_000.0 engine;
  check_bool "left" true (Stack.left stacks.(2));
  check_list_int "view shrunk" [ 0; 1 ] (Stack.view stacks.(0)).View.members

let test_mixed_classes_order_against_each_other () =
  for_seeds ~count:6 (fun seed ->
      let engine, _net, stacks, _ = make_stacks ~n:3 ~seed () in
      let tagged = Array.make 3 [] in
      Array.iteri
        (fun i s ->
          Stack.on_deliver s (fun ~origin:_ ~ordered payload ->
              match payload with
              | Op k -> tagged.(i) <- (k, ordered) :: tagged.(i)
              | _ -> ()))
        stacks;
      (* Interleave commuting and ordered messages. *)
      for k = 0 to 7 do
        ignore
          (Engine.schedule engine ~delay:(float_of_int (k * 2)) (fun () ->
               if k mod 2 = 0 then Stack.rbcast stacks.(k mod 3) (Op k)
               else Stack.abcast stacks.(k mod 3) (Op k)))
      done;
      Engine.run ~until:60_000.0 engine;
      (* For each pair where at least one is ordered, relative order agrees
         at every pair of processes. *)
      let pos i =
        let tbl = Hashtbl.create 8 in
        List.iteri (fun idx (k, o) -> Hashtbl.replace tbl k (idx, o))
          (List.rev tagged.(i));
        tbl
      in
      let p0 = pos 0 in
      check_int "all delivered" 8 (Hashtbl.length p0);
      List.iter
        (fun i ->
          let pi = pos i in
          Hashtbl.iter
            (fun k (idx, ordered) ->
              Hashtbl.iter
                (fun k' (idx', ordered') ->
                  if k < k' && (ordered || ordered') then
                    match (Hashtbl.find_opt pi k, Hashtbl.find_opt pi k') with
                    | Some (j, _), Some (j', _) ->
                        check_bool
                          (Printf.sprintf "pair %d/%d" k k')
                          true
                          (compare idx idx' = compare j j')
                    | _ -> Alcotest.fail "missing delivery")
                p0)
            p0)
        [ 1; 2 ])

let test_adaptive_consensus_config () =
  (* The stack runs with the self-tuning consensus monitor: same behaviour,
     no timeout knob. *)
  let config = Stack.Config.make ~consensus_adaptive:true () in
  let engine, _net, stacks, applied = make_stacks ~config ~n:3 ~seed:21L () in
  for k = 0 to 5 do
    Stack.abcast stacks.(k mod 3) (Op k)
  done;
  ignore
    (Engine.schedule engine ~delay:2_000.0 (fun () -> Stack.crash stacks.(0)));
  ignore
    (Engine.schedule engine ~delay:3_000.0 (fun () ->
         Stack.abcast stacks.(1) (Op 6)));
  Engine.run ~until:60_000.0 engine;
  check_int "all seven delivered" 7 (List.length (history applied 1));
  check_list_int "order agreed" (history applied 1) (history applied 2)

let test_two_thirds_stack_config () =
  (* The stack on the published quorums: with n = 4 the fast path survives a
     crash without waiting for the exclusion. *)
  let config =
    Stack.Config.make ~gb_ack_mode:Gc_gbcast.Generic_broadcast.Two_thirds
      ~exclusion_timeout:60_000.0 (* exclusion effectively disabled *) ()
  in
  let engine, _net, stacks, applied = make_stacks ~config ~n:4 ~seed:22L () in
  ignore (Engine.schedule engine ~delay:500.0 (fun () -> Stack.crash stacks.(3)));
  ignore
    (Engine.schedule engine ~delay:1_500.0 (fun () ->
         Stack.rbcast stacks.(0) (Op 1);
         Stack.rbcast stacks.(1) (Op 2)));
  Engine.run ~until:30_000.0 engine;
  (* Commuting traffic delivered by the 3-of-4 quorum despite the crashed,
     still-member node. *)
  for i = 0 to 2 do
    check_int
      (Printf.sprintf "fast delivery at %d with dead member" i)
      2
      (List.length (history applied i))
  done;
  check_int "no exclusion happened" 4 (View.size (Stack.view stacks.(0)))

let test_second_sponsor_after_sponsor_crash () =
  (* The first join request dies with its sponsor; retrying through another
     member succeeds (the retry policy belongs to the application). *)
  let engine, _net, stacks, _ = make_stacks ~n:4 ~n_founders:(Some 3) ~seed:23L () in
  Stack.crash stacks.(0);
  Stack.join stacks.(3) ~via:0;
  ignore
    (Engine.schedule engine ~delay:2_000.0 (fun () ->
         if not (Stack.joined stacks.(3)) then Stack.join stacks.(3) ~via:1));
  Engine.run ~until:60_000.0 engine;
  check_bool "joined via the second sponsor" true (Stack.joined stacks.(3));
  check_bool "member of the view" true
    (View.mem (Stack.view stacks.(1)) 3)

let test_consensus_state_bounded () =
  (* Every ordered cast runs consensus (the cut path); atomic broadcast has
     consensus forget each instance as it applies it, so the state held
     stays a few instances however many were decided. *)
  let engine, _net, stacks, applied = make_stacks ~n:3 ~seed:9L () in
  let casts = 2_000 in
  let live s =
    Gc_obs.Metrics.gauge (Stack.metrics s) "consensus.live_instances"
  in
  let peak = ref 0.0 in
  for k = 0 to casts - 1 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int k) (fun () ->
           Stack.abcast stacks.(k mod 3) (Op k);
           Array.iter (fun s -> peak := Float.max !peak (live s)) stacks))
  done;
  Engine.run ~until:60_000.0 engine;
  for i = 0 to 2 do
    check_int "all delivered" casts (List.length (history applied i))
  done;
  let decided =
    Gc_obs.Metrics.counter (Stack.metrics stacks.(0))
      "consensus.instances_decided"
  in
  check_bool
    (Printf.sprintf "many instances decided (%d)" decided)
    true (decided >= 100);
  check_bool (Printf.sprintf "live instances stay small (peak %.0f)" !peak)
    true (!peak <= 4.0);
  Array.iter
    (fun s -> check_bool "at most one live after quiescence" true (live s <= 1.0))
    stacks

let test_fast_path_after_rejoin () =
  (* A joiner's generic broadcast must drop every message the transferred
     delivered set covers.  An ordered straggler it received before the
     transfer would otherwise sit in its conflict index forever: it freezes
     the joiner on every commuting message, and since the stack's fast path
     needs every member's ack, the whole group loses the fast path. *)
  let config = Stack.Config.make ~state_transfer_delay:50.0 () in
  let engine, _net, stacks, _ =
    make_stacks ~config ~n:4 ~n_founders:(Some 3) ~seed:31L ()
  in
  let gb i = Stack.generic_broadcast stacks.(i) in
  let at time f = ignore (Engine.schedule engine ~delay:time f) in
  at 500.0 (fun () -> Stack.join stacks.(3) ~via:0);
  (* Mixed load across the join: every third op is ordered, and the
     founders take turns sending three ops each, so each sends both. *)
  for k = 0 to 600 do
    let sender = stacks.(k / 3 mod 3) in
    at
      (300.0 +. float_of_int (2 * k))
      (fun () ->
        if k mod 3 = 0 then Stack.abcast sender (Op k)
        else Stack.rbcast sender (Op k))
  done;
  at 3000.0 (fun () -> Stack.abcast stacks.(1) (Op 1000));
  Engine.run ~until:4000.0 engine;
  check_bool "joiner joined" true (Stack.joined stacks.(3));
  let fast0 = Array.init 4 (fun i -> Gb.fast_delivered_count (gb i)) in
  let stage0 = Array.init 4 (fun i -> Gb.stage (gb i)) in
  let commuting = 1000 in
  for k = 0 to commuting - 1 do
    at
      (float_of_int (2 * k))
      (fun () -> Stack.rbcast stacks.(k mod 4) (Op (2000 + k)))
  done;
  (* One ordered op ends the stage, which empties every conflict index
     of everything but dead entries. *)
  at 3000.0 (fun () -> Stack.abcast stacks.(2) (Op 1001));
  Engine.run ~until:30_000.0 engine;
  for i = 0 to 3 do
    let fast = Gb.fast_delivered_count (gb i) - fast0.(i) in
    let stages = Gb.stage (gb i) - stage0.(i) in
    check_bool
      (Printf.sprintf "node %d: %d of %d commuting ops fast" i fast commuting)
      true (fast >= 990);
    check_bool
      (Printf.sprintf "node %d: %d stage changes" i stages)
      true (stages <= 2)
  done;
  check_int "joiner's conflict index empty" 0
    (int_of_float
       (Gc_obs.Metrics.gauge (Stack.metrics stacks.(3))
          "gbcast.conflict_class_occupancy"))

(* The cut wait: with batching on, node 0 (rank 0) holds its stage-change
   proposal exactly [batch_delay] after it freezes, and the cut's abcast
   leaves the moment it is proposed; unbatched, it proposes in the instant
   it freezes.  Returns node 0's freeze, propose_cut and abcast send
   times for one ordered op on a 3-node stack. *)
let cut_times config =
  let engine = Engine.create ~seed:1L () in
  let trace = Trace.create ~enabled:true () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:3 () in
  let stacks =
    Array.init 3 (fun id ->
        Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id
          ~initial:[ 0; 1; 2 ] ~config ())
  in
  Stack.abcast stacks.(0) (Op 1);
  Engine.run ~until:1_000.0 engine;
  let once what = function
    | [ (r : Trace.record) ] -> r.time
    | l -> Alcotest.failf "node 0: %d %s events" (List.length l) what
  in
  let find = Trace.find trace ~node:0 in
  ( once "freeze" (find ~component:"gbcast" ~event:"freeze" ()),
    once "propose_cut" (find ~component:"gbcast" ~event:"propose_cut" ()),
    once "abcast send" (find ~component:"abcast" ~kind:Gc_obs.Event.Send ()) )

let test_cut_wait () =
  let ms = Alcotest.float 1e-9 in
  let config = Stack.default_config in
  let freeze, cut, send = cut_times config in
  Alcotest.check ms "cut proposed batch_delay after freeze"
    config.batch_delay (cut -. freeze);
  Alcotest.check ms "cut abcast when proposed" cut send;
  let freeze, cut, send = cut_times (Stack.Config.make ~batch_max:1 ()) in
  Alcotest.check ms "unbatched: cut proposed at freeze" freeze cut;
  Alcotest.check ms "unbatched: cut abcast when proposed" cut send

let suite =
  [
    ( "gcs-stack",
      [
        Alcotest.test_case "ordered broadcast" `Quick test_basic_ordered_broadcast;
        Alcotest.test_case "fast path after rejoin" `Quick
          test_fast_path_after_rejoin;
        Alcotest.test_case "consensus state bounded" `Quick
          test_consensus_state_bounded;
        Alcotest.test_case "rbcast fast and agreed" `Quick
          test_rbcast_fast_and_agreed;
        Alcotest.test_case "crash -> exclusion -> progress" `Slow
          test_crash_leads_to_exclusion_and_progress;
        Alcotest.test_case "wrong suspicion does not exclude" `Quick
          test_wrong_suspicion_does_not_exclude;
        Alcotest.test_case "join mid-stream" `Quick test_join_mid_stream;
        Alcotest.test_case "leave gracefully" `Quick test_leave_gracefully;
        Alcotest.test_case "mixed classes ordered" `Slow
          test_mixed_classes_order_against_each_other;
        Alcotest.test_case "adaptive consensus config" `Quick
          test_adaptive_consensus_config;
        Alcotest.test_case "two-thirds stack config" `Quick
          test_two_thirds_stack_config;
        Alcotest.test_case "second sponsor after sponsor crash" `Quick
          test_second_sponsor_after_sponsor_crash;
        Alcotest.test_case "cut waits batch_delay" `Quick test_cut_wait;
      ] );
  ]

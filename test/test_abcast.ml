(* Tests for atomic broadcast: uniform total order, agreement, integrity,
   progress under crash and under wrong suspicions, dynamic member sets. *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Process = Gc_kernel.Process
module Ab = Gc_abcast.Atomic_broadcast
open Support

type Gc_net.Payload.t += App of int

let as_app = function App k -> k | _ -> Alcotest.fail "unexpected payload"

let build ?(suspect_timeout = 200.0) w =
  let n = Array.length w.nodes in
  let logs = Array.make n [] in
  let abs =
    Array.mapi
      (fun i node ->
        let ab =
          Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
            ~suspect_timeout ~members:(ids n) ()
        in
        Ab.on_deliver ab (fun ~origin payload ->
            logs.(i) <- (origin, as_app payload) :: logs.(i));
        ab)
      w.nodes
  in
  (abs, logs)

let seq logs i = List.rev logs.(i)

(* Total order: one sequence is a prefix of the other (all-correct case:
   equality). *)
let assert_same_sequences ?(allow_prefix = false) logs is =
  match is with
  | [] -> ()
  | first :: rest ->
      let ref_seq = seq logs first in
      List.iter
        (fun i ->
          let s = seq logs i in
          if allow_prefix then begin
            let shorter, longer =
              if List.length s <= List.length ref_seq then (s, ref_seq)
              else (ref_seq, s)
            in
            let rec is_prefix a b =
              match (a, b) with
              | [], _ -> true
              | x :: xs, y :: ys -> x = y && is_prefix xs ys
              | _ :: _, [] -> false
            in
            check_bool "prefix order" true (is_prefix shorter longer)
          end
          else check_bool "same sequence" true (s = ref_seq))
        rest

let test_single_broadcast () =
  let w = make_world ~n:3 () in
  let abs, logs = build w in
  Ab.abcast abs.(0) (App 1);
  run_until w 10_000.0;
  for i = 0 to 2 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "node %d" i)
      [ (0, 1) ] (seq logs i)
  done

let test_total_order_concurrent_senders () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let abs, logs = build w in
      (* All nodes broadcast concurrently, several messages each. *)
      for k = 0 to 4 do
        Array.iteri
          (fun i ab ->
            ignore
              (Engine.schedule w.engine ~delay:(float_of_int (k * 7)) (fun () ->
                   Ab.abcast ab (App ((i * 100) + k)))))
          abs
      done;
      run_until w 60_000.0;
      check_int "all 15 delivered" 15 (List.length (seq logs 0));
      assert_same_sequences logs [ 0; 1; 2 ])

let test_integrity_no_duplicates () =
  let w = make_world ~seed:3L ~drop:0.2 ~n:3 () in
  let abs, logs = build w in
  for k = 0 to 9 do
    Ab.abcast abs.(k mod 3) (App k)
  done;
  run_until w 120_000.0;
  for i = 0 to 2 do
    let s = seq logs i in
    check_int "ten delivered" 10 (List.length s);
    check_int "no duplicates" 10 (List.length (List.sort_uniq compare s))
  done;
  assert_same_sequences logs [ 0; 1; 2 ]

let test_progress_with_crash () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let abs, logs = build w in
      Ab.abcast abs.(0) (App 1);
      Ab.abcast abs.(1) (App 2);
      ignore
        (Engine.schedule w.engine ~delay:3.0 (fun () ->
             Process.crash w.nodes.(0).proc));
      ignore
        (Engine.schedule w.engine ~delay:1000.0 (fun () ->
             Ab.abcast abs.(1) (App 3);
             Ab.abcast abs.(2) (App 4)));
      run_until w 60_000.0;
      (* Survivors agree; the post-crash broadcasts must get through. *)
      assert_same_sequences logs [ 1; 2 ];
      let s = seq logs 1 in
      check_bool "post-crash message delivered" true
        (List.exists (fun (_, v) -> v = 3) s && List.exists (fun (_, v) -> v = 4) s))

let test_wrong_suspicion_only_delays () =
  (* A delay spike triggers wrong suspicions; nothing is excluded and all
     messages still get totally ordered. *)
  let w = make_world ~seed:17L ~n:3 () in
  let abs, logs = build ~suspect_timeout:80.0 w in
  Netsim.delay_spike w.net ~nodes:[ 0 ] ~until:400.0 ~extra:200.0;
  for k = 0 to 5 do
    Ab.abcast abs.(k mod 3) (App k)
  done;
  run_until w 60_000.0;
  check_int "all delivered" 6 (List.length (seq logs 0));
  assert_same_sequences logs [ 0; 1; 2 ]

let test_uniform_prefix_on_crash_mid_delivery () =
  (* Whatever a process delivered before crashing must be a prefix of what
     the survivors deliver (uniform total order). *)
  for_seeds ~count:10 (fun seed ->
      let w = make_world ~seed ~n:3 ~drop:0.05 () in
      let abs, logs = build w in
      for k = 0 to 7 do
        Ab.abcast abs.(k mod 3) (App k)
      done;
      ignore
        (Engine.schedule w.engine ~delay:30.0 (fun () ->
             Process.crash w.nodes.(2).proc));
      run_until w 120_000.0;
      assert_same_sequences logs [ 0; 1 ];
      assert_same_sequences ~allow_prefix:true logs [ 0; 2 ])

let test_member_change_applies () =
  let w = make_world ~n:4 () in
  let abs, logs = build w in
  (* Shrink to three members at a fixed point of the total order by having
     every node react to the marker message. *)
  Array.iteri
    (fun _i ab ->
      Ab.on_deliver ab (fun ~origin:_ payload ->
          match payload with
          | App 99 -> Ab.set_members ab [ 0; 1; 2 ]
          | _ -> ()))
    abs;
  Ab.abcast abs.(0) (App 1);
  run_until w 5_000.0;
  Ab.abcast abs.(0) (App 99);
  run_until w 10_000.0;
  check_list_int "members updated" [ 0; 1; 2 ] (Ab.members abs.(0));
  (* Messages after the change still flow among the remaining members. *)
  Ab.abcast abs.(1) (App 2);
  run_until w 20_000.0;
  assert_same_sequences logs [ 0; 1; 2 ];
  check_int "three messages at node 0" 3 (List.length (seq logs 0))

let test_latency_failure_free () =
  (* Sanity envelope: with ~1.5 ms links an abcast should deliver within a
     few round trips, far below the failure-detection timeout. *)
  let w = make_world ~n:3 () in
  let abs, _logs = build w in
  let delivered_at = ref nan in
  Ab.on_deliver abs.(2) (fun ~origin:_ _ -> delivered_at := Engine.now w.engine);
  ignore
    (Engine.schedule w.engine ~delay:100.0 (fun () -> Ab.abcast abs.(0) (App 1)));
  run_until w 10_000.0;
  check_bool
    (Printf.sprintf "latency %.1fms < 30ms" (!delivered_at -. 100.0))
    true
    (!delivered_at -. 100.0 < 30.0)

let test_bootstrap_purges_pending () =
  (* Regression (state transfer): ids transferred as already-delivered must
     also be purged from the joiner's pending set, or every subsequent
     proposal re-proposes them forever. *)
  let w = make_world ~n:3 () in
  let abs, logs = build w in
  let links = [ (0, 2); (1, 2); (2, 0); (2, 1) ] in
  let set_drop d =
    List.iter (fun (src, dst) -> Netsim.set_link w.net ~src ~dst ~drop:d ()) links
  in
  Ab.abcast abs.(0) (App 1);
  (* Cut node 2 off after it has rdelivered the payload (~1.5 ms) but
     before the instance-0 decision reaches it (several round trips). *)
  ignore (Engine.schedule w.engine ~delay:3.0 (fun () -> set_drop 1.0));
  run_until w 10_000.0;
  check_int "survivors delivered" 1 (List.length (seq logs 0));
  check_int "node 2 missed the decision" 0 (List.length (seq logs 2));
  check_int "straggler parked in node 2's pending" 1 (Ab.pending_count abs.(2));
  (* State transfer from node 0, then heal the partition. *)
  Ab.bootstrap abs.(2)
    ~next_instance:(Ab.next_instance abs.(0))
    ~members:(Ab.members abs.(0))
    ~delivered:(Ab.delivered abs.(0));
  check_int "transferred ids purged from pending" 0 (Ab.pending_count abs.(2));
  set_drop 0.0;
  Ab.abcast abs.(1) (App 2);
  run_until w 40_000.0;
  (* The transferred id must not resurface: not in pending, not delivered
     twice anywhere, and the joiner delivers only the post-transfer
     message. *)
  check_int "pending still clean" 0 (Ab.pending_count abs.(2));
  assert_same_sequences logs [ 0; 1 ];
  Alcotest.(check (list (pair int int)))
    "node 0 delivered each exactly once"
    [ (0, 1); (1, 2) ]
    (seq logs 0);
  Alcotest.(check (list (pair int int)))
    "joiner delivered only the post-transfer message"
    [ (1, 2) ]
    (seq logs 2)

let test_bootstrap_forgets_below_transfer () =
  (* A joiner that started consensus instances before its state transfer
     overtook them keeps nothing below the transferred starting point: no
     round state, no decision, no backlog, no proposal marker, and late
     traffic for those instances is dropped. *)
  let w = make_world ~n:3 () in
  let abs, logs = build w in
  let links = [ (0, 2); (1, 2); (2, 0); (2, 1) ] in
  let set_drop d =
    List.iter (fun (src, dst) -> Netsim.set_link w.net ~src ~dst ~drop:d ()) links
  in
  Ab.abcast abs.(0) (App 1);
  (* Node 2 starts instance 0, then is cut off while nodes 0 and 1 go on
     to decide instances 1 and 2 without it. *)
  ignore (Engine.schedule w.engine ~delay:3.0 (fun () -> set_drop 1.0));
  ignore (Engine.schedule w.engine ~delay:1_000.0 (fun () -> Ab.abcast abs.(0) (App 2)));
  ignore (Engine.schedule w.engine ~delay:2_000.0 (fun () -> Ab.abcast abs.(1) (App 3)));
  run_until w 10_000.0;
  let k = Ab.next_instance abs.(0) in
  check_int "survivors applied three instances" 3 k;
  Alcotest.(check (option int)) "joiner holds instance 0" (Some 0)
    (Ab.lowest_held abs.(2));
  Ab.bootstrap abs.(2) ~next_instance:k ~members:(Ab.members abs.(0))
    ~delivered:(Ab.delivered abs.(0));
  let nothing_below k =
    match Ab.lowest_held abs.(2) with None -> true | Some i -> i >= k
  in
  check_bool "nothing held below the transfer point" true (nothing_below k);
  (* Heal: the survivors' retransmissions of instances 0..2 now reach the
     joiner, and must not resurrect them. *)
  set_drop 0.0;
  run_until w 20_000.0;
  check_bool "late pre-transfer traffic dropped" true (nothing_below k);
  Ab.abcast abs.(2) (App 4);
  run_until w 40_000.0;
  assert_same_sequences logs [ 0; 1 ];
  Alcotest.(check (list (pair int int)))
    "joiner delivered only the post-transfer message"
    [ (2, 4) ]
    (seq logs 2);
  check_bool "applied instances forgotten" true
    (nothing_below (Ab.next_instance abs.(2)))

let prop_total_order_random =
  QCheck.Test.make ~name:"abcast total order across random schedules" ~count:10
    QCheck.(pair small_nat (float_bound_inclusive 0.15))
    (fun (seed, drop) ->
      let n = 3 in
      let w = make_world ~seed:(Int64.of_int ((seed * 31) + 7)) ~drop ~n () in
      let abs, logs = build w in
      for k = 0 to 8 do
        let i = k mod n in
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 3)) (fun () ->
               Ab.abcast abs.(i) (App k)))
      done;
      Engine.run ~until:120_000.0 w.engine;
      List.length (seq logs 0) = 9
      && seq logs 0 = seq logs 1
      && seq logs 1 = seq logs 2)

let suite =
  [
    ( "abcast",
      [
        Alcotest.test_case "single broadcast" `Quick test_single_broadcast;
        Alcotest.test_case "total order concurrent senders" `Slow
          test_total_order_concurrent_senders;
        Alcotest.test_case "integrity no duplicates" `Quick
          test_integrity_no_duplicates;
        Alcotest.test_case "progress with crash" `Slow test_progress_with_crash;
        Alcotest.test_case "wrong suspicion only delays" `Quick
          test_wrong_suspicion_only_delays;
        Alcotest.test_case "uniform prefix on crash" `Slow
          test_uniform_prefix_on_crash_mid_delivery;
        Alcotest.test_case "member change applies" `Quick test_member_change_applies;
        Alcotest.test_case "failure-free latency envelope" `Quick
          test_latency_failure_free;
        Alcotest.test_case "bootstrap purges pending (state transfer)" `Quick
          test_bootstrap_purges_pending;
        Alcotest.test_case "bootstrap forgets instances below the transfer"
          `Quick test_bootstrap_forgets_below_transfer;
        QCheck_alcotest.to_alcotest prop_total_order_random;
      ] );
  ]

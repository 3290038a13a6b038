(* Tests for generic broadcast: fast path, generic order on conflicting
   pairs, the reduction properties (empty relation = reliable broadcast,
   total relation = atomic broadcast), thriftiness (no consensus without
   conflicts), and crash tolerance within f < n/3. *)

module Engine = Gc_sim.Engine
module Process = Gc_kernel.Process
module Ab = Gc_abcast.Atomic_broadcast
module Gb = Gc_gbcast.Generic_broadcast
module Conflict = Gc_gbcast.Conflict
open Support

type Gc_net.Payload.t += Update of int | Order of int

let value = function
  | Update k | Order k -> k
  | _ -> Alcotest.fail "unexpected payload"

let classify = function
  | Update _ -> Conflict.Commuting
  | Order _ -> Conflict.Ordered
  | _ -> Conflict.Ordered

let build ?(conflict = Conflict.two_class ~classify) w =
  let n = Array.length w.nodes in
  let logs = Array.make n [] in
  let abs =
    Array.map
      (fun node ->
        Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd ~members:(ids n)
          ())
      w.nodes
  in
  let gbs =
    Array.mapi
      (fun i node ->
        let gb =
          Gb.create node.proc ~rc:node.rc ~rb:node.rb ~ab:abs.(i)
            ~conflict ~members:(ids n) ()
        in
        Gb.on_deliver gb (fun ~origin:_ payload ->
            logs.(i) <- payload :: logs.(i));
        gb)
      w.nodes
  in
  (gbs, logs)

let seq logs i = List.rev logs.(i)
let values logs i = List.map value (seq logs i)

(* Generic order: every pair of conflicting messages delivered by two
   processes appears in the same relative order at both. *)
let assert_generic_order ~conflict logs is =
  let index_of s =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun idx m -> Hashtbl.replace tbl (value m) (idx, m)) s;
    tbl
  in
  let tables = List.map (fun i -> index_of (seq logs i)) is in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun (ta, tb) ->
      Hashtbl.iter
        (fun v (ia, ma) ->
          Hashtbl.iter
            (fun v' (ia', ma') ->
              if v < v' && Conflict.conflicts conflict ma ma' then
                match (Hashtbl.find_opt tb v, Hashtbl.find_opt tb v') with
                | Some (ib, _), Some (ib', _) ->
                    check_bool
                      (Printf.sprintf "conflicting %d/%d same order" v v')
                      true
                      (compare ia ia' = compare ib ib')
                | _ -> ())
            ta)
        ta)
    (pairs tables)

let test_fast_path_no_conflict () =
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  (* Only commuting updates: everything must fast-deliver, stage stays 0. *)
  for k = 0 to 9 do
    Gb.gbcast gbs.(k mod 3) (Update k)
  done;
  run_until w 30_000.0;
  for i = 0 to 2 do
    check_int "all delivered" 10 (List.length (seq logs i));
    check_int "no stage change" 0 (Gb.stage gbs.(i))
  done;
  check_int "all fast at node 0" 10 (Gb.fast_delivered_count gbs.(0))

let test_same_delivered_set_any_relation () =
  for_seeds ~count:6 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let gbs, logs = build w in
      for k = 0 to 7 do
        let payload = if k mod 3 = 0 then Order k else Update k in
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 2)) (fun () ->
               Gb.gbcast gbs.(k mod 3) payload))
      done;
      run_until w 60_000.0;
      let sets i = List.sort compare (values logs i) in
      check_bool "agreement on delivered set" true
        (sets 0 = sets 1 && sets 1 = sets 2);
      check_int "all delivered" 8 (List.length (sets 0)))

let test_generic_order_class_relation () =
  for_seeds ~count:10 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let conflict = Conflict.two_class ~classify in
      let gbs, logs = build ~conflict w in
      for k = 0 to 11 do
        let payload = if k mod 4 = 0 then Order k else Update k in
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int k) (fun () ->
               Gb.gbcast gbs.(k mod 3) payload))
      done;
      run_until w 60_000.0;
      check_int "all delivered" 12 (List.length (seq logs 0));
      assert_generic_order ~conflict logs [ 0; 1; 2 ])

let test_total_relation_is_total_order () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let gbs, logs = build ~conflict:Conflict.all w in
      for k = 0 to 8 do
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 2)) (fun () ->
               Gb.gbcast gbs.(k mod 3) (Update k)))
      done;
      run_until w 60_000.0;
      check_int "all delivered" 9 (List.length (values logs 0));
      check_bool "identical sequences (total order)" true
        (values logs 0 = values logs 1 && values logs 1 = values logs 2))

let test_empty_relation_no_consensus () =
  let w = make_world ~seed:5L ~n:3 () in
  let gbs, logs = build ~conflict:Conflict.none w in
  for k = 0 to 9 do
    Gb.gbcast gbs.(k mod 3) (Order k) (* class irrelevant: relation empty *)
  done;
  run_until w 30_000.0;
  for i = 0 to 2 do
    check_int "all delivered" 10 (List.length (seq logs i));
    check_int "stage untouched" 0 (Gb.stage gbs.(i))
  done

let test_conflict_triggers_exactly_stage_change () =
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  Gb.gbcast gbs.(0) (Update 1);
  Gb.gbcast gbs.(1) (Order 2);
  run_until w 30_000.0;
  for i = 0 to 2 do
    check_int "both delivered" 2 (List.length (seq logs i));
    check_bool "stage advanced" true (Gb.stage gbs.(i) >= 1)
  done;
  assert_generic_order ~conflict:(Conflict.two_class ~classify) logs [ 0; 1; 2 ]

let test_resumes_fast_path_after_conflict () =
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  Gb.gbcast gbs.(0) (Update 1);
  Gb.gbcast gbs.(1) (Order 2);
  run_until w 30_000.0;
  let fast_before = Gb.fast_delivered_count gbs.(0) in
  let stage_before = Gb.stage gbs.(0) in
  for k = 10 to 14 do
    Gb.gbcast gbs.(k mod 3) (Update k)
  done;
  run_until w 60_000.0;
  check_int "post-conflict updates delivered" 7 (List.length (seq logs 0));
  check_int "no further stage change" stage_before (Gb.stage gbs.(0));
  check_bool "post-conflict updates were fast" true
    (Gb.fast_delivered_count gbs.(0) >= fast_before + 5)

let test_crash_tolerated_n4 () =
  (* f < n/3 for the fast path: with n = 4 one crash must not block generic
     broadcast, including stage changes. *)
  for_seeds ~count:6 (fun seed ->
      let w = make_world ~seed ~n:4 () in
      let gbs, logs = build w in
      Gb.gbcast gbs.(0) (Update 1);
      ignore
        (Engine.schedule w.engine ~delay:50.0 (fun () ->
             Process.crash w.nodes.(3).proc));
      ignore
        (Engine.schedule w.engine ~delay:1000.0 (fun () ->
             Gb.gbcast gbs.(1) (Update 2);
             Gb.gbcast gbs.(2) (Order 3)));
      run_until w 120_000.0;
      for i = 0 to 2 do
        check_int
          (Printf.sprintf "survivor %d delivered all" i)
          3
          (List.length (seq logs i))
      done;
      assert_generic_order ~conflict:(Conflict.two_class ~classify) logs [ 0; 1; 2 ])

let test_fig8_scenario_two_outcomes () =
  (* Figure 8 of the paper: an update and a primary-change are broadcast
     concurrently.  Either all processes deliver update first, or all deliver
     primary-change first — never a mix. *)
  let update_first = ref 0 and change_first = ref 0 in
  for_seeds ~count:20 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let gbs, logs = build w in
      ignore
        (Engine.schedule w.engine ~delay:100.0 (fun () ->
             Gb.gbcast gbs.(0) (Update 1)));
      ignore
        (Engine.schedule w.engine ~delay:100.5 (fun () ->
             Gb.gbcast gbs.(1) (Order 2)));
      run_until w 60_000.0;
      let orderings =
        List.map
          (fun i ->
            match values logs i with
            | [ 1; 2 ] -> `Update_first
            | [ 2; 1 ] -> `Change_first
            | l -> Alcotest.failf "bad delivery %d msgs" (List.length l))
          [ 0; 1; 2 ]
      in
      (match orderings with
      | [ a; b; c ] when a = b && b = c ->
          if a = `Update_first then incr update_first else incr change_first
      | _ -> Alcotest.fail "processes disagree on conflicting order"))

(* The ack tallies forget delivered messages: after 10k commuting
   messages at n = 4 (quorum 3, so every message gets a late fourth ack
   after it is delivered) no tally is left behind.  The class counters
   keep the conflict probe O(classes) over the long conflict-free stage. *)
let test_ack_tallies_bounded () =
  let w = make_world ~n:4 () in
  let gbs, logs = build w in
  let total = 10_000 in
  for k = 0 to total - 1 do
    ignore
      (Engine.schedule w.engine ~delay:(float_of_int k *. 0.5) (fun () ->
           Gb.gbcast gbs.(k mod 4) (Update k)))
  done;
  let peak = ref 0 in
  let rec sample () =
    peak := max !peak (Gb.ack_tallies gbs.(0));
    if Engine.now w.engine < float_of_int total then
      ignore (Engine.schedule w.engine ~delay:50.0 sample)
  in
  sample ();
  run_until w 60_000.0;
  for i = 0 to 3 do
    check_int "all delivered" total (List.length logs.(i));
    check_int "no tally left" 0 (Gb.ack_tallies gbs.(i))
  done;
  check_bool "in-flight tallies stay small" true (!peak < 200)

(* The latency histograms subtract a submit-time stamp that the origin
   keeps on its own clock, so only the origin may observe them.  Node
   [i]'s clock here runs [i * 5000] ms ahead, as separately started
   servers' clocks do on the unix backend; a replica subtracting another
   origin's stamp would record about +-5000 ms.  Generic broadcast runs
   unbatched and with [batch_max = 3], so its stamps are also found
   through multi-message containers. *)
let latency_on_origin_clock batch_max =
  let n = 3 in
  let skew i (r : Gc_kernel.Runtime.t) =
    { r with now = (fun () -> r.now () +. (5000.0 *. float_of_int i)) }
  in
  let w = make_world ~n ~wrap:skew () in
  let abs =
    Array.map
      (fun node ->
        Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
          ~members:(ids n) ())
      w.nodes
  in
  let gbs =
    Array.mapi
      (fun i node ->
        Gb.create node.proc ~rc:node.rc ~rb:node.rb ~ab:abs.(i)
          ~conflict:(Conflict.two_class ~classify)
          ~batch_max ~members:(ids n) ())
      w.nodes
  in
  Array.iteri
    (fun i gb ->
      Gb.gbcast gb (Update i);
      Gb.gbcast gb (Order (10 + i));
      Ab.abcast abs.(i) (Order (20 + i)))
    gbs;
  run_until w 30_000.0;
  let module M = Gc_obs.Metrics in
  Array.iteri
    (fun i node ->
      let m = Process.metrics node.proc in
      check_int "all gbcasts delivered" (2 * n) (M.counter m "gbcast.delivered");
      check_int "gbcasts originated" 2 (M.counter m "gbcast.submitted");
      List.iter
        (fun (hist, submitted) ->
          let what =
            Printf.sprintf "batch_max %d node %d %s" batch_max i hist
          in
          check_int (what ^ " counts own messages") (M.counter m submitted)
            (M.hist_count m hist);
          match M.view m hist with
          | Some (M.V_hist h) ->
              check_bool (what ^ " min >= 0") true (h.hv_min >= 0.0);
              check_bool (what ^ " max < 1000") true (h.hv_max < 1000.0)
          | _ -> Alcotest.failf "%s missing" what)
        [
          ("gbcast.latency_ms", "gbcast.submitted");
          ("abcast.latency_ms", "abcast.submitted");
        ])
    w.nodes

let test_latency_on_origin_clock () =
  List.iter latency_on_origin_clock [ 1; 3 ]

let prop_generic_order_random =
  QCheck.Test.make ~name:"generic order across random mixed workloads" ~count:8
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, order_every) ->
      let conflict = Conflict.two_class ~classify in
      let n = 3 in
      let w = make_world ~seed:(Int64.of_int ((seed * 131) + 3)) ~n () in
      let gbs, logs = build ~conflict w in
      for k = 0 to 9 do
        let payload = if k mod (order_every + 1) = 0 then Order k else Update k in
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 2)) (fun () ->
               Gb.gbcast gbs.(k mod n) payload))
      done;
      Engine.run ~until:120_000.0 w.engine;
      let sets i = List.sort compare (values logs i) in
      let ok_sets = sets 0 = sets 1 && sets 1 = sets 2 && List.length (sets 0) = 10 in
      (* Reuse the alcotest-style checker; failures raise. *)
      if ok_sets then assert_generic_order ~conflict logs [ 0; 1; 2 ];
      ok_sets)

let suite =
  [
    ( "gbcast",
      [
        Alcotest.test_case "fast path no conflict" `Quick test_fast_path_no_conflict;
        Alcotest.test_case "same delivered set" `Quick
          test_same_delivered_set_any_relation;
        Alcotest.test_case "generic order (class relation)" `Slow
          test_generic_order_class_relation;
        Alcotest.test_case "total relation gives total order" `Slow
          test_total_relation_is_total_order;
        Alcotest.test_case "empty relation no consensus" `Quick
          test_empty_relation_no_consensus;
        Alcotest.test_case "conflict triggers stage change" `Quick
          test_conflict_triggers_exactly_stage_change;
        Alcotest.test_case "fast path resumes after conflict" `Quick
          test_resumes_fast_path_after_conflict;
        Alcotest.test_case "crash tolerated at n=4" `Slow test_crash_tolerated_n4;
        Alcotest.test_case "figure 8: two consistent outcomes" `Slow
          test_fig8_scenario_two_outcomes;
        Alcotest.test_case "ack tallies stay bounded" `Quick
          test_ack_tallies_bounded;
        Alcotest.test_case "latency read on the origin's clock" `Quick
          test_latency_on_origin_clock;
        QCheck_alcotest.to_alcotest prop_generic_order_random;
      ] );
  ]

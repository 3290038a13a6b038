(* Tests for Chandra–Toueg consensus: validity, (uniform) agreement,
   termination — failure-free, with coordinator crash, with wrong suspicions,
   with concurrent instances, across random schedules. *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Process = Gc_kernel.Process
module Consensus = Gc_consensus.Consensus
open Support

type Gc_net.Payload.t += Val of int

let as_val = function Val k -> k | _ -> Alcotest.fail "unexpected payload"

(* Build consensus on every node of a world; returns the instances plus a
   per-node log of (inst, value) decisions. *)
let build ?(suspect_timeout = 200.0) w =
  let n = Array.length w.nodes in
  let logs = Array.make n [] in
  let conss =
    Array.mapi
      (fun i node ->
        Consensus.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
          ~suspect_timeout
          ~on_decide:(fun ~inst v -> logs.(i) <- (inst, as_val v) :: logs.(i))
          ~on_solicit:(fun ~inst:_ -> ())
          ())
      w.nodes
  in
  (conss, logs)

let decisions logs i = List.sort compare logs.(i)

let test_failure_free_agreement () =
  let w = make_world ~n:3 () in
  let conss, logs = build w in
  Array.iteri
    (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 3) (Val (100 + i)))
    conss;
  run_until w 10_000.0;
  let d0 = decisions logs 0 in
  check_int "one decision" 1 (List.length d0);
  let _, v = List.hd d0 in
  check_bool "validity: decided value was proposed" true (v >= 100 && v <= 102);
  for i = 1 to 2 do
    check_bool "agreement" true (decisions logs i = d0)
  done

let test_single_proposer_solicits_others () =
  (* Only node 0 proposes; the others join reactively via on_solicit. *)
  let w = make_world ~n:3 () in
  let n = 3 in
  let logs = Array.make n [] in
  let conss = Array.make n None in
  Array.iteri
    (fun i node ->
      let c =
        Consensus.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
          ~on_decide:(fun ~inst v -> logs.(i) <- (inst, as_val v) :: logs.(i))
          ~on_solicit:(fun ~inst ->
            match conss.(i) with
            | Some c -> Consensus.propose c ~inst ~members:(ids n) (Val (200 + i))
            | None -> ())
          ()
      in
      conss.(i) <- Some c)
    w.nodes;
  (match conss.(0) with
  | Some c -> Consensus.propose c ~inst:0 ~members:(ids n) (Val 100)
  | None -> ());
  run_until w 10_000.0;
  for i = 0 to n - 1 do
    check_int (Printf.sprintf "node %d decided" i) 1 (List.length logs.(i))
  done;
  let all_same =
    Array.for_all (fun l -> decisions logs 0 = List.sort compare l) logs
  in
  check_bool "agreement" true all_same

let test_coordinator_crash_terminates () =
  (* Node 0 coordinates round 1 of instance 0; crash it before it can
     decide.  The rotating coordinator must take over. *)
  let w = make_world ~n:3 () in
  let conss, logs = build w in
  Process.crash w.nodes.(0).proc;
  Array.iteri
    (fun i c ->
      if i > 0 then Consensus.propose c ~inst:0 ~members:(ids 3) (Val (100 + i)))
    conss;
  run_until w 30_000.0;
  for i = 1 to 2 do
    check_int (Printf.sprintf "node %d decided" i) 1 (List.length logs.(i))
  done;
  check_bool "agreement" true (decisions logs 1 = decisions logs 2)

let test_crash_during_round () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:5 () in
      let conss, logs = build w in
      Array.iteri
        (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 5) (Val (100 + i)))
        conss;
      (* Crash the round-1 coordinator a few ms into the protocol. *)
      ignore
        (Engine.schedule w.engine ~delay:2.0 (fun () ->
             Process.crash w.nodes.(0).proc));
      run_until w 60_000.0;
      let reference = ref None in
      for i = 1 to 4 do
        check_int (Printf.sprintf "node %d decided (seed)" i) 1
          (List.length logs.(i));
        match !reference with
        | None -> reference := Some (decisions logs i)
        | Some r -> check_bool "agreement" true (decisions logs i = r)
      done)

let test_wrong_suspicions_safe () =
  (* Aggressive timeout + delay spikes: lots of wrong suspicions; safety
     must hold and the instance must still decide. *)
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let conss, logs = build ~suspect_timeout:60.0 w in
      Netsim.delay_spike w.net ~nodes:[ 0 ] ~until:300.0 ~extra:150.0;
      Array.iteri
        (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 3) (Val (100 + i)))
        conss;
      run_until w 60_000.0;
      let d0 = decisions logs 0 in
      check_int "decided despite suspicion churn" 1 (List.length d0);
      for i = 1 to 2 do
        check_bool "agreement" true (decisions logs i = d0)
      done)

let test_concurrent_instances () =
  let w = make_world ~n:3 () in
  let conss, logs = build w in
  for inst = 0 to 4 do
    Array.iteri
      (fun i c ->
        Consensus.propose c ~inst ~members:(ids 3) (Val ((inst * 10) + i)))
      conss
  done;
  run_until w 30_000.0;
  let d0 = decisions logs 0 in
  check_int "all five instances decided" 5 (List.length d0);
  for i = 1 to 2 do
    check_bool "agreement across instances" true (decisions logs i = d0)
  done;
  (* Instances are independent: each decision belongs to its own instance. *)
  List.iter
    (fun (inst, v) -> check_bool "validity per instance" true (v / 10 = inst))
    d0

let test_score_prefers_higher () =
  (* All stamps equal in round 1; the coordinator must adopt the estimate
     with the highest score. *)
  let w = make_world ~n:3 () in
  let n = 3 in
  let logs = Array.make n [] in
  let conss =
    Array.mapi
      (fun i node ->
        Consensus.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
          ~score:(fun v -> as_val v)
          ~on_decide:(fun ~inst v -> logs.(i) <- (inst, as_val v) :: logs.(i))
          ~on_solicit:(fun ~inst:_ -> ())
          ())
      w.nodes
  in
  Array.iteri
    (fun i c -> Consensus.propose c ~inst:0 ~members:(ids n) (Val (100 + i)))
    conss;
  run_until w 10_000.0;
  (* Round-1 coordinator is node 0; it collects a majority of estimates that
     always includes its own plus at least one other.  With score = value it
     picks the largest value it saw; across schedules that is 101 or 102 —
     never 100. *)
  (match decisions logs 0 with
  | [ (0, v) ] -> check_bool "high score preferred" true (v > 100)
  | _ -> Alcotest.fail "expected one decision");
  check_bool "agreement" true (decisions logs 1 = decisions logs 0)

let test_late_proposer_noop () =
  let w = make_world ~n:3 () in
  let conss, logs = build w in
  Array.iteri
    (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 3) (Val (100 + i)))
    conss;
  run_until w 10_000.0;
  let before = decisions logs 0 in
  (* Propose again after decision: must not decide twice. *)
  Consensus.propose conss.(0) ~inst:0 ~members:(ids 3) (Val 999);
  run_until w 20_000.0;
  check_bool "no second decision" true (decisions logs 0 = before)

let test_forgotten_instance_drops_late_traffic () =
  (* Once the floor passes an instance, late copies of its traffic — a
     start, an estimate, a decision — neither decide again nor solicit nor
     park in the backlog, and a late proposal starts nothing. *)
  let w = make_world ~n:3 () in
  let n = 3 in
  let logs = Array.make n [] in
  let solicits = ref 0 in
  let conss =
    Array.mapi
      (fun i node ->
        Consensus.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
          ~on_decide:(fun ~inst v -> logs.(i) <- (inst, as_val v) :: logs.(i))
          ~on_solicit:(fun ~inst:_ -> if i = 0 then incr solicits)
          ())
      w.nodes
  in
  (* Node 0 coordinates round 1: record the consensus traffic it receives,
     by kind and sender, so it can be sent again once the instance is gone. *)
  let recording = ref true and late = ref [] in
  let record src p =
    let s = Gc_net.Payload.to_string p in
    let kind =
      match String.index_opt s '[' with Some i -> String.sub s 0 i | None -> s
    in
    if !recording && String.starts_with ~prefix:"cs." kind then
      late := (kind, src, p) :: !late
  in
  Rc.on_deliver w.nodes.(0).rc (fun ~src p -> record src p);
  Rb.on_deliver w.nodes.(0).rb (fun ~origin p -> record origin p);
  Array.iteri
    (fun i c -> Consensus.propose c ~inst:0 ~members:(ids n) (Val (100 + i)))
    conss;
  run_until w 10_000.0;
  recording := false;
  let before = decisions logs 0 in
  check_int "decided once" 1 (List.length before);
  List.iter
    (fun k ->
      check_bool ("captured a late " ^ k) true
        (List.exists (fun (kind, _, _) -> kind = k) !late))
    [ "cs.start"; "cs.est"; "cs.decide" ];
  let held () = Consensus.lowest_held conss.(0) in
  Alcotest.(check (option int)) "decided mark held below the floor" (Some 0)
    (held ());
  Consensus.forget_below conss.(0) ~inst:1;
  Alcotest.(check (option int)) "forgotten" None (held ());
  let started () =
    Gc_obs.Metrics.counter
      (Process.metrics w.nodes.(0).proc)
      "consensus.instances_started"
  in
  let started_before = started () and solicits_before = !solicits in
  List.iter
    (fun (kind, src, p) ->
      if kind = "cs.decide" then Rb.broadcast w.nodes.(src).rb ~dests:[ 0 ] p
      else Rc.send w.nodes.(src).rc ~dst:0 p)
    (List.rev !late);
  Consensus.propose conss.(0) ~inst:0 ~members:(ids n) (Val 999);
  run_until w 20_000.0;
  check_bool "no second decision" true (decisions logs 0 = before);
  check_int "no solicitation" solicits_before !solicits;
  check_int "late proposal started nothing" started_before (started ());
  Alcotest.(check (option int)) "nothing parked" None (held ())

let test_two_crashes_n5 () =
  (* f = 2 < n/2 at n = 5: still decides. *)
  for_seeds ~count:6 (fun seed ->
      let w = make_world ~seed ~n:5 () in
      let conss, logs = build w in
      Array.iteri
        (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 5) (Val (100 + i)))
        conss;
      ignore
        (Engine.schedule w.engine ~delay:5.0 (fun () ->
             Process.crash w.nodes.(0).proc));
      ignore
        (Engine.schedule w.engine ~delay:150.0 (fun () ->
             Process.crash w.nodes.(1).proc));
      run_until w 60_000.0;
      let reference = decisions logs 2 in
      check_int "decided with two crashes" 1 (List.length reference);
      for i = 3 to 4 do
        check_bool "agreement" true (decisions logs i = reference)
      done)

let test_minority_partition_never_decides () =
  (* Safety under partition: the side without a majority cannot decide; the
     majority side does; after healing the minority adopts the same
     decision. *)
  for_seeds ~count:5 (fun seed ->
      let w = make_world ~seed ~n:5 () in
      let conss, logs = build w in
      Netsim.partition w.net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
      Array.iteri
        (fun i c -> Consensus.propose c ~inst:0 ~members:(ids 5) (Val (100 + i)))
        conss;
      run_until w 20_000.0;
      check_int "minority blocked" 0 (List.length (decisions logs 0));
      check_int "majority decided" 1 (List.length (decisions logs 2));
      Netsim.heal w.net;
      run_until w 60_000.0;
      check_bool "minority converges after heal" true
        (decisions logs 0 = decisions logs 2
        && decisions logs 1 = decisions logs 2))

let prop_agreement_random_schedules =
  QCheck.Test.make ~name:"consensus agreement across random schedules" ~count:12
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, crash_idx) ->
      let n = 5 in
      let w = make_world ~seed:(Int64.of_int (seed * 7919)) ~drop:0.05 ~n () in
      let logs = Array.make n [] in
      let conss =
        Array.mapi
          (fun i node ->
            Consensus.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
              ~on_decide:(fun ~inst v -> logs.(i) <- (inst, as_val v) :: logs.(i))
              ~on_solicit:(fun ~inst:_ -> ())
              ())
          w.nodes
      in
      Array.iteri
        (fun i c -> Consensus.propose c ~inst:0 ~members:(ids n) (Val (100 + i)))
        conss;
      ignore
        (Engine.schedule w.engine ~delay:(float_of_int (seed mod 50)) (fun () ->
             Process.crash w.nodes.(crash_idx).proc));
      Engine.run ~until:120_000.0 w.engine;
      (* All survivors decided the same single value, and it was proposed. *)
      let ok = ref true in
      let reference = ref None in
      for i = 0 to n - 1 do
        if i <> crash_idx then begin
          (match logs.(i) with
          | [ (0, v) ] ->
              if v < 100 || v > 104 then ok := false;
              (match !reference with
              | None -> reference := Some v
              | Some r -> if r <> v then ok := false)
          | _ -> ok := false)
        end
      done;
      !ok)

let suite =
  [
    ( "consensus",
      [
        Alcotest.test_case "failure-free agreement" `Quick
          test_failure_free_agreement;
        Alcotest.test_case "single proposer solicits others" `Quick
          test_single_proposer_solicits_others;
        Alcotest.test_case "coordinator crash terminates" `Quick
          test_coordinator_crash_terminates;
        Alcotest.test_case "crash during round (seeds)" `Slow
          test_crash_during_round;
        Alcotest.test_case "wrong suspicions safe (seeds)" `Slow
          test_wrong_suspicions_safe;
        Alcotest.test_case "concurrent instances" `Quick test_concurrent_instances;
        Alcotest.test_case "score prefers higher" `Quick test_score_prefers_higher;
        Alcotest.test_case "late proposer noop" `Quick test_late_proposer_noop;
        Alcotest.test_case "forgotten instance drops late traffic" `Quick
          test_forgotten_instance_drops_late_traffic;
        Alcotest.test_case "two crashes at n=5" `Slow test_two_crashes_n5;
        Alcotest.test_case "minority partition never decides" `Slow
          test_minority_partition_never_decides;
        QCheck_alcotest.to_alcotest prop_agreement_random_schedules;
      ] );
  ]

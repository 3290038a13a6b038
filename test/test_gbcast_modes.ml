(* Tests specific to the generic-broadcast quorum modes (DESIGN.md D5):
   All_members keeps everything but the fast path live with f < n/2;
   ordered-class (self-conflicting) messages ride the consensus-backed cut
   and never wait for the fast path. *)

module Engine = Gc_sim.Engine
module Process = Gc_kernel.Process
module Ab = Gc_abcast.Atomic_broadcast
module Gb = Gc_gbcast.Generic_broadcast
module Conflict = Gc_gbcast.Conflict
open Support

type Gc_net.Payload.t += Commute of int | Strict of int

let value = function
  | Commute k | Strict k -> k
  | _ -> Alcotest.fail "unexpected payload"

let classify = function
  | Commute _ -> Conflict.Commuting
  | _ -> Conflict.Ordered

let build ?(ack_mode = Gb.All_members) w =
  let n = Array.length w.nodes in
  let logs = Array.make n [] in
  let gbs =
    Array.mapi
      (fun i node ->
        let ab =
          Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd ~members:(ids n)
            ()
        in
        let gb =
          Gb.create node.proc ~rc:node.rc ~rb:node.rb ~ab
            ~conflict:(Conflict.two_class ~classify)
            ~ack_mode ~members:(ids n) ()
        in
        Gb.on_deliver gb (fun ~origin:_ payload -> logs.(i) <- payload :: logs.(i));
        gb)
      w.nodes
  in
  (gbs, logs)

let seq logs i = List.rev_map value logs.(i) |> List.rev

let test_all_members_ordered_with_dead_member () =
  (* n = 3, one member dead: Two_thirds would block; All_members routes
     ordered messages through the cut (consensus, f < n/2) and stays live. *)
  for_seeds ~count:6 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let gbs, logs = build w in
      Process.crash w.nodes.(2).proc;
      Gb.gbcast gbs.(0) (Strict 1);
      Gb.gbcast gbs.(1) (Strict 2);
      run_until w 30_000.0;
      for i = 0 to 1 do
        check_int "both delivered" 2 (List.length (seq logs i))
      done;
      check_bool "same total order" true (seq logs 0 = seq logs 1))

let test_all_members_commuting_blocks_until_exclusion () =
  (* A commuting message with a dead member cannot gather all acks; an
     exclusion (simulated by set_members) releases it. *)
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  Process.crash w.nodes.(2).proc;
  Gb.gbcast gbs.(0) (Commute 7);
  run_until w 5_000.0;
  check_int "stalled while dead member counted" 0 (List.length (seq logs 1));
  (* Membership above excludes the dead member: an ordered message (as a
     view change would be) sweeps the pending commuting message through the
     cut, and the shrunken quorum applies afterwards. *)
  Gb.set_members gbs.(0) [ 0; 1 ];
  Gb.set_members gbs.(1) [ 0; 1 ];
  Gb.gbcast gbs.(0) (Strict 99);
  run_until w 30_000.0;
  check_bool "released" true (List.mem 7 (seq logs 1));
  check_bool "agreement" true
    (List.sort compare (seq logs 0) = List.sort compare (seq logs 1))

let test_all_members_ordered_never_fast () =
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  for k = 0 to 4 do
    Gb.gbcast gbs.(k mod 3) (Strict k)
  done;
  run_until w 30_000.0;
  check_int "all delivered" 5 (List.length (seq logs 0));
  check_int "zero fast deliveries" 0 (Gb.fast_delivered_count gbs.(0));
  check_bool "stages advanced" true (Gb.stage gbs.(0) >= 1)

let test_all_members_commuting_is_fast () =
  let w = make_world ~n:3 () in
  let gbs, logs = build w in
  for k = 0 to 4 do
    Gb.gbcast gbs.(k mod 3) (Commute k)
  done;
  run_until w 30_000.0;
  check_int "all delivered" 5 (List.length (seq logs 0));
  check_int "all fast" 5 (Gb.fast_delivered_count gbs.(0));
  check_int "no stage change" 0 (Gb.stage gbs.(0))

let test_generic_order_all_members_mixed () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:3 () in
      let gbs, logs = build w in
      for k = 0 to 9 do
        let payload = if k mod 3 = 0 then Strict k else Commute k in
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 3)) (fun () ->
               Gb.gbcast gbs.(k mod 3) payload))
      done;
      run_until w 60_000.0;
      check_int "all delivered" 10 (List.length (seq logs 0));
      (* Conflicting pairs in consistent relative order everywhere. *)
      let pos i =
        let tbl = Hashtbl.create 16 in
        List.iteri (fun idx v -> Hashtbl.replace tbl v idx) (seq logs i);
        tbl
      in
      let p0 = pos 0 in
      List.iter
        (fun i ->
          let pi = pos i in
          for a = 0 to 9 do
            for b = a + 1 to 9 do
              if a mod 3 = 0 || b mod 3 = 0 then
                match
                  ( Hashtbl.find_opt p0 a, Hashtbl.find_opt p0 b,
                    Hashtbl.find_opt pi a, Hashtbl.find_opt pi b )
                with
                | Some x, Some y, Some x', Some y' ->
                    check_bool
                      (Printf.sprintf "pair %d/%d" a b)
                      true
                      (compare x y = compare x' y')
                | _ -> Alcotest.fail "missing delivery"
            done
          done)
        [ 1; 2 ])

let test_two_thirds_quorum_sizes () =
  (* White-box arithmetic check through behaviour: at n = 4 with one dead
     member, Two_thirds still fast-delivers commuting messages (3 acks =
     quorum). *)
  let w = make_world ~n:4 () in
  let gbs, logs = build ~ack_mode:Gb.Two_thirds w in
  Process.crash w.nodes.(3).proc;
  Gb.gbcast gbs.(0) (Commute 1);
  run_until w 30_000.0;
  for i = 0 to 2 do
    check_int "delivered with 3/4 alive" 1 (List.length (seq logs i))
  done;
  check_bool "fast" true (Gb.fast_delivered_count gbs.(0) >= 1)

(* ---------- conflict-relation properties (random mixes) ----------

   The paper's claim for generic broadcast (Section 4.2): replicas agree
   on everything that conflicts, and consensus is spent only when the
   workload actually conflicts.  We drive random commuting/ordered mixes
   and check both sides. *)

(* Replica state that is sensitive to exactly the conflict relation:
   ordered deliveries fold into an order-dependent hash, commuting ones
   are kept as a multiset tagged with the ordered-prefix hash at their
   delivery (commuting messages may interleave among themselves, but not
   move across an ordered message). *)
let replica_state deliveries =
  let strict_hash = ref 0 and commuting = ref [] in
  List.iter
    (fun p ->
      match p with
      | Strict k -> strict_hash := (!strict_hash * 31) + k + 1
      | Commute k -> commuting := (k, !strict_hash) :: !commuting
      | _ -> ())
    deliveries;
  (!strict_hash, List.sort compare !commuting)

let run_mix seed mix =
  let n = 3 in
  let w = make_world ~seed ~n () in
  let gbs, logs = build w in
  List.iteri
    (fun k strict ->
      let payload = if strict then Strict k else Commute k in
      ignore
        (Engine.schedule w.engine ~delay:(float_of_int (k * 5)) (fun () ->
             Gb.gbcast gbs.(k mod n) payload)))
    mix;
  run_until w 60_000.0;
  (gbs, Array.init n (fun i -> List.rev logs.(i)))

let prop_conflict_relation_state =
  QCheck.Test.make
    ~name:"random mixes: identical replica state on every node" ~count:12
    QCheck.(pair small_nat (list_of_size Gen.(2 -- 10) bool))
    (fun (s, mix) ->
      QCheck.assume (mix <> []);
      let seed = Int64.of_int (7000 + s) in
      let _, deliveries = run_mix seed mix in
      let total = List.length mix in
      Array.for_all (fun l -> List.length l = total) deliveries
      && Array.for_all
           (fun l -> replica_state l = replica_state deliveries.(0))
           deliveries)

let prop_consensus_only_for_conflicts =
  QCheck.Test.make
    ~name:"random mixes: consensus spent only on conflicting traffic"
    ~count:12
    QCheck.(pair small_nat (list_of_size Gen.(2 -- 10) bool))
    (fun (s, mix) ->
      QCheck.assume (mix <> []);
      let seed = Int64.of_int (8000 + s) in
      let gbs, deliveries = run_mix seed mix in
      let stricts = List.length (List.filter Fun.id mix) in
      let total = List.length mix in
      List.length deliveries.(0) = total
      &&
      if stricts = 0 then
        (* Pure commuting workload: everything fast, zero cuts. *)
        Gb.stage gbs.(0) = 0 && Gb.fast_delivered_count gbs.(0) = total
      else
        (* Cuts happen, but never more than the conflicting messages
           could require (each cut carries >= 1 ordered message). *)
        Gb.stage gbs.(0) >= 1 && Gb.stage gbs.(0) <= stricts)

let suite =
  [
    ( "gbcast-modes",
      [
        Alcotest.test_case "all-members: ordered live with dead member" `Slow
          test_all_members_ordered_with_dead_member;
        Alcotest.test_case "all-members: commuting waits for exclusion" `Quick
          test_all_members_commuting_blocks_until_exclusion;
        Alcotest.test_case "all-members: ordered never fast" `Quick
          test_all_members_ordered_never_fast;
        Alcotest.test_case "all-members: commuting fast" `Quick
          test_all_members_commuting_is_fast;
        Alcotest.test_case "all-members: generic order mixed" `Slow
          test_generic_order_all_members_mixed;
        Alcotest.test_case "two-thirds: quorum at n=4 minus one" `Quick
          test_two_thirds_quorum_sizes;
        QCheck_alcotest.to_alcotest prop_conflict_relation_state;
        QCheck_alcotest.to_alcotest prop_consensus_only_for_conflicts;
      ] );
  ]

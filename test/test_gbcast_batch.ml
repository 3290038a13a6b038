(* Equivalence harness for submission batching (DESIGN.md Section 15).

   Batching changes *when* messages hit the wire and how many ride one
   reliable broadcast — it must not change what generic broadcast
   guarantees.  The property below runs the same random workload through a
   batched and an unbatched stack and checks that both satisfy the
   paper's contract (everything delivered exactly once, conflicting pairs
   in the same relative order at every node) and that the delivered
   multisets agree per node across the two runs.

   The orders themselves are *not* compared across runs: cut composition
   is timing-dependent, so a batched run may legitimately order a
   conflicting pair differently from an unbatched run — each run just has
   to be internally consistent.  That is exactly the generic-broadcast
   specification; anything stronger would be testing the scheduler. *)

module Engine = Gc_sim.Engine
module Process = Gc_kernel.Process
module Ab = Gc_abcast.Atomic_broadcast
module Batcher = Gc_gbcast.Batcher
module Gb = Gc_gbcast.Generic_broadcast
module Conflict = Gc_gbcast.Conflict
open Support

type Gc_net.Payload.t += Op of { klass : int; k : int }

let op_k = function Op { k; _ } -> k | _ -> Alcotest.fail "unexpected payload"
let op_klass = function Op { klass; _ } -> klass | _ -> 0

(* A symmetric class matrix from a triangle of generator bits (missing bits
   read as false, so short lists are fine). *)
let matrix_of ~classes bits =
  let m = Array.make_matrix classes classes false in
  let rest = ref bits in
  let bit () =
    match !rest with
    | [] -> false
    | b :: tl ->
        rest := tl;
        b
  in
  for a = 0 to classes - 1 do
    for b = a to classes - 1 do
      let v = bit () in
      m.(a).(b) <- v;
      m.(b).(a) <- v
    done
  done;
  fun a b -> m.(a).(b)

(* One simulated run: n = 3 nodes, op [k] of class [klass] submitted at the
   sender [k mod n] at time [k * 4] ms.  Returns per-node delivery lists in
   delivery order. *)
let run_mix ~seed ~conflict ~batch_max ~batch_delay ops =
  let n = 3 in
  let w = make_world ~seed ~n () in
  let logs = Array.make n [] in
  let gbs =
    Array.mapi
      (fun i node ->
        let ab =
          Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
            ~members:(ids n) ()
        in
        let gb =
          Gb.create node.proc ~rc:node.rc ~rb:node.rb ~ab ~conflict
            ~ack_mode:Gb.All_members ~batch_max ~batch_delay ~members:(ids n)
            ()
        in
        Gb.on_deliver gb (fun ~origin:_ p -> logs.(i) <- p :: logs.(i));
        gb)
      w.nodes
  in
  List.iteri
    (fun k klass ->
      ignore
        (Engine.schedule w.engine ~delay:(float_of_int (k * 4)) (fun () ->
             Gb.gbcast gbs.(k mod n) (Op { klass; k }))))
    ops;
  run_until w 60_000.0;
  Array.init n (fun i -> List.rev logs.(i))

(* Generic-order oracle for one run: every node delivered every op exactly
   once, and any conflicting pair sits in the same relative order at every
   node. *)
let generic_order_ok ~matrix ops deliveries =
  let total = List.length ops in
  let pos i =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun idx p -> Hashtbl.replace tbl (op_k p) idx) deliveries.(i);
    tbl
  in
  Array.for_all (fun l -> List.length l = total) deliveries
  && Array.for_all
       (fun l ->
         List.sort_uniq compare (List.map op_k l) = List.init total Fun.id)
       deliveries
  &&
  let klass = Array.of_list ops in
  let p0 = pos 0 in
  let ok = ref true in
  for i = 1 to Array.length deliveries - 1 do
    let pi = pos i in
    for a = 0 to total - 1 do
      for b = a + 1 to total - 1 do
        if matrix klass.(a) klass.(b) then
          let find tbl k = Hashtbl.find tbl k in
          if
            compare (find p0 a) (find p0 b)
            <> compare (find pi a) (find pi b)
          then ok := false
      done
    done
  done;
  !ok

let multiset l = List.sort compare (List.map op_k l)

let prop_batched_equiv_unbatched =
  QCheck.Test.make
    ~name:"batched gbcast == unbatched: generic order + same multisets"
    ~count:15
    QCheck.(
      quad small_nat
        (int_range 1 3)
        (list_of_size Gen.(return 6) bool)
        (pair
           (list_of_size Gen.(2 -- 12) (int_range 0 2))
           (pair (int_range 2 8) (oneofl [ 0.5; 1.0; 2.0; 5.0 ]))))
    (fun (s, classes, bits, (raw_ops, (batch_max, batch_delay))) ->
      QCheck.assume (raw_ops <> []);
      let ops = List.map (fun c -> c mod classes) raw_ops in
      let matrix = matrix_of ~classes bits in
      let conflict =
        Conflict.make ~classes ~classify:op_klass ~matrix
      in
      let seed = Int64.of_int (9000 + s) in
      let batched =
        run_mix ~seed ~conflict ~batch_max ~batch_delay ops
      in
      let unbatched =
        run_mix ~seed ~conflict ~batch_max:1 ~batch_delay:1.0 ops
      in
      generic_order_ok ~matrix ops batched
      && generic_order_ok ~matrix ops unbatched
      && Array.for_all2
           (fun b u -> multiset b = multiset u)
           batched unbatched)

(* The same equivalence through the full conflict spectrum: everything
   commutes (no cuts in either run) and everything conflicts (abcast
   degeneration) are the two ends the random matrices may miss. *)
let test_batched_all_commuting () =
  for_seeds ~count:4 (fun seed ->
      let conflict =
        Conflict.make ~classes:1 ~classify:op_klass
          ~matrix:(fun _ _ -> false)
      in
      let ops = List.init 9 (fun _ -> 0) in
      let deliveries =
        run_mix ~seed ~conflict ~batch_max:4 ~batch_delay:1.0 ops
      in
      Array.iter
        (fun l -> check_int "all delivered" 9 (List.length l))
        deliveries)

let test_batched_total_conflict () =
  for_seeds ~count:4 (fun seed ->
      let conflict =
        Conflict.make ~classes:1 ~classify:op_klass
          ~matrix:(fun _ _ -> true)
      in
      let ops = List.init 7 (fun _ -> 0) in
      let deliveries =
        run_mix ~seed ~conflict ~batch_max:4 ~batch_delay:1.0 ops
      in
      Array.iter
        (fun l -> check_int "all delivered" 7 (List.length l))
        deliveries;
      let seq i = List.map op_k deliveries.(i) in
      check_bool "total order" true (seq 0 = seq 1 && seq 1 = seq 2))

(* ---------- Batcher unit tests (white-box) ---------- *)

let with_proc f =
  let w = make_world ~n:1 () in
  f w w.nodes.(0).proc

let test_batcher_size_watermark () =
  with_proc (fun _w proc ->
      let emitted = ref [] in
      let b =
        Batcher.create proc ~max_batch:3 ~max_delay:50.0
          ~emit:(fun xs -> emitted := xs :: !emitted)
          ()
      in
      Batcher.add b 1;
      Batcher.add b 2;
      check_int "buffered below watermark" 0 (List.length !emitted);
      check_int "length" 2 (Batcher.length b);
      Batcher.add b 3;
      check_list_int "watermark flush, submission order" [ 1; 2; 3 ]
        (List.hd !emitted);
      check_int "buffer drained" 0 (Batcher.length b))

let test_batcher_tick_watermark () =
  with_proc (fun w proc ->
      let emitted = ref [] in
      let b =
        Batcher.create proc ~max_batch:10 ~max_delay:5.0
          ~emit:(fun xs -> emitted := xs :: !emitted)
          ()
      in
      Batcher.add b 7;
      Batcher.add b 8;
      check_int "held until tick" 0 (List.length !emitted);
      run_until w 20.0;
      check_int "one tick flush" 1 (List.length !emitted);
      check_list_int "partial batch" [ 7; 8 ] (List.hd !emitted))

let test_batcher_unit_degenerates () =
  with_proc (fun w proc ->
      let emitted = ref [] in
      let b =
        Batcher.create proc ~max_batch:1 ~max_delay:5.0
          ~emit:(fun xs -> emitted := xs :: !emitted)
          ()
      in
      Batcher.add b 1;
      Batcher.add b 2;
      (* max_batch = 1 emits immediately and never buffers or arms timers. *)
      check_bool "immediate singletons" true (!emitted = [ [ 2 ]; [ 1 ] ]);
      check_int "nothing buffered" 0 (Batcher.length b);
      run_until w 50.0;
      check_int "no timer re-emission" 2 (List.length !emitted))

let test_batcher_explicit_flush_and_stale_timer () =
  with_proc (fun w proc ->
      let emitted = ref [] in
      let b =
        Batcher.create proc ~max_batch:10 ~max_delay:5.0
          ~emit:(fun xs -> emitted := xs :: !emitted)
          ()
      in
      Batcher.add b 1;
      Batcher.add b 2;
      Batcher.flush b;
      check_list_int "explicit flush" [ 1; 2 ] (List.hd !emitted);
      (* The armed 5 ms timer is now stale (generation bumped): it must not
         cut the next batch short when it fires. *)
      Batcher.add b 3;
      run_until w 4.0;
      check_int "stale timer is a no-op" 1 (List.length !emitted);
      run_until w 20.0;
      check_int "fresh timer flushes" 2 (List.length !emitted);
      check_list_int "next batch intact" [ 3 ] (List.hd !emitted))

let test_batcher_rejects_zero () =
  with_proc (fun _w proc ->
      match
        Batcher.create proc ~max_batch:0 ~max_delay:1.0 ~emit:ignore ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "max_batch = 0 must be rejected")

let suite =
  [
    ( "gbcast-batch",
      [
        QCheck_alcotest.to_alcotest prop_batched_equiv_unbatched;
        Alcotest.test_case "batched: pure commuting load" `Slow
          test_batched_all_commuting;
        Alcotest.test_case "batched: total conflict = total order" `Slow
          test_batched_total_conflict;
        Alcotest.test_case "batcher: size watermark" `Quick
          test_batcher_size_watermark;
        Alcotest.test_case "batcher: tick watermark" `Quick
          test_batcher_tick_watermark;
        Alcotest.test_case "batcher: max_batch=1 degenerates" `Quick
          test_batcher_unit_degenerates;
        Alcotest.test_case "batcher: explicit flush, stale timer" `Quick
          test_batcher_explicit_flush_and_stale_timer;
        Alcotest.test_case "batcher: rejects max_batch=0" `Quick
          test_batcher_rejects_zero;
      ] );
  ]

(* Unit tests for the transport/ordering hot-path data structures: the
   reliable channel's seq-indexed ring-buffer window and atomic broadcast's
   watermark-compacted delivered set. *)

module Window = Gc_rchannel.Window
module Delivered = Gc_kernel.Delivered_set
open Support

(* ---------- ring-buffer window ---------- *)

let test_window_push_get () =
  let w = Window.create ~initial_capacity:4 () in
  check_int "empty length" 0 (Window.length w);
  check_bool "empty" true (Window.is_empty w);
  for k = 0 to 9 do
    check_int "assigned seq" k (Window.push w (k * 100))
  done;
  check_int "length" 10 (Window.length w);
  check_int "base" 0 (Window.base w);
  check_int "next" 10 (Window.next w);
  Alcotest.(check (option int)) "get 7" (Some 700) (Window.get w 7);
  Alcotest.(check (option int)) "get below base" None (Window.get w (-1));
  Alcotest.(check (option int)) "get above next" None (Window.get w 10);
  Alcotest.(check (option int)) "oldest" (Some 0) (Window.peek_oldest w)

let test_window_ack_advance () =
  let w = Window.create ~initial_capacity:4 () in
  for k = 0 to 9 do
    ignore (Window.push w k)
  done;
  check_int "release prefix" 4 (Window.advance_to w 3);
  check_int "base moved" 4 (Window.base w);
  check_int "length" 6 (Window.length w);
  check_int "stale ack is a no-op" 0 (Window.advance_to w 2);
  check_int "ack beyond next clamps" 6 (Window.advance_to w 99);
  check_bool "empty after full ack" true (Window.is_empty w);
  check_int "next numbering continues" 10 (Window.next w);
  check_int "push after drain" 10 (Window.push w 0)

let test_window_wraparound () =
  (* Drive the live range around a small backing array many times: the
     modular indexing must keep (seq -> entry) exact across wraps, and
     growing while [base] sits mid-array must not lose entries. *)
  let w = Window.create ~initial_capacity:4 () in
  let next_in = ref 0 in
  for _round = 1 to 100 do
    for _ = 1 to 3 do
      ignore (Window.push w !next_in);
      incr next_in
    done;
    (* Cumulative ack for all but the newest entry. *)
    ignore (Window.advance_to w (!next_in - 2));
    check_int "one straggler survives the round" 1 (Window.length w)
  done;
  check_int "base far beyond the capacity" 299 (Window.base w);
  for _ = 1 to 7 do
    ignore (Window.push w !next_in);
    incr next_in
  done;
  check_int "grew past capacity" 8 (Window.length w);
  let entries = Window.to_list w in
  check_int "to_list sees all" 8 (List.length entries);
  List.iter
    (fun (seq, v) ->
      check_int "seq is the pushed value" seq v;
      Alcotest.(check (option int)) "get roundtrip" (Some v) (Window.get w seq))
    entries

let test_window_reset () =
  let w = Window.create ~initial_capacity:4 () in
  for k = 0 to 6 do
    ignore (Window.push w k)
  done;
  ignore (Window.advance_to w 2);
  Window.reset w;
  check_bool "empty" true (Window.is_empty w);
  check_int "base back to 0" 0 (Window.base w);
  check_int "numbering restarts" 0 (Window.push w 42);
  Alcotest.(check (option int)) "old seqs gone" None (Window.get w 5);
  Alcotest.(check (option int)) "new entry visible" (Some 42) (Window.get w 0)

(* ---------- watermark-compacted delivered set ---------- *)

(* Mirror of the old flat-table representation, for equivalence checks. *)
let naive_mem l id = List.mem id l

let test_delivered_contiguous_advance () =
  let d = Delivered.create () in
  for mseq = 0 to 99 do
    check_bool "fresh add" true (Delivered.add d (7, mseq))
  done;
  check_int "no overflow" 0 (Delivered.overflow_size d);
  check_int "cardinal" 100 (Delivered.cardinal d);
  check_bool "mem below watermark" true (Delivered.mem d (7, 42));
  check_bool "mem above watermark" false (Delivered.mem d (7, 100));
  check_bool "other origin untouched" false (Delivered.mem d (8, 0));
  check_bool "re-add rejected" false (Delivered.add d (7, 42))

let test_delivered_sparse_overflow () =
  let d = Delivered.create () in
  (* Deliver out of order: evens first. *)
  for k = 0 to 4 do
    check_bool "sparse add" true (Delivered.add d (1, 2 * k))
  done;
  check_int "overflow holds the gaps" 4 (Delivered.overflow_size d);
  check_bool "overflowed id is a member" true (Delivered.mem d (1, 6));
  check_bool "gap is not" false (Delivered.mem d (1, 5));
  (* Fill the gaps: the watermark must absorb the whole run. *)
  for k = 0 to 3 do
    check_bool "gap fill" true (Delivered.add d (1, (2 * k) + 1))
  done;
  check_int "overflow drained" 0 (Delivered.overflow_size d);
  check_int "cardinal" 9 (Delivered.cardinal d)

let test_delivered_equivalence () =
  (* Equivalence with the old flat representation over a mixed-order,
     multi-origin, duplicate-laden insertion sequence. *)
  let d = Delivered.create () in
  let naive = ref [] in
  let inserts =
    [
      (0, 0); (0, 1); (2, 3); (2, 0); (0, 1); (1, 0); (2, 1); (2, 2); (0, 2);
      (2, 3); (1, 2); (1, 1); (2, 4); (0, 0); (1, 3);
    ]
  in
  List.iter
    (fun id ->
      let fresh_naive = not (naive_mem !naive id) in
      if fresh_naive then naive := id :: !naive;
      check_bool "add agrees with naive" fresh_naive (Delivered.add d id))
    inserts;
  check_int "cardinal agrees" (List.length (List.sort_uniq compare !naive))
    (Delivered.cardinal d);
  for origin = 0 to 3 do
    for mseq = 0 to 5 do
      check_bool "mem agrees with naive" (naive_mem !naive (origin, mseq))
        (Delivered.mem d (origin, mseq))
    done
  done

let test_delivered_restart_compacts () =
  (* A restarted origin numbers from its epoch's first id: each epoch is a
     stream of its own, so every epoch's prefix compacts to a watermark. *)
  let d = Delivered.create () in
  for epoch = 0 to 2 do
    for k = 0 to 99 do
      ignore (Delivered.add d (4, Delivered.first_seq ~epoch + k))
    done
  done;
  check_int "cardinal" 300 (Delivered.cardinal d);
  check_int "no overflow" 0 (Delivered.overflow_size d);
  check_bool "epoch 1 member" true
    (Delivered.mem d (4, Delivered.first_seq ~epoch:1 + 99));
  check_bool "epoch 1 beyond prefix" false
    (Delivered.mem d (4, Delivered.first_seq ~epoch:1 + 100))

let prop_delivered_matches_naive =
  QCheck.Test.make ~name:"delivered set behaves as a plain set of ids"
    ~count:200
    QCheck.(
      pair
        (small_list (triple (int_bound 3) (int_bound 2) (int_bound 12)))
        (small_list (triple (int_bound 3) (int_bound 2) (int_bound 12))))
    (fun (xs, ys) ->
      let id (origin, epoch, k) = (origin, Delivered.first_seq ~epoch + k) in
      let build ids =
        let d = Delivered.create () in
        let naive = ref [] in
        List.iter
          (fun id ->
            let fresh = not (naive_mem !naive id) in
            if fresh then naive := id :: !naive;
            if Delivered.add d id <> fresh then QCheck.Test.fail_report "add";
            if Delivered.cardinal d <> List.length !naive then
              QCheck.Test.fail_report "cardinal")
          ids;
        (d, !naive)
      in
      let xs = List.map id xs and ys = List.map id ys in
      let dx, nx = build xs and dy, ny = build ys in
      let grid =
        List.concat_map
          (fun o ->
            List.concat_map (fun e -> List.init 14 (fun k -> id (o, e, k))) [ 0; 1; 2 ])
          [ 0; 1; 2; 3 ]
      in
      let agrees d naive =
        Delivered.cardinal d = List.length naive
        && List.for_all (fun id -> Delivered.mem d id = naive_mem naive id) grid
      in
      let encode d =
        let w = Buffer.create 64 in
        Delivered.write w d;
        Buffer.contents w
      in
      let rt = Delivered.read (Gc_net.Wire.reader (encode dx)) in
      let u = Delivered.copy dx in
      Delivered.union_into ~into:u dy;
      (* [u] is a copy, so the union leaves [dx] untouched; equal sets
         built in another order encode to the same bytes. *)
      agrees dx nx && agrees rt nx
      && encode rt = encode (fst (build (List.rev xs)))
      && agrees u (List.sort_uniq compare (nx @ ny)))

let suite =
  [
    ( "perf-structs",
      [
        Alcotest.test_case "window push/get" `Quick test_window_push_get;
        Alcotest.test_case "window ack advance" `Quick test_window_ack_advance;
        Alcotest.test_case "window wraparound" `Quick test_window_wraparound;
        Alcotest.test_case "window reset (forget/gen)" `Quick test_window_reset;
        Alcotest.test_case "delivered contiguous advance" `Quick
          test_delivered_contiguous_advance;
        Alcotest.test_case "delivered sparse overflow" `Quick
          test_delivered_sparse_overflow;
        Alcotest.test_case "delivered ids equivalence" `Quick
          test_delivered_equivalence;
        Alcotest.test_case "delivered set: restart compacts" `Quick
          test_delivered_restart_compacts;
        QCheck_alcotest.to_alcotest prop_delivered_matches_naive;
      ] );
  ]

(* The conflict index (DESIGN.md Section 15) must be an exact drop-in for
   the linear pending scan it replaces: for any conflict relation expressed
   both ways — as a bare pairwise relation (Scan fallback) and as an
   indexed class specification (occupancy counters) — the two structures
   must agree on every [blocked] probe after any add/remove history. *)

module Conflict = Gc_gbcast.Conflict
module Ci = Gc_gbcast.Conflict_index

type Gc_net.Payload.t += C of { id : int; klass : int }

let klass_of = function C { klass; _ } -> klass | _ -> 0

(* Symmetric matrix over [classes] classes from triangle bits. *)
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

let payload ~classes i = C { id = i; klass = i mod classes }
let pid i = (0, i)

(* Apply the same add/remove stream to both representations, probing for
   agreement after every step.  The probe sweep covers every class and both
   tracked and untracked exclusions — including the probe's own id, the
   caller's actual usage (the examined message sits in the pending set). *)
let agree ~classes ~matrix steps =
  let rel a b = matrix (klass_of a) (klass_of b) in
  let scan = Ci.create (Conflict.of_relation rel) in
  let classed =
    Ci.create (Conflict.indexed ~classes ~classify:klass_of ~matrix)
  in
  let pool = 8 in
  let step ok (add, i) =
    let i = i mod pool in
    if add then begin
      Ci.add scan (pid i) (payload ~classes i);
      Ci.add classed (pid i) (payload ~classes i)
    end
    else begin
      Ci.remove scan (pid i);
      Ci.remove classed (pid i)
    end;
    let probes_ok = ref true in
    for p = 0 to pool - 1 do
      for excl = 0 to pool do
        let probe = payload ~classes p in
        if
          Ci.blocked scan ~excluding:(pid excl) probe
          <> Ci.blocked classed ~excluding:(pid excl) probe
        then probes_ok := false
      done
    done;
    ok && !probes_ok
    && Ci.occupancy scan = Ci.occupancy classed
    && Ci.mem scan (pid i) = Ci.mem classed (pid i)
  in
  List.fold_left step true steps

let prop_scan_classes_agree =
  QCheck.Test.make
    ~name:"conflict index: Scan and Classes agree on every probe" ~count:60
    QCheck.(
      triple
        (int_range 1 3)
        (list_of_size Gen.(return 6) bool)
        (list_of_size Gen.(1 -- 30) (pair bool small_nat)))
    (fun (classes, bits, steps) ->
      agree ~classes ~matrix:(matrix_of ~classes bits) steps)

(* ---------- edge cases (unit) ---------- *)

let self_conflicting =
  Conflict.indexed ~classes:1 ~classify:klass_of ~matrix:(fun _ _ -> true)

let commuting =
  Conflict.indexed ~classes:1 ~classify:klass_of ~matrix:(fun _ _ -> false)

let test_empty_never_blocks () =
  List.iter
    (fun spec ->
      let t = Ci.create spec in
      Alcotest.(check bool)
        "empty index" false
        (Ci.blocked t ~excluding:(pid 0) (payload ~classes:1 0));
      Alcotest.(check int) "empty occupancy" 0 (Ci.occupancy t))
    [ self_conflicting; commuting; Conflict.of_relation (fun _ _ -> true) ]

let test_self_exclusion () =
  (* A self-conflicting message alone in the pending set must not block
     itself — the exclusion is what lets the examine probe run while the
     examined message is already tracked. *)
  let t = Ci.create self_conflicting in
  Ci.add t (pid 1) (payload ~classes:1 1);
  Alcotest.(check bool)
    "alone, excluded" false
    (Ci.blocked t ~excluding:(pid 1) (payload ~classes:1 1));
  Ci.add t (pid 2) (payload ~classes:1 2);
  Alcotest.(check bool)
    "second same-class occupant blocks" true
    (Ci.blocked t ~excluding:(pid 1) (payload ~classes:1 1))

let test_total_conflict_degenerates_to_abcast () =
  (* Total conflict = atomic broadcast: any occupant blocks any other
     message, so nothing ever fast-delivers concurrently. *)
  let t = Ci.create self_conflicting in
  Ci.add t (pid 1) (payload ~classes:1 1);
  Alcotest.(check bool)
    "different message blocked" true
    (Ci.blocked t ~excluding:(pid 9) (payload ~classes:1 9))

let test_commuting_never_blocks () =
  let t = Ci.create commuting in
  for i = 0 to 9 do
    Ci.add t (pid i) (payload ~classes:1 i)
  done;
  Alcotest.(check bool)
    "commuting class never blocks" false
    (Ci.blocked t ~excluding:(pid 99) (payload ~classes:1 99))

let test_idempotent_add_single_remove () =
  List.iter
    (fun spec ->
      let t = Ci.create spec in
      Ci.add t (pid 1) (payload ~classes:1 1);
      Ci.add t (pid 1) (payload ~classes:1 1);
      Alcotest.(check int) "double add counts once" 1 (Ci.occupancy t);
      Ci.remove t (pid 1);
      Alcotest.(check int) "single remove empties" 0 (Ci.occupancy t);
      Alcotest.(check bool) "mem after remove" false (Ci.mem t (pid 1));
      Ci.remove t (pid 1);
      Alcotest.(check int) "remove tolerates absent" 0 (Ci.occupancy t);
      Alcotest.(check bool)
        "empty again" false
        (Ci.blocked t ~excluding:(pid 9) (payload ~classes:1 9)))
    [ self_conflicting; Conflict.of_relation (fun _ _ -> true) ]

let test_two_class_spec () =
  (* The stack's own two-class shape: Commuting x Commuting is the only
     non-conflicting pair. *)
  let spec =
    Conflict.two_class ~classify:(fun p ->
        if klass_of p = 0 then Conflict.Commuting else Conflict.Ordered)
  in
  let t = Ci.create spec in
  Ci.add t (pid 1) (C { id = 1; klass = 0 });
  Alcotest.(check bool)
    "commuting occupant does not block commuting" false
    (Ci.blocked t ~excluding:(pid 9) (C { id = 9; klass = 0 }));
  Alcotest.(check bool)
    "commuting occupant blocks ordered" true
    (Ci.blocked t ~excluding:(pid 9) (C { id = 9; klass = 1 }));
  Ci.add t (pid 2) (C { id = 2; klass = 1 });
  Alcotest.(check bool)
    "ordered occupant blocks commuting" true
    (Ci.blocked t ~excluding:(pid 9) (C { id = 9; klass = 0 }))

let test_indexed_rejects_zero_classes () =
  match Conflict.indexed ~classes:0 ~classify:klass_of ~matrix:(fun _ _ -> true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "classes = 0 must be rejected"

let suite =
  [
    ( "conflict-index",
      [
        QCheck_alcotest.to_alcotest prop_scan_classes_agree;
        Alcotest.test_case "empty index never blocks" `Quick
          test_empty_never_blocks;
        Alcotest.test_case "self exclusion" `Quick test_self_exclusion;
        Alcotest.test_case "total conflict = abcast degeneration" `Quick
          test_total_conflict_degenerates_to_abcast;
        Alcotest.test_case "commuting never blocks" `Quick
          test_commuting_never_blocks;
        Alcotest.test_case "idempotent add, tolerant remove" `Quick
          test_idempotent_add_single_remove;
        Alcotest.test_case "two-class stack spec" `Quick test_two_class_spec;
        Alcotest.test_case "rejects zero classes" `Quick
          test_indexed_rejects_zero_classes;
      ] );
  ]

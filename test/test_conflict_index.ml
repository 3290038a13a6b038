(* [Conflict.blocked] (DESIGN.md Section 15): generic broadcast counts its
   stage-table entries per conflict class, and [Conflict.blocked] answers
   "does this tracked message conflict with any other tracked message?"
   from those counters.  It must agree with a brute-force pairwise
   reference after any add/remove history, under any class matrix. *)

module Conflict = Gc_gbcast.Conflict

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

(* The counters of a tracked set, as generic broadcast keeps them. *)
let occupancy_of spec tracked =
  let occ = Array.make spec.Conflict.classes 0 in
  List.iter
    (fun p ->
      let k = spec.Conflict.classify p in
      occ.(k) <- occ.(k) + 1)
    tracked;
  occ

(* Apply a random add/remove stream to a set of tracked ids, keeping the
   counters incrementally, and after every step probe every tracked message
   against the brute-force reference: some other tracked message conflicts
   with it pairwise. *)
let agree ~classes ~matrix steps =
  let spec = Conflict.make ~classes ~classify:klass_of ~matrix in
  let pool = 8 in
  let occ = Array.make classes 0 in
  let tracked = Hashtbl.create pool in
  let step ok (add, i) =
    let i = i mod pool in
    let k = i mod classes in
    if add && not (Hashtbl.mem tracked i) then begin
      Hashtbl.replace tracked i (payload ~classes i);
      occ.(k) <- occ.(k) + 1
    end
    else if (not add) && Hashtbl.mem tracked i then begin
      Hashtbl.remove tracked i;
      occ.(k) <- occ.(k) - 1
    end;
    let ok = ref ok in
    for p = 0 to pool - 1 do
      match Hashtbl.find_opt tracked p with
      | None -> ()
      | Some probe ->
          let reference =
            Hashtbl.fold
              (fun q other acc ->
                acc || (q <> p && Conflict.conflicts spec probe other))
              tracked false
          in
          if Conflict.blocked spec ~occupancy:occ (klass_of probe) <> reference
          then ok := false
    done;
    !ok
  in
  List.fold_left step true steps

let prop_probe_agrees_with_scan =
  QCheck.Test.make
    ~name:"conflict index: probe agrees with a pairwise scan" ~count:60
    QCheck.(
      triple
        (int_range 1 3)
        (list_of_size Gen.(return 6) bool)
        (list_of_size Gen.(1 -- 30) (pair bool small_nat)))
    (fun (classes, bits, steps) ->
      agree ~classes ~matrix:(matrix_of ~classes bits) steps)

(* ---------- edge cases (unit) ---------- *)

let self_conflicting = Conflict.all
let commuting = Conflict.none

let test_empty_never_blocks () =
  (* A message alone in the stage table meets only itself, whatever the
     specification. *)
  List.iter
    (fun (spec, p) ->
      Alcotest.(check bool)
        "alone in the index" false
        (Conflict.blocked spec
           ~occupancy:(occupancy_of spec [ p ])
           (spec.Conflict.classify p)))
    [
      (self_conflicting, payload ~classes:1 0);
      (commuting, payload ~classes:1 0);
      ( Conflict.two_class ~classify:(fun _ -> Conflict.Ordered),
        payload ~classes:1 0 );
    ]

let test_self_exclusion () =
  (* A self-conflicting message alone in the pending set must not block
     itself: the probed message is one of the counted ones. *)
  let occ = [| 1 |] in
  Alcotest.(check bool)
    "alone, excluded" false
    (Conflict.blocked self_conflicting ~occupancy:occ 0);
  occ.(0) <- 2;
  Alcotest.(check bool)
    "second same-class occupant blocks" true
    (Conflict.blocked self_conflicting ~occupancy:occ 0)

let test_total_conflict_degenerates_to_abcast () =
  (* Total conflict = atomic broadcast: any occupant blocks any other
     message, so nothing ever fast-delivers concurrently. *)
  let spec = self_conflicting in
  let tracked = [ payload ~classes:1 1; payload ~classes:1 9 ] in
  Alcotest.(check bool)
    "different message blocked" true
    (Conflict.blocked spec ~occupancy:(occupancy_of spec tracked) 0);
  Alcotest.(check bool)
    "pairwise view" true
    (Conflict.conflicts spec (payload ~classes:1 1) (payload ~classes:1 9))

let test_commuting_never_blocks () =
  let spec = commuting in
  let tracked = List.init 10 (payload ~classes:1) in
  Alcotest.(check bool)
    "commuting class never blocks" false
    (Conflict.blocked spec ~occupancy:(occupancy_of spec tracked) 0)

let test_two_class_spec () =
  (* The stack's own two-class shape: Commuting x Commuting is the only
     non-conflicting pair. *)
  let spec =
    Conflict.two_class ~classify:(fun p ->
        if klass_of p = 0 then Conflict.Commuting else Conflict.Ordered)
  in
  let probe tracked p =
    Conflict.blocked spec
      ~occupancy:(occupancy_of spec (p :: tracked))
      (spec.Conflict.classify p)
  in
  let c1 = C { id = 1; klass = 0 } and o2 = C { id = 2; klass = 1 } in
  Alcotest.(check bool)
    "commuting occupant does not block commuting" false
    (probe [ c1 ] (C { id = 9; klass = 0 }));
  Alcotest.(check bool)
    "commuting occupant blocks ordered" true
    (probe [ c1 ] (C { id = 9; klass = 1 }));
  Alcotest.(check bool)
    "ordered occupant blocks commuting" true
    (probe [ c1; o2 ] (C { id = 9; klass = 0 }))

let test_make_rejects_bad_specs () =
  (match
     Conflict.make ~classes:0 ~classify:klass_of ~matrix:(fun _ _ -> true)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "classes = 0 must be rejected");
  match
    Conflict.make ~classes:2 ~classify:klass_of ~matrix:(fun a b -> a < b)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an asymmetric matrix must be rejected"

let suite =
  [
    ( "conflict-index",
      [
        QCheck_alcotest.to_alcotest prop_probe_agrees_with_scan;
        Alcotest.test_case "empty index never blocks" `Quick
          test_empty_never_blocks;
        Alcotest.test_case "self exclusion" `Quick test_self_exclusion;
        Alcotest.test_case "total conflict = abcast degeneration" `Quick
          test_total_conflict_degenerates_to_abcast;
        Alcotest.test_case "commuting never blocks" `Quick
          test_commuting_never_blocks;
        Alcotest.test_case "two-class stack spec" `Quick test_two_class_spec;
        Alcotest.test_case "rejects zero classes" `Quick
          test_make_rejects_bad_specs;
      ] );
  ]

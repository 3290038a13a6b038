(* Tests for the membership layer over atomic broadcast: agreed view
   sequences, joins with state transfer, removes (including self), batch
   changes, and the View data type. *)

module Engine = Gc_sim.Engine
module Process = Gc_kernel.Process
module Ab = Gc_abcast.Atomic_broadcast
module View = Gc_membership.View
module Gm = Gc_membership.Group_membership
open Support

type Gc_net.Payload.t += Snapshot of int

(* Membership wired directly over atomic broadcast (the overview architecture
   of Figure 6); the full stack routes it through generic broadcast
   instead. *)
let build ?(founders = fun _ -> true) ?(state_of = fun _ -> Snapshot 0) w =
  let n = Array.length w.nodes in
  let all = ids n in
  let views = Array.make n [] in
  let installed = Array.make n None in
  let gms =
    Array.mapi
      (fun i node ->
        let members = List.filter founders all in
        let ab =
          Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd ~members ()
        in
        let transport =
          {
            Gm.broadcast = (fun payload -> Ab.abcast ab payload);
            subscribe = (fun f -> Ab.on_deliver ab f);
          }
        in
        let gm =
          Gm.create node.proc ~rc:node.rc ~transport
            ~state_provider:(fun () -> state_of i)
            ~state_installer:(fun s -> installed.(i) <- Some s)
            ~initial:(View.initial members) ()
        in
        Gm.on_view gm (fun v -> views.(i) <- v :: views.(i));
        Gm.on_view gm (fun v -> Ab.set_members ab v.View.members);
        gm)
      w.nodes
  in
  (gms, views, installed)

let view_seq views i = List.rev_map (fun v -> v.View.members) views.(i)

let test_view_basics () =
  let v = View.initial [ 3; 1; 2 ] in
  Alcotest.(check (option int)) "primary" (Some 3) (View.primary v);
  check_int "size" 3 (View.size v);
  let v' = View.apply v ~adds:[ 4; 1 ] ~removes:[ 2; 9 ] in
  check_list_int "apply" [ 3; 1; 4 ] v'.View.members;
  check_int "vid bumped" 1 v'.View.vid;
  let r = View.rotate v in
  check_list_int "rotate" [ 1; 2; 3 ] r.View.members;
  check_int "rotate keeps vid" 0 r.View.vid;
  Alcotest.(check (option int)) "empty primary" None (View.primary (View.initial []))

let test_remove_installs_same_views () =
  let w = make_world ~n:4 () in
  let gms, views, _ = build w in
  Gm.remove gms.(0) 3;
  run_until w 10_000.0;
  for i = 0 to 2 do
    Alcotest.(check (list (list int)))
      (Printf.sprintf "views at %d" i)
      [ [ 0; 1; 2 ] ] (view_seq views i)
  done;
  check_bool "removed process learns it left" true (Gm.left gms.(3))

let test_concurrent_removes_agree () =
  for_seeds ~count:8 (fun seed ->
      let w = make_world ~seed ~n:5 () in
      let gms, views, _ = build w in
      (* Two members propose different removals concurrently; everyone must
         install the same view sequence. *)
      Gm.remove gms.(0) 4;
      Gm.remove gms.(1) 3;
      run_until w 20_000.0;
      let s0 = view_seq views 0 in
      check_int "two view changes" 2 (List.length s0);
      for i = 1 to 2 do
        Alcotest.(check (list (list int))) "same view sequence" s0 (view_seq views i)
      done)

let test_duplicate_remove_ignored () =
  let w = make_world ~n:3 () in
  let gms, views, _ = build w in
  Gm.remove gms.(0) 2;
  Gm.remove gms.(1) 2;
  run_until w 10_000.0;
  (* Both proposals race; only one view change results. *)
  Alcotest.(check (list (list int))) "one change" [ [ 0; 1 ] ] (view_seq views 0)

let test_join_with_state_transfer () =
  let w = make_world ~n:4 () in
  (* Node 3 is not a founder; it joins via node 0. *)
  let gms, views, installed =
    build ~founders:(fun i -> i < 3) ~state_of:(fun i -> Snapshot (100 + i)) w
  in
  check_bool "not joined yet" false (Gm.joined gms.(3));
  Gm.join gms.(3) ~via:0;
  run_until w 20_000.0;
  check_bool "joined" true (Gm.joined gms.(3));
  (match installed.(3) with
  | Some (Snapshot s) -> check_bool "snapshot from sponsor" true (s = 100)
  | _ -> Alcotest.fail "no snapshot installed");
  (* All members and the joiner agree on the final view. *)
  let final i = (Gm.view gms.(i)).View.members in
  for i = 0 to 3 do
    check_list_int (Printf.sprintf "final view at %d" i) [ 0; 1; 2; 3 ] (final i)
  done;
  check_bool "joiner saw its first view" true (view_seq views 3 <> [])

let test_member_add_api () =
  let w = make_world ~n:3 () in
  let gms, _views, _ = build ~founders:(fun i -> i < 2) w in
  Gm.add gms.(1) 2;
  run_until w 20_000.0;
  check_list_int "added" [ 0; 1; 2 ] (Gm.view gms.(0)).View.members;
  check_bool "new member joined" true (Gm.joined gms.(2))

let test_join_remove_list_batch () =
  let w = make_world ~n:4 () in
  let gms, views, _ = build ~founders:(fun i -> i < 3) w in
  Gm.join_remove_list gms.(0) ~adds:[ 3 ] ~removes:[ 2 ];
  run_until w 20_000.0;
  (* A single view change applies both operations. *)
  Alcotest.(check (list (list int))) "one batched change" [ [ 0; 1; 3 ] ]
    (view_seq views 0);
  check_bool "removed" true (Gm.left gms.(2));
  check_bool "added" true (Gm.joined gms.(3))

let test_remove_self_leaves () =
  let w = make_world ~n:3 () in
  let gms, _views, _ = build w in
  Gm.remove gms.(2) 2;
  run_until w 10_000.0;
  check_bool "left" true (Gm.left gms.(2));
  check_list_int "others go on" [ 0; 1 ] (Gm.view gms.(0)).View.members

let test_same_view_delivery () =
  (* Same view delivery (Section 4.4): every process delivers each message in
     the same view.  We tag each delivery with the current vid and compare. *)
  for_seeds ~count:6 (fun seed ->
      let w = make_world ~seed ~n:4 () in
      let n = 4 in
      let tags = Array.make n [] in
      let abs =
        Array.map
          (fun node ->
            Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd
              ~members:(ids n) ())
          w.nodes
      in
      let gms =
        Array.mapi
          (fun i node ->
            let transport =
              {
                Gm.broadcast = (fun payload -> Ab.abcast abs.(i) payload);
                subscribe = (fun f -> Ab.on_deliver abs.(i) f);
              }
            in
            let gm =
              Gm.create node.proc ~rc:node.rc ~transport
                ~initial:(View.initial (ids n)) ()
            in
            Gm.on_view gm (fun v -> Ab.set_members abs.(i) v.View.members);
            gm)
          w.nodes
      in
      Array.iteri
        (fun i ab ->
          Ab.on_deliver ab (fun ~origin:_ payload ->
              match payload with
              | Snapshot k ->
                  tags.(i) <- (k, (Gm.view gms.(i)).View.vid) :: tags.(i)
              | _ -> ()))
        abs;
      (* Interleave application messages with a view change. *)
      for k = 0 to 5 do
        ignore
          (Engine.schedule w.engine ~delay:(float_of_int (k * 4)) (fun () ->
               Ab.abcast abs.(k mod 3) (Snapshot k)))
      done;
      ignore
        (Engine.schedule w.engine ~delay:10.0 (fun () -> Gm.remove gms.(0) 3));
      run_until w 30_000.0;
      let at i = List.sort compare tags.(i) in
      for i = 1 to 2 do
        Alcotest.(check (list (pair int int)))
          "same (message, view) pairs" (at 0) (at i)
      done)

let prop_view_apply =
  QCheck.Test.make ~name:"View.apply: vid bumps, removes gone, adds appended"
    ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 6) (int_bound 9))
        (list_of_size Gen.(0 -- 4) (int_bound 9))
        (list_of_size Gen.(0 -- 4) (int_bound 9)))
    (fun (members, adds, removes) ->
      let members = List.sort_uniq compare members in
      let v = View.initial members in
      let v' = View.apply v ~adds ~removes in
      v'.View.vid = v.View.vid + 1
      && List.for_all (fun q -> not (View.mem v' q)) removes
      && List.for_all
           (fun p -> List.mem p removes || View.mem v' p)
           (members @ adds)
      (* no duplicates *)
      && List.length v'.View.members
         = List.length (List.sort_uniq compare v'.View.members))

let prop_view_rotate =
  QCheck.Test.make ~name:"View.rotate preserves membership and size" ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) small_nat)
    (fun members ->
      let members = List.sort_uniq compare members in
      let v = View.initial members in
      let r = View.rotate v in
      View.size r = View.size v
      && List.sort compare r.View.members = List.sort compare v.View.members
      && (View.size v < 2 || View.primary r <> View.primary v))

let suite =
  [
    ( "membership",
      [
        Alcotest.test_case "view basics" `Quick test_view_basics;
        Alcotest.test_case "remove installs same views" `Quick
          test_remove_installs_same_views;
        Alcotest.test_case "concurrent removes agree" `Slow
          test_concurrent_removes_agree;
        Alcotest.test_case "duplicate remove ignored" `Quick
          test_duplicate_remove_ignored;
        Alcotest.test_case "join with state transfer" `Quick
          test_join_with_state_transfer;
        Alcotest.test_case "member add api" `Quick test_member_add_api;
        Alcotest.test_case "join_remove_list batch" `Quick
          test_join_remove_list_batch;
        Alcotest.test_case "remove self leaves" `Quick test_remove_self_leaves;
        Alcotest.test_case "same view delivery" `Slow test_same_view_delivery;
        QCheck_alcotest.to_alcotest prop_view_apply;
        QCheck_alcotest.to_alcotest prop_view_rotate;
      ] );
  ]

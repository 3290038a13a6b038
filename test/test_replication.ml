(* Tests for the replication toolkit: state machines, active replication
   (the server's replica core behind its simulator front door), passive
   replication over generic broadcast (Figure 8 semantics), and the
   view-synchrony passive baseline. *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Trace = Gc_sim.Trace
module View = Gc_membership.View
module Sm = Gc_replication.State_machine
module Conflict = Gc_gbcast.Conflict
module Replica = Gc_server.Replica
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Passive = Gc_replication.Passive
module Passive_vs = Gc_replication.Passive_vs
module Client = Gc_replication.Client
open Support

(* ---------- state machines ---------- *)

let test_bank_machine () =
  let b = (Sm.Bank.make ()).Sm.apply in
  (match b (Sm.Bank.Deposit { account = 1; amount = 50 }) with
  | Sm.Bank.Bank_ok { balance } -> check_int "deposit" 50 balance
  | _ -> Alcotest.fail "bad reply");
  (match b (Sm.Bank.Withdraw { account = 1; amount = 70 }) with
  | Sm.Bank.Bank_insufficient -> ()
  | _ -> Alcotest.fail "overdraft allowed");
  match b (Sm.Bank.Withdraw { account = 1; amount = 30 }) with
  | Sm.Bank.Bank_ok { balance } -> check_int "withdraw" 20 balance
  | _ -> Alcotest.fail "bad reply"

let test_bank_snapshot_roundtrip () =
  let m = Sm.Bank.make () in
  ignore (m.Sm.apply (Sm.Bank.Deposit { account = 1; amount = 5 }));
  ignore (m.Sm.apply (Sm.Bank.Deposit { account = 2; amount = 7 }));
  let snap = m.Sm.snapshot () in
  let m2 = Sm.Bank.make () in
  m2.Sm.restore snap;
  Alcotest.(check bool) "equal snapshots" true (m2.Sm.snapshot () = snap)

let prop_deposits_commute =
  QCheck.Test.make ~name:"bank deposits commute (order-independent state)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (pair (int_bound 3) (int_range 1 100)))
    (fun deposits ->
      let run order =
        let m = Sm.Bank.make () in
        List.iter
          (fun (account, amount) ->
            ignore (m.Sm.apply (Sm.Bank.Deposit { account; amount })))
          order;
        m.Sm.snapshot ()
      in
      run deposits = run (List.rev deposits))

let prop_kv_conflict_symmetric =
  QCheck.Test.make ~name:"kv conflict relation is symmetric" ~count:100
    QCheck.(pair (pair bool small_string) (pair bool small_string))
    (fun ((aput, ka), (bput, kb)) ->
      let mk put k =
        if put then Sm.Kv.Put { key = k; data = "x" } else Sm.Kv.Get { key = k }
      in
      let a = mk aput ka and b = mk bput kb in
      Conflict.conflicts Sm.Kv.conflict a b
      = Conflict.conflicts Sm.Kv.conflict b a)

(* The Kv class specification is the per-key relation up to key buckets.
   "alpha" and "beta" fall in distinct buckets; among 33 distinct keys two
   must share one of the 32 buckets, and their puts are ordered. *)
let test_kv_conflict_relation () =
  let conflicts = Conflict.conflicts Sm.Kv.conflict in
  let put key = Sm.Kv.Put { key; data = "x" } and get key = Sm.Kv.Get { key } in
  check_bool "same-key puts conflict" true
    (conflicts (put "alpha") (put "alpha"));
  check_bool "same-key put/get conflict" true
    (conflicts (put "alpha") (get "alpha"));
  check_bool "same-key get/put conflict" true
    (conflicts (get "alpha") (put "alpha"));
  check_bool "gets commute" false (conflicts (get "alpha") (get "alpha"));
  check_bool "distinct-bucket puts commute" false
    (conflicts (put "alpha") (put "beta"));
  check_bool "distinct-bucket put/get commute" false
    (conflicts (put "alpha") (get "beta"));
  check_bool "other payloads conflict" true
    (conflicts Sm.Kv.Kv_unit (get "alpha"));
  let keys = List.init 33 (Printf.sprintf "k%d") in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map (fun b -> if a < b then Some (a, b) else None) keys)
      keys
  in
  let shared = List.filter (fun (a, b) -> conflicts (put a) (put b)) pairs in
  check_bool "two distinct keys in one bucket conflict" true (shared <> []);
  List.iter
    (fun (a, b) ->
      check_bool "bucket mates' put/get conflict" true
        (conflicts (put a) (get b)))
    shared;
  check_bool "most distinct keys commute" true
    (List.length shared < List.length pairs / 2)

(* ---------- shared world for client/replica scenarios ---------- *)

let world ~n_replicas ~n_clients ~seed =
  let n = n_replicas + n_clients in
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  (engine, trace, net, List.init n_replicas (fun i -> i))

let deposit a k = Sm.Bank.Deposit { account = a; amount = k }
let withdraw a k = Sm.Bank.Withdraw { account = a; amount = k }

(* ---------- active replication: every replica applies every op; an
   increment commutes (fast path), a put is ordered (paper Section 4.2) ---------- *)

let incr_op key delta = Proto.Cl_incr { rid = 0; key; delta }
let put_op key value = Proto.Cl_put { rid = 0; key; value }

let active_replicas net trace replicas =
  List.map
    (fun id ->
      Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id
        ~initial:replicas ())
    replicas

let test_active_basic () =
  let engine, trace, net, replicas = world ~n_replicas:3 ~n_clients:1 ~seed:1L in
  let servers = active_replicas net trace replicas in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas () in
  let replies = ref [] in
  let request cmd =
    Client.request client ~cmd ~on_reply:(fun r ~latency ->
        replies := (r, latency) :: !replies)
  in
  for k = 1 to 5 do
    request (incr_op "acct0" k)
  done;
  request (put_op "acct1" "7");
  Engine.run ~until:30_000.0 engine;
  check_int "six replies" 6 (List.length !replies);
  check_int "no retries needed" 0 (Client.retries client);
  (* All replicas applied all commands and share one state. *)
  let dumps = List.map (fun r -> Kv.dump (Replica.kv r)) servers in
  List.iter
    (fun d -> Alcotest.(check string) "replicas agree" (List.hd dumps) d)
    dumps;
  let kv = Replica.kv (List.hd servers) in
  Alcotest.(check (option string)) "sum applied" (Some "15") (Kv.get kv "acct0");
  Alcotest.(check (option string)) "put applied" (Some "7") (Kv.get kv "acct1")

let test_active_contact_crash_exactly_once () =
  for_seeds ~count:6 (fun seed ->
      let engine, trace, net, replicas = world ~n_replicas:3 ~n_clients:1 ~seed in
      let servers = active_replicas net trace replicas in
      let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas ~timeout:400.0 () in
      let got = ref 0 in
      Client.request client ~cmd:(incr_op "acct0" 100) ~on_reply:(fun _ ~latency:_ ->
          incr got);
      (* Crash the contacted replica (index 0) immediately: the command may
         or may not have been broadcast; the retry path must give
         exactly-once semantics either way. *)
      ignore
        (Engine.schedule engine ~delay:2.0 (fun () ->
             Gcs.Gcs_stack.crash (Replica.stack (List.hd servers))));
      Engine.run ~until:60_000.0 engine;
      check_int "exactly one reply" 1 !got;
      List.iter
        (fun r ->
          let kv = Replica.kv r in
          match Kv.get kv "acct0" with
          | Some "100" when Kv.applied_count kv = 1 -> ()
          | None -> Alcotest.fail "command lost"
          | _ -> Alcotest.fail "double apply or bad state")
        (List.tl servers))

(* ---------- passive replication over generic broadcast ---------- *)

let make_passive ?(config = Gcs.Gcs_stack.default_config)
    ?(primary_suspect_timeout = 250.0) ~n_replicas ~n_clients ~seed () =
  let engine, trace, net, replicas =
    world ~n_replicas ~n_clients ~seed
  in
  let servers =
    List.map
      (fun id ->
        Passive.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial:replicas ~config
          ~primary_suspect_timeout ~make_sm:Sm.Bank.make ())
      replicas
  in
  (engine, trace, net, replicas, servers)

let test_passive_basic () =
  let engine, trace, net, replicas, servers =
    make_passive ~n_replicas:3 ~n_clients:1 ~seed:2L ()
  in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas () in
  let replies = ref 0 in
  for k = 1 to 6 do
    Client.request client ~cmd:(deposit 0 k) ~on_reply:(fun _ ~latency:_ ->
        incr replies)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all replies" 6 !replies;
  let snaps = List.map Passive.snapshot servers in
  List.iter
    (fun s -> Alcotest.(check bool) "replicas agree" true (s = List.hd snaps))
    snaps;
  (* Pure updates: commuting class, no consensus, stage untouched. *)
  List.iter
    (fun s ->
      check_int "no stage change"
        0
        (Gc_gbcast.Generic_broadcast.stage
           (Gcs.Gcs_stack.generic_broadcast (Passive.stack s))))
    servers

let test_passive_primary_crash_failover () =
  for_seeds ~count:6 (fun seed ->
      let engine, trace, net, replicas, servers =
        make_passive ~n_replicas:4 ~n_clients:1 ~seed ()
      in
      let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:4 ~replicas ~timeout:400.0 () in
      let replies = ref [] in
      Client.request client ~cmd:(deposit 0 10) ~on_reply:(fun r ~latency:_ ->
          replies := r :: !replies);
      ignore
        (Engine.schedule engine ~delay:1000.0 (fun () ->
             Passive.crash (List.hd servers)));
      ignore
        (Engine.schedule engine ~delay:2500.0 (fun () ->
             Client.request client ~cmd:(deposit 0 5) ~on_reply:(fun r ~latency:_ ->
                 replies := r :: !replies)));
      Engine.run ~until:120_000.0 engine;
      check_int "both replied" 2 (List.length !replies);
      let survivors = List.tl servers in
      (* Rotation happened; survivors agree on primary and on state. *)
      let p = Passive.primary (List.hd survivors) in
      check_bool "primary is not the crashed node" true (p <> Some 0);
      List.iter
        (fun s ->
          Alcotest.(check bool) "same primary" true (Passive.primary s = p);
          Alcotest.(check bool)
            "same state" true
            (Passive.snapshot s = Passive.snapshot (List.hd survivors)))
        survivors;
      match Passive.snapshot (List.hd survivors) with
      | Sm.Bank.Bank_state [ (0, 15) ] -> ()
      | _ -> Alcotest.fail "bad final state")

let test_passive_wrong_suspicion_no_exclusion () =
  (* A short spike makes a backup suspect the primary: the list rotates
     (cheap) but nobody is excluded from the membership — the heart of the
     paper's responsiveness argument. *)
  let engine, trace, net, _replicas, servers =
    make_passive ~n_replicas:3 ~n_clients:1 ~seed:4L ()
  in
  ignore trace;
  Netsim.delay_spike net ~nodes:[ 0 ] ~until:800.0 ~extra:400.0;
  Engine.run ~until:60_000.0 engine;
  let s1 = List.nth servers 1 in
  check_bool "rotation happened" true (Passive.primary_changes s1 >= 1);
  check_bool "old primary demoted, not excluded" true
    (Passive.primary s1 <> Some 0);
  List.iter
    (fun s ->
      check_int "membership intact" 3
        (View.size (Gcs.Gcs_stack.view (Passive.stack s))))
    servers

let test_passive_fig8_consistency () =
  (* Requests in flight exactly while a primary change fires: every replica
     resolves update-vs-change the same way and replicas converge. *)
  for_seeds ~count:10 (fun seed ->
      let engine, trace, net, replicas, servers =
        make_passive ~n_replicas:3 ~n_clients:1 ~seed ()
      in
      let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas ~timeout:300.0 () in
      let replies = ref 0 in
      ignore
        (Engine.schedule engine ~delay:500.0 (fun () ->
             Client.request client ~cmd:(deposit 0 10)
               ~on_reply:(fun _ ~latency:_ -> incr replies);
             (* Force a concurrent primary change via a spike at the
                primary. *)
             Netsim.delay_spike net ~nodes:[ 0 ] ~until:1000.0 ~extra:400.0));
      Engine.run ~until:120_000.0 engine;
      check_int "client eventually served" 1 !replies;
      let snaps = List.map Passive.snapshot servers in
      List.iter
        (fun s -> Alcotest.(check bool) "converged" true (s = List.hd snaps))
        snaps;
      (* Exactly-once despite retries and discards. *)
      match List.hd snaps with
      | Sm.Bank.Bank_state [ (0, 10) ] -> ()
      | Sm.Bank.Bank_state l ->
          Alcotest.failf "bad state: %d accounts" (List.length l)
      | _ -> Alcotest.fail "bad snapshot")

(* ---------- passive replication over the traditional stack ---------- *)

let test_passive_vs_basic () =
  let engine, trace, net, replicas = world ~n_replicas:3 ~n_clients:1 ~seed:6L in
  let servers =
    List.map
      (fun id ->
        Passive_vs.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial:replicas ~make_sm:Sm.Bank.make ())
      replicas
  in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas () in
  let replies = ref 0 in
  for k = 1 to 4 do
    Client.request client ~cmd:(deposit 0 k) ~on_reply:(fun _ ~latency:_ ->
        incr replies)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all replies" 4 !replies;
  let snaps = List.map Passive_vs.snapshot servers in
  List.iter
    (fun s -> Alcotest.(check bool) "replicas agree" true (s = List.hd snaps))
    snaps

let test_passive_vs_primary_crash_excludes () =
  for_seeds ~count:5 (fun seed ->
      let engine, trace, net, replicas = world ~n_replicas:3 ~n_clients:1 ~seed in
      let config =
        { Gc_traditional.Traditional_stack.default_config with fd_timeout = 400.0 }
      in
      let servers =
        List.map
          (fun id ->
            Passive_vs.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial:replicas ~config
              ~make_sm:Sm.Bank.make ())
          replicas
      in
      let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas ~timeout:400.0 () in
      let replies = ref 0 in
      Client.request client ~cmd:(deposit 0 3) ~on_reply:(fun _ ~latency:_ ->
          incr replies);
      ignore
        (Engine.schedule engine ~delay:800.0 (fun () ->
             Passive_vs.crash (List.hd servers)));
      ignore
        (Engine.schedule engine ~delay:3000.0 (fun () ->
             Client.request client ~cmd:(deposit 0 4) ~on_reply:(fun _ ~latency:_ ->
                 incr replies)));
      Engine.run ~until:120_000.0 engine;
      check_int "both requests served" 2 !replies;
      let s1 = List.nth servers 1 in
      (* In the traditional design failover = exclusion: the crashed primary
         left the view. *)
      check_bool "primary excluded" true
        (not
           (View.mem
              (Gc_traditional.Traditional_stack.view (Passive_vs.stack s1))
              0));
      match Passive_vs.snapshot s1 with
      | Sm.Bank.Bank_state [ (0, 7) ] -> ()
      | _ -> Alcotest.fail "bad final state")

let test_passive_withdraw_never_overdraws () =
  (* Mixed workload through the passive scheme: commuting deposits plus
     conflicting withdrawals; invariant: balance never negative, replicas
     converge. *)
  for_seeds ~count:5 (fun seed ->
      let engine, trace, net, replicas, servers =
        make_passive ~n_replicas:3 ~n_clients:2 ~seed ()
      in
      let c1 = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas () in
      let c2 = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:4 ~replicas () in
      let nok = ref 0 and insufficient = ref 0 in
      let tally r ~latency:_ =
        match r with
        | Sm.Bank.Bank_ok { balance } ->
            check_bool "non-negative" true (balance >= 0);
            incr nok
        | Sm.Bank.Bank_insufficient -> incr insufficient
        | _ -> Alcotest.fail "bad reply"
      in
      for k = 0 to 9 do
        let cmd =
          if k mod 3 = 2 then withdraw 0 40 else deposit 0 20
        in
        let c = if k mod 2 = 0 then c1 else c2 in
        ignore
          (Engine.schedule engine ~delay:(float_of_int (k * 30)) (fun () ->
               Client.request c ~cmd ~on_reply:tally))
      done;
      Engine.run ~until:120_000.0 engine;
      check_int "all ten answered" 10 (!nok + !insufficient);
      let snaps = List.map Passive.snapshot servers in
      List.iter
        (fun s -> Alcotest.(check bool) "converged" true (s = List.hd snaps))
        snaps)

let test_passive_redirect_to_primary () =
  (* A client that contacts a backup is redirected to the primary and then
     served. *)
  let engine, trace, net, _replicas, servers =
    make_passive ~n_replicas:3 ~n_clients:1 ~seed:41L ()
  in
  (* Force the client's first target to be a backup by listing replicas in a
     rotated order. *)
  let client =
    Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas:[ 1; 2; 0 ] ~timeout:1_000.0 ()
  in
  let served = ref 0 in
  Client.request client ~cmd:(deposit 0 5) ~on_reply:(fun _ ~latency:_ ->
      incr served);
  Engine.run ~until:30_000.0 engine;
  check_int "served after redirect" 1 !served;
  check_int "no timeout retries" 0 (Client.retries client);
  (match Passive.snapshot (List.hd servers) with
  | Sm.Bank.Bank_state [ (0, 5) ] -> ()
  | _ -> Alcotest.fail "deposit lost");
  (* Primary never rotated: redirects are not suspicions. *)
  check_int "no primary change" 0 (Passive.primary_changes (List.hd servers))

let test_balance_query_through_replication () =
  (* Ordered read-only commands flow through the same path. *)
  let engine, trace, net, replicas, _servers =
    make_passive ~n_replicas:3 ~n_clients:1 ~seed:42L ()
  in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:3 ~replicas () in
  let log = ref [] in
  Client.request client ~cmd:(deposit 0 30) ~on_reply:(fun r ~latency:_ ->
      log := r :: !log);
  ignore
    (Engine.schedule engine ~delay:500.0 (fun () ->
         Client.request client
           ~cmd:(Sm.Bank.Balance { account = 0 })
           ~on_reply:(fun r ~latency:_ -> log := r :: !log)));
  Engine.run ~until:30_000.0 engine;
  match !log with
  | [ Sm.Bank.Bank_ok { balance = 30 }; Sm.Bank.Bank_ok { balance = 30 } ] -> ()
  | l -> Alcotest.failf "unexpected replies (%d)" (List.length l)

let suite =
  [
    ( "replication",
      [
        Alcotest.test_case "bank machine" `Quick test_bank_machine;
        Alcotest.test_case "bank snapshot roundtrip" `Quick
          test_bank_snapshot_roundtrip;
        QCheck_alcotest.to_alcotest prop_deposits_commute;
        QCheck_alcotest.to_alcotest prop_kv_conflict_symmetric;
        Alcotest.test_case "kv conflict relation" `Quick
          test_kv_conflict_relation;
        Alcotest.test_case "active basic" `Quick test_active_basic;
        Alcotest.test_case "active contact crash exactly-once" `Slow
          test_active_contact_crash_exactly_once;
        Alcotest.test_case "passive basic" `Quick test_passive_basic;
        Alcotest.test_case "passive primary crash failover" `Slow
          test_passive_primary_crash_failover;
        Alcotest.test_case "passive wrong suspicion no exclusion" `Quick
          test_passive_wrong_suspicion_no_exclusion;
        Alcotest.test_case "passive figure-8 consistency" `Slow
          test_passive_fig8_consistency;
        Alcotest.test_case "passive_vs basic" `Quick test_passive_vs_basic;
        Alcotest.test_case "passive_vs primary crash excludes" `Slow
          test_passive_vs_primary_crash_excludes;
        Alcotest.test_case "withdrawals never overdraw" `Slow
          test_passive_withdraw_never_overdraws;
        Alcotest.test_case "passive redirect to primary" `Quick
          test_passive_redirect_to_primary;
        Alcotest.test_case "balance query end-to-end" `Quick
          test_balance_query_through_replication;
      ] );
  ]

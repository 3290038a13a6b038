(* A replicated key-value store with a custom conflict relation.

   Run with:  dune exec examples/kv_store.exe

   The paper's generic broadcast is parametric in the conflict relation.
   Beyond the two-class rbcast/abcast table of Section 3.3, applications can
   define finer relations: here, writes to different keys commute (fast
   path), writes to the same key — and any read of a written key — conflict
   and get ordered.  Replicas converge even though each applies commuting
   writes in its own arrival order.  The run exits 1 if the distinct-key
   phase changed stage, the same-key phase did not, or the replicas
   diverged. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Ab = Gc_abcast.Atomic_broadcast
module Gb = Gc_gbcast.Generic_broadcast
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Process = Gc_kernel.Process
module Sm = Gc_replication.State_machine

let n = 3

let fail msg =
  prerr_endline ("kv_store: " ^ msg);
  exit 1

let () =
  let engine = Engine.create ~seed:13L () in
  let trace = Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let members = List.init n (fun i -> i) in
  let stores = Array.init n (fun _ -> Sm.Kv.make ()) in
  let gbs =
    Array.init n (fun id ->
        let proc = Process.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id in
        let fd = Fd.create proc ~peers:members () in
        let rc = Rc.create proc () in
        let rb = Rb.create proc rc in
        let ab = Ab.create proc ~rc ~rb ~fd ~members () in
        let gb =
          Gb.create proc ~rc ~rb ~ab ~conflict:Sm.Kv.conflict ~members ()
        in
        Gb.on_deliver gb (fun ~origin:_ payload ->
            match payload with
            | Sm.Kv.Put { key; data } ->
                ignore (stores.(id).Sm.apply (Sm.Kv.Put { key; data }));
                Printf.printf "[%7.1f ms] node %d applies put %s=%s\n"
                  (Engine.now engine) id key data
            | _ -> ());
        gb)
  in
  print_endline "--- concurrent writes to DIFFERENT keys: all fast path ---";
  Gb.gbcast gbs.(0) (Sm.Kv.Put { key = "alpha"; data = "from-0" });
  Gb.gbcast gbs.(1) (Sm.Kv.Put { key = "beta"; data = "from-1" });
  Gb.gbcast gbs.(2) (Sm.Kv.Put { key = "gamma"; data = "from-2" });
  Engine.run ~until:1_000.0 engine;
  let commuting_stage = Gb.stage gbs.(0) in
  Printf.printf "stage changes so far: %d (expected 0)\n" commuting_stage;

  print_endline "--- concurrent writes to the SAME key: ordered by a cut ---";
  Gb.gbcast gbs.(0) (Sm.Kv.Put { key = "shared"; data = "zero" });
  Gb.gbcast gbs.(1) (Sm.Kv.Put { key = "shared"; data = "one" });
  Engine.run ~until:2_000.0 engine;
  let ordered_stage = Gb.stage gbs.(0) in
  Printf.printf "stage changes now: %d (>= 1)\n" ordered_stage;

  (* Convergence check. *)
  let snaps = Array.map (fun s -> s.Sm.snapshot ()) stores in
  let same = Array.for_all (fun s -> s = snaps.(0)) snaps in
  Printf.printf "replicas converged: %b\n" same;
  (match snaps.(0) with
  | Sm.Kv.Kv_state kvs ->
      List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) kvs
  | _ -> ());
  Printf.printf "fast-path deliveries at node 0: %d of %d\n%!"
    (Gb.fast_delivered_count gbs.(0))
    (Gb.delivered_count gbs.(0));
  if commuting_stage <> 0 then fail "distinct-key writes changed stage";
  if ordered_stage = commuting_stage then
    fail "same-key writes did not change stage";
  if not same then fail "replicas diverged"

(* gcs_demo — command-line scenario runner for the group communication
   stacks.

   Usage examples:
     dune exec bin/gcs_demo.exe -- run --nodes 5 --casts 20 --crash 0
     dune exec bin/gcs_demo.exe -- run --arch traditional --nodes 4 --trace
     dune exec bin/gcs_demo.exe -- bank --requests 50 --commuting 80
     dune exec bin/gcs_demo.exe -- trace --nodes 3 --casts 3 *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module View = Gc_membership.View
module Stack = Gcs.Gcs_stack
module Tr = Gc_traditional.Traditional_stack
module Tt = Gc_totem.Totem_stack
module Stats = Gc_sim.Stats
module Metrics = Gc_obs.Metrics
module Process = Gc_kernel.Process
module Replica = Gc_server.Replica
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Client = Gc_replication.Client

type Gc_net.Payload.t += Demo of { k : int; sent_at : float }

let () =
  Gc_net.Payload.register_printer (function
    | Demo { k; _ } -> Some (Printf.sprintf "demo[%d]" k)
    | _ -> None)

let save_record trace = function
  | None -> ()
  | Some path ->
      Trace.save_jsonl trace path;
      Printf.printf "recorded %d events to %s\n"
        (List.length (Trace.records trace))
        path;
      if Trace.dropped trace > 0 then
        Printf.printf
          "warning: ring buffer evicted %d events; same-view audit may be \
           unreliable\n"
          (Trace.dropped trace)

(* ---------- run: a broadcast workload on either stack ---------- *)

let run_cmd arch nodes casts period crash_node seed show_trace show_metrics
    record =
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:(show_trace || record <> None) () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:nodes () in
  let initial = List.init nodes (fun i -> i) in
  let lat = Stats.sample () in
  let views = ref [] in
  let send, crash, final_view, all_metrics =
    match arch with
    | `New ->
        let stacks =
          Array.init nodes (fun id -> Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ())
        in
        Array.iter
          (fun s ->
            Stack.on_deliver s (fun ~origin:_ ~ordered:_ p ->
                match p with
                | Demo { sent_at; _ } when Stack.id s = 1 ->
                    Stats.add lat (Engine.now engine -. sent_at)
                | _ -> ());
            Stack.on_view s (fun v ->
                if Stack.id s = 1 then
                  views := Format.asprintf "%a" View.pp v :: !views))
          stacks;
        ( (fun i k ->
            Stack.abcast stacks.(i) (Demo { k; sent_at = Engine.now engine })),
          (fun i -> Stack.crash stacks.(i)),
          (fun () -> Format.asprintf "%a" View.pp (Stack.view stacks.(1))),
          fun () -> Array.to_list stacks |> List.map Stack.metrics )
    | `Traditional ->
        let stacks =
          Array.init nodes (fun id -> Tr.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ())
        in
        Array.iter
          (fun s ->
            Tr.on_deliver s (fun ~origin:_ ~ordered:_ p ->
                match p with
                | Demo { sent_at; _ } when Tr.id s = 1 ->
                    Stats.add lat (Engine.now engine -. sent_at)
                | _ -> ());
            Tr.on_view s (fun v ->
                if Tr.id s = 1 then
                  views := Format.asprintf "%a" View.pp v :: !views))
          stacks;
        ( (fun i k -> Tr.abcast stacks.(i) (Demo { k; sent_at = Engine.now engine })),
          (fun i -> Tr.crash stacks.(i)),
          (fun () -> Format.asprintf "%a" View.pp (Tr.view stacks.(1))),
          fun () ->
            Array.to_list stacks
            |> List.map (fun s -> Process.metrics (Tr.process s)) )
    | `Totem ->
        let stacks =
          Array.init nodes (fun id -> Tt.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ())
        in
        Array.iter
          (fun s ->
            Tt.on_deliver s (fun ~origin:_ p ->
                match p with
                | Demo { sent_at; _ } when Tt.id s = 1 ->
                    Stats.add lat (Engine.now engine -. sent_at)
                | _ -> ());
            Tt.on_view s (fun v ->
                if Tt.id s = 1 then
                  views := Format.asprintf "%a" View.pp v :: !views))
          stacks;
        ( (fun i k -> Tt.abcast stacks.(i) (Demo { k; sent_at = Engine.now engine })),
          (fun i -> Tt.crash stacks.(i)),
          (fun () -> Format.asprintf "%a" View.pp (Tt.view stacks.(1))),
          fun () ->
            Array.to_list stacks
            |> List.map (fun s -> Process.metrics (Tt.process s)) )
  in
  for k = 0 to casts - 1 do
    let sender = k mod nodes in
    ignore
      (Engine.schedule engine
         ~delay:(100.0 +. (float_of_int k *. period))
         (fun () -> send sender k))
  done;
  (match crash_node with
  | Some i ->
      ignore
        (Engine.schedule engine
           ~delay:(100.0 +. (float_of_int casts *. period /. 2.0))
           (fun () ->
             Printf.printf "[crash] node %d\n" i;
             crash i))
  | None -> ());
  Engine.run ~until:60_000.0 engine;
  if show_trace then
    List.iter
      (fun r -> Format.printf "%a@." Trace.pp_record r)
      (Trace.records trace);
  Printf.printf "arch: %s   nodes: %d   casts: %d   seed: %Ld\n"
    (match arch with
    | `New -> "new (AB-GB)"
    | `Traditional -> "traditional (GM-VS)"
    | `Totem -> "totem (token ring)")
    nodes casts seed;
  Printf.printf "delivered at node 1: %d   mean latency: %s ms   p95: %s ms\n"
    (Stats.count lat)
    (Stats.fmt_ms (Stats.mean lat))
    (Stats.fmt_ms (Stats.percentile lat 95.0));
  Printf.printf "views at node 1: %s\n"
    (String.concat " -> " (List.rev !views));
  Printf.printf "final view: %s\n" (final_view ());
  Printf.printf "network messages: %d\n" (Netsim.messages_sent net);
  if show_metrics then begin
    Printf.printf "\nmerged layer metrics (all nodes):\n";
    Format.printf "%a@." Metrics.pp (Metrics.merged (all_metrics ()))
  end;
  save_record trace record

(* ---------- bank: the Section 4.2 workload ---------- *)

let bank_cmd requests commuting seed record =
  let n_replicas = 3 in
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:(record <> None) () in
  let net =
    Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:(n_replicas + 1) ()
  in
  let replicas = List.init n_replicas (fun i -> i) in
  let servers =
    List.map
      (fun id ->
        Replica.create_rpc (Gc_kernel.Runtime.of_netsim net ~trace) ~id
          ~initial:replicas ())
      replicas
  in
  let client = Client.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id:n_replicas ~replicas () in
  let rng = Engine.split_rng engine in
  let lat = Stats.sample () in
  let account () = Printf.sprintf "acct%d" (Gc_sim.Rng.int rng 4) in
  for k = 0 to requests - 1 do
    (* A deposit commutes ([Incr]); a withdrawal is an ordered [Put] that
       empties the account. *)
    let cmd =
      if Gc_sim.Rng.int rng 100 < commuting then
        Proto.Cl_incr { rid = 0; key = account (); delta = 10 }
      else Proto.Cl_put { rid = 0; key = account (); value = "0" }
    in
    ignore
      (Engine.schedule engine ~delay:(float_of_int (k * 25)) (fun () ->
           Client.request client ~cmd ~on_reply:(fun _ ~latency ->
               Stats.add lat latency)))
  done;
  Engine.run ~until:120_000.0 engine;
  let s0 = Replica.stack (List.hd servers) in
  Printf.printf "bank over generic broadcast: %d replicas, %d requests, %d%% commuting\n"
    n_replicas requests commuting;
  Printf.printf "served: %d   mean latency: %s ms   p95: %s ms\n"
    (Stats.count lat)
    (Stats.fmt_ms (Stats.mean lat))
    (Stats.fmt_ms (Stats.percentile lat 95.0));
  Printf.printf "consensus instances: %d   fast-path deliveries: %d\n"
    (Gc_abcast.Atomic_broadcast.next_instance (Stack.atomic_broadcast s0))
    (Gc_gbcast.Generic_broadcast.fast_delivered_count
       (Stack.generic_broadcast s0));
  let kv = Replica.kv (List.hd servers) in
  Printf.printf "final balances: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun a ->
            let key = Printf.sprintf "acct%d" a in
            Option.map (fun b -> key ^ "=" ^ b) (Kv.get kv key))
          [ 0; 1; 2; 3 ]));
  save_record trace record

(* ---------- cmdliner plumbing ---------- *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Record the full causal event trace to $(docv) as JSON-lines \
           (audit or export it with $(b,gcs_trace)).")

let nodes_arg =
  Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Group size.")

let arch_arg =
  let archs =
    [ ("new", `New); ("traditional", `Traditional); ("totem", `Totem) ]
  in
  Arg.(
    value
    & opt (enum archs) `New
    & info [ "arch" ] ~docv:"ARCH" ~doc:"Stack: $(b,new) (AB-GB), $(b,traditional) (GM-VS) or $(b,totem) (token ring).")

let run_term =
  let casts =
    Arg.(value & opt int 10 & info [ "casts" ] ~docv:"K" ~doc:"Broadcast count.")
  and period =
    Arg.(value & opt float 50.0 & info [ "period" ] ~docv:"MS" ~doc:"Send period (virtual ms).")
  and crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~docv:"ID" ~doc:"Crash this node mid-run.")
  and show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full event trace.")
  and show_metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the merged per-layer metrics registry after the run.")
  in
  Term.(const run_cmd $ arch_arg $ nodes_arg $ casts $ period $ crash $ seed_arg
        $ show_trace $ show_metrics $ record_arg)

let bank_term =
  let requests =
    Arg.(value & opt int 40 & info [ "requests" ] ~docv:"K" ~doc:"Request count.")
  and commuting =
    Arg.(
      value & opt int 80
      & info [ "commuting" ] ~docv:"PCT" ~doc:"Percentage of deposits (commutative).")
  in
  Term.(const bank_cmd $ requests $ commuting $ seed_arg $ record_arg)

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~doc:"Run a broadcast workload on either architecture")
      run_term;
    Cmd.v
      (Cmd.info "bank"
         ~doc:"Run the Section 4.2 replicated bank over generic broadcast")
      bank_term;
  ]

let () =
  let doc = "group communication scenarios (Mena/Schiper/Wojciechowski 2003)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "gcs_demo" ~doc) cmds))

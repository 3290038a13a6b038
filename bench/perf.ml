(* Wall-clock performance benchmark for the transport/ordering hot paths.

   Unlike bench/main.exe (virtual-time protocol experiments) this binary
   measures how fast the *simulator host* chews through the workload: real
   seconds, as reported by the wall clock, and allocation pressure from
   [Gc.minor_words] and [Gc.quick_stat].  Three workloads, each at n in
   {3, 5, 8}:

   - [rchannel_echo]    one node floods every peer through the reliable
                        channel with an upfront backlog; peers echo.  This
                        is the pure window/ack hot path.
   - [abcast_saturation] every member submits its share of the load at t=0;
                        total order must absorb the full backlog (proposal
                        construction, batch decisions, delivery bookkeeping).
   - [gbcast_commuting] the full stack under a commuting-only workload:
                        rbcast fast path, acks through the reliable channel,
                        no consensus on the critical path.
   - [gbcast_batch_b*]  the same commuting workload across the submission
                        batch-size sweep (batch_max in {1, 16, 64}): the
                        cost of the gbcast hot path as batching amortises
                        the per-message relay and ack fan-out.
   - [log_recovery_*k]  crash-recovery cost vs durable-log length: a cold
                        Fstore open (CRC scan of the whole file) plus the
                        replay iteration a restarting server performs
                        before accepting traffic.

   Output is BENCH_perf.json, or the file [-o] names (schema: DESIGN.md
   par.12); with [--check] and no [-o] nothing is written.  [--smoke] shrinks
   the workload for CI and measures each cell 5 times, keeping the run with
   the median msgs/sec (a smoke cell lasts milliseconds, so one run is at
   the mercy of host noise); [--check FILE] compares against a committed
   baseline and fails when any cell's msgs/sec regressed by more than 2x.
   Every run additionally fails if the stack's gbcast commuting throughput
   falls more than 3x below raw abcast at the same n (the paper's whole
   point is that commuting traffic is *cheaper* than total order).

   Usage:
     dune exec bench/perf.exe                            # full run
     dune exec bench/perf.exe -- --smoke -o BENCH_perf.json
     dune exec bench/perf.exe -- --smoke --check bench/perf_baseline.json *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Delay = Gc_net.Delay
module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Ab = Gc_abcast.Atomic_broadcast
module Stack = Gcs.Gcs_stack
module Json = Gc_obs.Json

type Gc_net.Payload.t += Ping of int | Pong of int

let () =
  Gc_net.Payload.register_printer (function
    | Ping k -> Some (Printf.sprintf "perf.ping#%d" k)
    | Pong k -> Some (Printf.sprintf "perf.pong#%d" k)
    | _ -> None)

(* ---------- measurement ---------- *)

type cell = {
  name : string;
  n : int;
  msgs : int; (* deliveries counted towards throughput *)
  wall_s : float;
  msgs_per_sec : float;
  minor_words_per_msg : float;
  promoted_words_per_msg : float;
  completed : bool;
}

(* Run [engine] in virtual-time slices until [done_ ()] or the virtual
   horizon, timing the whole drain with the wall clock.  Slicing keeps the
   idle tail (heartbeats, retransmit ticks past completion) out of the
   measurement. *)
let measure ~name ~n ~msgs ~engine ~horizon ~done_ () =
  let slice = 50.0 in
  let mw0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let rec drain until =
    Engine.run ~until engine;
    if (not (done_ ())) && until < horizon then drain (until +. slice)
  in
  drain slice;
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
  let completed = done_ () in
  let fm = float_of_int msgs in
  {
    name;
    n;
    msgs;
    wall_s;
    msgs_per_sec = (if wall_s > 0.0 then fm /. wall_s else infinity);
    minor_words_per_msg = (mw1 -. mw0) /. fm;
    promoted_words_per_msg =
      (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. fm;
    completed;
  }

let report c =
  Printf.printf "%-18s n=%d  %8d msgs  %7.3f s  %10.0f msg/s  %8.0f mw/msg%s\n%!"
    c.name c.n c.msgs c.wall_s c.msgs_per_sec c.minor_words_per_msg
    (if c.completed then "" else "  [INCOMPLETE]")

(* ---------- worlds ---------- *)

let substrate ~seed ~n =
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:false () in
  let net = Netsim.create engine ~trace ~delay:Delay.lan ~n () in
  (engine, trace, net)

(* ---------- cells ---------- *)

(* Node 0 sends [count] messages upfront, spread round-robin over the peers;
   every peer echoes each delivery back.  Done when node 0 has collected all
   echoes: 2*count reliable deliveries end to end. *)
let rchannel_echo ~seed ~n ~count =
  let engine, trace, net = substrate ~seed ~n in
  let procs = Array.init n (fun id -> Process.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id) in
  let rcs = Array.map (fun p -> Rc.create p ()) procs in
  let echoes = ref 0 in
  for i = 1 to n - 1 do
    Rc.on_deliver rcs.(i) (fun ~src payload ->
        match payload with
        | Ping k -> Rc.send rcs.(i) ~dst:src (Pong k)
        | _ -> ())
  done;
  Rc.on_deliver rcs.(0) (fun ~src:_ payload ->
      match payload with Pong _ -> incr echoes | _ -> ());
  ignore
    (Engine.schedule engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           Rc.send rcs.(0) ~dst:(1 + (k mod (n - 1))) (Ping k)
         done));
  measure ~name:"rchannel_echo" ~n ~msgs:(2 * count) ~engine ~horizon:60_000.0
    ~done_:(fun () -> !echoes = count)
    ()

(* Every member submits its share of [count] total-order broadcasts at t=0;
   done when every node has adelivered all of them. *)
let abcast_saturation ~seed ~n ~count =
  let engine, trace, net = substrate ~seed ~n in
  let members = List.init n (fun i -> i) in
  let abs =
    Array.init n (fun id ->
        let proc = Process.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id in
        let fd = Fd.create proc ~hb_period:20.0 ~peers:members () in
        let rc = Rc.create proc () in
        let rb = Rb.create proc rc in
        Ab.create proc ~rc ~rb ~fd ~members ())
  in
  ignore
    (Engine.schedule engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           Ab.abcast abs.(k mod n) (Ping k)
         done));
  let all_delivered () =
    Array.for_all (fun ab -> Ab.delivered_count ab = count) abs
  in
  measure ~name:"abcast_saturation" ~n ~msgs:(count * n) ~engine
    ~horizon:120_000.0 ~done_:all_delivered ()

(* Full stack, commuting-only (rbcast) workload: the generic-broadcast fast
   path with its quorum acks, but no consensus on the critical path. *)
let gbcast_commuting ~seed ~n ~count =
  let w = Bench_util.new_world ~record:false ~seed ~n () in
  ignore
    (Engine.schedule w.Bench_util.engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           Stack.rbcast
             w.Bench_util.stacks.(k mod n)
             (Bench_util.Load { k; sent_at = 0.0 })
         done));
  let all_delivered () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if Bench_util.delivered_count w i <> count then ok := false
    done;
    !ok
  in
  measure ~name:"gbcast_commuting" ~n ~msgs:(count * n)
    ~engine:w.Bench_util.engine ~horizon:120_000.0 ~done_:all_delivered ()

(* The batch-size sweep: identical commuting workload, submission batching
   set explicitly.  [batch_max = 1] is the unbatched protocol (one reliable
   broadcast and n-1 acks per message); larger watermarks amortise both. *)
let gbcast_batch ~seed ~n ~count ~batch_max =
  let config = Stack.Config.make ~batch_max () in
  let w = Bench_util.new_world ~record:false ~config ~seed ~n () in
  ignore
    (Engine.schedule w.Bench_util.engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           Stack.rbcast
             w.Bench_util.stacks.(k mod n)
             (Bench_util.Load { k; sent_at = 0.0 })
         done));
  let all_delivered () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if Bench_util.delivered_count w i <> count then ok := false
    done;
    !ok
  in
  measure
    ~name:(Printf.sprintf "gbcast_batch_b%d" batch_max)
    ~n ~msgs:(count * n) ~engine:w.Bench_util.engine ~horizon:120_000.0
    ~done_:all_delivered ()

(* Crash-recovery cost as a function of log length: build a CRC-framed
   on-disk delivery log of [count] records, then time a cold open (the
   full scan-and-verify recovery pass) plus the replay iteration a
   restarting server performs before it accepts traffic.  Pure wall-clock
   file I/O — no simulator engine involved — so the cell is constructed
   directly rather than through [measure]. *)
let log_recovery ~count =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcs_perf_recovery_%d_%d" (Unix.getpid ()) count)
  in
  let st = Gc_runtime_unix.Fstore.open_dir ~dir () in
  for k = 0 to count - 1 do
    ignore
      (Gc_kernel.Storage.append st
         (Gc_kernel.Storage.Record.encode
            {
              Gc_kernel.Storage.Record.origin = k mod 5;
              seq = k;
              ordered = k mod 3 <> 0;
              payload = String.make 64 'x';
            }))
  done;
  Gc_kernel.Storage.sync st;
  Gc_kernel.Storage.close st;
  let mw0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let st = Gc_runtime_unix.Fstore.open_dir ~dir () in
  let replayed = ref 0 in
  Gc_kernel.Storage.iter_from st 0 (fun ~index:_ entry ->
      ignore (Gc_kernel.Storage.Record.decode entry);
      incr replayed);
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
  Gc_kernel.Storage.close st;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  let fm = float_of_int count in
  {
    name = Printf.sprintf "log_recovery_%dk" (count / 1000);
    n = 1;
    msgs = count;
    wall_s;
    msgs_per_sec = (if wall_s > 0.0 then fm /. wall_s else infinity);
    minor_words_per_msg = (mw1 -. mw0) /. fm;
    promoted_words_per_msg =
      (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. fm;
    completed = !replayed = count;
  }

(* ---------- json ---------- *)

let cell_json c =
  Json.Obj
    [
      ("name", Json.Str c.name);
      ("n", Json.Num (float_of_int c.n));
      ("msgs", Json.Num (float_of_int c.msgs));
      ("wall_s", Json.Num c.wall_s);
      ("msgs_per_sec", Json.Num c.msgs_per_sec);
      ("minor_words_per_msg", Json.Num c.minor_words_per_msg);
      ("promoted_words_per_msg", Json.Num c.promoted_words_per_msg);
      ("completed", Json.Bool c.completed);
    ]

let doc_json ~mode ~seed cells =
  Json.Obj
    [
      ("schema", Json.Str "gcs-perf/1");
      ("mode", Json.Str mode);
      ("seed", Json.Num (Int64.to_float seed));
      ("cells", Json.Arr (List.map cell_json cells));
    ]

(* ---------- baseline check ---------- *)

let load_baseline path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.member "cells" (Json.of_string s) with
  | Some (Json.Arr cells) ->
      List.filter_map
        (fun c ->
          match
            ( Option.bind (Json.member "name" c) Json.to_str,
              Option.bind (Json.member "n" c) Json.to_float,
              Option.bind (Json.member "msgs_per_sec" c) Json.to_float )
          with
          | Some name, Some n, Some rate -> Some ((name, int_of_float n), rate)
          | _ -> None)
        cells
  | _ -> failwith (path ^ ": no \"cells\" array")

(* A cell regresses when its throughput fell below half the committed
   baseline's.  Cells absent from the baseline are informational only. *)
let check_against ~path cells =
  let baseline = load_baseline path in
  let regressions =
    List.filter_map
      (fun c ->
        match List.assoc_opt (c.name, c.n) baseline with
        | Some base when c.msgs_per_sec < base /. 2.0 ->
            Some
              (Printf.sprintf "%s n=%d: %.0f msg/s vs baseline %.0f (>2x slower)"
                 c.name c.n c.msgs_per_sec base)
        | _ -> None)
      cells
  in
  List.iter (fun r -> Printf.printf "PERF REGRESSION: %s\n" r) regressions;
  regressions = []

(* The gbcast-gap guard: commuting traffic through the full stack must stay
   within 3x of raw atomic broadcast at the same group size.  Absolute
   rates drift with the host; the *ratio* between two cells of the same run
   is stable, so this check needs no baseline file and runs everywhere. *)
let check_gb_ab_ratio cells =
  let rate name n =
    List.find_opt (fun c -> c.name = name && c.n = n) cells
    |> Option.map (fun c -> c.msgs_per_sec)
  in
  let bad =
    List.filter_map
      (fun n ->
        match (rate "abcast_saturation" n, rate "gbcast_commuting" n) with
        | Some ab, Some gb when gb < ab /. 3.0 ->
            Some
              (Printf.sprintf
                 "gbcast_commuting n=%d: %.0f msg/s vs abcast %.0f (gap > 3x)"
                 n gb ab)
        | _ -> None)
      (List.sort_uniq compare (List.map (fun c -> c.n) cells))
  in
  List.iter (fun r -> Printf.printf "PERF REGRESSION: %s\n" r) bad;
  bad = []

(* ---------- driver ---------- *)

let () =
  let smoke = ref false in
  let seed = ref 42L in
  let out = ref None in
  let check = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string v;
        parse rest
    | "-o" :: v :: rest ->
        out := Some v;
        parse rest
    | "--check" :: v :: rest ->
        check := Some v;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "unknown argument %S; usage: perf [--smoke] [--seed N] [-o FILE] \
           [--check BASELINE]\n"
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let echo_count, ab_count, gb_count =
    if !smoke then (800, 300, 200) else (10_000, 2_500, 2_000)
  in
  let seed = !seed in
  let reps = if !smoke then 5 else 1 in
  let cells = ref [] in
  let run f =
    let runs =
      List.init reps (fun _ -> f ())
      |> List.sort (fun a b -> Float.compare a.msgs_per_sec b.msgs_per_sec)
    in
    let c = List.nth runs (reps / 2) in
    let c = { c with completed = List.for_all (fun r -> r.completed) runs } in
    report c;
    cells := c :: !cells
  in
  List.iter
    (fun n ->
      run (fun () -> rchannel_echo ~seed ~n ~count:echo_count);
      run (fun () -> abcast_saturation ~seed ~n ~count:ab_count);
      run (fun () -> gbcast_commuting ~seed ~n ~count:gb_count);
      List.iter
        (fun b -> run (fun () -> gbcast_batch ~seed ~n ~count:gb_count ~batch_max:b))
        [ 1; 16; 64 ])
    [ 3; 5; 8 ];
  (* Recovery time vs log length: how long a kill -9'd server spends
     scanning and replaying its durable log before accepting traffic. *)
  List.iter
    (fun count -> run (fun () -> log_recovery ~count))
    (if !smoke then [ 1_000; 10_000 ] else [ 10_000; 100_000; 1_000_000 ]);
  let cells = List.rev !cells in
  let mode = if !smoke then "smoke" else "full" in
  (* A check compares against a baseline: it writes results only where
     [-o] asks, so it never overwrites the committed BENCH_perf.json. *)
  (match (!out, !check) with
  | None, Some _ -> ()
  | out, _ ->
      let out = Option.value out ~default:"BENCH_perf.json" in
      let oc = open_out out in
      output_string oc (Json.to_string_pretty (doc_json ~mode ~seed cells));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nperf results written to %s (%d cells, %s mode)\n" out
        (List.length cells) mode);
  let incomplete = List.exists (fun c -> not c.completed) cells in
  if incomplete then
    Printf.eprintf "ERROR: some cells did not finish within the horizon\n";
  let ratio_ok = check_gb_ab_ratio cells in
  let ok =
    match !check with Some path -> check_against ~path cells | None -> true
  in
  if (not ok) || (not ratio_ok) || incomplete then exit 1

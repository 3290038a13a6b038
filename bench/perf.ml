(* Cost benchmark for the transport/ordering hot paths.

   Unlike bench/main.exe (virtual-time protocol experiments) this binary
   measures what one workload costs the simulator host.  Every cell runs
   5 times on seed 42 and reports two kinds of figure:

   - exact counts, pure functions of the seed and the compiler, so every
     rep must read the same: [minor_words_per_msg] ([Gc.minor_words]),
     [frames_per_msg] ([Netsim.messages_sent]) and, in worlds that run
     consensus, [consensus_instances_per_kmsg] (decided instances summed
     over the nodes);
   - [msgs_per_sec] by the wall clock, from the rep with the median rate.
     It is host noise plus what the counts cannot see (CPU spent without
     allocating), hence the wide band below.

   Cells, the simulated ones at n in {3, 5, 8}:

   - [rchannel_echo]      one node floods every peer through the reliable
                          channel with an upfront backlog; peers echo.  This
                          is the pure window/ack hot path.
   - [abcast_saturation]  every member submits its share of the load at t=0;
                          total order must absorb the full backlog.
   - [gbcast_conflicting] the full stack, every message submitted with
                          [Stack.abcast]: the paper's §4.2 conflicting path
                          (stage freeze, consensus, cut delivery).
   - [gbcast_batch_b*]    the same world with commuting messages
                          ([Stack.rbcast]) across batch_max in {1, 16, 64}:
                          rbcast fast path and quorum acks, no consensus.
                          [b64] is the stack's default configuration.
   - [log_recovery_*k]    crash-recovery cost vs durable-log length: a cold
                          Fstore open (CRC scan of the whole file) plus the
                          replay iteration a restarting server performs.
                          Real file I/O: words are counted, the wall clock
                          is reported only.

   A plain run writes BENCH_perf.json (schema: DESIGN.md §12).  [--check
   FILE] writes nothing and fails when FILE was recorded under another
   compiler, a cell of FILE is missing or incomplete, any count rises
   above FILE's (they are exact, so there is no margin), or a simulated
   cell's msgs/sec fell below half of FILE's.  Every run fails when a cell
   does not complete, the reps of a cell disagree on a count, or
   [gbcast_batch_b64] falls more than 3x below [abcast_saturation] at the
   same n (the paper's point is that commuting traffic is cheaper than
   total order).

   Usage:
     dune exec bench/perf.exe                             # BENCH_perf.json
     dune exec bench/perf.exe -- --check BENCH_perf.json  # the CI gate *)

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
module Metrics = Gc_obs.Metrics
module Json = Gc_obs.Json

type Gc_net.Payload.t += Ping of int | Pong of int

let () =
  Gc_net.Payload.register_printer (function
    | Ping k -> Some (Printf.sprintf "perf.ping#%d" k)
    | Pong k -> Some (Printf.sprintf "perf.pong#%d" k)
    | _ -> None)

let seed = 42L
let reps = 5
let sizes = [ 3; 5; 8 ]

(* ---------- measurement ---------- *)

type cell = {
  name : string;
  n : int;
  msgs : int; (* deliveries counted towards throughput *)
  wall_s : float;
  msgs_per_sec : float;
  counts : (string * float) list; (* exact; column name -> value *)
  completed : bool;
}

let cell ~name ~n ~msgs ~wall_s ~counts ~completed =
  let fm = float_of_int msgs in
  {
    name;
    n;
    msgs;
    wall_s;
    msgs_per_sec = (if wall_s > 0.0 then fm /. wall_s else infinity);
    counts = List.map (fun (k, v) -> (k, v /. fm)) counts;
    completed;
  }

(* Run [engine] in virtual-time slices until [done_ ()] or the virtual
   horizon, timing the whole drain with the wall clock.  Slicing keeps the
   idle tail (heartbeats, retransmit ticks past completion) out of the
   measurement.  [metrics], when given, are the nodes' registries of a
   world that runs consensus. *)
let measure ~name ~n ~msgs ~engine ~net ?metrics ~horizon ~done_ () =
  let slice = 50.0 in
  let sent0 = Netsim.messages_sent net in
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let rec drain until =
    Engine.run ~until engine;
    if (not (done_ ())) && until < horizon then drain (until +. slice)
  in
  drain slice;
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw1 = Gc.minor_words () in
  let consensus =
    match metrics with
    | None -> []
    | Some ms ->
        let decided m = Metrics.counter m "consensus.instances_decided" in
        let sum = Array.fold_left (fun acc m -> acc + decided m) 0 ms in
        [ ("consensus_instances_per_kmsg", 1000.0 *. float_of_int sum) ]
  in
  cell ~name ~n ~msgs ~wall_s ~completed:(done_ ())
    ~counts:
      (("minor_words_per_msg", mw1 -. mw0)
      :: ("frames_per_msg", float_of_int (Netsim.messages_sent net - sent0))
      :: consensus)

let report c =
  let col k =
    match List.assoc_opt k c.counts with
    | Some v -> Printf.sprintf "%10.3f" v
    | None -> "         -"
  in
  Printf.printf "%-18s n=%d %6d msgs %8.4f s %9.0f msg/s%s%s%s%s\n%!" c.name c.n
    c.msgs c.wall_s c.msgs_per_sec (col "minor_words_per_msg")
    (col "frames_per_msg")
    (col "consensus_instances_per_kmsg")
    (if c.completed then "" else "  [INCOMPLETE]")

(* ---------- worlds ---------- *)

let substrate ~n =
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:false () in
  let net = Netsim.create engine ~trace ~delay:Delay.lan ~n () in
  (engine, trace, net)

(* ---------- cells ---------- *)

(* Node 0 sends [count] messages upfront, spread round-robin over the peers;
   every peer echoes each delivery back.  Done when node 0 has collected all
   echoes: 2*count reliable deliveries end to end. *)
let rchannel_echo ~n ~count =
  let engine, trace, net = substrate ~n in
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
  measure ~name:"rchannel_echo" ~n ~msgs:(2 * count) ~engine ~net
    ~horizon:60_000.0
    ~done_:(fun () -> !echoes = count)
    ()

(* Every member submits its share of [count] total-order broadcasts at t=0;
   done when every node has adelivered all of them. *)
let abcast_saturation ~n ~count =
  let engine, trace, net = substrate ~n in
  let members = List.init n (fun i -> i) in
  let nodes =
    Array.init n (fun id ->
        let proc = Process.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id in
        let fd = Fd.create proc ~hb_period:20.0 ~peers:members () in
        let rc = Rc.create proc () in
        let rb = Rb.create proc rc in
        (Process.metrics proc, Ab.create proc ~rc ~rb ~fd ~members ()))
  in
  let abs = Array.map snd nodes in
  ignore
    (Engine.schedule engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           Ab.abcast abs.(k mod n) (Ping k)
         done));
  let all_delivered () =
    Array.for_all (fun ab -> Ab.delivered_count ab = count) abs
  in
  measure ~name:"abcast_saturation" ~n ~msgs:(count * n) ~engine ~net
    ~metrics:(Array.map fst nodes) ~horizon:120_000.0
    ~done_:all_delivered ()

(* The full stack: every member submits its share of [count] messages at
   t=0 through [submit]; done when every node has delivered all of them. *)
let gbcast ~name ~config ~submit ~n ~count =
  let w = Bench_util.new_world ~record:false ~config ~seed ~n () in
  ignore
    (Engine.schedule w.Bench_util.engine ~delay:0.0 (fun () ->
         for k = 0 to count - 1 do
           submit
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
  measure ~name ~n ~msgs:(count * n) ~engine:w.Bench_util.engine
    ~net:w.Bench_util.net ~metrics:w.Bench_util.metrics ~horizon:120_000.0
    ~done_:all_delivered ()

(* Crash-recovery cost as a function of log length: build a CRC-framed
   on-disk delivery log of [count] records, then time a cold open (the
   full scan-and-verify recovery pass) plus the replay iteration a
   restarting server performs before it accepts traffic.  Pure file I/O —
   no simulator engine involved — so the cell is built without
   [measure]. *)
let log_recovery ~count =
  (* The cold open below allocates paths built from [dir], so its length
     must not vary with the host: the directory is opened relative to the
     temp dir (whatever its path), under a name of fixed width (whatever
     the pid). *)
  let dir = Printf.sprintf "gcs_perf_recovery_%07d_%d" (Unix.getpid ()) count in
  let cwd = Sys.getcwd () in
  Sys.chdir (Filename.get_temp_dir_name ());
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
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
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let st = Gc_runtime_unix.Fstore.open_dir ~dir () in
  let replayed = ref 0 in
  Gc_kernel.Storage.iter_from st 0 (fun ~index:_ entry ->
      ignore (Gc_kernel.Storage.Record.decode entry);
      incr replayed);
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw1 = Gc.minor_words () in
  Gc_kernel.Storage.close st;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  cell
    ~name:(Printf.sprintf "log_recovery_%dk" (count / 1000))
    ~n:1 ~msgs:count ~wall_s
    ~counts:[ ("minor_words_per_msg", mw1 -. mw0) ]
    ~completed:(!replayed = count)

(* ---------- json ---------- *)

let cell_json c =
  Json.Obj
    ([
       ("name", Json.Str c.name);
       ("n", Json.Num (float_of_int c.n));
       ("msgs", Json.Num (float_of_int c.msgs));
       ("wall_s", Json.Num c.wall_s);
       ("msgs_per_sec", Json.Num c.msgs_per_sec);
     ]
    @ List.map (fun (k, v) -> (k, Json.Num v)) c.counts
    @ [ ("completed", Json.Bool c.completed) ])

let doc_json cells =
  Json.Obj
    [
      ("schema", Json.Str "gcs-perf/2");
      ("seed", Json.Num (Int64.to_float seed));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("cells", Json.Arr (List.map cell_json cells));
    ]

(* ---------- checks ---------- *)

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "PERF FAILURE: %s\n" s;
      failed := true)
    fmt

let find cells name n = List.find_opt (fun c -> c.name = name && c.n = n) cells

(* The gbcast-gap guard: commuting traffic through the full stack must stay
   within 3x of raw atomic broadcast at the same group size.  Absolute
   rates drift with the host; the ratio between two cells of one run is
   steadier, so this check needs no baseline file. *)
let check_gb_ab_ratio cells =
  List.iter
    (fun n ->
      match (find cells "abcast_saturation" n, find cells "gbcast_batch_b64" n) with
      | Some ab, Some gb when gb.msgs_per_sec < ab.msgs_per_sec /. 3.0 ->
          fail "gbcast_batch_b64 n=%d: %.0f msg/s vs abcast %.0f (gap > 3x)" n
            gb.msgs_per_sec ab.msgs_per_sec
      | _ -> ())
    sizes

(* One baseline cell against this run.  Counts are exact, so any rise is
   a cost the code added; the rate is host noise, so it gets a 2x band,
   and only in the simulated cells (n > 1): log recovery times real file
   I/O. *)
let check_cell cells b =
  let str k = Option.bind (Json.member k b) Json.to_str in
  let field k = Option.bind (Json.member k b) Json.to_float in
  match (str "name", field "n") with
  | Some name, Some n -> (
      let n = int_of_float n in
      match find cells name n with
      | None -> fail "%s n=%d: in the baseline, missing from this run" name n
      | Some c ->
          let complete =
            Json.member "completed" b = Some (Json.Bool true)
            && field "msgs_per_sec" <> None
            && List.for_all (fun (k, _) -> field k <> None) c.counts
          in
          if not complete then fail "%s n=%d: incomplete in the baseline" name n;
          List.iter
            (fun (k, v) ->
              match field k with
              | Some base when v > base ->
                  fail "%s n=%d: %s %.3f vs baseline %.3f (+%.4f)" name n k v
                    base (v -. base)
              | Some base when v < base ->
                  Printf.printf "perf improvement: %s n=%d: %s %.3f vs baseline %.3f\n"
                    name n k v base
              | _ -> ())
            c.counts;
          match field "msgs_per_sec" with
          | Some base when c.n > 1 && c.msgs_per_sec < base /. 2.0 ->
              fail "%s n=%d: %.0f msg/s vs baseline %.0f (>2x slower)" name n
                c.msgs_per_sec base
          | _ -> ())
  | _ -> fail "a baseline cell without a name or n"

let check_against ~path cells =
  let ic = open_in path in
  let doc = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match
    ( Option.bind (Json.member "ocaml_version" doc) Json.to_str,
      Json.member "cells" doc )
  with
  | Some v, Some (Json.Arr bs) when v = Sys.ocaml_version ->
      List.iter (check_cell cells) bs
  | Some v, Some (Json.Arr _) ->
      fail "%s was recorded under OCaml %s, this is OCaml %s: allocation counts \
            belong to the compiler" path v Sys.ocaml_version
  | _ -> fail "%s: no \"ocaml_version\" or no \"cells\" array" path

(* ---------- driver ---------- *)

let cells = ref []

(* Runs one cell [reps] times and keeps the rep with the median rate; the
   counts must agree across reps, since they are a function of the seed. *)
let run f =
  let runs =
    List.init reps (fun _ -> f ())
    |> List.sort (fun a b -> Float.compare a.msgs_per_sec b.msgs_per_sec)
  in
  let c = List.nth runs (reps / 2) in
  let c = { c with completed = List.for_all (fun r -> r.completed) runs } in
  report c;
  if not c.completed then fail "%s n=%d did not finish within the horizon" c.name c.n;
  if List.exists (fun r -> r.counts <> c.counts) runs then
    fail "%s n=%d: the reps disagree on a count" c.name c.n;
  cells := c :: !cells

let () =
  let check =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> None
    | [ "--check"; path ] -> Some path
    | _ ->
        prerr_endline "usage: perf [--check BASELINE]";
        exit 2
  in
  Printf.printf "%-18s %3s %11s %10s %15s%10s%10s%10s\n" "cell" "n" "msgs" "wall"
    "rate" "words" "frames" "inst/k";
  List.iter
    (fun n ->
      run (fun () -> rchannel_echo ~n ~count:800);
      run (fun () -> abcast_saturation ~n ~count:300);
      run (fun () ->
          gbcast ~name:"gbcast_conflicting" ~config:Stack.default_config
            ~submit:Stack.abcast ~n ~count:200);
      List.iter
        (fun b ->
          run (fun () ->
              gbcast
                ~name:(Printf.sprintf "gbcast_batch_b%d" b)
                ~config:(Stack.Config.make ~batch_max:b ())
                ~submit:Stack.rbcast ~n ~count:200))
        [ 1; 16; 64 ])
    sizes;
  List.iter (fun count -> run (fun () -> log_recovery ~count)) [ 1_000; 10_000 ];
  let cells = List.rev !cells in
  check_gb_ab_ratio cells;
  (match check with
  | Some path -> check_against ~path cells
  | None ->
      let oc = open_out "BENCH_perf.json" in
      output_string oc (Json.to_string_pretty (doc_json cells));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nperf results written to BENCH_perf.json (%d cells)\n"
        (List.length cells));
  if !failed then exit 1

(* The central conformance catalog: every machine-checked convention lives
   here, in one place, instead of being scattered across reviews.

   - which lib/ subdirectories hold *protocol* code (determinism rules
     D2-D4 and event discipline E1 apply there; D1 applies everywhere),
   - the registered trace components and their msg-id prefixes (rule E1),
   - the declared architecture DAG the dune files must match (rule L1).

   The DAG encodes the paper's section 4.1 layering: ordering is solved
   once, in the AB-GB column rchannel -> rbcast -> consensus -> abcast ->
   gbcast, with membership and monitoring above it; the competing
   traditional and totem stacks are siblings that the AB-GB column must
   never reach; everything touches the network only through gc_kernel /
   gc_net; gc_obs is pure observability and depends on nothing. *)

let rule_ids =
  [ "D1"; "D2"; "D3"; "D4"; "E1"; "E2"; "L1"; "W1"; "B1"; "B2"; "P0"; "T0" ]

let rule_summary = function
  | "D1" -> "ambient nondeterminism (Random/Unix/Sys.time) outside lib/sim/rng.ml"
  | "D2" -> "physical equality (==/!=) in protocol code"
  | "D3" -> "unordered Hashtbl.iter/fold feeding protocol state"
  | "D4" -> "bare polymorphic compare/(=) passed at a call site"
  | "E1" -> "Process.event outside the registered component/prefix catalog"
  | "E2" -> "metric name or kind outside the Catalog.metrics register"
  | "L1" -> "dune dependency outside the declared architecture DAG"
  | "W1" -> "malformed gcs-lint waiver annotation"
  | "B1" -> "blocking call reachable from an event-loop callback"
  | "B2" -> "raise can escape a protocol message handler"
  | "P0" -> "source file does not parse"
  | "T0" -> "typed pass found no .cmt files (build the repo first)"
  | r -> "unknown rule " ^ r

(* lib/ subdirectories whose modules are protocol code. *)
let protocol_dirs =
  [
    "rchannel"; "rbcast"; "consensus"; "abcast"; "gbcast"; "membership";
    "monitoring"; "fd"; "totem"; "traditional"; "replication"; "core";
    "kernel";
  ]

let is_protocol_dir d = List.mem d protocol_dirs

(* "lib/totem/totem_stack.ml" -> Some "totem" (any path containing /lib/). *)
let dir_of_path path =
  let parts = String.split_on_char '/' path in
  let rec go = function
    | "lib" :: d :: _ :: _ -> Some d
    | _ :: rest -> go rest
    | [] -> None
  in
  go parts

(* lib/ subdirectories that implement the real-network side of the runtime
   seam: they own the OS clock, sockets and entropy *by design*, so the
   ambient-nondeterminism rule D1 does not apply inside them.  Protocol
   code still cannot reach nondeterminism through them — the layering
   rules keep every protocol lib below the seam. *)
let realtime_dirs = [ "runtime_unix" ]

(* Files that sit on the real-time side of the seam by design: the
   server's TCP front door, its blocking client and telemetry writer, and
   the entry points that own sockets and wall clocks.  The rest of
   lib/server (the replica core, the store, the protocol, resync) runs
   under the simulator too and stays under D1, as does everything else
   under bin/ and bench/ (demo, trace, fuzz drivers, simulated bench
   cells). *)
let realtime_files =
  [
    "lib/server/server.ml"; "lib/server/sync_client.ml";
    "lib/server/telemetry.ml"; "bin/gcs_server.ml"; "bin/gcs_client.ml";
    "bin/gcs_top.ml"; "bench/perf.ml";
  ]

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* D1 exemptions: the one simulated randomness source, the declared
   real-time boundary, and the real-time entry points. *)
let rng_exempt path =
  (match List.rev (String.split_on_char '/' path) with
  | file :: dir :: _ ->
      (dir = "sim" && file = "rng.ml") || List.mem dir realtime_dirs
  | _ -> false)
  || List.exists (fun f -> has_suffix ~suffix:f path) realtime_files

(* Registered trace components -> allowed msg-id prefixes.  A component
   with an empty prefix list may emit events but never a ~msg id. *)
let components =
  [
    ("rchannel", [ "rc:" ]);
    ("rbcast", [ "rb:" ]);
    ("consensus", [ "cs:" ]);
    ("abcast", [ "ab:" ]);
    ("gbcast", [ "gb:" ]);
    ("membership", [ "view:" ]);
    ("monitoring", []);
    ("fd", []);
    ("net", []);
    ("fault", []);
    ("passive", []);
    ("totem", [ "tt:"; "view:" ]);
    ("traditional", [ "tr:"; "trvs:"; "view:" ]);
  ]

let component_prefixes c = List.assoc_opt c components

(* ---------- declared architecture DAG ---------- *)

type layer = {
  lib : string;       (* dune library name *)
  dir : string;       (* lib/ subdirectory *)
  rank : int;         (* altitude, for layering and dot layout *)
  deps : string list; (* allowed *internal* direct dependencies *)
  ext : string list;  (* allowed external dependencies *)
}

let base = [ "gc_obs"; "gc_sim"; "gc_net"; "gc_kernel" ]
let abgb_stack = base @ [ "gc_fd" ]

let layer ?(ext = [ "fmt" ]) lib dir rank deps = { lib; dir; rank; deps; ext }

let arch =
  [
    layer "gc_obs" "obs" 0 [];
    layer "gc_sim" "sim" 1 [ "gc_obs" ];
    layer "gc_net" "net" 2 [ "gc_sim"; "gc_obs" ];
    layer "gc_kernel" "kernel" 3 [ "gc_sim"; "gc_net"; "gc_obs" ];
    layer "gc_fd" "fd" 4 base;
    (* AB-GB column: each layer sees only the layers strictly below it. *)
    layer "gc_rchannel" "rchannel" 5 base;
    layer "gc_rbcast" "rbcast" 6 (base @ [ "gc_rchannel" ]);
    layer "gc_consensus" "consensus" 7
      (abgb_stack @ [ "gc_rchannel"; "gc_rbcast" ]);
    layer "gc_abcast" "abcast" 8
      (abgb_stack @ [ "gc_rchannel"; "gc_rbcast"; "gc_consensus" ]);
    layer "gc_gbcast" "gbcast" 9
      (abgb_stack @ [ "gc_rchannel"; "gc_rbcast"; "gc_consensus"; "gc_abcast" ]);
    layer "gc_membership" "membership" 10 (abgb_stack @ [ "gc_rchannel" ]);
    layer "gc_monitoring" "monitoring" 11
      (abgb_stack @ [ "gc_rchannel"; "gc_membership" ]);
    layer "gcs" "core" 12
      (abgb_stack
      @ [
          "gc_rchannel"; "gc_rbcast"; "gc_consensus"; "gc_abcast"; "gc_gbcast";
          "gc_membership"; "gc_monitoring";
        ]);
    (* Competing stacks: siblings of the AB-GB column, never below it. *)
    layer "gc_totem" "totem" 12 (abgb_stack @ [ "gc_rchannel"; "gc_membership" ]);
    layer "gc_traditional" "traditional" 12
      (abgb_stack
      @ [ "gc_rchannel"; "gc_rbcast"; "gc_consensus"; "gc_membership" ]);
    (* Applications and harnesses above every stack. *)
    layer "gc_replication" "replication" 13
      (abgb_stack
      @ [
          "gc_rchannel"; "gc_gbcast"; "gc_membership"; "gcs"; "gc_traditional";
        ]);
    layer "gc_faultgen" "faultgen" 13 [ "gc_sim"; "gc_net"; "gc_obs"; "gc_fd" ];
    layer "gc_fuzz" "fuzz" 14
      [
        "gc_sim"; "gc_net"; "gc_kernel"; "gc_obs"; "gc_fd"; "gc_faultgen";
        "gcs"; "gc_traditional"; "gc_totem";
      ];
    (* The real-network side of the runtime seam: the TCP backend plugs in
       under gc_kernel's Runtime capabilities, the server assembles the
       facade stack on top of it.  The backend and the server's TCP front
       door may touch Unix (see [realtime_dirs] and [realtime_files]);
       nothing in the protocol column may depend on them.  The server's
       replica core also serves simulated clients, over the reliable
       channel with gc_replication's Rpc payloads. *)
    layer ~ext:[ "fmt"; "unix" ] "gc_runtime_unix" "runtime_unix" 13
      [ "gc_sim"; "gc_net"; "gc_kernel"; "gc_obs" ];
    layer ~ext:[ "fmt"; "unix" ] "gc_server" "server" 14
      [
        "gc_sim"; "gc_net"; "gc_kernel"; "gc_obs"; "gc_rchannel";
        "gc_gbcast"; "gc_membership"; "gcs"; "gc_replication";
        "gc_runtime_unix";
      ];
    layer ~ext:[ "fmt"; "compiler-libs.common" ] "gc_lint" "lint" 15 [];
  ]

let find_layer lib = List.find_opt (fun l -> l.lib = lib) arch
let layer_of_dir dir = List.find_opt (fun l -> l.dir = dir) arch
let internal_lib lib = find_layer lib <> None

(* The AB-GB column plus its facade, which must never reach the competing
   stacks (paper section 4.1: ordering is solved once, below membership). *)
let abgb_libs =
  [
    "gc_rchannel"; "gc_rbcast"; "gc_consensus"; "gc_abcast"; "gc_gbcast";
    "gc_membership"; "gc_monitoring"; "gcs";
  ]

let legacy_libs = [ "gc_traditional"; "gc_totem" ]

(* ---------- typed-pass vocabulary (rules B1/B2, E2) ---------- *)

(* Callback registration points.  A function (or lambda) handed to one of
   these runs inside the event loop; [Handler] additionally marks it as a
   protocol *message* handler whose state mutations must not be torn by an
   escaping raise (rule B2).  Names are canonical typed paths, so the rule
   sees through every local [module W = ...] alias. *)
type cb_kind = Loop | Handler

let registrars =
  [
    ("Gc_runtime_unix.Evloop.set_read", Loop);
    ("Gc_runtime_unix.Evloop.set_write", Loop);
    ("Gc_runtime_unix.Evloop.schedule", Loop);
    ("Gc_runtime_unix.Evloop.defer", Loop);
    ("Gc_runtime_unix.Fconn.listen", Loop);
    ("Gc_runtime_unix.Fconn.attach", Handler);
    ("Gc_kernel.Process.on_receive", Handler);
    ("Gc_kernel.Process.timer", Loop);
    ("Gc_kernel.Process.every", Loop);
  ]

(* Capability records: a lambda stored in a [Gc_kernel.Runtime.t] field is
   invoked by protocol code from inside a handler, so it is a Handler
   root; the [register]/[schedule] fields install callbacks when applied
   through the record. *)
let runtime_record_type = "Gc_kernel.Runtime.t"
let field_registrars = [ ("register", Handler); ("schedule", Loop) ]

(* Blocking primitives (rule B1).  Hard blockers are never legitimate on
   the event loop; soft blockers are sanctioned inside a compilation unit
   that calls [Unix.set_nonblock] (the unit has declared its fds
   non-blocking, so read/write return EWOULDBLOCK instead of stalling). *)
let hard_blocking =
  [
    "Unix.sleep"; "Unix.sleepf"; "Unix.select"; "Unix.gethostbyname";
    "Unix.gethostbyaddr"; "Unix.getaddrinfo"; "Unix.getnameinfo";
    "Unix.system"; "Unix.wait"; "Unix.waitpid";
  ]

let soft_blocking =
  [
    "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.connect";
    "Unix.accept"; "Unix.recv"; "Unix.recvfrom"; "Unix.send"; "Unix.sendto";
  ]

let nonblock_marker = "Unix.set_nonblock"

(* Raise heads (rule B2). *)
let raise_fns =
  [ "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
    "Stdlib.invalid_arg" ]

(* Where B2 raise *sites* matter: protocol state machines and the
   real-time boundary that drives them.  lib/net and lib/obs are
   excluded on purpose — codec rejects (Payload.Codec_reject, Wire.Short)
   are caught at the frame boundary before any protocol state mutates,
   which test_wire's corrupt-bytes property exercises. *)
let has_prefix ~prefix s =
  let lp = String.length prefix and l = String.length s in
  l >= lp && String.sub s 0 lp = prefix

let b2_site_scope source =
  match dir_of_path source with
  | Some d -> is_protocol_dir d || d = "server" || List.mem d realtime_dirs
  (* the planted typed fixtures exercise the rule from test/ *)
  | None -> has_prefix ~prefix:"test/lint_fixtures/typed/" source

(* ---------- metric catalog (rule E2) ---------- *)

type metric_kind = MCounter | MGauge | MHist

let metric_kind_name = function
  | MCounter -> "counter"
  | MGauge -> "gauge"
  | MHist -> "histogram"

(* Metric recording/reading entry points and the kind each one implies.
   Local forwarders (a def whose body passes its own string parameter to
   one of these) are discovered by the rule itself. *)
let metric_recorders =
  [
    ("Gc_obs.Metrics.incr", MCounter);
    ("Gc_obs.Metrics.counter", MCounter);
    ("Gc_obs.Metrics.set_gauge", MGauge);
    ("Gc_obs.Metrics.gauge", MGauge);
    ("Gc_obs.Metrics.observe", MHist);
    ("Gc_obs.Metrics.quantile", MHist);
    ("Gc_obs.Metrics.hist_count", MHist);
    ("Gc_obs.Metrics.hist_max", MHist);
    ("Gc_obs.Metrics.hist_mean", MHist);
    ("Gc_kernel.Process.incr", MCounter);
    ("Gc_kernel.Process.set_gauge", MGauge);
    ("Gc_kernel.Process.observe", MHist);
  ]

(* The Metrics store implementation itself copies, subtracts and
   rehydrates registries, where names are data, not literals — the
   original recording sites were already checked.  E2's
   static-checkability requirement stops at the store boundary. *)
let e2_exempt path = has_suffix ~suffix:"lib/obs/metrics.ml" path

(* Every metric name the repo may record or read, with its kind.  This
   list is the single source of truth: rule E2 checks call sites against
   it, and (in repo mode) checks it against the DESIGN.md section 8
   table, so doc and code cannot drift apart. *)
let metrics =
  let c n = (n, MCounter) and g n = (n, MGauge) and h n = (n, MHist) in
  [
    (* consensus *)
    c "consensus.instances_started"; c "consensus.instances_decided";
    h "consensus.rounds"; c "consensus.coordinator_suspicions";
    (* abcast *)
    c "abcast.submitted"; c "abcast.proposals"; h "abcast.batch_size";
    c "abcast.delivered"; h "abcast.latency_ms"; g "abcast.pending_size";
    h "abcast.submit_batch_size";
    (* gbcast *)
    c "gbcast.submitted"; c "gbcast.fast_deliveries";
    c "gbcast.cut_deliveries"; c "gbcast.delivered"; h "gbcast.latency_ms";
    c "gbcast.freezes"; c "gbcast.cuts_proposed"; h "gbcast.check_ms";
    h "gbcast.batch_size"; h "gbcast.ack_batch_size";
    g "gbcast.conflict_class_occupancy";
    (* rbcast / rchannel *)
    c "rbcast.broadcasts"; c "rbcast.delivered";
    c "rchannel.sends"; c "rchannel.retransmissions";
    h "rchannel.retransmit_burst"; c "rchannel.stale_gen_ignored";
    g "rchannel.window_occupancy"; g "rchannel.window_peak";
    c "rchannel.stuck_detections"; c "rchannel.stream_resets";
    (* failure detection / membership / monitoring *)
    c "fd.suspicions"; c "fd.wrong_suspicions"; c "fd.retractions";
    h "fd.mistake_ms";
    c "membership.view_changes"; h "membership.join_ms";
    h "membership.change_ms"; g "membership.sender_blocked_ms_total";
    c "membership.resyncs";
    c "monitoring.exclusions_proposed"; c "monitoring.wrongful_exclusions";
    (* competing stacks and replication *)
    c "traditional.flushes"; c "traditional.view_changes";
    c "traditional.exclusions"; h "traditional.blocked_ms";
    g "traditional.blocked_ms_total";
    c "totem.recoveries"; c "totem.view_changes"; c "totem.exclusions";
    c "passive.discards"; c "passive.primary_changes";
    (* event loop (runtime_unix) *)
    c "evloop.ticks"; h "evloop.select_wait_ms"; h "evloop.callback_ms";
    h "evloop.tick_ms"; h "evloop.timer_lag_ms"; c "evloop.timer_overdue";
    g "evloop.open_fds";
    (* wire transport (framing + TCP backend) *)
    c "net.frames_in"; c "net.frames_out"; c "net.bytes_in";
    c "net.bytes_out"; c "net.writes"; c "net.frame_reject"; c "net.reconnects";
    c "net.tx_drop"; c "net.tx_oversize";
    (* durable delivery log (Storage seam + file backend) *)
    c "storage.appends"; c "storage.syncs"; c "storage.snapshots";
    c "storage.truncations"; c "storage.torn_tail_dropped";
    c "storage.append_skipped"; g "storage.log_entries";
    (* gcs_server facade *)
    c "server.applied"; c "server.bad_delivery"; c "server.bad_request";
    c "server.client_accepts"; c "server.health_requests";
    c "server.stats_requests"; h "server.latency_ms";
    h "server.latency_abcast_ms"; h "server.latency_rbcast_ms";
    c "server.full_transfers"; c "server.reply_syncs";
    c "server.recovered_ops"; c "server.dup_ops_skipped";
    h "server.recovery_ms";
  ]

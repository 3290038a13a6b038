(* Application state for (re)joining and rebooting replicas
   (Gc_server.Resync): the full-image state transfer and boot replay of
   the durable log over a snapshot.

   The high-stakes property under test: a joiner can miss an operation
   its sponsor applied (commuting deliveries interleave differently per
   node), and the membership snapshot's delivered-id sets suppress its
   retransmission forever.  The full image replaces the joiner's state
   wholesale, so whatever the joiner missed comes with it. *)

module Storage = Gc_kernel.Storage
module Stack = Gcs.Gcs_stack
module Kv = Gc_server.Kv
module Proto = Gc_server.Proto
module Resync = Gc_server.Resync

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* One durable-log entry as generic broadcast would write it: a
   Storage.Record whose payload is the stack's application envelope. *)
let entry ~seq ~origin ~opid ~ordered op =
  let klass =
    if ordered then Stack.Conflict.Ordered else Stack.Conflict.Commuting
  in
  let payload =
    match
      Gc_net.Payload.encode
        (Stack.Gcs_app { klass; body = Proto.Sv_op { origin; opid; op } })
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "payload encode"
  in
  Storage.Record.encode { Storage.Record.origin; seq; ordered; payload }

let apply_and_log kv store ~origin ~opid ~ordered op =
  ignore (Kv.apply kv ~origin ~opid ~ordered op);
  let _, seq = Storage.extent store in
  ignore (Storage.append store (entry ~seq ~origin ~opid ~ordered op))

(* ---------- state transfer: the full image ---------- *)

let test_full_image_repairs_joiner () =
  (* The divergence regression: the joiner was deaf to one origin's
     commuting op X — delivered early at the sponsor — while delivering
     hundreds of later ops.  Its log is one entry short of the sponsor's,
     so no log position can tell what it lacks; the image carries X. *)
  let metrics = Gc_obs.Metrics.create () in
  let sponsor = Kv.create () and sponsor_log = Storage.in_memory () in
  let joiner = Kv.create () and joiner_log = Storage.in_memory () in
  let x = Proto.Incr { key = "ghost"; delta = 7 } in
  apply_and_log sponsor sponsor_log ~origin:1 ~opid:1_000 ~ordered:false x;
  for i = 0 to 599 do
    let key = "k" ^ string_of_int (i mod 5) in
    let op, ordered =
      if i mod 4 = 0 then (Proto.Put { key; value = string_of_int i }, true)
      else (Proto.Incr { key = "n" ^ key; delta = 1 }, false)
    in
    apply_and_log sponsor sponsor_log ~origin:0 ~opid:i ~ordered op;
    apply_and_log joiner joiner_log ~origin:0 ~opid:i ~ordered op
  done;
  check_int "joiner is one entry behind" 601 (snd (Storage.extent sponsor_log));
  check_bool "joiner missing X" false (Kv.seen joiner ~origin:1 ~opid:1_000);
  let payload = Resync.provide ~kv:sponsor ~metrics in
  check_int "served full" 1
    (Gc_obs.Metrics.counter metrics "server.full_transfers");
  check_bool "image installs" true (Resync.install ~kv:joiner ~metrics payload);
  check_bool "X recovered" true (Kv.seen joiner ~origin:1 ~opid:1_000);
  check_string "state digests converge" (Kv.state_digest sponsor)
    (Kv.state_digest joiner);
  check_string "order digests converge" (Kv.order_digest sponsor)
    (Kv.order_digest joiner);
  check_int "applied counts converge" (Kv.applied_count sponsor)
    (Kv.applied_count joiner);
  check_int "nothing rejected" 0
    (Gc_obs.Metrics.counter metrics "server.bad_delivery");
  (* Anything but a sound image is refused and leaves the state alone. *)
  let before = Kv.dump joiner in
  check_bool "non-image payload refused" false
    (Resync.install ~kv:joiner ~metrics
       (Proto.Sv_op { origin = 0; opid = 0; op = x }));
  let blob = Kv.to_blob sponsor in
  check_bool "corrupt blob refused" false
    (Resync.install ~kv:joiner ~metrics
       (Proto.Sv_state { blob = String.sub blob 0 (String.length blob / 2) }));
  check_int "refusals counted" 2
    (Gc_obs.Metrics.counter metrics "server.bad_delivery");
  check_string "refusals leave the state" before (Kv.dump joiner)

(* ---------- boot replay ---------- *)

let test_replay_over_snapshot () =
  (* A snapshot taken after 30 of 50 logged ops, then the whole log
     replayed over it (as after a crash before the prefix was truncated):
     the 30 covered entries are skipped, the 20 above it applied, and a
     log entry that carries no KV op is ignored. *)
  let metrics = Gc_obs.Metrics.create () in
  let live = Kv.create () and log = Storage.in_memory () in
  let snapshot = ref "" in
  for i = 0 to 49 do
    if i = 30 then snapshot := Kv.to_blob live;
    apply_and_log live log ~origin:(i mod 3) ~opid:i ~ordered:(i mod 2 = 0)
      (if i mod 2 = 0 then Proto.Put { key = "k"; value = string_of_int i }
       else Proto.Incr { key = "n"; delta = i })
  done;
  ignore (Storage.append log "not a record");
  let rebooted = Kv.create () in
  Kv.restore rebooted !snapshot;
  Storage.iter_from log 0 (fun ~index:_ e ->
      Resync.replay_entry ~kv:rebooted ~metrics e);
  check_int "covered entries skipped" 30
    (Gc_obs.Metrics.counter metrics "server.dup_ops_skipped");
  check_int "the rest applied" 20
    (Gc_obs.Metrics.counter metrics "server.recovered_ops");
  check_string "state rebuilt" (Kv.dump live) (Kv.dump rebooted);
  check_int "applied count rebuilt" 50 (Kv.applied_count rebooted)

let suite =
  [
    ( "resync",
      [
        Alcotest.test_case "full image repairs a joiner" `Quick
          test_full_image_repairs_joiner;
        Alcotest.test_case "replay over a snapshot" `Quick
          test_replay_over_snapshot;
      ] );
  ]

(* The durability seam: Storage record framing, both backends, torn-tail
   recovery at every byte offset, KV snapshot blobs, and the teardown
   regressions (a submission inside the batch window must survive an
   orderly shutdown). *)

module Engine = Gc_sim.Engine
module Netsim = Gc_net.Netsim
module Trace = Gc_sim.Trace
module Storage = Gc_kernel.Storage
module Fstore = Gc_runtime_unix.Fstore
module Stack = Gcs.Gcs_stack
module Kv = Gc_server.Kv
module Proto = Gc_server.Proto
open Support

let check_int = Support.check_int

(* ---------- temp dirs ---------- *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gcs-storage-test-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------- record framing ---------- *)

let test_record_roundtrip () =
  let r =
    { Storage.Record.origin = 3; seq = 41; ordered = true; payload = "\x00\xffpx" }
  in
  let r' = Storage.Record.decode (Storage.Record.encode r) in
  Alcotest.(check bool) "roundtrip" true (r = r');
  Alcotest.check_raises "truncated raises Short" Gc_net.Wire.Short (fun () ->
      ignore (Storage.Record.decode ""))

(* ---------- in-memory backend ---------- *)

let collect store from =
  let acc = ref [] in
  Storage.iter_from store from (fun ~index entry -> acc := (index, entry) :: !acc);
  List.rev !acc

let test_in_memory_semantics () =
  let s = Storage.in_memory () in
  check_int "first index" 0 (Storage.append s "a");
  check_int "second index" 1 (Storage.append s "b");
  check_int "third index" 2 (Storage.append s "c");
  Alcotest.(check (pair int int)) "extent" (0, 3) (Storage.extent s);
  Alcotest.(check (list (pair int string)))
    "iter_from 0"
    [ (0, "a"); (1, "b"); (2, "c") ]
    (collect s 0);
  Alcotest.(check (list (pair int string))) "iter_from 2" [ (2, "c") ] (collect s 2);
  Storage.truncate_before s 2;
  Alcotest.(check (pair int int)) "extent after truncate" (2, 3) (Storage.extent s);
  Alcotest.(check (list (pair int string)))
    "truncated prefix gone" [ (2, "c") ] (collect s 0);
  Alcotest.(check bool) "no snapshot yet" true (Storage.load_snapshot s = None);
  Storage.save_snapshot s ~index:3 "blob";
  Alcotest.(check bool)
    "snapshot readable" true
    (Storage.load_snapshot s = Some (3, "blob"))

(* ---------- file backend ---------- *)

let test_fstore_reopen_replays () =
  with_dir (fun dir ->
      let entries = [ "alpha"; ""; String.make 300 'x'; "\x00\x01\xff" ] in
      let s = Fstore.open_dir ~dir () in
      List.iter (fun e -> ignore (Storage.append s e)) entries;
      Storage.save_snapshot s ~index:2 "snapblob";
      Storage.close s;
      let s = Fstore.open_dir ~dir () in
      Alcotest.(check (pair int int)) "extent survives" (0, 4) (Storage.extent s);
      Alcotest.(check (list (pair int string)))
        "entries survive"
        (List.mapi (fun i e -> (i, e)) entries)
        (collect s 0);
      Alcotest.(check bool)
        "snapshot survives" true
        (Storage.load_snapshot s = Some (2, "snapblob"));
      Storage.close s)

let test_fstore_unsynced_appends_visible () =
  with_dir (fun dir ->
      let s = Fstore.open_dir ~dir () in
      ignore (Storage.append s "one");
      ignore (Storage.append s "two");
      (* no sync: the mirror must still serve them *)
      Alcotest.(check (list (pair int string)))
        "mirror sees unsynced" [ (0, "one"); (1, "two") ] (collect s 0);
      Storage.close s)

let test_fstore_truncate_persists () =
  with_dir (fun dir ->
      let s = Fstore.open_dir ~dir () in
      for i = 0 to 9 do
        ignore (Storage.append s (string_of_int i))
      done;
      Storage.truncate_before s 7;
      Storage.close s;
      let s = Fstore.open_dir ~dir () in
      Alcotest.(check (pair int int)) "window survives" (7, 10) (Storage.extent s);
      Alcotest.(check (list (pair int string)))
        "suffix intact" [ (7, "7"); (8, "8"); (9, "9") ] (collect s 0);
      (* appends continue the same index space *)
      check_int "next index" 10 (Storage.append s "10");
      Storage.close s)

let test_fstore_snapshot_pins_empty_log () =
  with_dir (fun dir ->
      let s = Fstore.open_dir ~dir () in
      for i = 0 to 4 do
        ignore (Storage.append s (string_of_int i))
      done;
      Storage.save_snapshot s ~index:5 "covered";
      Storage.truncate_before s 5;
      Storage.close s;
      let s = Fstore.open_dir ~dir () in
      Alcotest.(check (pair int int))
        "snapshot pins index space" (5, 5) (Storage.extent s);
      check_int "append resumes past snapshot" 5 (Storage.append s "five");
      Storage.close s)

(* Torn-tail tolerance, exhaustively: for random logs, cut the file at
   EVERY byte offset strictly inside the final record.  Open must succeed,
   replay exactly the intact prefix, and count one torn tail. *)
let test_torn_tail_every_offset () =
  for seed = 0 to 4 do
    let rng = Random.State.make [| 0xbeef; seed |] in
    let n = 1 + Random.State.int rng 6 in
    let entries =
      List.init n (fun _ ->
          String.init
            (Random.State.int rng 120)
            (fun _ -> Char.chr (Random.State.int rng 256)))
    in
    with_dir (fun dir ->
        let s = Fstore.open_dir ~dir () in
        List.iter (fun e -> ignore (Storage.append s e)) entries;
        Storage.close s;
        let log = Filename.concat dir "log" in
        let raw = In_channel.with_open_bin log In_channel.input_all in
        let total = String.length raw in
        (* find where the last record starts: frame the prefix again *)
        let prefix = List.filteri (fun i _ -> i < n - 1) entries in
        let last_start =
          let w = Buffer.create 256 in
          List.iteri
            (fun i e ->
              let body = Buffer.create 64 in
              Gc_net.Wire.varint body i;
              Gc_net.Wire.str body e;
              Buffer.add_buffer w body;
              let crc = Gc_net.Wire.crc32 (Buffer.contents body) in
              for b = 0 to 3 do
                Buffer.add_char w (Char.chr ((crc lsr (8 * b)) land 0xff))
              done)
            prefix;
          Buffer.length w
        in
        for cut = last_start + 1 to total - 1 do
          let dir2 = temp_dir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir2)
            (fun () ->
              Unix.mkdir dir2 0o755;
              Out_channel.with_open_bin (Filename.concat dir2 "log") (fun oc ->
                  Out_channel.output_string oc (String.sub raw 0 cut));
              let metrics = Gc_obs.Metrics.create () in
              let s = Fstore.open_dir ~metrics ~dir:dir2 () in
              Alcotest.(check (list (pair int string)))
                (Printf.sprintf "seed %d cut %d: prefix intact" seed cut)
                (List.mapi (fun i e -> (i, e)) prefix)
                (collect s 0);
              check_int
                (Printf.sprintf "seed %d cut %d: torn tail counted" seed cut)
                1
                (Gc_obs.Metrics.counter metrics "storage.torn_tail_dropped");
              (* the log is usable: append after recovery *)
              check_int "append resumes" (n - 1) (Storage.append s "tail");
              Storage.close s)
        done)
  done

(* ---------- KV snapshot blob ---------- *)

let test_kv_blob_roundtrip () =
  let kv = Kv.create () in
  ignore (Kv.apply kv ~origin:0 ~opid:1 ~ordered:true (Proto.Put { key = "a"; value = "1" }));
  ignore (Kv.apply kv ~origin:1 ~opid:7 ~ordered:false (Proto.Incr { key = "n"; delta = 5 }));
  ignore (Kv.apply kv ~origin:0 ~opid:2 ~ordered:true (Proto.Put { key = "b"; value = "2" }));
  let kv' = Kv.create () in
  Kv.restore kv' (Kv.to_blob kv);
  Alcotest.(check string) "order digest" (Kv.order_digest kv) (Kv.order_digest kv');
  Alcotest.(check string) "state digest" (Kv.state_digest kv) (Kv.state_digest kv');
  check_int "ordered count" (Kv.ordered_count kv) (Kv.ordered_count kv');
  check_int "commuting count" (Kv.commuting_count kv) (Kv.commuting_count kv');
  Alcotest.(check bool) "applied-set survives" true (Kv.seen kv' ~origin:1 ~opid:7);
  Alcotest.(check bool) "unseen stays unseen" false (Kv.seen kv' ~origin:1 ~opid:8);
  Alcotest.(check bool)
    "blob is deterministic" true
    (Kv.to_blob kv = Kv.to_blob kv');
  (* 10k applies from one origin over two incarnations, a quarter of them
     ordered puts over 8 keys: the image holds the table, the order chain
     head and one watermark per (origin, incarnation), not the history. *)
  let id i = Gc_kernel.Delivered_set.first_seq ~epoch:(i / 5_000) + (i mod 5_000) in
  let kv = Kv.create () in
  for i = 0 to 9_999 do
    let opid = id i in
    let key = string_of_int (i mod 8) in
    let op, ordered =
      if i mod 4 = 0 then (Proto.Put { key; value = string_of_int i }, true)
      else (Proto.Incr { key = "n" ^ key; delta = 1 }, false)
    in
    ignore (Kv.apply kv ~origin:2 ~opid ~ordered op)
  done;
  let blob = Kv.to_blob kv in
  Alcotest.(check bool)
    (Printf.sprintf "blob under 1 KiB (%d B)" (String.length blob))
    true
    (String.length blob < 1024);
  let kv' = Kv.create () in
  Kv.restore kv' blob;
  check_int "applied count" 10_000 (Kv.applied_count kv');
  Alcotest.(check bool) "every applied id survives" true
    (List.for_all
       (fun i -> Kv.seen kv' ~origin:2 ~opid:(id i))
       (List.init 10_000 Fun.id));
  Alcotest.(check string) "order digest" (Kv.order_digest kv) (Kv.order_digest kv');
  Alcotest.(check string) "state digest" (Kv.state_digest kv) (Kv.state_digest kv');
  Alcotest.(check (option string)) "re-apply is a duplicate" None
    (Kv.apply kv' ~origin:2 ~opid:17 ~ordered:false
       (Proto.Incr { key = "n1"; delta = 1 }))

(* ---------- stack wiring: log-before-deliver and shutdown flush ---------- *)

type Gc_net.Payload.t += Op of int

let () =
  Gc_net.Payload.register_codec ~tag:"tso"
    ~encode:(fun _enc w p ->
      match p with
      | Op k ->
          Gc_net.Wire.varint w k;
          true
      | _ -> false)
    ~decode:(fun _dec r -> Op (Gc_net.Wire.read_varint r))

let make_stacks ?(config = Stack.default_config) ~with_storage ~n ~seed () =
  let engine = Engine.create ~seed () in
  let trace = Trace.create () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let initial = List.init n (fun i -> i) in
  let applied = Array.make n [] in
  let stores =
    Array.init n (fun _ -> if with_storage then Some (Storage.in_memory ()) else None)
  in
  let stacks =
    Array.init n (fun id ->
        let s =
          Stack.create
            (Gc_kernel.Runtime.of_netsim net ~trace)
            ~id ~initial ~config ?storage:stores.(id) ()
        in
        Stack.on_deliver s (fun ~origin:_ ~ordered:_ payload ->
            match payload with
            | Op k -> applied.(id) <- k :: applied.(id)
            | _ -> ());
        s)
  in
  (engine, stacks, applied, stores)

(* Every delivered application message must be in the log, in delivery
   order, with the right ordering class — the write-ahead invariant crash
   recovery rests on. *)
let test_stack_logs_deliveries () =
  let engine, stacks, applied, stores =
    make_stacks ~with_storage:true ~n:3 ~seed:11L ()
  in
  for k = 0 to 5 do
    if k mod 2 = 0 then Stack.abcast stacks.(k mod 3) (Op k)
    else Stack.rbcast stacks.(k mod 3) (Op k)
  done;
  Engine.run ~until:30_000.0 engine;
  check_int "all delivered at 0" 6 (List.length applied.(0));
  let store = Option.get stores.(0) in
  let logged = ref [] in
  Storage.iter_from store 0 (fun ~index:_ entry ->
      let record = Storage.Record.decode entry in
      match Gc_net.Payload.decode record.Storage.Record.payload with
      | Ok (Stack.Gcs_app { body = Op k; _ }) ->
          logged := (k, record.Storage.Record.ordered) :: !logged
      | _ -> ());
  let logged = List.rev !logged in
  Alcotest.(check (list int))
    "log order matches delivery order"
    (List.rev applied.(0))
    (List.map fst logged);
  List.iter
    (fun (k, ordered) ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d ordering class" k)
        (k mod 2 = 0) ordered)
    logged

(* Satellite regression: a message submitted immediately before an orderly
   shutdown sits in the submission batcher; [Stack.shutdown] must flush it
   so the survivors deliver it.  ([Stack.crash] models fail-stop, where
   losing it is correct.) *)
let test_shutdown_flushes_batched_submission () =
  for_seeds ~count:3 (fun seed ->
      let config =
        Stack.Config.make ~exclusion_timeout:500.0 ~batch_delay:50.0 ()
      in
      let engine, stacks, applied, _ =
        make_stacks ~config ~with_storage:false ~n:3 ~seed ()
      in
      ignore
        (Engine.schedule engine ~delay:1_000.0 (fun () ->
             (* inside the 50ms batch window: still parked in the batcher *)
             Stack.abcast stacks.(2) (Op 99);
             Stack.shutdown stacks.(2)));
      Engine.run ~until:60_000.0 engine;
      for i = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "seed %Ld: survivor %d delivered the parked op" seed i)
          true
          (List.mem 99 applied.(i))
      done)

(* A member that is still in everyone's view and asks to join again (a
   fast restart) must get state directly — a resync — rather than hang
   waiting for a view change that will never come. *)
let test_rejoin_while_still_member_resyncs () =
  let engine, stacks, applied, _ =
    make_stacks ~with_storage:false ~n:3 ~seed:17L ()
  in
  for k = 0 to 3 do
    Stack.abcast stacks.(0) (Op k)
  done;
  ignore
    (Engine.schedule engine ~delay:5_000.0 (fun () ->
         Stack.join stacks.(2) ~force:true ~via:0));
  Engine.run ~until:30_000.0 engine;
  Alcotest.(check bool) "still joined" true (Stack.joined stacks.(2));
  check_int "all delivered" 4 (List.length applied.(2));
  check_int "sponsor answered with a resync" 1
    (Gc_obs.Metrics.counter (Stack.metrics stacks.(0)) "membership.resyncs")

let suite =
  [
    ( "storage",
      [
        Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
        Alcotest.test_case "in-memory semantics" `Quick test_in_memory_semantics;
        Alcotest.test_case "fstore reopen replays" `Quick test_fstore_reopen_replays;
        Alcotest.test_case "fstore unsynced appends visible" `Quick
          test_fstore_unsynced_appends_visible;
        Alcotest.test_case "fstore truncate persists" `Quick
          test_fstore_truncate_persists;
        Alcotest.test_case "fstore snapshot pins empty log" `Quick
          test_fstore_snapshot_pins_empty_log;
        Alcotest.test_case "torn tail at every offset" `Quick
          test_torn_tail_every_offset;
        Alcotest.test_case "kv blob roundtrip" `Quick test_kv_blob_roundtrip;
        Alcotest.test_case "stack logs deliveries" `Quick test_stack_logs_deliveries;
        Alcotest.test_case "shutdown flushes batched submission" `Quick
          test_shutdown_flushes_batched_submission;
        Alcotest.test_case "rejoin while still member resyncs" `Quick
          test_rejoin_while_still_member_resyncs;
      ] );
  ]

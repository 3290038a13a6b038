(* The binary wire layer: primitive round-trips, the extensible-payload
   codec registry with its typed errors, and length-prefixed framing with
   the incremental stream decoder (reject counting, resynchronisation,
   terminal length corruption). *)

module Wire = Gc_net.Wire
module Payload = Gc_net.Payload
module Frame = Gc_net.Frame
module Metrics = Gc_obs.Metrics
module Proto = Gc_server.Proto
module Ru = Gc_runtime_unix.Runtime_unix
open Support

type Gc_net.Payload.t += Unregistered of int

let check_str = Alcotest.(check string)

(* ---------- wire primitives ---------- *)

let test_wire_roundtrip () =
  let w = Buffer.create 64 in
  Wire.u8 w 200;
  List.iter (Wire.varint w)
    [ 0; 1; -1; 63; -64; 1 lsl 40; -(1 lsl 40); max_int; min_int ];
  Wire.f64 w 3.25;
  Wire.f64 w Float.neg_infinity;
  Wire.str w "";
  Wire.str w "hello \x00 wire";
  Wire.list w Wire.varint [ 5; 6; 7 ];
  Wire.option w Wire.str None;
  Wire.option w Wire.str (Some "x");
  Wire.pair w Wire.varint Wire.str (9, "y");
  let r = Wire.reader (Buffer.contents w) in
  check_int "u8" 200 (Wire.read_u8 r);
  List.iter
    (fun v -> check_int "varint" v (Wire.read_varint r))
    [ 0; 1; -1; 63; -64; 1 lsl 40; -(1 lsl 40); max_int; min_int ];
  Alcotest.(check (float 0.0)) "f64" 3.25 (Wire.read_f64 r);
  Alcotest.(check bool) "f64 -inf" true
    (Wire.read_f64 r = Float.neg_infinity);
  check_str "empty str" "" (Wire.read_str r);
  check_str "str" "hello \x00 wire" (Wire.read_str r);
  check_list_int "list" [ 5; 6; 7 ] (Wire.read_list r Wire.read_varint);
  Alcotest.(check (option string)) "none" None (Wire.read_option r Wire.read_str);
  Alcotest.(check (option string)) "some" (Some "x")
    (Wire.read_option r Wire.read_str);
  let a, b = Wire.read_pair r Wire.read_varint Wire.read_str in
  check_int "pair fst" 9 a;
  check_str "pair snd" "y" b;
  check_int "fully consumed" 0 (Wire.remaining r)

let test_wire_short () =
  let r = Wire.reader "\x05" in
  Alcotest.check_raises "short read" Wire.Short (fun () ->
      ignore (Wire.read_str r))

(* ---------- payload codec ---------- *)

let roundtrip p =
  match Payload.encode p with
  | Error e -> Alcotest.failf "encode: %s" (Payload.codec_error_to_string e)
  | Ok bytes -> (
      match Payload.decode bytes with
      | Error e ->
          Alcotest.failf "decode: %s" (Payload.codec_error_to_string e)
      | Ok p' -> p')

let test_codec_roundtrip () =
  (match roundtrip (Proto.Cl_put { rid = 7; key = "k"; value = "v" }) with
  | Proto.Cl_put { rid = 7; key = "k"; value = "v" } -> ()
  | p -> Alcotest.failf "wrong payload back: %s" (Payload.to_string p));
  (* Nested extension constructors recurse through the registry. *)
  (match
    roundtrip
      (Ru.Datagram
         { src = 3; inner = Proto.Sv_op { origin = 1; opid = 42;
             op = Proto.Incr { key = "hits"; delta = -5 } } })
  with
  | Ru.Datagram
      { src = 3; inner = Proto.Sv_op { origin = 1; opid = 42;
          op = Proto.Incr { key = "hits"; delta = -5 } } } -> ()
  | p -> Alcotest.failf "wrong nested payload: %s" (Payload.to_string p));
  (* The state-transfer snapshot ships its delivered sets in compact form:
     a restarted origin's epoch-1 stream, a gap and a straggler survive. *)
  let module D = Gc_kernel.Delivered_set in
  let ab = D.create () and gb = D.create () in
  List.iter
    (fun id -> ignore (D.add ab id))
    [ (0, 0); (0, 1); (0, 5); (1, D.first_seq ~epoch:1); (2, 3) ];
  ignore (D.add gb (1, 0));
  match
    roundtrip
      (Gcs.Gcs_stack.Gcs_snapshot
         { next_instance = 4; ab_delivered = ab; gb_stage = 2;
           gb_delivered = gb; app = None })
  with
  | Gcs.Gcs_stack.Gcs_snapshot
      { next_instance = 4; ab_delivered; gb_stage = 2; gb_delivered; app = None }
    ->
      List.iter
        (fun id ->
          check_bool "ab member" (D.mem ab id) (D.mem ab_delivered id);
          check_bool "gb member" (D.mem gb id) (D.mem gb_delivered id))
        [ (0, 1); (0, 2); (0, 5); (1, 0); (1, D.first_seq ~epoch:1); (2, 3) ];
      check_int "ab cardinal" 5 (D.cardinal ab_delivered);
      check_int "gb cardinal" 1 (D.cardinal gb_delivered)
  | p -> Alcotest.failf "wrong snapshot back: %s" (Payload.to_string p)

let test_codec_errors () =
  (match Payload.encode (Unregistered 3) with
  | Error (Payload.Unencodable _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unregistered payload must not encode");
  Alcotest.(check bool) "encodable" false (Payload.encodable (Unregistered 3));
  let unknown_tag_bytes =
    let b = Buffer.create 16 in
    Wire.str b "nosuchtag";
    Buffer.contents b
  in
  (match Payload.decode unknown_tag_bytes with
  | Error (Payload.Unknown_tag _) -> ()
  | _ -> Alcotest.fail "unknown tag must be typed");
  let ok =
    match Payload.encode (Proto.Cl_dump { rid = 1 }) with
    | Ok b -> b
    | Error _ -> Alcotest.fail "encode"
  in
  (match Payload.decode (String.sub ok 0 (String.length ok - 1)) with
  | Error (Payload.Truncated | Payload.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated body must be typed");
  match Payload.decode (ok ^ "x") with
  | Error (Payload.Trailing 1) -> ()
  | _ -> Alcotest.fail "trailing bytes must be typed"

(* ---------- hot-path codecs (gbcast / abcast / consensus / stack) ----------

   The gbcast, abcast, consensus, membership and monitoring payload
   constructors are module-private, so their binary codecs are exercised
   behaviourally: a batched three-node Ab+Gb world runs a
   conflicting/commuting mix, and a full four-node stack runs a join and a
   suspicion flap, each over a runtime whose [send] is wrapped to capture
   every payload that crosses the wire.  Every captured payload must be
   binary-encodable (the hot path never falls back to the structural
   escape hatch), survive a round-trip with its printed form and its bytes
   intact, reject every strict prefix with a typed error, and never escape
   an exception on corrupted bytes. *)

module Ab = Gc_abcast.Atomic_broadcast
module Gb = Gc_gbcast.Generic_broadcast
module Conflict = Gc_gbcast.Conflict
module Runtime = Gc_kernel.Runtime
module Stack = Gcs.Gcs_stack

type Gc_net.Payload.t += Wop of { klass : int; k : int }

let () =
  Payload.register_codec ~tag:"test.wop"
    ~encode:(fun _enc w p ->
      match p with
      | Wop { klass; k } ->
          Wire.u8 w klass;
          Wire.varint w k;
          true
      | _ -> false)
    ~decode:(fun _dec r ->
      let klass = Wire.read_u8 r in
      let k = Wire.read_varint r in
      Wop { klass; k })

(* The simulator runtime, with every datagram sent through it logged. *)
let capturing captured net ~trace =
  let base = Runtime.of_netsim net ~trace in
  {
    base with
    Runtime.send =
      (fun ~src ~dst p ->
        captured := p :: !captured;
        base.Runtime.send ~src ~dst p);
  }

let capture_mode_payloads ack_mode =
  let n = 3 in
  let engine = Engine.create ~seed:4242L () in
  let trace = Trace.create ~enabled:false () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let captured = ref [] in
  let conflict =
    Conflict.two_class ~classify:(function
      | Wop { klass = 0; _ } -> Conflict.Commuting
      | _ -> Conflict.Ordered)
  in
  let make_node i =
    let proc = Process.create (capturing captured net ~trace) ~id:i in
    let fd = Fd.create proc ~hb_period:20.0 ~peers:(ids n) () in
    let rc = Rc.create proc ~rto:50.0 ~stuck_after:10_000.0 () in
    let rb = Rb.create proc rc in
    let ab = Ab.create proc ~rc ~rb ~fd ~members:(ids n) () in
    let gb =
      Gb.create proc ~rc ~rb ~ab ~conflict ~ack_mode ~batch_max:3
        ~batch_delay:2.0 ~members:(ids n) ()
    in
    (ab, gb)
  in
  let nodes = Array.init n make_node in
  let at time f = ignore (Engine.schedule_at engine ~time f) in
  (* Three back-to-back commuting ops fill a submission batch
     (gb.fastbatch) whose acknowledgements ride one vector (gb.acks). *)
  at 100.0 (fun () ->
      for k = 0 to 2 do
        Gb.gbcast (snd nodes.(0)) (Wop { klass = 0; k })
      done);
  (* An ordered op forces a stage change: gb.state, gb.cut and the
     consensus instance behind it (cs.*, with ab.batch nested). *)
  at 200.0 (fun () -> Gb.gbcast (snd nodes.(1)) (Wop { klass = 1; k = 10 }));
  (* A lone commuting op flushes by tick: singleton gb.fast / gb.ack. *)
  at 300.0 (fun () -> Gb.gbcast (snd nodes.(2)) (Wop { klass = 0; k = 20 }));
  (* Direct abcasts: one ab.data submission each. *)
  at 400.0 (fun () ->
      for k = 30 to 32 do
        Ab.abcast (fst nodes.(0)) (Wop { klass = 1; k })
      done);
  Engine.run ~until:5_000.0 engine;
  List.rev !captured

(* The full stack sends what the ordering layers alone never do: a join
   (mb.join_req, then mb.state carrying the gcs snapshot), the view change
   it orders, application messages in gcs envelopes, and the monitoring
   gossip of a suspicion flap (node 0 misses node 1's heartbeats past the
   exclusion timeout, suspects it, then retracts; one suspector is below
   the default threshold of 2, so nobody is excluded). *)
let capture_stack_payloads () =
  let n = 4 in
  let engine = Engine.create ~seed:4243L () in
  let trace = Trace.create ~enabled:false () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n () in
  let captured = ref [] in
  let config = Stack.Config.make ~exclusion_timeout:500.0 () in
  let stacks =
    Array.init n (fun id ->
        (* node 3 joins later: it starts from the founders' view *)
        Stack.create (capturing captured net ~trace) ~id ~initial:[ 0; 1; 2 ] ~config ())
  in
  let at time f = ignore (Engine.schedule_at engine ~time f) in
  at 100.0 (fun () ->
      Stack.rbcast stacks.(0) (Wop { klass = 0; k = 1 });
      Stack.abcast stacks.(1) (Wop { klass = 1; k = 2 }));
  at 300.0 (fun () -> Stack.join stacks.(3) ~via:0);
  at 2_000.0 (fun () ->
      Fd.suppress (Stack.failure_detector stacks.(0)) ~peer:1 ~until:2_800.0);
  Engine.run ~until:6_000.0 engine;
  List.rev !captured

(* A stream whose first frame is lost: the delayed ack finds seq 1 in the
   reorder buffer and nothing delivered, so it carries [cum = -1], the one
   negative varint on the rchannel wire.  The retransmission then fills
   the gap. *)
let capture_gap_ack_payloads () =
  let engine = Engine.create ~seed:4244L () in
  let trace = Trace.create ~enabled:false () in
  let net =
    Netsim.create engine ~trace ~delay:(Gc_net.Delay.Constant 1.0) ~n:2 ()
  in
  let captured = ref [] in
  let runtime = capturing captured net ~trace in
  let rcs =
    Array.init 2 (fun id -> Rc.create (Process.create runtime ~id) ())
  in
  Netsim.set_link net ~src:0 ~dst:1 ~drop:1.0 ();
  Rc.send rcs.(0) ~dst:1 (Wop { klass = 0; k = 0 });
  Netsim.set_link net ~src:0 ~dst:1 ~drop:0.0 ();
  Rc.send rcs.(0) ~dst:1 (Wop { klass = 0; k = 1 });
  Engine.run ~until:1_000.0 engine;
  List.rev !captured

(* Both quorum modes: All_members cuts straight from the local state, so
   [Gb_state] only crosses the wire in Two_thirds mode. *)
let capture_hot_path_payloads () =
  let captured =
    capture_mode_payloads Gb.All_members
    @ capture_mode_payloads Gb.Two_thirds
    @ capture_stack_payloads ()
    @ capture_gap_ack_payloads ()
  in
  (* Dedupe by printed form: the codec checks are per-shape, not per-copy. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let s = Payload.to_string p in
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.replace seen s ();
        true
      end)
    captured

let test_hot_path_codec_coverage () =
  let payloads = capture_hot_path_payloads () in
  let printed = List.map Payload.to_string payloads in
  (* Wire payloads arrive wrapped in rc/rb envelopes ("rc.data#..(rb#..(gb.
     fast#..))"), so coverage is a substring check on the printed form. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let covers needle =
    check_bool
      (Printf.sprintf "workload produced a %s payload" needle)
      true
      (List.exists (fun s -> contains s needle) printed)
  in
  (* The batching-era wire vocabulary must actually appear on the wire —
     batch containers, their singleton degenerations, the stage-change
     path and the consensus instances behind it. *)
  List.iter covers
    [
      "gb.fast#"; "gb.fastbatch["; "gb.acks["; "gb.state@"; "gb.cut@";
      "cs.est["; "cs.prop["; "cs.ack["; "cs.decide["; "ab.data#";
      "mb.join_req("; "mb.state("; "mon.suspect("; "mon.retract(";
      "rc.ack#0<=-1";
    ]

let test_hot_path_codec_roundtrip () =
  let payloads = capture_hot_path_payloads () in
  check_bool "captured a meaningful payload set" true
    (List.length payloads >= 10);
  List.iter
    (fun p ->
      let s = Payload.to_string p in
      Alcotest.(check bool)
        (Printf.sprintf "%s encodable" s)
        true (Payload.encodable p);
      let bytes =
        match Payload.encode p with
        | Ok b -> b
        | Error e ->
            Alcotest.failf "%s encode: %s" s (Payload.codec_error_to_string e)
      in
      let p' =
        match Payload.decode bytes with
        | Ok p' -> p'
        | Error e ->
            Alcotest.failf "%s decode: %s" s (Payload.codec_error_to_string e)
      in
      check_str (s ^ " printed form survives") s (Payload.to_string p');
      match Payload.encode p' with
      | Ok bytes' -> check_str (s ^ " re-encodes to identical bytes") bytes bytes'
      | Error e ->
          Alcotest.failf "%s re-encode: %s" s (Payload.codec_error_to_string e))
    payloads

let test_hot_path_codec_truncation_and_garbage () =
  let payloads = capture_hot_path_payloads () in
  List.iter
    (fun p ->
      let s = Payload.to_string p in
      let bytes =
        match Payload.encode p with Ok b -> b | Error _ -> assert false
      in
      let len = String.length bytes in
      (* Every strict prefix must fail with a *typed* error. *)
      for cut = 0 to len - 1 do
        match Payload.decode (String.sub bytes 0 cut) with
        | Error _ -> ()
        | Ok p' ->
            Alcotest.failf "%s truncated to %d bytes decoded as %s" s cut
              (Payload.to_string p')
      done;
      (* Single-byte corruption anywhere must yield Ok or a typed error —
         decode is total; exceptions must not escape the codec layer. *)
      for i = 0 to len - 1 do
        let mutated = Bytes.of_string bytes in
        Bytes.set mutated i '\xff';
        match Payload.decode (Bytes.to_string mutated) with
        | Ok p' -> ignore (Payload.to_string p')
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s corrupt at byte %d escaped exception %s" s i
              (Printexc.to_string e)
      done)
    payloads

(* ---------- fast-path wire length ----------

   Golden encoded lengths for the commuting fast path as it crosses TCP:
   an rchannel data packet carrying a reliable broadcast carrying a
   gbcast fast batch of one message or of three (a lone message rides a
   one-element batch).  The three constructors are module-private, so the
   payload is built by decoding hand-assembled bytes with fixed field
   values.  A varint below 64 takes one byte and a string is a one-byte
   length plus its bytes:

     rc envelope  tag "rc" 3 + constructor 1 + gen 1 + seq 1       =  6
     rb envelope  tag "rb" 3 + origin 1 + bid 1 + dests [0;1;2] 4  =  9
     gb header    tag "gb" 3 + constructor 1 + list length 1       =  5
     gb msg       origin 1 + gseq 1 + body 11                      = 13
     body         tag "test.wop" 9 + klass 1 + k 1                 = 11

   so 6 + 9 + 5 + 13 = 33 bytes for one message and 6 + 9 + 5 + 3 * 13 =
   59 for three.  A field added to any envelope changes these numbers. *)

let fast_path_bytes gseqs =
  let w = Buffer.create 128 in
  Wire.str w "rc";
  Wire.u8 w 0 (* Rc_data *);
  Wire.varint w 0 (* gen *);
  Wire.varint w 5 (* seq *);
  Wire.str w "rb";
  Wire.varint w 1 (* origin *);
  Wire.varint w 7 (* bid *);
  Wire.list w Wire.varint [ 0; 1; 2 ] (* dests *);
  Wire.str w "gb";
  let msg w gseq =
    Wire.varint w 1 (* origin *);
    Wire.varint w gseq;
    Wire.str w "test.wop";
    Wire.u8 w 0 (* klass *);
    Wire.varint w gseq (* k *)
  in
  Wire.u8 w 4 (* Gb_fast_batch *);
  Wire.list w msg gseqs;
  Buffer.contents w

let test_fast_path_wire_length () =
  let check gseqs ~printed ~len =
    let bytes = fast_path_bytes gseqs in
    let p =
      match Payload.decode bytes with
      | Ok p -> p
      | Error e ->
          Alcotest.failf "%s decode: %s" printed
            (Payload.codec_error_to_string e)
    in
    check_str "printed form" printed (Payload.to_string p);
    match Payload.encode p with
    | Ok bytes' ->
        check_str (printed ^ " re-encodes to identical bytes") bytes bytes';
        check_int (printed ^ " encoded length") len (String.length bytes')
    | Error e ->
        Alcotest.failf "%s encode: %s" printed (Payload.codec_error_to_string e)
  in
  check [ 3 ] ~printed:"rc.data#0.5(rb#1.7(gb.fast#1.3))" ~len:33;
  check [ 3; 4; 5 ]
    ~printed:"rc.data#0.5(rb#1.7(gb.fastbatch[1.3;1.4;1.5]))" ~len:59

(* The singleton constructors' discriminators (gb 0 = fast, gb 1 = ack,
   ab 0 = data) are retired: bytes that still carry one are rejected with
   a typed [Malformed] error, never an exception or a payload. *)
let test_retired_discriminators () =
  let retired tag k =
    let w = Buffer.create 32 in
    Wire.str w tag;
    Wire.u8 w k;
    (* Bytes the retired constructor would have carried after its
       discriminator. *)
    Wire.varint w 1;
    Wire.varint w 3;
    Wire.varint w 0;
    match Payload.decode (Buffer.contents w) with
    | Error (Payload.Malformed _) -> ()
    | Error e ->
        Alcotest.failf "%s %d: wrong error %s" tag k
          (Payload.codec_error_to_string e)
    | Ok p -> Alcotest.failf "%s %d decoded as %s" tag k (Payload.to_string p)
    | exception e ->
        Alcotest.failf "%s %d raised %s" tag k (Printexc.to_string e)
  in
  retired "gb" 0;
  retired "gb" 1;
  retired "ab" 0

(* ---------- golden wire bytes ----------

   The exact encoding of one sample per constructor of every registered
   codec family, committed in [data/wire_golden.txt]: a change to the
   codec's dispatch or to a [Wire] helper that moves a single byte fails
   here.  The public constructors are built directly; the module-private
   ones are every distinct payload the captured workloads above put on
   the wire, so each constructor is covered in every nesting they
   produce.  Each line is the printed form, a tab, and the hex of the
   encoding.

   Regenerate (only when a wire change is intended and reviewed) with:

     GCS_UPDATE_PINS=1 dune runtest

   which writes the file into the build tree's [test/data]. *)

let golden_file = "data/wire_golden.txt"

let golden_public_samples () =
  let module D = Gc_kernel.Delivered_set in
  let ab = D.create () and gb = D.create () in
  List.iter (fun id -> ignore (D.add ab id)) [ (0, 0); (0, 1); (0, 5); (2, 3) ];
  ignore (D.add gb (1, 0));
  [
    Proto.Cl_put { rid = 1; key = "k"; value = "v" };
    Proto.Cl_incr { rid = 2; key = "hits"; delta = -5 };
    Proto.Cl_get { rid = 3; key = "k" };
    Proto.Cl_dump { rid = 4 };
    Proto.Cl_reply { rid = 5; ok = true; body = "ok" };
    Proto.Sv_op { origin = 1; opid = 42; op = Proto.Put { key = "k"; value = "v" } };
    Proto.Sv_op { origin = 2; opid = 300; op = Proto.Incr { key = "n"; delta = 7 } };
    Proto.Cl_stats { rid = 6; format = Proto.Stats_json };
    Proto.Cl_stats { rid = 7; format = Proto.Stats_prometheus };
    Proto.Cl_health { rid = 8 };
    Proto.Sv_state { blob = "\x00blob\xff" };
    Ru.Datagram { src = 3; inner = Proto.Cl_dump { rid = 9 } };
    Stack.Gcs_app { klass = Conflict.Commuting; body = Wop { klass = 0; k = 1 } };
    Stack.Gcs_app { klass = Conflict.Ordered; body = Wop { klass = 1; k = 2 } };
    Stack.Gcs_snapshot
      { next_instance = 4; ab_delivered = ab; gb_stage = 2; gb_delivered = gb;
        app = Some (Proto.Sv_state { blob = "s" }) };
  ]

let golden_lines () =
  List.map
    (fun p ->
      let printed = Payload.to_string p in
      match Payload.encode p with
      | Ok bytes ->
          let hex =
            String.concat ""
              (List.map
                 (fun c -> Printf.sprintf "%02x" (Char.code c))
                 (List.of_seq (String.to_seq bytes)))
          in
          printed ^ "\t" ^ hex
      | Error e ->
          Alcotest.failf "%s encode: %s" printed
            (Payload.codec_error_to_string e))
    (golden_public_samples () @ capture_hot_path_payloads ())

let test_golden_wire_bytes () =
  let lines = golden_lines () in
  if Sys.getenv_opt "GCS_UPDATE_PINS" <> None then begin
    let oc = open_out golden_file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %d golden encodings to %s\n" (List.length lines)
      golden_file
  end
  else begin
    let ic = open_in golden_file in
    let rec read acc =
      match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let expected = read [] in
    close_in ic;
    check_int "golden sample count" (List.length expected) (List.length lines);
    List.iter2
      (fun want got ->
        if want <> got then
          Alcotest.failf "wire bytes changed: expected %S, got %S" want got)
      expected lines
  end

(* ---------- framing ---------- *)

let frame_of p =
  match Frame.encode p with
  | Ok f -> f
  | Error e -> Alcotest.failf "frame encode: %s" (Frame.error_to_string e)

let test_frame_roundtrip () =
  let f = frame_of (Proto.Cl_get { rid = 9; key = "k" }) in
  match Frame.decode_exact f with
  | Ok (Proto.Cl_get { rid = 9; key = "k" }) -> ()
  | Ok p -> Alcotest.failf "wrong payload: %s" (Payload.to_string p)
  | Error e -> Alcotest.failf "decode_exact: %s" (Frame.error_to_string e)

let test_frame_oversized () =
  let big = String.make 64 'x' in
  (match Frame.encode ~limit:8 (Proto.Cl_put { rid = 0; key = big; value = big }) with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized encode must be typed");
  let f = frame_of (Proto.Cl_put { rid = 0; key = big; value = big }) in
  match Frame.decode_exact ~limit:8 f with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized decode must be typed"

let test_decoder_stream_and_resync () =
  let m = Metrics.create () in
  let d = Frame.Decoder.create ~metrics:m () in
  let f1 = frame_of (Proto.Cl_dump { rid = 1 }) in
  let f2 = frame_of (Proto.Cl_dump { rid = 2 }) in
  (* A frame with a valid length but an undecodable body. *)
  let junk_body =
    let b = Buffer.create 16 in
    Wire.str b "nosuchtag";
    Buffer.contents b
  in
  let junk =
    let b = Buffer.create 16 in
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b (String.length junk_body);
    Buffer.add_string b junk_body;
    Buffer.contents b
  in
  let stream = f1 ^ junk ^ f2 in
  (* Feed byte by byte: every prefix must simply await. *)
  String.iter (fun c -> Frame.Decoder.feed_string d (String.make 1 c)) stream;
  (match Frame.Decoder.next d with
  | `Payload (Proto.Cl_dump { rid = 1 }) -> ()
  | _ -> Alcotest.fail "first frame");
  (match Frame.Decoder.next d with
  | `Corrupt (Frame.Codec (Payload.Unknown_tag _)) -> ()
  | _ -> Alcotest.fail "junk frame must surface as typed corrupt");
  Alcotest.(check bool) "body corruption is not fatal" false
    (Frame.Decoder.dead d);
  (match Frame.Decoder.next d with
  | `Payload (Proto.Cl_dump { rid = 2 }) -> ()
  | _ -> Alcotest.fail "stream must resynchronise after a bad body");
  (match Frame.Decoder.next d with `Await -> () | _ -> Alcotest.fail "drained");
  check_int "one reject" 1 (Frame.Decoder.rejected d);
  check_int "net.frame_reject counted" 1 (Metrics.counter m "net.frame_reject")

(* Bodies decode in place, bounded by their frame: a string field whose
   length runs past the end of its frame is [Truncated] even though the
   next frame's bytes are already buffered behind it, and the stream
   carries on at that next frame. *)
let test_decoder_body_bounded_by_frame () =
  let f = frame_of (Proto.Cl_put { rid = 3; key = "k"; value = String.make 40 'v' }) in
  let body = String.sub f 4 (String.length f - 4) in
  let cut = String.length body - 20 in
  let short =
    let b = Bytes.create (4 + cut) in
    Bytes.set_int32_be b 0 (Int32.of_int cut);
    Bytes.blit_string body 0 b 4 cut;
    Bytes.to_string b
  in
  let next = frame_of (Proto.Cl_put { rid = 4; key = "k"; value = String.make 40 'w' }) in
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed_string d (short ^ next);
  (match Frame.Decoder.next d with
  | `Corrupt (Frame.Codec Payload.Truncated) -> ()
  | `Corrupt e -> Alcotest.failf "wrong reject: %s" (Frame.error_to_string e)
  | `Payload p -> Alcotest.failf "overran into the next frame: %s" (Payload.to_string p)
  | `Await -> Alcotest.fail "complete frame must not await");
  (match Frame.Decoder.next d with
  | `Payload (Proto.Cl_put { rid = 4; value; _ }) ->
      check_str "next frame intact" (String.make 40 'w') value
  | _ -> Alcotest.fail "stream must continue at the next frame");
  check_int "fully consumed" 0 (Frame.Decoder.buffered d)

let test_decoder_dead_on_bad_length () =
  let m = Metrics.create () in
  let d = Frame.Decoder.create ~limit:1024 ~metrics:m () in
  Frame.Decoder.feed_string d "\xff\xff\xff\xff";
  (match Frame.Decoder.next d with
  | `Corrupt (Frame.Bad_length _ | Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "length corruption must surface");
  Alcotest.(check bool) "decoder dead" true (Frame.Decoder.dead d);
  (match Frame.Decoder.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "dead decoder stays corrupt");
  check_int "reject counted" 1 (Metrics.counter m "net.frame_reject")

(* A string length near [max_int] once passed [Wire.read_str]'s bounds
   check: [pos + n > limit] overflowed, and [String.sub] then raised
   [Invalid_argument] out of [Payload.decode] and the stream decoder, up
   through the event loop.  9- and 10-byte varint lengths, at a codec tag,
   at a [Cl_put] key and at an [Sv_state] blob, must each be a typed
   [Truncated] error, and the stream must go on at the next frame. *)
let hostile_lengths =
  let w = Buffer.create 16 in
  List.map
    (fun n ->
      Buffer.clear w;
      Wire.varint w n;
      Buffer.contents w)
    [ max_int; max_int - 5; 1 lsl 61; -(1 lsl 61) ]
  @ [ "\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01" ]

let hostile_bodies () =
  List.concat_map
    (fun len ->
      let body prefix rest =
        let w = Buffer.create 32 in
        prefix w;
        Buffer.add_string w len;
        Buffer.add_string w rest;
        Buffer.contents w
      in
      [
        ("codec tag", body ignore "rc");
        ( "Cl_put key",
          body
            (fun w ->
              Wire.str w "cl";
              Wire.u8 w 0;
              Wire.varint w 1)
            "key" );
        ( "Sv_state blob",
          body
            (fun w ->
              Wire.str w "cl";
              Wire.u8 w 8)
            "blob" );
      ])
    hostile_lengths

(* A frame around raw body bytes. *)
let frame_of_body body =
  let b = Bytes.create (4 + String.length body) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length body));
  Bytes.blit_string body 0 b 4 (String.length body);
  Bytes.to_string b

let test_hostile_lengths () =
  List.iter
    (fun len ->
      check_bool "a 9- or 10-byte varint" true
        (String.length len = 9 || String.length len = 10))
    hostile_lengths;
  let next = frame_of (Proto.Cl_dump { rid = 5 }) in
  List.iter
    (fun (what, body) ->
      (match Payload.decode body with
      | Error Payload.Truncated -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error %s" what
            (Payload.codec_error_to_string e)
      | Ok p -> Alcotest.failf "%s decoded as %s" what (Payload.to_string p)
      | exception e ->
          Alcotest.failf "%s: decode raised %s" what (Printexc.to_string e));
      let d = Frame.Decoder.create () in
      Frame.Decoder.feed_string d (frame_of_body body ^ next);
      (match Frame.Decoder.next d with
      | `Corrupt (Frame.Codec Payload.Truncated) -> ()
      | `Corrupt e ->
          Alcotest.failf "%s: wrong reject %s" what (Frame.error_to_string e)
      | `Payload p ->
          Alcotest.failf "%s: frame decoded as %s" what (Payload.to_string p)
      | `Await -> Alcotest.failf "%s: complete frame awaits" what
      | exception e ->
          Alcotest.failf "%s: stream decoder raised %s" what
            (Printexc.to_string e));
      match Frame.Decoder.next d with
      | `Payload (Proto.Cl_dump { rid = 5 }) -> ()
      | _ -> Alcotest.failf "%s: stream must go on at the next frame" what)
    (hostile_bodies ())

let suite =
  [
    ( "wire",
      [
        Alcotest.test_case "primitive round-trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "short read raises Short" `Quick test_wire_short;
        Alcotest.test_case "codec round-trip (incl. nesting)" `Quick
          test_codec_roundtrip;
        Alcotest.test_case "codec typed errors" `Quick test_codec_errors;
        Alcotest.test_case "hot-path codec coverage" `Quick
          test_hot_path_codec_coverage;
        Alcotest.test_case "hot-path codec round-trip" `Quick
          test_hot_path_codec_roundtrip;
        Alcotest.test_case "hot-path codec truncation/garbage" `Quick
          test_hot_path_codec_truncation_and_garbage;
        Alcotest.test_case "fast-path wire length" `Quick
          test_fast_path_wire_length;
        Alcotest.test_case "retired discriminators are malformed" `Quick
          test_retired_discriminators;
        Alcotest.test_case "golden wire bytes" `Quick test_golden_wire_bytes;
        Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "frame oversized both ways" `Quick
          test_frame_oversized;
        Alcotest.test_case "decoder streams, rejects, resyncs" `Quick
          test_decoder_stream_and_resync;
        Alcotest.test_case "decoder bounds a body by its frame" `Quick
          test_decoder_body_bounded_by_frame;
        Alcotest.test_case "decoder dies on length corruption" `Quick
          test_decoder_dead_on_bad_length;
        Alcotest.test_case "hostile string lengths are typed errors" `Quick
          test_hostile_lengths;
      ] );
  ]

(* Allocation ceilings for the per-tick and per-frame path.

   Each case runs one hot operation many times and divides the minor-heap
   words allocated ([Gc.minor_words], OCaml 5.1) by the iteration count.
   A ceiling is the value measured when it was set plus a margin, both
   stated next to it; a change that puts fresh lists, closures or string
   lookups back on the path fails here before it shows in the loopback
   benchmark.  Every case warms up first, so one-time work (a codec
   memo entry, a grown buffer, a cached poll list) is not counted. *)

module Evloop = Gc_runtime_unix.Evloop
module Payload = Gc_net.Payload
module Frame = Gc_net.Frame
module Process = Gc_kernel.Process
module Runtime = Gc_kernel.Runtime
open Support

let iters = 1_000

let words_per_op f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let within ~what ~ceiling words =
  Printf.printf "%s: %.1f words (ceiling %.0f)\n" what words ceiling;
  if words > ceiling then
    Alcotest.failf "%s allocates %.1f words per op, ceiling %.0f" what words
      ceiling

(* An idle tick over 20 watched descriptors, none ready: measured 20
   words (boxed clock readings and [select]'s result triple), ceiling 32. *)
let test_idle_tick () =
  let pairs =
    List.init 10 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (a, b) ->
          Unix.close a;
          Unix.close b)
        pairs)
    (fun () ->
      let loop = Evloop.create () in
      List.iter
        (fun (a, b) ->
          Evloop.set_read loop a (Some ignore);
          Evloop.set_read loop b (Some ignore))
        pairs;
      check_int "20 watched" 20 (List.length (Evloop.watched_fds loop));
      within ~what:"idle run_once, 20 fds" ~ceiling:32.0
        (words_per_op (fun () -> Evloop.run_once loop ~max_wait:0.0)))

(* Frames taken from the captured workloads of the wire tests, by the
   printed shape of the payload. *)
let sample prefix contains =
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match
    List.find_opt
      (fun p ->
        let s = Payload.to_string p in
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
        && has s contains)
      (Test_wire.capture_hot_path_payloads ())
  with
  | Some p -> p
  | None -> Alcotest.failf "no captured %s..%s payload" prefix contains

(* Encoding reuses one body buffer, as [Fconn] does; decoding reads the
   body in place, as [Frame.Decoder] does.  An encode allocates its
   result and the list-writer closures of nested messages; a decode, the
   values it returns.  Measured (encode / decode) and ceilings: *)
let frame_cases =
  [
    (* a 3-message fast batch in its rb and rc envelopes: 8 / 102,
       ceilings 16 / 128 *)
    ("fast batch", "rc.data#", "gb.fastbatch[", 16.0, 128.0);
    (* a 3-entry ack vector: 2 / 56, ceilings 8 / 72 *)
    ("gb acks", "rc.data#", "gb.acks[", 8.0, 72.0);
    (* 2 / 15, ceilings 8 / 24 *)
    ("rc ack", "rc.ack#", "", 8.0, 24.0);
    (* a consensus decision carrying an abcast batch: 20 / 152, ceilings
       32 / 192 *)
    ("cs decide", "rc.data#", "cs.decide[", 32.0, 192.0);
  ]

let test_frame_codec () =
  List.iter
    (fun (what, prefix, contains, enc_ceiling, dec_ceiling) ->
      let p = sample prefix contains in
      let w = Buffer.create 256 in
      let encode () =
        match Frame.encode_body w p with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Frame.error_to_string e)
      in
      within ~what:(what ^ " encode") ~ceiling:enc_ceiling
        (words_per_op encode);
      let bytes = Buffer.contents w in
      let len = String.length bytes in
      let decode () =
        match Payload.decode ~pos:0 ~len bytes with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "%s: %s" what (Payload.codec_error_to_string e)
      in
      within ~what:(what ^ " decode") ~ceiling:dec_ceiling
        (words_per_op decode))
    frame_cases

(* One incoming payload offered to four subscribers: measured 0 words,
   ceiling 4. *)
let test_process_dispatch () =
  let engine = Engine.create ~seed:1L () in
  let trace = Trace.create ~enabled:false () in
  let net = Netsim.create engine ~trace ~delay:Delay.lan ~n:1 () in
  let handler = ref (fun ~src:_ _ -> ()) in
  let runtime =
    {
      (Runtime.of_netsim net ~trace) with
      Runtime.register = (fun ~node:_ f -> handler := f);
    }
  in
  let proc = Process.create runtime ~id:0 in
  let hits = ref 0 in
  for _ = 1 to 4 do
    Process.on_receive proc (fun ~src:_ _ -> incr hits)
  done;
  let p = Gc_server.Proto.Cl_dump { rid = 1 } in
  let dispatch () = !handler ~src:1 p in
  within ~what:"process dispatch, 4 subscribers" ~ceiling:4.0
    (words_per_op dispatch);
  check_int "every subscriber saw every payload" (4 * (iters + 1)) !hits

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "idle evloop tick" `Quick test_idle_tick;
        Alcotest.test_case "frame encode and decode" `Quick test_frame_codec;
        Alcotest.test_case "process dispatch" `Quick test_process_dispatch;
      ] );
  ]

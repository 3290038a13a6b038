(* Remaining odds and ends: trace buffer, payload printers, abcast batching,
   engine runaway guard, netsim accounting. *)

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Payload = Gc_net.Payload
module Ab = Gc_abcast.Atomic_broadcast
open Support

type Gc_net.Payload.t += Blip of int

let () =
  Payload.register_printer (function
    | Blip k -> Some (Printf.sprintf "blip(%d)" k)
    | _ -> None)

let test_trace_roundtrip () =
  let tr = Trace.create ~enabled:true () in
  Trace.emit_event tr ~time:1.0 ~node:0 ~component:"a"
    ~kind:(Gc_obs.Event.kind_of_string "x")
    ~attrs:[ ("step", "one") ]
    ();
  Trace.emit_event tr ~time:2.0 ~node:1 ~component:"b"
    ~kind:(Gc_obs.Event.kind_of_string "y")
    ~attrs:[ ("step", "two") ]
    ();
  Trace.emit_event tr ~time:3.0 ~node:0 ~component:"a"
    ~kind:(Gc_obs.Event.kind_of_string "y")
    ~attrs:[ ("step", "three"); ("extra", "z") ]
    ();
  check_int "all records" 3 (List.length (Trace.records tr));
  check_int "by node" 2 (List.length (Trace.find tr ~node:0 ()));
  check_int "by component" 2 (List.length (Trace.find tr ~component:"a" ()));
  check_int "by event and node" 1
    (List.length (Trace.find tr ~node:0 ~event:"y" ()));
  check_int "by attr" 1
    (List.length (Trace.find tr ~attr:("step", "two") ()));
  (match Trace.find tr ~attr:("extra", "z") () with
  | [ r ] ->
      Alcotest.(check string) "derived detail" "step=three extra=z"
        (Trace.detail r);
      Alcotest.(check (option string)) "attr lookup" (Some "three")
        (Trace.attr r "step")
  | rs -> Alcotest.failf "expected 1 record with extra=z, got %d" (List.length rs));
  Trace.clear tr;
  check_int "cleared" 0 (List.length (Trace.records tr))

let test_trace_disabled_and_capacity () =
  let off = Trace.create () in
  Trace.emit_event off ~time:1.0 ~node:0 ~component:"a"
    ~kind:(Gc_obs.Event.kind_of_string "x") ();
  check_int "disabled drops" 0 (List.length (Trace.records off));
  let tiny = Trace.create ~enabled:true ~capacity:3 () in
  for i = 1 to 5 do
    Trace.emit_event tiny ~time:(float_of_int i) ~node:0 ~component:"a"
      ~kind:(Gc_obs.Event.kind_of_string "x") ()
  done;
  let records = Trace.records tiny in
  check_int "capacity bound" 3 (List.length records);
  Alcotest.(check (float 0.001)) "oldest evicted" 3.0 (List.hd records).Trace.time

let test_payload_printer () =
  Alcotest.(check string) "registered printer" "blip(7)" (Payload.to_string (Blip 7));
  (* An unknown payload falls back to a placeholder, never raises. *)
  let module M = struct
    type Gc_net.Payload.t += Unknown
  end in
  Alcotest.(check string) "fallback" "<payload>" (Payload.to_string M.Unknown)

let test_abcast_batches_bursts () =
  (* A burst sent while one consensus instance is running lands in few
     batches: instances used << messages delivered. *)
  let w = make_world ~n:3 () in
  let ab =
    Array.mapi
      (fun _i node ->
        Ab.create node.proc ~rc:node.rc ~rb:node.rb ~fd:node.fd ~members:(ids 3)
          ())
      w.nodes
  in
  let delivered = ref 0 in
  Ab.on_deliver ab.(1) (fun ~origin:_ _ -> incr delivered);
  for k = 0 to 19 do
    Ab.abcast ab.(k mod 3) (Blip k)
  done;
  run_until w 30_000.0;
  check_int "all delivered" 20 !delivered;
  check_bool
    (Printf.sprintf "batched into few instances (%d)" (Ab.next_instance ab.(1)))
    true
    (Ab.next_instance ab.(1) <= 8)

let test_engine_max_events_guard () =
  let e = Engine.create () in
  let rec forever () = ignore (Engine.schedule e ~delay:0.0 forever) in
  forever ();
  (match Engine.run ~max_events:1_000 e with
  | () -> Alcotest.fail "expected runaway guard to fire"
  | exception Failure _ -> ());
  check_bool "events were executed" true (Engine.events_executed e >= 1_000)

let test_netsim_counters () =
  let engine = Engine.create ~seed:1L () in
  let net = Netsim.create engine ~delay:(Gc_net.Delay.Constant 1.0) ~n:2 () in
  Netsim.register net ~node:1 (fun ~src:_ _ -> ());
  Netsim.send net ~src:0 ~dst:1 (Blip 1);
  Netsim.send net ~src:0 ~dst:1 (Blip 2);
  Engine.run engine;
  check_int "sent" 2 (Netsim.messages_sent net);
  check_int "delivered" 2 (Netsim.messages_delivered net);
  Netsim.reset_counters net;
  check_int "reset" 0 (Netsim.messages_sent net)

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
        Alcotest.test_case "trace disabled and capacity" `Quick
          test_trace_disabled_and_capacity;
        Alcotest.test_case "payload printer" `Quick test_payload_printer;
        Alcotest.test_case "abcast batches bursts" `Quick test_abcast_batches_bursts;
        Alcotest.test_case "engine max_events guard" `Quick
          test_engine_max_events_guard;
        Alcotest.test_case "netsim counters" `Quick test_netsim_counters;
      ] );
  ]

(* gcs_top — live terminal dashboard over the gcs_server Stats endpoint.

     dune exec bin/gcs_top.exe -- --servers 8001,8002,8003
     dune exec bin/gcs_top.exe -- --servers 8001,8002,8003 --once --assert-live

   Every --interval ms it scrapes Cl_stats (JSON) from each replica,
   subtracts the previous reply's registry (Gc_obs.Metrics.delta) and
   shows per-window throughput, submit->deliver latency percentiles,
   event-loop health and whether the replicas' order digests agree.

   --once prints a single table instead of redrawing; adding
   --assert-live turns that into a health gate: exit 0 only if every
   replica answers with a parseable registry showing delivered abcast
   traffic, a populated latency histogram with finite p99, event-loop
   profiling, and an order digest identical to every other replica's
   (what the CI loopback job runs mid-load). *)

module C = Gc_server.Sync_client
module Json = Gc_obs.Json
module Metrics = Gc_obs.Metrics
open Cmdliner

type sample = {
  node : int;
  uptime_ms : float;
  vid : int;
  members : int;
  clients : int;
  ordered : int;
  commuting : int;
  order_digest : string;
  state_digest : string;
  metrics : Metrics.t;
}

let parse_server spec =
  match String.rindex_opt spec ':' with
  | None -> (
      match int_of_string_opt spec with
      | Some port -> Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      | None -> Error (Printf.sprintf "bad server %S" spec))
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (Unix.inet_addr_of_string host, int_of_string_opt port) with
      | addr, Some port -> Ok (Unix.ADDR_INET (addr, port))
      | exception Failure _ -> Error (Printf.sprintf "bad server host %S" spec)
      | _, None -> Error (Printf.sprintf "bad server port %S" spec))

let num k j =
  match Option.bind (Json.member k j) Json.to_float with
  | Some f -> f
  | None -> nan

let str k j =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> "?"

let sample_of_body body =
  match Json.of_string body with
  | exception Json.Parse_error e -> Error ("bad stats json: " ^ e)
  | j -> (
      let kv = Option.value (Json.member "kv" j) ~default:Json.Null in
      let view = Option.value (Json.member "view" j) ~default:Json.Null in
      let members =
        match Option.bind (Json.member "members" view) Json.to_list with
        | Some l -> List.length l
        | None -> 0
      in
      let clients =
        match Option.bind (Json.member "clients" j) Json.to_list with
        | Some l -> List.length l
        | None -> 0
      in
      match Json.member "metrics" j with
      | None -> Error "stats json lacks \"metrics\""
      | Some m -> (
          match Metrics.of_json m with
          | exception Invalid_argument e -> Error ("bad metrics: " ^ e)
          | metrics ->
              Ok
                {
                  node = int_of_float (num "node" j);
                  uptime_ms = num "uptime_ms" j;
                  vid = int_of_float (num "vid" view);
                  members;
                  clients;
                  ordered = int_of_float (num "ordered" kv);
                  commuting = int_of_float (num "commuting" kv);
                  order_digest = str "order_digest" kv;
                  state_digest = str "state_digest" kv;
                  metrics;
                }))

let poll addr =
  match C.connect addr with
  | Error msg -> Error ("connect: " ^ msg)
  | Ok c ->
      let r = C.stats c ~timeout:5000.0 () in
      C.close c;
      (match r with
      | Ok body -> sample_of_body body
      | Error e -> Error (C.error_to_string e))

let pct v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v

let lat_cell m name =
  if Metrics.hist_count m name = 0 then "-"
  else
    Printf.sprintf "%s/%s/%s/%s"
      (pct (Metrics.quantile m name 0.50))
      (pct (Metrics.quantile m name 0.90))
      (pct (Metrics.quantile m name 0.99))
      (pct (Metrics.hist_max m name))

let digest_tag all_digests d =
  let short = if String.length d >= 8 then String.sub d 0 8 else d in
  let agree =
    match all_digests with
    | [] -> true
    | first :: rest -> List.for_all (( = ) first) rest
  in
  if agree then short ^ " =" else short ^ " !"

(* One table row per replica.  [window] is the delta since the previous
   poll when there is one (rates and fresh latency), otherwise the
   cumulative registry.  The window's length comes from the server's own
   clock: the difference of the two replies' uptimes, or the new uptime
   alone when it went down (a restart; [delta] then keeps the whole
   post-restart counters too). *)
let render results prev =
  let order_digests =
    List.filter_map
      (fun (_, r) -> match r with Ok s -> Some s.order_digest | _ -> None)
      results
  in
  Printf.printf "%-14s %6s %4s %4s %4s %9s %8s %-22s %8s %8s %5s %-11s\n"
    "SERVER" "UP(s)" "VID" "MEM" "CLI" "APPLIED" "OPS/S"
    "LATENCY p50/90/99/max" "LOOPp99" "OVERDUE" "CONS" "ORDER";
  List.iter
    (fun (spec, r) ->
      match r with
      | Error msg -> Printf.printf "%-14s %s\n" spec ("DOWN: " ^ msg)
      | Ok s ->
          let window, window_ms =
            match Hashtbl.find_opt prev s.node with
            | Some (before, before_uptime_ms) ->
                ( Metrics.delta ~before ~after:s.metrics,
                  if s.uptime_ms < before_uptime_ms then s.uptime_ms
                  else s.uptime_ms -. before_uptime_ms )
            | None -> (s.metrics, s.uptime_ms)
          in
          let applied = Metrics.counter s.metrics "server.applied" in
          let window_applied = Metrics.counter window "server.applied" in
          let rate =
            if window_ms > 0.0 then
              float_of_int window_applied /. (window_ms /. 1000.0)
            else 0.0
          in
          let lat =
            if Metrics.hist_count window "server.latency_ms" > 0 then
              lat_cell window "server.latency_ms"
            else lat_cell s.metrics "server.latency_ms"
          in
          Printf.printf
            "%-14s %6.1f %4d %4d %4d %9d %8.1f %-22s %8s %8d %5.0f %-11s\n"
            spec (s.uptime_ms /. 1000.0) s.vid s.members s.clients applied rate
            lat
            (pct (Metrics.quantile s.metrics "evloop.tick_ms" 0.99))
            (Metrics.counter s.metrics "evloop.timer_overdue")
            (Metrics.gauge s.metrics "consensus.live_instances")
            (digest_tag order_digests s.order_digest))
    results

(* The CI liveness gate: prints one verdict line per check. *)
let check_live results =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        Printf.printf "FAIL %s\n" m)
      fmt
  in
  let pass fmt = Printf.ksprintf (fun m -> Printf.printf "ok   %s\n" m) fmt in
  List.iter
    (fun (spec, r) ->
      match r with
      | Error msg -> fail "%s: no snapshot (%s)" spec msg
      | Ok s ->
          let delivered = Metrics.counter s.metrics "abcast.delivered" in
          if delivered > 0 then pass "%s: abcast.delivered = %d" spec delivered
          else fail "%s: abcast.delivered = 0" spec;
          let n = Metrics.hist_count s.metrics "server.latency_ms" in
          let p99 = Metrics.quantile s.metrics "server.latency_ms" 0.99 in
          if n > 0 && Float.is_finite p99 then
            pass "%s: server.latency_ms n=%d p99=%.2fms" spec n p99
          else fail "%s: server.latency_ms empty or p99 not finite" spec;
          if Metrics.hist_count s.metrics "evloop.tick_ms" > 0 then
            pass "%s: evloop.tick_ms n=%d" spec
              (Metrics.hist_count s.metrics "evloop.tick_ms")
          else fail "%s: evloop.tick_ms missing" spec)
    results;
  (let digests =
     List.filter_map
       (fun (_, r) -> match r with Ok s -> Some s.order_digest | _ -> None)
       results
   in
   match digests with
   | [] -> fail "no replica produced an order digest"
   | first :: rest ->
       if List.for_all (( = ) first) rest then
         pass "order digests identical across %d replicas"
           (List.length digests)
       else fail "order digests diverge: %s" (String.concat " " digests));
  !ok

let run servers_spec interval once assert_live =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let specs =
    List.filter
      (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' servers_spec))
  in
  let addrs =
    List.map
      (fun spec ->
        match parse_server spec with
        | Ok addr -> (spec, addr)
        | Error msg ->
            prerr_endline msg;
            exit 2)
      specs
  in
  if addrs = [] then begin
    prerr_endline "--servers lists no servers";
    exit 2
  end;
  let prev : (int, Metrics.t * float) Hashtbl.t = Hashtbl.create 8 in
  let rec iter () =
    let results = List.map (fun (spec, addr) -> (spec, poll addr)) addrs in
    if not once then print_string "\027[2J\027[H";
    Printf.printf "gcs_top — %d servers, every %.0f ms%s\n\n"
      (List.length addrs) interval
      (if once then " (single poll)" else "");
    render results prev;
    print_newline ();
    List.iter
      (fun (_, r) ->
        match r with
        | Ok s -> Hashtbl.replace prev s.node (s.metrics, s.uptime_ms)
        | Error _ -> ())
      results;
    if once then begin
      if assert_live then if check_live results then exit 0 else exit 1
    end
    else begin
      (try flush stdout with Sys_error _ -> ());
      Unix.sleepf (interval /. 1000.0);
      iter ()
    end
  in
  iter ()

let servers_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "servers" ] ~docv:"SPEC"
        ~doc:
          "Comma-separated client endpoints to watch; each is PORT \
           (loopback) or HOST:PORT.")

let interval_t =
  Arg.(
    value
    & opt float 1000.0
    & info [ "interval" ] ~docv:"MS" ~doc:"Poll period, ms.")

let once_t =
  Arg.(
    value & flag
    & info [ "once" ] ~doc:"Poll once, print the table, and exit.")

let assert_live_t =
  Arg.(
    value & flag
    & info [ "assert-live" ]
        ~doc:
          "With $(b,--once): exit non-zero unless every replica answers \
           with delivered abcast traffic, a populated latency histogram \
           (finite p99), event-loop profiling, and matching order \
           digests.")

let cmd =
  Cmd.v
    (Cmd.info "gcs_top" ~doc:"Polling dashboard over gcs_server Stats endpoints")
    Term.(const run $ servers_t $ interval_t $ once_t $ assert_live_t)

let () = exit (Cmd.eval cmd)

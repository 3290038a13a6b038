(* The select loop's wakeup order: watched descriptors are polled and
   dispatched in ascending fd order, whatever order they were registered
   in.  Hashtbl iteration order depends on insertion history, so before
   the sort a run's callback interleaving was an accident of connection
   arrival order — this pins the deterministic order down. *)

module Evloop = Gc_runtime_unix.Evloop

let with_pipes n f =
  let pipes = List.init n (fun _ -> Unix.pipe ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (r, w) ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        pipes)
    (fun () -> f pipes)

let test_watched_sorted () =
  with_pipes 5 (fun pipes ->
      let loop = Evloop.create () in
      (* register in reverse order: the loop must not care *)
      List.iter
        (fun (r, _) -> Evloop.set_read loop r (Some ignore))
        (List.rev pipes);
      let fds = Evloop.watched_fds loop in
      Alcotest.(check int) "all watched" 5 (List.length fds);
      Alcotest.(check bool) "ascending fd order" true
        (fds = List.sort compare fds);
      List.iter (fun (r, _) -> Evloop.forget loop r) pipes;
      Alcotest.(check int) "forget empties" 0
        (List.length (Evloop.watched_fds loop)))

let test_dispatch_order () =
  with_pipes 6 (fun pipes ->
      let loop = Evloop.create () in
      let fired = ref [] in
      (* scrambled registration: middle, last, first, ... *)
      let scrambled =
        match pipes with
        | [ a; b; c; d; e; f ] -> [ d; f; a; e; b; c ]
        | _ -> assert false
      in
      List.iter
        (fun (r, _) ->
          Evloop.set_read loop r (Some (fun () -> fired := r :: !fired)))
        scrambled;
      (* make every descriptor ready before the tick *)
      List.iter
        (fun (_, w) -> ignore (Unix.write w (Bytes.of_string "x") 0 1))
        pipes;
      Evloop.run_once loop ~max_wait:0.0;
      let order = List.rev !fired in
      Alcotest.(check int) "every callback fired" 6 (List.length order);
      Alcotest.(check bool) "fired in ascending fd order" true
        (order = List.sort compare order))

(* The cached poll sets: the loop rebuilds its sorted read and write lists
   only when a callback is added or removed, so every path that adds,
   removes or re-arms one must reach the cache.  A model of what should be
   watched is kept beside the loop and checked against [watched_fds]
   after every step; a removed descriptor left in the cache would reach
   [select] after its close and fail the next tick with EBADF; and each
   tick's dispatch must be in ascending fd order. *)
let test_poll_set_cache () =
  let loop = Evloop.create () in
  let model = Hashtbl.create 16 in
  let fired = ref [] in
  let note tag fd () = fired := (tag, fd) :: !fired in
  let watch_read fd cb =
    Evloop.set_read loop fd cb;
    Hashtbl.replace model (fd, `R) (cb <> None)
  and watch_write fd cb =
    Evloop.set_write loop fd cb;
    Hashtbl.replace model (fd, `W) (cb <> None)
  and unwatch fd =
    Evloop.forget loop fd;
    Hashtbl.replace model (fd, `R) false;
    Hashtbl.replace model (fd, `W) false
  in
  let expected () =
    Hashtbl.fold (fun (fd, _) on acc -> if on then fd :: acc else acc) model []
    |> List.sort_uniq compare
  in
  let check what =
    Alcotest.(check bool)
      (what ^ ": watched_fds matches the model")
      true
      (Evloop.watched_fds loop = expected ())
  in
  let tick what =
    fired := [];
    Evloop.run_once loop ~max_wait:0.0;
    let order = List.rev !fired in
    let reads = List.filter_map (fun (k, fd) -> if k = `R then Some fd else None) order
    and writes = List.filter_map (fun (k, fd) -> if k = `W then Some fd else None) order in
    Alcotest.(check bool) (what ^ ": reads in fd order") true
      (reads = List.sort compare reads);
    Alcotest.(check bool) (what ^ ": writes in fd order") true
      (writes = List.sort compare writes);
    check what;
    order
  in
  let poke fd = ignore (Unix.write fd (Bytes.of_string "x") 0 1) in
  let drain fd = ignore (Unix.read fd (Bytes.create 16) 0 16) in
  let pairs =
    Array.init 4 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let a i = fst pairs.(i) and b i = snd pairs.(i) in
  let closed = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (x, y) ->
          List.iter
            (fun fd ->
              if not (List.memq fd !closed) then
                try Unix.close fd with Unix.Unix_error _ -> ())
            [ x; y ])
        pairs)
    (fun () ->
      (* between ticks, scrambled *)
      List.iter
        (fun i -> watch_read (a i) (Some (fun () -> drain (a i); note `R (a i) ())))
        [ 2; 0; 3; 1 ];
      check "registered";
      Array.iter (fun (_, y) -> poke y) pairs;
      Support.check_int "every ready read fires" 4 (List.length (tick "all readable"));
      (* replacing a callback keeps the set; removing and re-arming move it *)
      watch_read (a 1) (Some (fun () -> drain (a 1); note `R (a 1) ()));
      watch_read (a 3) None;
      watch_write (b 2) (Some (note `W (b 2)));
      watch_write (b 0) (Some (note `W (b 0)));
      check "re-armed";
      poke (b 1);
      poke (b 3);
      let order = tick "after re-arm" in
      Support.check_bool "a removed read callback never fires" false
        (List.mem (`R, a 3) order);
      Support.check_int "one read, two writes" 3 (List.length order);
      drain (a 3);
      (* from inside callbacks: a write callback disarms itself, one arms a
         sibling, and a read callback forgets and closes a sibling whose
         own data is ready in the same batch *)
      watch_write (b 2)
        (Some
           (fun () ->
             note `W (b 2) ();
             watch_write (b 2) None;
             watch_write (b 1) (Some (note `W (b 1)))));
      watch_read (a 0)
        (Some
           (fun () ->
             drain (a 0);
             note `R (a 0) ();
             unwatch (a 2);
             Unix.close (a 2);
             closed := a 2 :: !closed));
      watch_read (a 2) (Some (note `R (a 2)));
      poke (b 0);
      poke (b 2);
      let order = tick "callbacks edit the sets" in
      Support.check_bool "a sibling closed mid-batch is not dispatched" false
        (List.mem (`R, a 2) order);
      Support.check_bool "the armed sibling waits for the next tick" false
        (List.mem (`W, b 1) order);
      (* the closed fd must not reach select: this tick would raise EBADF *)
      let order = tick "after the close" in
      Support.check_bool "the newly armed write fires" true (List.mem (`W, b 1) order);
      Support.check_bool "the self-disarmed write is gone" false
        (List.mem (`W, b 2) order);
      (* a new socket takes the freed fd number: its own callback runs *)
      let x, y = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let reused = x = a 2 || y = a 2 in
      let fresh = if y = a 2 then y else x and peer = if y = a 2 then x else y in
      watch_read fresh (Some (fun () -> drain fresh; note `R fresh ()));
      poke peer;
      let order = tick "fd reused" in
      Unix.close x;
      Unix.close y;
      unwatch fresh;
      Support.check_bool "the reused fd number's new callback fires" true
        (List.mem (`R, fresh) order);
      if not reused then
        print_endline "note: the OS did not reuse the closed fd number";
      ignore (tick "reused fd gone"))

module Fconn = Gc_runtime_unix.Fconn
module Proto = Gc_server.Proto

(* The flush-path teardown regression: kill the peer between two partial
   writes.  The first write fills the (shrunk) socket buffer and parks the
   rest behind a write callback; the peer then dies; the retry hits
   EPIPE/ECONNRESET.  The connection must tear down exactly once — one
   [on_close], watcher gone (no stale write callback left to fire against
   a recycled fd), out buffer released — and a later explicit [close] must
   be a no-op. *)
let test_peer_death_between_partial_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let loop = Evloop.create () in
  let closes = ref 0 in
  let conn =
    Fconn.attach ~loop a
      ~on_payload:(fun _ _ -> ())
      ~on_close:(fun _ -> incr closes)
  in
  (* Bigger than any plausible socket buffer, smaller than out_cap: the
     send leaves a flushed prefix and a parked suffix. *)
  let big = String.make 200_000 'x' in
  Fconn.send conn (Proto.Cl_put { rid = 1; key = "k"; value = big });
  Alcotest.(check bool) "partial write does not close" false (Fconn.closed conn);
  Unix.close b;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Fconn.closed conn)) && Unix.gettimeofday () < deadline do
    Evloop.run_once loop ~max_wait:20.0
  done;
  Alcotest.(check bool) "dead peer detected" true (Fconn.closed conn);
  Alcotest.(check int) "on_close fired exactly once" 1 !closes;
  Alcotest.(check int) "watcher torn down" 0
    (List.length (Evloop.watched_fds loop));
  (* sending and closing after death are no-ops, not double teardowns *)
  Fconn.send conn (Proto.Cl_put { rid = 2; key = "k"; value = "v" });
  Fconn.close conn;
  Alcotest.(check int) "close is idempotent" 1 !closes

(* ---------- coalesced writes ---------- *)

module Frame = Gc_net.Frame
module Metrics = Gc_obs.Metrics

(* A connection on one end of a socketpair, with its own registry; the
   other end is read raw and decoded here. *)
let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let loop = Evloop.create () in
  let m = Metrics.create () in
  let conn =
    Fconn.attach ~loop ~metrics:m a ~on_payload:(fun _ _ -> ()) ~on_close:ignore
  in
  Fun.protect
    ~finally:(fun () ->
      Fconn.close conn;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f loop m conn b)

(* Everything the peer can read right now, decoded. *)
let peer_frames b =
  Unix.set_nonblock b;
  let d = Frame.Decoder.create () in
  let buf = Bytes.create 65_536 in
  let rec read () =
    match Unix.read b buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Frame.Decoder.feed d buf ~off:0 ~len:n;
        read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  read ();
  let rec frames acc =
    match Frame.Decoder.next d with
    | `Payload p -> frames (p :: acc)
    | `Await -> List.rev acc
    | `Corrupt e -> Alcotest.failf "peer decode: %s" (Frame.error_to_string e)
  in
  frames []

let rids frames =
  List.map
    (function
      | Proto.Cl_put { rid; _ } -> rid
      | p -> Alcotest.failf "unexpected %s" (Gc_net.Payload.to_string p))
    frames

let put rid = Proto.Cl_put { rid; key = "k"; value = "v" }

let test_one_write_per_turn () =
  with_pair (fun loop m conn b ->
      ignore
        (Evloop.schedule loop ~delay:0.0 (fun () ->
             for rid = 1 to 100 do
               Fconn.send conn (put rid)
             done));
      (* the timer's turn, then the next one, which flushes before it polls *)
      Evloop.run_once loop ~max_wait:0.0;
      Evloop.run_once loop ~max_wait:0.0;
      Alcotest.(check int) "one write for the turn" 1 (Metrics.counter m "net.writes");
      Alcotest.(check (list int)) "all 100 frames, in order"
        (List.init 100 (fun i -> i + 1))
        (rids (peer_frames b)))

let test_send_outside_loop () =
  with_pair (fun loop m conn b ->
      Fconn.send conn (put 7);
      Alcotest.(check int) "nothing written yet" 0 (Metrics.counter m "net.writes");
      Evloop.run_once loop ~max_wait:0.0;
      Alcotest.(check (list int)) "readable after one zero-wait turn" [ 7 ]
        (rids (peer_frames b)))

let test_send_then_close () =
  with_pair (fun _loop _m conn b ->
      Fconn.send conn (put 1);
      Fconn.send conn (put 2);
      Fconn.close conn;
      Alcotest.(check (list int)) "close delivers what was queued" [ 1; 2 ]
        (rids (peer_frames b)))

(* A peer that never reads: frames queue up to the 256 KiB cap, and only
   then are sends dropped, each one counted. *)
let test_backlog_drop_counted () =
  with_pair (fun loop m conn _b ->
      let value = String.make 8192 'x' in
      let frame_len =
        match Frame.encode (Proto.Cl_put { rid = 0; key = "k"; value }) with
        | Ok f -> String.length f
        | Error e -> Alcotest.failf "encode: %s" (Frame.error_to_string e)
      in
      let first_drop = ref None in
      for rid = 1 to 200 do
        Fconn.send conn (Proto.Cl_put { rid; key = "k"; value });
        if !first_drop = None && Metrics.counter m "net.tx_drop" > 0 then
          first_drop := Some rid;
        if rid mod 10 = 0 then Evloop.run_once loop ~max_wait:0.0
      done;
      match !first_drop with
      | None -> Alcotest.fail "a backlogged peer must cost drops"
      | Some rid ->
          Alcotest.(check bool) "no drop before the cap" true
            ((rid - 1) * frame_len >= 256 * 1024);
          Alcotest.(check int) "every dropped frame counted"
            (200 - (Fconn.stats conn).Fconn.frames_out)
            (Metrics.counter m "net.tx_drop");
          Alcotest.(check bool) "still open" false (Fconn.closed conn))

(* A frame longer than the cap itself can never be sent: it is dropped
   and counted as oversize, and the connection carries on. *)
let test_oversize_counted () =
  with_pair (fun loop m conn b ->
      Fconn.send conn
        (Proto.Cl_reply { rid = 0; ok = true; body = String.make (300 * 1024) 'x' });
      Alcotest.(check int) "oversize counted" 1 (Metrics.counter m "net.tx_oversize");
      Alcotest.(check int) "and dropped" 1 (Metrics.counter m "net.tx_drop");
      Fconn.send conn (put 1);
      Evloop.run_once loop ~max_wait:0.0;
      Alcotest.(check (list int)) "the next frame arrives" [ 1 ]
        (rids (peer_frames b)))

let suite =
  [
    ( "evloop",
      [
        Alcotest.test_case "watched_fds is sorted" `Quick test_watched_sorted;
        Alcotest.test_case "poll-set cache follows every edit" `Quick
          test_poll_set_cache;
        Alcotest.test_case "ready callbacks dispatch in fd order" `Quick
          test_dispatch_order;
        Alcotest.test_case "peer death between partial writes" `Quick
          test_peer_death_between_partial_writes;
        Alcotest.test_case "one write per connection per turn" `Quick
          test_one_write_per_turn;
        Alcotest.test_case "send outside the loop flushes next turn" `Quick
          test_send_outside_loop;
        Alcotest.test_case "send then close delivers" `Quick
          test_send_then_close;
        Alcotest.test_case "backlog drops are counted" `Quick
          test_backlog_drop_counted;
        Alcotest.test_case "oversize frames are counted" `Quick
          test_oversize_counted;
      ] );
  ]

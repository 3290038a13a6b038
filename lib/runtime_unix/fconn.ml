module Frame = Gc_net.Frame

let out_cap = 256 * 1024

type stats = {
  bytes_in : int;
  bytes_out : int;
  frames_in : int;
  frames_out : int;
}

module Metrics = Gc_obs.Metrics

(* The per-frame and per-write counters, resolved once per connection. *)
type counters = {
  c_frames_in : Metrics.counter;
  c_frames_out : Metrics.counter;
  c_bytes_in : Metrics.counter;
  c_bytes_out : Metrics.counter;
  c_writes : Metrics.counter;
}

type t = {
  loop : Evloop.t;
  sock : Unix.file_descr;
  metrics : Metrics.t option;
  counters : counters option;
  decoder : Frame.Decoder.t;
  body : Buffer.t; (* reused: each sent payload is encoded here once *)
  mutable out : Bytes.t; (* frames not yet written: [out_pos, out_len) *)
  mutable out_pos : int;
  mutable out_len : int;
  mutable dirty : bool; (* a flush is deferred on the loop *)
  mutable write_armed : bool; (* a flush waits for writability *)
  mutable connecting : bool;
  mutable is_closed : bool;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  on_payload : t -> Gc_net.Payload.t -> unit;
  on_close : t -> unit;
  scratch : Bytes.t;
}

let fd t = t.sock
let closed t = t.is_closed

let stats t =
  {
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
    frames_in = t.frames_in;
    frames_out = t.frames_out;
  }

let count t name by =
  match t.metrics with
  | Some m -> Metrics.incr ~by m name
  | None -> ()

let counters m =
  {
    c_frames_in = Metrics.counter_handle m "net.frames_in";
    c_frames_out = Metrics.counter_handle m "net.frames_out";
    c_bytes_in = Metrics.counter_handle m "net.bytes_in";
    c_bytes_out = Metrics.counter_handle m "net.bytes_out";
    c_writes = Metrics.counter_handle m "net.writes";
  }

let pending_out t = t.out_len - t.out_pos

(* Write pending bytes until they are drained or the socket pushes back;
   one [net.writes] per write(2) that moved bytes. *)
let rec write_out t =
  let n = pending_out t in
  if n = 0 then begin
    t.out_pos <- 0;
    t.out_len <- 0;
    `Drained
  end
  else
    match Unix.single_write t.sock t.out t.out_pos n with
    | written ->
        t.out_pos <- t.out_pos + written;
        t.bytes_out <- t.bytes_out + written;
        (match t.counters with
        | Some c ->
            Metrics.bump ~by:written c.c_bytes_out;
            Metrics.bump c.c_writes
        | None -> ());
        write_out t
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
        `Blocked
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* A signal interrupting the write is not a dead peer: the bytes
           are still queued, try again. *)
        write_out t
    | exception Unix.Unix_error _ -> `Failed

(* Teardown happens exactly once, no matter which path finds the peer gone
   first (EOF on read, EPIPE/ECONNRESET mid-flush, an explicit close): the
   [is_closed] latch flips before anything else runs, the watcher — read
   AND write callback — is dropped before the descriptor is closed (so a
   reused fd number can never inherit a stale callback), and the out
   buffer is released here rather than waiting for the GC to collect the
   connection (it caps at [out_cap] — 256 KiB of dead bytes otherwise).
   Frames still queued go out first, as far as the socket accepts them
   without blocking, so a send followed by a close still delivers. *)
let close t =
  if not t.is_closed then begin
    if not t.connecting then ignore (write_out t);
    t.is_closed <- true;
    Evloop.forget t.loop t.sock;
    t.out <- Bytes.empty;
    t.out_pos <- 0;
    t.out_len <- 0;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    t.on_close t
  end

let rec flush t =
  if (not t.is_closed) && not t.connecting then
    match write_out t with
    | `Drained ->
        if t.write_armed then begin
          t.write_armed <- false;
          Evloop.set_write t.loop t.sock None
        end
    | `Blocked ->
        if not t.write_armed then begin
          t.write_armed <- true;
          Evloop.set_write t.loop t.sock (Some (fun () -> flush t))
        end
    | `Failed ->
        (* EPIPE / ECONNRESET / anything fatal mid-flush: full teardown.
           [close] drops the write callback with the watcher, so the
           half-flushed buffer can never be retried against a closed
           (or recycled) descriptor. *)
        close t

(* Coalescing: a turn's sends only append; the connection asks the loop
   once to flush before it next blocks.  While a write callback is armed
   or the connect is in progress, that callback flushes instead. *)
let schedule_flush t =
  if not (t.dirty || t.write_armed || t.connecting) then begin
    t.dirty <- true;
    Evloop.defer t.loop (fun () ->
        t.dirty <- false;
        flush t)
  end

(* Room for [len] more bytes at [out_len]: slide the pending bytes to the
   front, then grow by doubling if that is not enough. *)
let reserve t len =
  let pending = pending_out t in
  if t.out_len + len > Bytes.length t.out then begin
    if t.out_pos > 0 then begin
      Bytes.blit t.out t.out_pos t.out 0 pending;
      t.out_pos <- 0;
      t.out_len <- pending
    end;
    if pending + len > Bytes.length t.out then begin
      let cap = ref (max 4096 (Bytes.length t.out)) in
      while pending + len > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.out 0 bigger 0 pending;
      t.out <- bigger
    end
  end

(* Unencodable, oversized and backlogged frames are dropped — datagram
   semantics, the reliable channel above retransmits — and counted. *)
let send t payload =
  if not t.is_closed then
    match Frame.encode_body ~limit:(out_cap - 4) t.body payload with
    | Error (Frame.Oversized _) ->
        (* No flush can make room for a frame larger than the cap itself. *)
        Buffer.reset t.body;
        count t "net.tx_oversize" 1;
        count t "net.tx_drop" 1
    | Error _ -> count t "net.tx_drop" 1
    | Ok len ->
        (* Past the cap, flush now: the frame is dropped only if it still
           does not fit, exactly as when every send wrote through. *)
        if pending_out t + len > out_cap then flush t;
        if t.is_closed || pending_out t + len > out_cap then
          count t "net.tx_drop" 1
        else begin
          reserve t len;
          Frame.blit t.body t.out t.out_len;
          (* keep the encode scratch small once a rare large frame is out *)
          if len > 65_536 then Buffer.reset t.body;
          t.out_len <- t.out_len + len;
          t.frames_out <- t.frames_out + 1;
          Option.iter (fun c -> Metrics.bump c.c_frames_out) t.counters;
          schedule_flush t
        end

let rec drain_frames t =
  if not t.is_closed then
    match Frame.Decoder.next t.decoder with
    | `Payload p ->
        t.frames_in <- t.frames_in + 1;
        Option.iter (fun c -> Metrics.bump c.c_frames_in) t.counters;
        t.on_payload t p;
        drain_frames t
    | `Await -> ()
    | `Corrupt _ ->
        (* Body-level rejects are already counted by the decoder; only a
           framing-level corruption is unrecoverable. *)
        if Frame.Decoder.dead t.decoder then close t else drain_frames t

let on_readable t () =
  if not t.is_closed then
    match Unix.read t.sock t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> close t
    | n ->
        t.bytes_in <- t.bytes_in + n;
        (match t.counters with
        | Some c -> Metrics.bump ~by:n c.c_bytes_in
        | None -> ());
        Frame.Decoder.feed t.decoder t.scratch ~off:0 ~len:n;
        drain_frames t
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        () (* interrupted, not dead: select will report readable again *)
    | exception Unix.Unix_error _ -> close t

let finish_connect t () =
  if t.connecting && not t.is_closed then begin
    match Unix.getsockopt_error t.sock with
    | Some _ -> close t
    | None ->
        t.connecting <- false;
        Evloop.set_write t.loop t.sock None;
        flush t
  end

let attach ~loop ?metrics ?(connecting = false) sock ~on_payload
    ~on_close =
  Unix.set_nonblock sock;
  (try Unix.setsockopt sock Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let t =
    {
      loop;
      sock;
      metrics;
      counters = Option.map counters metrics;
      decoder = Frame.Decoder.create ?metrics ();
      body = Buffer.create 256;
      out = Bytes.create 4096;
      out_pos = 0;
      out_len = 0;
      dirty = false;
      write_armed = false;
      connecting;
      is_closed = false;
      bytes_in = 0;
      bytes_out = 0;
      frames_in = 0;
      frames_out = 0;
      on_payload;
      on_close;
      scratch = Bytes.create 65_536;
    }
  in
  Evloop.set_read loop sock (Some (on_readable t));
  if connecting then Evloop.set_write loop sock (Some (finish_connect t));
  t

let listen ~loop addr ~on_accept =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock addr;
  Unix.listen sock 64;
  Unix.set_nonblock sock;
  let rec accept_ready () =
    match Unix.accept sock with
    | client, peer_addr ->
        Unix.set_nonblock client;
        on_accept client peer_addr;
        accept_ready ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  Evloop.set_read loop sock (Some accept_ready);
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0

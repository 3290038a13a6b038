module Process = Gc_kernel.Process

type 'a t = {
  proc : Process.t;
  metric : string option;
  max_batch : int;
  max_delay : float;
  emit : 'a list -> unit;
  mutable buf : 'a list; (* newest first; reversed on flush *)
  mutable buf_n : int;
  (* Generation counter: a pending delay timer only flushes the batch it
     was armed for.  A watermark flush bumps the generation, so the stale
     timer (which cannot be cancelled portably across runtimes) becomes a
     no-op instead of cutting the *next* batch short. *)
  mutable gen : int;
  mutable armed : bool;
}

let create proc ?metric ~max_batch ~max_delay ~emit () =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  {
    proc;
    metric;
    max_batch;
    max_delay;
    emit;
    buf = [];
    buf_n = 0;
    gen = 0;
    armed = false;
  }

let observe t n =
  match t.metric with
  (* gcs-lint: allow E2 — the name is fixed at the two Batcher.create
     sites in Generic_broadcast.create (gbcast.batch_size,
     gbcast.ack_batch_size), each a catalogued histogram *)
  | Some m -> Process.observe t.proc m (float_of_int n)
  | None -> ()

let flush t =
  if t.buf_n > 0 then begin
    let items = List.rev t.buf in
    let n = t.buf_n in
    t.buf <- [];
    t.buf_n <- 0;
    t.gen <- t.gen + 1;
    t.armed <- false;
    observe t n;
    t.emit items
  end

let add t x =
  t.buf <- x :: t.buf;
  t.buf_n <- t.buf_n + 1;
  if t.buf_n >= t.max_batch then flush t
  else if not t.armed then begin
    t.armed <- true;
    let gen = t.gen in
    ignore
      (Process.timer t.proc ~delay:t.max_delay (fun () ->
           if t.gen = gen then flush t))
  end

let length t = t.buf_n

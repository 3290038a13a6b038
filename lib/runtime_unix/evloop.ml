module Heap = Gc_sim.Heap

type timer_cell = {
  deadline : float;
  seq : int; (* FIFO tie-break for equal deadlines *)
  cell_f : unit -> unit;
  mutable cancelled : bool;
}

type watcher = {
  mutable on_read : (unit -> unit) option;
  mutable on_write : (unit -> unit) option;
}

(* The poll sets are cached: [reads] and [writes] are the watched fds with
   a readable (writable) callback, in ascending fd order, and they are
   rebuilt only when [stale] — set whenever a callback is added or removed,
   not when one is replaced — so a steady-state tick allocates no lists. *)
type t = {
  start : float;
  timers : timer_cell Heap.t;
  mutable timer_seq : int;
  watchers : (Unix.file_descr, watcher) Hashtbl.t;
  mutable reads : Unix.file_descr list;
  mutable writes : Unix.file_descr list;
  mutable stale : bool;
  deferred : (unit -> unit) Queue.t; (* run before the loop next blocks *)
  mutable running : bool;
  metrics : Gc_obs.Metrics.t option;
}

(* A timer firing this late counts as overdue: the loop is falling behind
   its own schedule (a long callback, or select starvation). *)
let overdue_ms = 5.0

let wall_ms () = Unix.gettimeofday () *. 1000.0

(* A peer resetting its connection must surface as EPIPE from write, not a
   process-killing signal; done once, on first loop creation. *)
let ignore_sigpipe =
  lazy
    (if not Sys.win32 then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ())

let create ?metrics () =
  Lazy.force ignore_sigpipe;
  {
    start = wall_ms ();
    timers =
      Heap.create
        ~cmp:(fun a b ->
          match Float.compare a.deadline b.deadline with
          | 0 -> Int.compare a.seq b.seq
          | c -> c)
        ();
    timer_seq = 0;
    watchers = Hashtbl.create 32;
    reads = [];
    writes = [];
    stale = false;
    deferred = Queue.create ();
    running = false;
    metrics;
  }

let now t = wall_ms () -. t.start

let schedule t ~delay f =
  let cell =
    {
      deadline = now t +. Float.max delay 0.0;
      seq = t.timer_seq;
      cell_f = f;
      cancelled = false;
    }
  in
  t.timer_seq <- t.timer_seq + 1;
  Heap.push t.timers cell;
  { Gc_kernel.Runtime.cancel = (fun () -> cell.cancelled <- true) }

let defer t f = Queue.push f t.deferred

(* Deferred work may defer more (a flush that fails closes a connection,
   whose [on_close] may send elsewhere): drain until the queue is empty. *)
let run_deferred t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

let watcher t fd =
  match Hashtbl.find_opt t.watchers fd with
  | Some w -> w
  | None ->
      let w = { on_read = None; on_write = None } in
      Hashtbl.replace t.watchers fd w;
      w

let prune t fd w =
  if w.on_read = None && w.on_write = None then Hashtbl.remove t.watchers fd

let set_read t fd cb =
  let w = watcher t fd in
  if Option.is_some w.on_read <> Option.is_some cb then t.stale <- true;
  w.on_read <- cb;
  prune t fd w

let set_write t fd cb =
  let w = watcher t fd in
  if Option.is_some w.on_write <> Option.is_some cb then t.stale <- true;
  w.on_write <- cb;
  prune t fd w

let forget t fd =
  if Hashtbl.mem t.watchers fd then begin
    Hashtbl.remove t.watchers fd;
    t.stale <- true
  end

(* Rebuild the poll sets in ascending fd order.  [Unix.file_descr] is
   abstract, but on every Unix port it is the numeric descriptor, so
   polymorphic compare yields the OS ordering; sorting here makes the
   dispatch order of a wakeup a function of the fd set alone, not of
   Hashtbl bucket layout (which varies with insertion history and the
   hash seed). *)
let refresh t =
  if t.stale then begin
    let collect pick =
      List.sort compare
        (Hashtbl.fold
           (fun fd w acc -> if pick w then fd :: acc else acc)
           t.watchers [])
    in
    t.reads <- collect (fun w -> w.on_read <> None);
    t.writes <- collect (fun w -> w.on_write <> None);
    t.stale <- false
  end

let watched_fds t =
  refresh t;
  let rec merge rs ws =
    match (rs, ws) with
    | [], l | l, [] -> l
    | r :: rs', w :: ws' ->
        let c = compare r w in
        if c = 0 then r :: merge rs' ws'
        else if c < 0 then r :: merge rs' ws
        else w :: merge rs ws'
  in
  merge t.reads t.writes

let fire_due t =
  let rec go () =
    match Heap.peek t.timers with
    | Some cell when cell.cancelled ->
        ignore (Heap.pop t.timers);
        go ()
    | Some cell when cell.deadline <= now t ->
        ignore (Heap.pop t.timers);
        (match t.metrics with
        | Some m ->
            let lag = now t -. cell.deadline in
            Gc_obs.Metrics.observe m "evloop.timer_lag_ms" lag;
            if lag > overdue_ms then
              Gc_obs.Metrics.incr m "evloop.timer_overdue"
        | None -> ());
        cell.cell_f ();
        go ()
    | _ -> ()
  in
  go ()

let next_deadline t =
  let rec go () =
    match Heap.peek t.timers with
    | Some cell when cell.cancelled ->
        ignore (Heap.pop t.timers);
        go ()
    | Some cell -> Some cell.deadline
    | None -> None
  in
  go ()

let in_fd_order = function ([] | [ _ ]) as l -> l | l -> List.sort compare l

(* Look each callback up at dispatch time: an earlier callback in the
   batch may close a sibling's descriptor and unregister it. *)
let rec dispatch t pick = function
  | [] -> ()
  | fd :: rest ->
      (match pick (Hashtbl.find t.watchers fd) with
      | Some cb -> cb ()
      | None | (exception Not_found) -> ());
      dispatch t pick rest

let run_once t ~max_wait =
  let t0 = now t in
  run_deferred t;
  let t_poll = now t in
  let wait =
    match next_deadline t with
    | Some d -> Float.min max_wait (Float.max 0.0 (d -. t_poll))
    | None -> max_wait
  in
  (* Sorted, so [select]'s ready lists — and therefore callback dispatch —
     come back in fd order on every platform, every run. *)
  refresh t;
  let ready_r, ready_w, _ =
    if t.reads = [] && t.writes = [] then begin
      if wait > 0.0 then Unix.sleepf (wait /. 1000.0);
      ([], [], [])
    end
    else
      try Unix.select t.reads t.writes [] (wait /. 1000.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let t_woke = now t in
  (* [select] makes no ordering promise on its ready lists (the OCaml
     runtime returns them reversed); sort so dispatch is in fd order. *)
  dispatch t (fun w -> w.on_read) (in_fd_order ready_r);
  dispatch t (fun w -> w.on_write) (in_fd_order ready_w);
  fire_due t;
  match t.metrics with
  | None -> ()
  | Some m ->
      let t_done = now t in
      Gc_obs.Metrics.incr m "evloop.ticks";
      Gc_obs.Metrics.observe m "evloop.select_wait_ms" (t_woke -. t_poll);
      (* deferred work is callback work too, just run before the poll *)
      Gc_obs.Metrics.observe m "evloop.callback_ms"
        (t_done -. t_woke +. (t_poll -. t0));
      Gc_obs.Metrics.observe m "evloop.tick_ms" (t_done -. t0);
      Gc_obs.Metrics.set_gauge m "evloop.open_fds"
        (float_of_int (Hashtbl.length t.watchers))

let run_for t ms =
  let until = now t +. ms in
  while now t < until do
    run_once t ~max_wait:(Float.min 50.0 (until -. now t))
  done

let stop t = t.running <- false

let run t =
  t.running <- true;
  while t.running do
    run_once t ~max_wait:250.0
  done

(** Single-threaded [Unix.select] event loop: the real-time counterpart of
    the discrete-event {!Gc_sim.Engine}.

    Owns a wall-clock timer heap and a registry of watched file
    descriptors.  One loop drives everything in a process — every
    {!Runtime_unix} node, every framed client connection — so protocol
    code keeps the single-threaded execution model it has under the
    simulator.  Times are milliseconds since {!create}. *)

type t

val create : ?metrics:Gc_obs.Metrics.t -> unit -> t
(** With [metrics], the loop profiles itself into the registry: per-tick
    histograms [evloop.tick_ms] (whole iteration),
    [evloop.select_wait_ms] (blocked in [select]) and
    [evloop.callback_ms] (running deferred work, dispatching descriptor
    callbacks and timers);
    per-timer [evloop.timer_lag_ms] (firing time minus deadline) with
    counter [evloop.timer_overdue] for lags over 5 ms; counter
    [evloop.ticks] and gauge [evloop.open_fds] (watched descriptors).
    Without it the loop records nothing. *)

val now : t -> float
(** Milliseconds of wall-clock time since the loop was created. *)

val schedule : t -> delay:float -> (unit -> unit) -> Gc_kernel.Runtime.timer
(** Run the callback [delay] ms from now (never before). *)

val defer : t -> (unit -> unit) -> unit
(** Queue a one-shot callback to run before the loop next blocks: the next
    {!run_once} runs every queued callback (and any they queue in turn)
    before it computes its [select] wait.  Work queued from inside a
    callback, or from outside the loop altogether, therefore never waits
    out a poll.  Callbacks run in the order they were queued.  This is
    how {!Fconn} coalesces a turn's sends into one write per connection. *)

val set_read : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Install ([Some]) or remove ([None]) the readable-callback for a
    descriptor. *)

val set_write : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Install or remove the writable-callback. *)

val forget : t -> Unix.file_descr -> unit
(** Drop both callbacks (before closing the descriptor). *)

val watched_fds : t -> Unix.file_descr list
(** The currently watched descriptors in ascending fd order — the order
    {!run_once} polls and dispatches them in, independent of registration
    history. *)

val run_once : t -> max_wait:float -> unit
(** One iteration: run the {!defer}red work, then wait up to [max_wait] ms
    (bounded by the next timer deadline, and not at all when [max_wait] is
    0) for descriptor activity, dispatch ready callbacks, fire due timers.
    Work the callbacks and timers defer runs at the start of the next
    iteration, before it polls, so nothing deferred is ever left queued
    while the loop sleeps. *)

val run_for : t -> float -> unit
(** Iterate for the given number of milliseconds (tests, demos). *)

val stop : t -> unit
(** Make {!run} return after the current iteration. *)

val run : t -> unit
(** Iterate until {!stop}. *)

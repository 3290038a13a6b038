(** Size/tick watermark batching for generic broadcast's submissions and
    fast-path acknowledgements.

    Generic broadcast pays per-{e network message} costs that dwarf per-{e
    application message} costs: a reliable broadcast costs O(n^2) relays
    and a fast-path acknowledgement costs n-1 unicasts, regardless of how
    much application payload rides inside.  A batcher amortises those
    fixed costs across a burst: callers [add] items one at a time; the
    batcher emits them in submission order (preserving per-sender FIFO) as
    one list, either when [max_batch] items have accumulated (the size
    watermark) or [max_delay] milliseconds after the first buffered item
    (the tick watermark), whichever comes first.

    With [max_batch = 1] every [add] reaches the size watermark at once:
    it emits a one-element list immediately and never arms a timer, which
    is the unbatched protocol's traffic (one-element containers print as
    the plain message they carry).

    Timers come from {!Gc_kernel.Process}, so flushes are deterministic
    under the simulator and alive-guarded (a crashed process never emits a
    trailing batch). *)

type 'a t

val create :
  Gc_kernel.Process.t ->
  ?metric:string ->
  max_batch:int ->
  max_delay:float ->
  emit:('a list -> unit) ->
  unit ->
  'a t
(** [emit] receives a non-empty list in submission order.  [metric], when
    given, names a histogram observed with each emitted batch's length.
    Raises [Invalid_argument] if [max_batch < 1]. *)

val add : 'a t -> 'a -> unit

val flush : 'a t -> unit
(** Emit whatever is buffered now (no-op when empty).  Call at natural
    boundaries — e.g. after draining an incoming batch whose processing
    generated items — so batching never adds latency where a flush point
    is already known. *)

val length : 'a t -> int
(** Items currently buffered. *)

(** Length-prefixed framing of {!Payload.t} for stream transports.

    On the wire a frame is a 4-byte big-endian body length followed by the
    {!Payload.encode} bytes.  Encoding and decoding are total: truncated,
    oversized and undecodable frames come back as typed errors — the
    connection layer counts them ([net.frame_reject]) and drops them, it
    never raises mid-read.  An oversized or negative length prefix is
    unrecoverable (the stream cannot be resynchronised) and kills the
    decoder; a frame whose {e body} fails to decode is skipped and the
    stream continues at the next frame boundary. *)

type error =
  | Codec of Payload.codec_error  (** body rejected by the payload codec *)
  | Oversized of { len : int; limit : int }
      (** length prefix beyond the decoder's limit *)
  | Bad_length of int  (** negative length prefix *)

val error_to_string : error -> string

val default_limit : int
(** Default maximum body length (1 MiB). *)

val encode_body : ?limit:int -> Wire.writer -> Payload.t -> (int, error) result
(** Clear the writer and encode one payload's frame body into it.  Returns
    the length of the whole frame (prefix + body) that {!blit} will write;
    bodies over [limit] (default {!default_limit}) are [Oversized]. *)

val blit : Wire.writer -> bytes -> int -> unit
(** [blit body dst off] writes the frame for the body held in the writer
    (as left by {!encode_body}) into [dst] at [off]: the length prefix,
    then the body.  [dst] must have room for the frame length. *)

val encode : ?limit:int -> Payload.t -> (string, error) result
(** Complete frame bytes (prefix + body) for one payload. *)

val decode_exact : ?limit:int -> string -> (Payload.t, error) result
(** Decode a string holding exactly one frame (tests, datagram-style use).
    Truncated and trailing bytes surface as [Codec] errors. *)

(** Incremental decoder for a TCP byte stream. *)
module Decoder : sig
  type t

  val create : ?limit:int -> ?metrics:Gc_obs.Metrics.t -> unit -> t
  (** With [metrics], every rejected frame bumps the [net.frame_reject]
      counter. *)

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append bytes received from the stream. *)

  val feed_string : t -> string -> unit

  val next : t -> [ `Payload of Payload.t | `Await | `Corrupt of error ]
  (** Pop the next complete frame.  [`Await] means more bytes are needed;
      [`Corrupt] reports a rejected frame — skippable for body errors,
      terminal for length errors (see {!dead}). *)

  val dead : t -> bool
  (** The stream lost framing (oversized/negative length); the caller
      should close the connection. *)

  val rejected : t -> int
  (** Frames rejected by this decoder so far. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed. *)
end

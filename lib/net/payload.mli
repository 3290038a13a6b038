(** Extensible message payloads.

    Each protocol layer extends {!t} with its own constructors (heartbeats,
    consensus phases, broadcast data, ...).  Keeping one extensible type lets
    the simulated network, the tracer and the statistics treat all protocol
    traffic uniformly while every layer still pattern-matches only on its own
    messages. *)

type t = ..

val register_printer : (t -> string option) -> unit
(** Layers register a printer for their constructors; used by traces and
    debugging output. *)

val to_string : t -> string
(** Rendering through the registered printers.  A constructor no printer
    covers renders as its qualified name (e.g. [Gc_fuzz.Harness.Fuzz]),
    so a missing printer shows in traces instead of hiding behind a
    placeholder. *)

(** {1 Binary codec registry}

    Extensible variants do not survive [Marshal] across processes (the
    extension-constructor slot is compared physically), so the real-network
    runtime serializes payloads through a registry mirroring
    {!register_printer}: each layer registers a tagged codec for its own
    constructors at module-initialisation time.  Nested payloads (a reliable
    channel packet carrying a broadcast carrying consensus traffic) recurse
    through the callback handed to each codec. *)

type codec_error =
  | Unknown_tag of string  (** no decoder registered for the wire tag *)
  | Unencodable of string  (** no encoder claims the value (printed form) *)
  | Truncated  (** input ended inside a field *)
  | Trailing of int  (** well-formed value followed by this many junk bytes *)
  | Malformed of string  (** a decoder rejected the bytes *)

val codec_error_to_string : codec_error -> string

val register_codec :
  tag:string ->
  encode:((Wire.writer -> t -> unit) -> Wire.writer -> t -> bool) ->
  decode:((Wire.reader -> t) -> Wire.reader -> t) ->
  unit
(** [register_codec ~tag ~encode ~decode] installs a codec family.
    [encode recurse w p] writes the body of [p] and returns [true] when [p]
    is one of the family's constructors ([false] leaves [w] untouched by the
    registry); [recurse] encodes a nested payload, raising internally if it
    is unencodable.  [decode recurse r] parses a body back; it may raise
    {!Wire.Short} or call {!malformed}.  Tags must be unique. *)

val malformed : string -> 'a
(** For decoders: reject the input with a {!Malformed} error. *)

val encode_into : Wire.writer -> t -> (unit, codec_error) result
(** Append the self-describing binary encoding (tag + body) to the writer.
    On error the writer is rolled back to its length before the call.
    Total: never raises. *)

val encode : t -> (string, codec_error) result
(** {!encode_into} a fresh buffer: the encoding as a string, usable as a
    {!Frame} body. *)

val decode : ?pos:int -> ?len:int -> string -> (t, codec_error) result
(** Inverse of {!encode} over a slice of the string (default: all of it);
    nothing outside the slice is read.  Rejects truncated input, trailing
    bytes within the slice, unknown tags and malformed bodies with a typed
    error instead of raising. *)

val encodable : t -> bool
(** Whether some registered codec claims the value. *)

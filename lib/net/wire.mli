(** Binary wire primitives for the runtime seam.

    A tiny, dependency-free binary format used by the {!Payload} codec
    registry and the {!Frame} length-prefixed framing: LEB128 varints
    (zigzag for signed values), IEEE-754 doubles, length-prefixed strings
    and the usual combinators.  Writers append to a [Buffer.t]; readers
    walk a string slice and raise {!Short} past its end, which the codec
    layer converts into a typed [Truncated] error. *)

type writer = Buffer.t

val u8 : writer -> int -> unit
(** Low byte of the argument. *)

val varint : writer -> int -> unit
(** Zigzag LEB128; full native [int] range, negative values welcome. *)

val f64 : writer -> float -> unit
val str : writer -> string -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val pair : writer -> (writer -> 'a -> unit) -> (writer -> 'b -> unit) -> 'a * 'b -> unit

type reader

exception Short
(** Raised by every [read_*] on a truncated input. *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** Reader over a slice (default: the whole string). *)

val read_u8 : reader -> int
val read_varint : reader -> int
val read_f64 : reader -> float
val read_str : reader -> string
val read_list : reader -> (reader -> 'a) -> 'a list
val read_option : reader -> (reader -> 'a) -> 'a option
val read_pair : reader -> (reader -> 'a) -> (reader -> 'b) -> 'a * 'b

val remaining : reader -> int
(** Unread bytes left in the slice. *)

val crc32 : ?pos:int -> ?len:int -> string -> int
(** IEEE CRC-32 (the zlib/ethernet polynomial) of a slice (default: the
    whole string), returned as a non-negative int in [\[0, 2^32)].  Used to
    frame durable-log records so a torn tail is detected on recovery. *)

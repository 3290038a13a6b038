type writer = Buffer.t

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

(* The helpers below are top-level recursions over their arguments, not
   local closures: the codec runs them for every field of every frame, so
   they allocate nothing beyond what they write or return. *)

(* LEB128: 7 bits per byte, low bits first. *)
let rec leb128 w z =
  if z land lnot 0x7f = 0 then u8 w z
  else begin
    u8 w (0x80 lor (z land 0x7f));
    leb128 w (z lsr 7)
  end

(* Zigzag maps the signed range onto unsigned so small negatives stay
   short. *)
let varint w v = leb128 w ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

(* Little-endian IEEE-754 bits. *)
let f64 w v = Buffer.add_int64_le w (Int64.bits_of_float v)

let str w s =
  varint w (String.length s);
  Buffer.add_string w s

let rec items w item = function
  | [] -> ()
  | x :: rest ->
      item w x;
      items w item rest

let list w item xs =
  varint w (List.length xs);
  items w item xs

let option w item = function
  | None -> u8 w 0
  | Some x ->
      u8 w 1;
      item w x

let pair w fst_w snd_w (a, b) =
  fst_w w a;
  snd_w w b

type reader = { src : string; limit : int; mutable pos : int }

exception Short

let reader ?(pos = 0) ?len src =
  let len = match len with Some l -> l | None -> String.length src - pos in
  { src; limit = pos + len; pos }

let read_u8 r =
  if r.pos >= r.limit then raise Short;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rec read_leb128 r shift acc =
  if shift > Sys.int_size then raise Short;
  let b = read_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_leb128 r (shift + 7) acc

let read_varint r =
  let z = read_leb128 r 0 0 in
  (z lsr 1) lxor (-(z land 1))

let read_f64 r =
  if r.limit - r.pos < 8 then raise Short;
  let bits = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

(* [n > limit - pos], not [pos + n > limit]: a hostile length near
   [max_int] would overflow the sum and pass. *)
let read_str r =
  let n = read_varint r in
  if n < 0 || n > r.limit - r.pos then raise Short;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Explicit accumulation: items must be read front-to-back. *)
let rec read_items r item k acc =
  if k = 0 then List.rev acc else read_items r item (k - 1) (item r :: acc)

let read_list r item =
  let n = read_varint r in
  if n < 0 then raise Short;
  read_items r item n []

let read_option r item = match read_u8 r with 0 -> None | _ -> Some (item r)

let read_pair r fst_r snd_r =
  let a = fst_r r in
  let b = snd_r r in
  (a, b)

let remaining r = r.limit - r.pos

(* IEEE CRC-32 (reflected, polynomial 0xEDB88320), table-driven.  Used by
   the durable-log record framing to detect torn or corrupted tails. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

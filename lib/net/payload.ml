type t = ..

let printers : (t -> string option) list ref = ref []
let register_printer f = printers := f :: !printers

let to_string p =
  let rec go = function
    | [] -> Obj.Extension_constructor.(name (of_val p))
    | f :: rest -> ( match f p with Some s -> s | None -> go rest)
  in
  go !printers

(* ---------- binary codec registry ---------- *)

type codec_error =
  | Unknown_tag of string
  | Unencodable of string
  | Truncated
  | Trailing of int
  | Malformed of string

let codec_error_to_string = function
  | Unknown_tag tag -> Printf.sprintf "unknown wire tag %S" tag
  | Unencodable p -> Printf.sprintf "no codec for payload %s" p
  | Truncated -> "truncated payload"
  | Trailing n -> Printf.sprintf "%d trailing bytes after payload" n
  | Malformed why -> Printf.sprintf "malformed payload: %s" why

exception Codec_reject of codec_error

let malformed why = raise (Codec_reject (Malformed why))

let encoders : (string * (Wire.writer -> t -> bool)) list ref = ref []
let decoders : (string, Wire.reader -> t) Hashtbl.t = Hashtbl.create 32

let encode_value w p =
  let rec go = function
    | [] -> raise (Codec_reject (Unencodable (to_string p)))
    | (tag, enc) :: rest ->
        (* Speculatively write the tag; roll back if the family declines. *)
        let mark = Buffer.length w in
        Wire.str w tag;
        if not (enc w p) then begin
          Buffer.truncate w mark;
          go rest
        end
  in
  go !encoders

let decode_value r =
  let tag = Wire.read_str r in
  match Hashtbl.find_opt decoders tag with
  | None -> raise (Codec_reject (Unknown_tag tag))
  | Some dec -> dec r

let register_codec ~tag ~encode ~decode =
  if Hashtbl.mem decoders tag then
    invalid_arg (Printf.sprintf "Payload.register_codec: duplicate tag %S" tag);
  encoders := (tag, encode encode_value) :: !encoders;
  Hashtbl.replace decoders tag (fun r -> decode decode_value r)

let encode_into w p =
  let mark = Buffer.length w in
  match encode_value w p with
  | () -> Ok ()
  | exception Codec_reject e ->
      Buffer.truncate w mark;
      Error e

let encode p =
  let w = Buffer.create 128 in
  match encode_into w p with
  | Ok () -> Ok (Buffer.contents w)
  | Error e -> Error e

let decode ?pos ?len s =
  let r = Wire.reader ?pos ?len s in
  match decode_value r with
  | v ->
      let left = Wire.remaining r in
      if left = 0 then Ok v else Error (Trailing left)
  | exception Codec_reject e -> Error e
  | exception Wire.Short -> Error Truncated

let encodable p =
  List.exists
    (fun (_, enc) ->
      let w = Buffer.create 64 in
      match enc w p with
      | claimed -> claimed
      | exception Codec_reject _ -> true)
    !encoders

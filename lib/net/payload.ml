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

(* Dispatch memo: extension-constructor id -> the family that encoded it.
   Every family claims or declines by constructor alone, so the first
   encode of a constructor searches the families and later ones go
   straight to the one that claimed it.  A new family goes to the front of
   the search, so registering one clears the memo. *)
let claimed : (int, string * (Wire.writer -> t -> bool)) Hashtbl.t =
  Hashtbl.create 64

let constructor_id p = Obj.Extension_constructor.(id (of_val p))

let rec search w p = function
  | [] -> raise (Codec_reject (Unencodable (to_string p)))
  | ((tag, enc) as family) :: rest ->
      (* Speculatively write the tag; roll back if the family declines. *)
      let mark = Buffer.length w in
      Wire.str w tag;
      if enc w p then Hashtbl.replace claimed (constructor_id p) family
      else begin
        Buffer.truncate w mark;
        search w p rest
      end

let encode_value w p =
  match Hashtbl.find claimed (constructor_id p) with
  | tag, enc ->
      let mark = Buffer.length w in
      Wire.str w tag;
      if not (enc w p) then begin
        Buffer.truncate w mark;
        search w p !encoders
      end
  | exception Not_found -> search w p !encoders

let decode_value r =
  let tag = Wire.read_str r in
  match Hashtbl.find decoders tag with
  | dec -> dec r
  | exception Not_found -> raise (Codec_reject (Unknown_tag tag))

let register_codec ~tag ~encode ~decode =
  if Hashtbl.mem decoders tag then
    invalid_arg (Printf.sprintf "Payload.register_codec: duplicate tag %S" tag);
  encoders := (tag, encode encode_value) :: !encoders;
  Hashtbl.reset claimed;
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

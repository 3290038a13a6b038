type error =
  | Codec of Payload.codec_error
  | Oversized of { len : int; limit : int }
  | Bad_length of int

let error_to_string = function
  | Codec e -> Payload.codec_error_to_string e
  | Oversized { len; limit } ->
      Printf.sprintf "frame of %d bytes exceeds limit %d" len limit
  | Bad_length n -> Printf.sprintf "negative frame length %d" n

let default_limit = 1 lsl 20

let encode_body ?(limit = default_limit) w p =
  Buffer.clear w;
  match Payload.encode_into w p with
  | Error e -> Error (Codec e)
  | Ok () ->
      let n = Buffer.length w in
      if n > limit then Error (Oversized { len = n; limit }) else Ok (4 + n)

(* The frame format, in one place: 4-byte big-endian body length, body. *)
let blit body dst off =
  let n = Buffer.length body in
  Bytes.set_int32_be dst off (Int32.of_int n);
  Buffer.blit body 0 dst (off + 4) n

let encode ?limit p =
  let w = Buffer.create 128 in
  match encode_body ?limit w p with
  | Error e -> Error e
  | Ok len ->
      let b = Bytes.create len in
      blit w b 0;
      Ok (Bytes.unsafe_to_string b)

module Decoder = struct
  type t = {
    limit : int;
    metrics : Gc_obs.Metrics.t option;
    mutable buf : Bytes.t;  (* fed, not yet consumed: [pos, fill) *)
    mutable pos : int;
    mutable fill : int;
    mutable dead : bool;
    mutable rejected : int;
  }

  let create ?(limit = default_limit) ?metrics () =
    {
      limit;
      metrics;
      buf = Bytes.create 4096;
      pos = 0;
      fill = 0;
      dead = false;
      rejected = 0;
    }

  let buffered t = t.fill - t.pos

  let reject t =
    t.rejected <- t.rejected + 1;
    match t.metrics with
    | Some m -> Gc_obs.Metrics.incr m "net.frame_reject"
    | None -> ()

  let ensure_room t extra =
    let used = buffered t in
    if t.pos > 0 && (used = 0 || t.pos > Bytes.length t.buf / 2) then begin
      Bytes.blit t.buf t.pos t.buf 0 used;
      t.pos <- 0;
      t.fill <- used
    end;
    if t.fill + extra > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while t.fill + extra > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.fill;
      t.buf <- bigger
    end

  let feed t src ~off ~len =
    if len > 0 && not t.dead then begin
      ensure_room t len;
      Bytes.blit src off t.buf t.fill len;
      t.fill <- t.fill + len
    end

  let feed_string t s =
    feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

  let next t =
    if t.dead then `Corrupt (Bad_length (-1))
    else if buffered t < 4 then `Await
    else begin
      let len = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
      if len < 0 then begin
        t.dead <- true;
        reject t;
        `Corrupt (Bad_length len)
      end
      else if len > t.limit then begin
        t.dead <- true;
        reject t;
        `Corrupt (Oversized { len; limit = t.limit })
      end
      else if buffered t < 4 + len then `Await
      else begin
        let pos = t.pos + 4 in
        t.pos <- pos + len;
        (* In place: the reader is bounded to this frame's body, and every
           field it returns is a fresh copy, so the alias never escapes. *)
        match Payload.decode ~pos ~len (Bytes.unsafe_to_string t.buf) with
        | Ok p -> `Payload p
        | Error e ->
            reject t;
            `Corrupt (Codec e)
      end
    end

  let dead t = t.dead
  let rejected t = t.rejected
end

let decode_exact ?limit s =
  let d = Decoder.create ?limit () in
  Decoder.feed_string d s;
  match Decoder.next d with
  | `Payload p ->
      if Decoder.buffered d = 0 then Ok p
      else Error (Codec (Payload.Trailing (Decoder.buffered d)))
  | `Await -> Error (Codec Payload.Truncated)
  | `Corrupt e -> Error e

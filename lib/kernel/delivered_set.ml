module W = Gc_net.Wire
module H = Hashtbl.Make (Int)

(* An id's epoch is its bits above [seq_bits].  A stream, one (origin,
   epoch) pair, is packed into one int key so a probe allocates nothing.
   Protocol paths only probe by exact key; the traversals either do not
   depend on bucket order or sort first ([write]). *)

let seq_bits = 40
let epoch_width = 62 - seq_bits
let first_seq ~epoch = epoch lsl seq_bits
let key ~origin ~seq = (origin lsl epoch_width) lor (seq lsr seq_bits)
let first_of key = first_seq ~epoch:(key land ((1 lsl epoch_width) - 1))

type stream = {
  mutable wm : int; (* every id of the stream in [first, wm) is present *)
  overflow : unit H.t; (* present ids above [wm] *)
}

type t = { streams : stream H.t; mutable count : int }

let create () = { streams = H.create 16; count = 0 }

let stream t k =
  match H.find t.streams k with
  | s -> s
  | exception Not_found ->
      let s = { wm = first_of k; overflow = H.create 1 } in
      H.replace t.streams k s;
      s

let in_stream s seq =
  seq < s.wm || (H.length s.overflow > 0 && H.mem s.overflow seq)

let mem t (origin, seq) =
  match H.find t.streams (key ~origin ~seq) with
  | s -> in_stream s seq
  | exception Not_found -> false

(* Advance the watermark past overflowed ids now contiguous with it. *)
let rec absorb s =
  if H.length s.overflow > 0 && H.mem s.overflow s.wm then begin
    H.remove s.overflow s.wm;
    s.wm <- s.wm + 1;
    absorb s
  end

let add_seq t s seq =
  if in_stream s seq then false
  else begin
    t.count <- t.count + 1;
    if seq = s.wm then begin
      s.wm <- seq + 1;
      absorb s
    end
    else H.replace s.overflow seq ();
    true
  end

let add t (origin, seq) = add_seq t (stream t (key ~origin ~seq)) seq
let cardinal t = t.count
let overflow_size t = H.fold (fun _ s n -> n + H.length s.overflow) t.streams 0

let copy t =
  let streams = H.create (H.length t.streams) in
  H.iter
    (fun k s -> H.replace streams k { wm = s.wm; overflow = H.copy s.overflow })
    t.streams;
  { streams; count = t.count }

let union_into ~into src =
  H.iter
    (fun k s ->
      let d = stream into k in
      if s.wm > d.wm then begin
        (* [d] gains src's prefix above its own watermark, less the ids it
           already held there as overflow. *)
        let held = H.length d.overflow in
        H.filter_map_inplace
          (fun seq () -> if seq < s.wm then None else Some ())
          d.overflow;
        into.count <- into.count + s.wm - d.wm - (held - H.length d.overflow);
        d.wm <- s.wm;
        absorb d
      end;
      H.iter (fun seq () -> ignore (add_seq into d seq)) s.overflow)
    src.streams

let sorted_keys h = List.sort Int.compare (H.fold (fun k _ l -> k :: l) h [])

let write w t =
  W.list w
    (fun w k ->
      let s = H.find t.streams k in
      W.varint w k;
      W.varint w (s.wm - first_of k);
      W.list w (fun w seq -> W.varint w (seq - s.wm)) (sorted_keys s.overflow))
    (sorted_keys t.streams)

let read r =
  let t = create () in
  let read_stream r =
    let k = W.read_varint r in
    let s = stream t k in
    s.wm <- first_of k + W.read_varint r;
    W.read_list r W.read_varint
    |> List.iter (fun d -> H.replace s.overflow (s.wm + d) ());
    t.count <- t.count + (s.wm - first_of k) + H.length s.overflow
  in
  ignore (W.read_list r read_stream);
  t

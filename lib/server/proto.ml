module Payload = Gc_net.Payload
module W = Gc_net.Wire

type op =
  | Put of { key : string; value : string }
  | Incr of { key : string; delta : int }

let op_commutes = function Put _ -> false | Incr _ -> true

let op_to_string = function
  | Put { key; value } -> Printf.sprintf "put %s=%s" key value
  | Incr { key; delta } -> Printf.sprintf "incr %s%+d" key delta

type stats_format = Stats_json | Stats_prometheus

type Payload.t +=
  | Cl_put of { rid : int; key : string; value : string }
  | Cl_incr of { rid : int; key : string; delta : int }
  | Cl_get of { rid : int; key : string }
  | Cl_dump of { rid : int }
  | Cl_reply of { rid : int; ok : bool; body : string }
  | Sv_op of { origin : int; opid : int; op : op }
  | Cl_stats of { rid : int; format : stats_format }
  | Cl_health of { rid : int }
  | Sv_state of { blob : string }
        (* full application state for a joiner: a [Kv.to_blob] image *)

let () =
  Payload.register_printer (function
    | Cl_put { rid; key; value } ->
        Some (Printf.sprintf "cl_put#%d(%s=%s)" rid key value)
    | Cl_incr { rid; key; delta } ->
        Some (Printf.sprintf "cl_incr#%d(%s%+d)" rid key delta)
    | Cl_get { rid; key } -> Some (Printf.sprintf "cl_get#%d(%s)" rid key)
    | Cl_dump { rid } -> Some (Printf.sprintf "cl_dump#%d" rid)
    | Cl_reply { rid; ok; body } ->
        Some (Printf.sprintf "cl_reply#%d(%s:%s)" rid (if ok then "ok" else "err") body)
    | Sv_op { origin; opid; op } ->
        Some (Printf.sprintf "sv_op<%d.%d>(%s)" origin opid (op_to_string op))
    | Cl_stats { rid; format } ->
        Some
          (Printf.sprintf "cl_stats#%d(%s)" rid
             (match format with
             | Stats_json -> "json"
             | Stats_prometheus -> "prom"))
    | Cl_health { rid } -> Some (Printf.sprintf "cl_health#%d" rid)
    | Sv_state { blob } -> Some (Printf.sprintf "sv_state(%dB)" (String.length blob))
    | _ -> None)

let write_op w = function
  | Put { key; value } ->
      W.u8 w 0;
      W.str w key;
      W.str w value
  | Incr { key; delta } ->
      W.u8 w 1;
      W.str w key;
      W.varint w delta

let read_op r =
  match W.read_u8 r with
  | 0 ->
      let key = W.read_str r in
      let value = W.read_str r in
      Put { key; value }
  | 1 ->
      let key = W.read_str r in
      let delta = W.read_varint r in
      Incr { key; delta }
  | k -> Payload.malformed (Printf.sprintf "proto: bad op discriminator %d" k)

let () =
  Payload.register_codec ~tag:"cl"
    ~encode:(fun _enc w p ->
      match p with
      | Cl_put { rid; key; value } ->
          W.u8 w 0;
          W.varint w rid;
          W.str w key;
          W.str w value;
          true
      | Cl_incr { rid; key; delta } ->
          W.u8 w 1;
          W.varint w rid;
          W.str w key;
          W.varint w delta;
          true
      | Cl_get { rid; key } ->
          W.u8 w 2;
          W.varint w rid;
          W.str w key;
          true
      | Cl_dump { rid } ->
          W.u8 w 3;
          W.varint w rid;
          true
      | Cl_reply { rid; ok; body } ->
          W.u8 w 4;
          W.varint w rid;
          W.u8 w (if ok then 1 else 0);
          W.str w body;
          true
      | Sv_op { origin; opid; op } ->
          W.u8 w 5;
          W.varint w origin;
          W.varint w opid;
          write_op w op;
          true
      | Cl_stats { rid; format } ->
          W.u8 w 6;
          W.varint w rid;
          W.u8 w (match format with Stats_json -> 0 | Stats_prometheus -> 1);
          true
      | Cl_health { rid } ->
          W.u8 w 7;
          W.varint w rid;
          true
      | Sv_state { blob } ->
          W.u8 w 8;
          W.str w blob;
          true
      | _ -> false)
    ~decode:(fun _dec r ->
      match W.read_u8 r with
      | 0 ->
          let rid = W.read_varint r in
          let key = W.read_str r in
          let value = W.read_str r in
          Cl_put { rid; key; value }
      | 1 ->
          let rid = W.read_varint r in
          let key = W.read_str r in
          let delta = W.read_varint r in
          Cl_incr { rid; key; delta }
      | 2 ->
          let rid = W.read_varint r in
          let key = W.read_str r in
          Cl_get { rid; key }
      | 3 ->
          let rid = W.read_varint r in
          Cl_dump { rid }
      | 4 ->
          let rid = W.read_varint r in
          let ok = W.read_u8 r = 1 in
          let body = W.read_str r in
          Cl_reply { rid; ok; body }
      | 5 ->
          let origin = W.read_varint r in
          let opid = W.read_varint r in
          let op = read_op r in
          Sv_op { origin; opid; op }
      | 6 ->
          let rid = W.read_varint r in
          let format =
            match W.read_u8 r with
            | 0 -> Stats_json
            | 1 -> Stats_prometheus
            | k ->
                Payload.malformed
                  (Printf.sprintf "proto: bad stats format %d" k)
          in
          Cl_stats { rid; format }
      | 7 ->
          let rid = W.read_varint r in
          Cl_health { rid }
      | 8 -> Sv_state { blob = W.read_str r }
      | k ->
          Payload.malformed
            (Printf.sprintf "proto: bad constructor discriminator %d" k))

type id = int * int

type t =
  | Scan of {
      rel : Conflict.relation;
      tbl : (id, Gc_net.Payload.t) Hashtbl.t;
    }
  | Classes of {
      idx : Conflict.index;
      occ : int array; (* tracked messages per conflict class *)
      cls : (id, int) Hashtbl.t; (* tracked id -> its class *)
    }

let create = function
  | Conflict.Relation rel -> Scan { rel; tbl = Hashtbl.create 64 }
  | Conflict.Indexed idx ->
      Classes
        { idx; occ = Array.make idx.classes 0; cls = Hashtbl.create 64 }

let occupancy = function
  | Scan { tbl; _ } -> Hashtbl.length tbl
  | Classes { cls; _ } -> Hashtbl.length cls

let mem t id =
  match t with
  | Scan { tbl; _ } -> Hashtbl.mem tbl id
  | Classes { cls; _ } -> Hashtbl.mem cls id

let add t id payload =
  match t with
  | Scan { tbl; _ } -> if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id payload
  | Classes { idx; occ; cls } ->
      if not (Hashtbl.mem cls id) then begin
        let c = idx.classify payload in
        Hashtbl.add cls id c;
        occ.(c) <- occ.(c) + 1
      end

let remove t id =
  match t with
  | Scan { tbl; _ } -> Hashtbl.remove tbl id
  | Classes { occ; cls; _ } -> (
      match Hashtbl.find_opt cls id with
      | Some c ->
          Hashtbl.remove cls id;
          occ.(c) <- occ.(c) - 1
      | None -> ())

let blocked t ~excluding payload =
  match t with
  | Scan { rel; tbl } ->
      (* gcs-lint: allow D3 — commutative OR-accumulation over the whole
         table; the result is independent of visit order, and this sits on
         the per-message fast path where key-sorting every probe would cost
         O(n log n) per examine. *)
      Hashtbl.fold
        (fun id' p' acc -> acc || (id' <> excluding && rel payload p'))
        tbl false
  | Classes { idx; occ; cls } ->
      let c = idx.classify payload in
      let exc = Hashtbl.find_opt cls excluding in
      let rec probe c' =
        if c' >= idx.classes then false
        else
          let o =
            occ.(c') - (match exc with Some e when e = c' -> 1 | _ -> 0)
          in
          if o > 0 && idx.matrix c c' then true else probe (c' + 1)
      in
      probe 0

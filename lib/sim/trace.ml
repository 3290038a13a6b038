module Event = Gc_obs.Event

type record = Event.t = {
  time : float;
  node : int;
  lamport : int;
  component : string;
  kind : Event.kind;
  msg : string option;
  attrs : (string * string) list;
}

type t = {
  mutable on : bool;
  capacity : int;
  buf : record Queue.t;
  clocks : (int, int) Hashtbl.t;
  mutable dropped : int;
}

let create ?(enabled = false) ?(capacity = 100_000) () =
  {
    on = enabled;
    capacity;
    buf = Queue.create ();
    clocks = Hashtbl.create 16;
    dropped = 0;
  }

let enabled t = t.on

let clock t ~node =
  match Hashtbl.find_opt t.clocks node with Some c -> c | None -> 0

let merge_clock t ~node ~clock:remote =
  if t.on then
    let local = clock t ~node in
    if remote >= local then Hashtbl.replace t.clocks node (remote + 1)

let tick t ~node =
  let c = clock t ~node + 1 in
  Hashtbl.replace t.clocks node c;
  c

let emit_event t ~time ~node ~component ~kind ?msg ?(attrs = []) () =
  if t.on then begin
    let lamport = tick t ~node in
    if Queue.length t.buf >= t.capacity then begin
      ignore (Queue.pop t.buf);
      t.dropped <- t.dropped + 1
    end;
    Queue.push { time; node; lamport; component; kind; msg; attrs } t.buf
  end

let detail = Event.detail
let attr = Event.attr

let records t = List.of_seq (Queue.to_seq t.buf)

let find t ?node ?component ?event ?kind ?msg ?attr:a () =
  let keep r =
    (match node with None -> true | Some n -> r.node = n)
    && (match component with None -> true | Some c -> r.component = c)
    && (match event with
       | None -> true
       | Some e -> Event.kind_to_string r.kind = e)
    && (match kind with None -> true | Some k -> r.kind = k)
    && (match msg with None -> true | Some m -> r.msg = Some m)
    && match a with None -> true | Some (k, v) -> attr r k = Some v
  in
  List.filter keep (records t)

let dropped t = t.dropped

let clear t =
  Queue.clear t.buf;
  Hashtbl.reset t.clocks;
  t.dropped <- 0

let save_jsonl t path = Event.save_jsonl path (records t)

let pp_record = Event.pp

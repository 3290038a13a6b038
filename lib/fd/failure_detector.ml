module Process = Gc_kernel.Process
module Sorted = Gc_sim.Sorted

type Gc_net.Payload.t += Heartbeat

let () =
  Gc_net.Payload.register_codec ~tag:"fd"
    ~encode:(fun _enc _w p -> match p with Heartbeat -> true | _ -> false)
    ~decode:(fun _dec _r -> Heartbeat)

let () =
  Gc_net.Payload.register_printer (function
    | Heartbeat -> Some "fd.heartbeat"
    | _ -> None)

type timeout_rule =
  | Fixed of float
  | Adaptive of { margin : float; factor : float }

type monitor = {
  label : string;
  rule : timeout_rule;
  on_suspect : int -> unit;
  on_trust : (int -> unit) option;
  (* suspected peer -> virtual time the suspicion was raised *)
  suspected_set : (int, float) Hashtbl.t;
  mutable stopped : bool;
  mutable suspicions : int;
  mutable wrong : int;
  mutable checker : Process.periodic option;
}

(* Sliding window of heartbeat inter-arrival times per peer, for adaptive
   timeouts. *)
type arrival_stats = {
  mutable samples : float list; (* newest first, bounded *)
  mutable count : int;
}

let window = 20

type t = {
  proc : Process.t;
  hb_period : float;
  mutable peer_list : int list;
  last_hb : (int, float) Hashtbl.t;
  arrivals : (int, arrival_stats) Hashtbl.t;
  (* peer -> virtual time until which its heartbeats are discarded
     (fault injection: forces a suspicion flap) *)
  muted : (int, float) Hashtbl.t;
  mutable monitors : monitor list;
}

let peers t = t.peer_list

let set_peers t peers =
  let peers = List.filter (fun q -> q <> Process.id t.proc) peers in
  t.peer_list <- peers;
  (* Grant newly added peers a fresh grace period. *)
  let now = Process.now t.proc in
  List.iter
    (fun q -> if not (Hashtbl.mem t.last_hb q) then Hashtbl.replace t.last_hb q now)
    peers;
  (* Forget peers that left, and clear their suspicions. *)
  let gone =
    List.filter (fun q -> not (List.mem q peers)) (Sorted.keys t.last_hb)
  in
  List.iter
    (fun q ->
      Hashtbl.remove t.last_hb q;
      List.iter (fun m -> Hashtbl.remove m.suspected_set q) t.monitors)
    gone

let suppress t ~peer ~until =
  let now = Process.now t.proc in
  if until > now then begin
    Hashtbl.replace t.muted peer until;
    Process.event t.proc ~component:"fd" ~kind:(Gc_obs.Event.Custom "suppress")
      ~attrs:
        [ ("peer", string_of_int peer); ("until", Printf.sprintf "%g" until) ]
      ()
  end

let muted t src now =
  match Hashtbl.find_opt t.muted src with
  | Some until when now < until -> true
  | Some _ ->
      Hashtbl.remove t.muted src;
      false
  | None -> false

let note_arrival t src now =
  let gap =
    match Hashtbl.find_opt t.last_hb src with
    | Some last -> Some (now -. last)
    | None -> None
  in
  Hashtbl.replace t.last_hb src now;
  match gap with
  | None -> ()
  | Some gap ->
      let st =
        match Hashtbl.find_opt t.arrivals src with
        | Some st -> st
        | None ->
            let st = { samples = []; count = 0 } in
            Hashtbl.replace t.arrivals src st;
            st
      in
      st.samples <- gap :: (if st.count >= window then
                              List.filteri (fun i _ -> i < window - 1) st.samples
                            else st.samples);
      st.count <- min window (st.count + 1)

let create proc ?(hb_period = 20.0) ~peers () =
  let t =
    {
      proc;
      hb_period;
      peer_list = [];
      last_hb = Hashtbl.create 16;
      arrivals = Hashtbl.create 16;
      muted = Hashtbl.create 4;
      monitors = [];
    }
  in
  set_peers t peers;
  Process.on_receive proc (fun ~src payload ->
      match payload with
      | Heartbeat ->
          let now = Process.now proc in
          if not (muted t src now) then note_arrival t src now
      | _ -> ());
  ignore
    (Process.every proc ~period:hb_period (fun () ->
         List.iter
           (fun q -> Process.send proc ~dst:q Heartbeat)
           t.peer_list));
  t

(* Effective timeout for [q] under this monitor's rule.  Adaptive: mean of
   the observed inter-arrival gaps plus [factor] standard deviations plus
   [margin] (Chen-style), floored at two heartbeat periods while the window
   warms up. *)
let timeout_for t m q =
  match m.rule with
  | Fixed timeout -> timeout
  | Adaptive { margin; factor } -> (
      match Hashtbl.find_opt t.arrivals q with
      | Some st when st.count >= 5 ->
          let n = float_of_int st.count in
          let mean = List.fold_left ( +. ) 0.0 st.samples /. n in
          let var =
            List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0.0
              st.samples
            /. n
          in
          Float.max (2.0 *. t.hb_period)
            (mean +. (factor *. sqrt var) +. margin)
      | _ -> (4.0 *. t.hb_period) +. margin)

let check t m () =
  if not m.stopped then begin
    let now = Process.now t.proc in
    let consider q =
      match Hashtbl.find_opt t.last_hb q with
      | None -> ()
      | Some last ->
          let late = now -. last > timeout_for t m q in
          let currently = Hashtbl.mem m.suspected_set q in
          if late && not currently then begin
            Hashtbl.replace m.suspected_set q now;
            m.suspicions <- m.suspicions + 1;
            Process.incr t.proc "fd.suspicions";
            if Process.oracle_alive t.proc q then begin
              m.wrong <- m.wrong + 1;
              Process.incr t.proc "fd.wrong_suspicions"
            end;
            Process.event t.proc ~component:"fd" ~kind:Gc_obs.Event.Suspect
              ~attrs:[ ("monitor", m.label); ("peer", string_of_int q) ]
              ();
            m.on_suspect q
          end
          else if (not late) && currently then begin
            (match Hashtbl.find_opt m.suspected_set q with
            | Some since ->
                (* A retraction means the suspicion was a mistake; its
                   duration is the paper's "mistake duration" metric. *)
                Process.observe t.proc "fd.mistake_ms" (now -. since)
            | None -> ());
            Hashtbl.remove m.suspected_set q;
            Process.incr t.proc "fd.retractions";
            Process.event t.proc ~component:"fd" ~kind:Gc_obs.Event.Trust
              ~attrs:[ ("monitor", m.label); ("peer", string_of_int q) ]
              ();
            match m.on_trust with Some f -> f q | None -> ()
          end
    in
    List.iter consider t.peer_list
  end

let make_monitor t ~label ~rule ~on_suspect ~on_trust ~granularity =
  let m =
    {
      label;
      rule;
      on_suspect;
      on_trust;
      suspected_set = Hashtbl.create 8;
      stopped = false;
      suspicions = 0;
      wrong = 0;
      checker = None;
    }
  in
  m.checker <-
    Some (Process.every t.proc ~period:granularity (fun () -> check t m ()));
  t.monitors <- m :: t.monitors;
  m

let monitor t ?(label = "fd") ~timeout ~on_suspect ?on_trust () =
  (* Check often enough that a suspicion is raised within ~5% of the nominal
     timeout, but never slower than the heartbeat period. *)
  let granularity = Float.max (timeout /. 20.0) (t.hb_period /. 2.0) in
  make_monitor t ~label ~rule:(Fixed timeout) ~on_suspect ~on_trust ~granularity

let adaptive_monitor t ?(label = "fd-adaptive") ?(margin = 20.0)
    ?(factor = 4.0) ~on_suspect ?on_trust () =
  make_monitor t ~label ~rule:(Adaptive { margin; factor }) ~on_suspect
    ~on_trust ~granularity:(t.hb_period /. 2.0)

let current_timeout t m q = timeout_for t m q

let stop m =
  m.stopped <- true;
  match m.checker with Some c -> Process.cancel_periodic c | None -> ()

let suspected m q = Hashtbl.mem m.suspected_set q
let suspects m = Sorted.keys ~cmp:Int.compare m.suspected_set
let suspicion_count m = m.suspicions
let wrong_suspicion_count m = m.wrong

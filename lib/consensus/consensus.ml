module Process = Gc_kernel.Process
module Rc = Gc_rchannel.Reliable_channel
module Rb = Gc_rbcast.Reliable_broadcast
module Fd = Gc_fd.Failure_detector
module Sorted = Gc_sim.Sorted

type Gc_net.Payload.t +=
  | Cs_start of { inst : int }
  | Cs_estimate of { inst : int; round : int; est : Gc_net.Payload.t; ts : int }
  | Cs_propose of { inst : int; round : int; v : Gc_net.Payload.t }
  | Cs_ack of { inst : int; round : int }
  | Cs_decide of { inst : int; v : Gc_net.Payload.t }

let () =
  Gc_net.Payload.register_printer (function
    | Cs_start { inst } -> Some (Printf.sprintf "cs.start[%d]" inst)
    | Cs_estimate { inst; round; _ } -> Some (Printf.sprintf "cs.est[%d,r%d]" inst round)
    | Cs_propose { inst; round; _ } -> Some (Printf.sprintf "cs.prop[%d,r%d]" inst round)
    | Cs_ack { inst; round } -> Some (Printf.sprintf "cs.ack[%d,r%d]" inst round)
    | Cs_decide { inst; _ } -> Some (Printf.sprintf "cs.decide[%d]" inst)
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  Gc_net.Payload.register_codec ~tag:"cs"
    ~encode:(fun enc w p ->
      match p with
      | Cs_start { inst } ->
          W.u8 w 0;
          W.varint w inst;
          true
      | Cs_estimate { inst; round; est; ts } ->
          W.u8 w 1;
          W.varint w inst;
          W.varint w round;
          W.varint w ts;
          enc w est;
          true
      | Cs_propose { inst; round; v } ->
          W.u8 w 2;
          W.varint w inst;
          W.varint w round;
          enc w v;
          true
      | Cs_ack { inst; round } ->
          W.u8 w 3;
          W.varint w inst;
          W.varint w round;
          true
      | Cs_decide { inst; v } ->
          W.u8 w 4;
          W.varint w inst;
          enc w v;
          true
      | _ -> false)
    ~decode:(fun dec r ->
      match W.read_u8 r with
      | 0 -> Cs_start { inst = W.read_varint r }
      | 1 ->
          let inst = W.read_varint r in
          let round = W.read_varint r in
          let ts = W.read_varint r in
          let est = dec r in
          Cs_estimate { inst; round; est; ts }
      | 2 ->
          let inst = W.read_varint r in
          let round = W.read_varint r in
          let v = dec r in
          Cs_propose { inst; round; v }
      | 3 ->
          let inst = W.read_varint r in
          let round = W.read_varint r in
          Cs_ack { inst; round }
      | 4 ->
          let inst = W.read_varint r in
          let v = dec r in
          Cs_decide { inst; v }
      | k -> Gc_net.Payload.malformed (Printf.sprintf "cs constructor %d" k))

type inst_state = {
  members : int array;
  majority : int;
  mutable est : Gc_net.Payload.t;
  mutable ts : int;
  mutable round : int;
  mutable phase3_done : bool;
  mutable decided : bool;
  mutable max_round : int;
  (* round -> sender -> (est, ts) *)
  estimates : (int, (int, Gc_net.Payload.t * int) Hashtbl.t) Hashtbl.t;
  (* round -> coordinator proposal *)
  proposals : (int, Gc_net.Payload.t) Hashtbl.t;
  (* round -> ack senders *)
  acks : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  proposed_rounds : (int, unit) Hashtbl.t;
  mutable decide_sent : bool;
}

type t = {
  proc : Process.t;
  rc : Rc.t;
  rb : Rb.t;
  score : Gc_net.Payload.t -> int;
  on_decide : inst:int -> Gc_net.Payload.t -> unit;
  on_solicit : inst:int -> unit;
  monitor : Fd.monitor;
  (* Only instances at or above [floor] are held, and only until the layer
     above has applied them.  A decided instance keeps no round tables:
     [decide] drops its state at once and records the bare fact in
     [decided_set] until the floor passes it. *)
  mutable floor : int;
  states : (int, inst_state) Hashtbl.t; (* started, not yet decided *)
  decided_set : (int, unit) Hashtbl.t;
  solicited : (int, unit) Hashtbl.t;
  (* Messages for instances not started locally, replayed on [propose]. *)
  backlog : (int, (int * Gc_net.Payload.t) list ref) Hashtbl.t;
}

(* Suspicion-driven round changes are paced this many ms apart, so a
   period in which every coordinator is suspected cycles rounds at a
   bounded rate. *)
let round_backoff = 25.0

let coord st r = st.members.((r - 1) mod Array.length st.members)

let tbl_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace tbl key h;
      h

(* Coordinator's adoption rule: highest stamp, then highest score, then
   lowest sender id — deterministic across replays. *)
let select_estimate t ests =
  let best = ref None in
  Sorted.iter
    (fun sender (est, ts) ->
      let better =
        match !best with
        | None -> true
        | Some (bs, best_est, bts) ->
            ts > bts
            || (ts = bts && t.score est > t.score best_est)
            || (ts = bts && t.score est = t.score best_est && sender < bs)
      in
      if better then best := Some (sender, est, ts))
    ests;
  match !best with
  | Some (_, est, _) -> est
  | None -> invalid_arg "select_estimate: empty"

(* Decided here or forgotten: traffic, proposals and decisions for it are
   dropped. *)
let over t inst = inst < t.floor || Hashtbl.mem t.decided_set inst

let note_live t =
  Process.set_gauge t.proc "consensus.live_instances"
    (float_of_int (Hashtbl.length t.states + Hashtbl.length t.decided_set))

let decide t inst v =
  if not (over t inst) then begin
    Hashtbl.replace t.decided_set inst ();
    Hashtbl.remove t.solicited inst;
    Hashtbl.remove t.backlog inst;
    Process.incr t.proc "consensus.instances_decided";
    (match Hashtbl.find_opt t.states inst with
    | Some st ->
        (* Pending round timers still hold [st]: [decided] stops them. *)
        st.decided <- true;
        Hashtbl.remove t.states inst;
        if st.max_round > 0 then
          Process.observe t.proc "consensus.rounds"
            (float_of_int st.max_round)
    | None -> ());
    note_live t;
    if Process.traced t.proc then
      Process.event t.proc ~component:"consensus" ~kind:Gc_obs.Event.Decide
        ~msg:(Printf.sprintf "cs:%d" inst)
        ~attrs:
          [
            ("inst", string_of_int inst);
            ("val", Gc_net.Payload.to_string v);
          ]
        ();
    t.on_decide ~inst v
  end

let broadcast_decision t st inst v =
  if not st.decide_sent then begin
    st.decide_sent <- true;
    Rb.broadcast t.rb ~dests:(Array.to_list st.members) (Cs_decide { inst; v })
  end

(* Coordinator duties for round [r]: propose once a majority of estimates is
   in; decide once a majority of acks is in.  Evaluated on every relevant
   message, independently of the participant's current round.  After
   proposing, the coordinator immediately runs its own phase 3 (it never
   receives its own proposal over the network), so its own acknowledgement
   counts towards the majority. *)
let rec check_coordinator t inst st r =
  if (not st.decided) && coord st r = Process.id t.proc then begin
    (if not (Hashtbl.mem st.proposed_rounds r) then
       let ests = tbl_of st.estimates r in
       if Hashtbl.length ests >= st.majority then begin
         let v = select_estimate t ests in
         Hashtbl.replace st.proposed_rounds r ();
         Hashtbl.replace st.proposals r v;
         Array.iter
           (fun q ->
             if q <> Process.id t.proc then
               Rc.send t.rc ~dst:q (Cs_propose { inst; round = r; v }))
           st.members;
         if r = st.round then check_phase3 t inst st
       end);
    match Hashtbl.find_opt st.proposals r with
    | Some v when Hashtbl.mem st.proposed_rounds r ->
        let acks = tbl_of st.acks r in
        if Hashtbl.length acks >= st.majority then broadcast_decision t st inst v
    | _ -> ()
  end

and enter_round t inst st r =
  if not st.decided then begin
    st.round <- r;
    st.max_round <- max st.max_round r;
    st.phase3_done <- false;
    let c = coord st r in
    (* Phase 1: estimate to the coordinator (loopback short-circuited). *)
    if c = Process.id t.proc then begin
      let ests = tbl_of st.estimates r in
      Hashtbl.replace ests (Process.id t.proc) (st.est, st.ts);
      check_coordinator t inst st r
    end
    else
      Rc.send t.rc ~dst:c (Cs_estimate { inst; round = r; est = st.est; ts = st.ts });
    check_phase3 t inst st
  end

(* Phase 3: adopt-and-ack on proposal, or give up on suspicion. *)
and check_phase3 t inst st =
  if (not st.decided) && not st.phase3_done then begin
    let r = st.round in
    let c = coord st r in
    match Hashtbl.find_opt st.proposals r with
    | Some v ->
        st.phase3_done <- true;
        st.est <- v;
        st.ts <- r;
        if c = Process.id t.proc then begin
          let acks = tbl_of st.acks r in
          Hashtbl.replace acks (Process.id t.proc) ();
          check_coordinator t inst st r
        end
        else Rc.send t.rc ~dst:c (Cs_ack { inst; round = r });
        (* The algorithm loops rounds until the decision broadcast arrives.
           Pacing the next round entry by a few ms lets the (in-flight)
           decision stop the loop before another full round of estimate
           traffic goes out — same liveness, far fewer messages. *)
        ignore
          (Process.timer t.proc ~delay:round_backoff (fun () ->
               if (not st.decided) && st.round = r then
                 enter_round t inst st (r + 1)))
    | None ->
        if Fd.suspected t.monitor c then begin
          st.phase3_done <- true;
          Process.incr t.proc "consensus.coordinator_suspicions";
          if Process.traced t.proc then
            Process.event t.proc ~component:"consensus"
              ~kind:(Gc_obs.Event.Custom "skip_round")
              ~attrs:
                [
                  ("inst", string_of_int inst);
                  ("round", string_of_int r);
                  ("coord", string_of_int c);
                ]
              ();
          (* Pace suspicion-driven round changes: with every coordinator
             suspected (e.g. during a partition) an immediate re-entry would
             spin through rounds without consuming virtual time. *)
          ignore
            (Process.timer t.proc ~delay:round_backoff (fun () ->
                 if (not st.decided) && st.round = r then
                   enter_round t inst st (r + 1)))
        end
  end

let handle_message t inst src payload =
  match Hashtbl.find_opt t.states inst with
  | None ->
      (* Not started here: remember the message, ask the layer above to
         propose (once). *)
      if not (over t inst) then begin
        let q =
          match Hashtbl.find_opt t.backlog inst with
          | Some q -> q
          | None ->
              let q = ref [] in
              Hashtbl.replace t.backlog inst q;
              q
        in
        q := (src, payload) :: !q;
        if not (Hashtbl.mem t.solicited inst) then begin
          Hashtbl.replace t.solicited inst ();
          t.on_solicit ~inst
        end
      end
  | Some st -> (
      (* Traffic from processes outside this instance's membership is
         dropped: a stale ex-member computing coordinators from an outdated
         member list must not be able to impersonate one or pad quorums. *)
      if (not st.decided) && Array.exists (fun q -> q = src) st.members then
        match payload with
        | Cs_estimate { round; est; ts; _ } ->
            Hashtbl.replace (tbl_of st.estimates round) src (est, ts);
            check_coordinator t inst st round
        | Cs_propose { round; v; _ } ->
            if src = coord st round then begin
              if not (Hashtbl.mem st.proposals round) then
                Hashtbl.replace st.proposals round v;
              if round = st.round then check_phase3 t inst st
            end
        | Cs_ack { round; _ } ->
            Hashtbl.replace (tbl_of st.acks round) src ();
            check_coordinator t inst st round
        | _ -> ())

let on_suspicion t _q =
  (* A coordinator we were waiting on may now be suspected. *)
  let active =
    List.filter (fun (_, st) -> not st.decided) (Sorted.bindings t.states)
  in
  List.iter (fun (inst, st) -> check_phase3 t inst st) active

let create proc ~rc ~rb ~fd ?(suspect_timeout = 200.0) ?(adaptive = false)
    ?(score = fun _ -> 0) ~on_decide ~on_solicit () =
  let states = Hashtbl.create 32 in
  Process.incr ~by:0 proc "consensus.instances_started";
  Process.incr ~by:0 proc "consensus.instances_decided";
  let t_ref = ref None in
  let on_suspect q =
    match !t_ref with Some t -> on_suspicion t q | None -> ()
  in
  let monitor =
    if adaptive then
      Fd.adaptive_monitor fd ~label:"consensus" ~margin:20.0 ~factor:4.0
        ~on_suspect ()
    else Fd.monitor fd ~label:"consensus" ~timeout:suspect_timeout ~on_suspect ()
  in
  let t =
    {
      proc;
      rc;
      rb;
      score;
      on_decide;
      on_solicit;
      monitor;
      states;
      floor = 0;
      decided_set = Hashtbl.create 8;
      solicited = Hashtbl.create 8;
      backlog = Hashtbl.create 8;
    }
  in
  t_ref := Some t;
  note_live t;
  Rc.on_deliver rc (fun ~src payload ->
      match payload with
      | Cs_start { inst }
      | Cs_estimate { inst; _ }
      | Cs_propose { inst; _ }
      | Cs_ack { inst; _ } ->
          handle_message t inst src payload
      | _ -> ());
  Rb.on_deliver rb (fun ~origin:_ payload ->
      match payload with
      | Cs_decide { inst; v } -> decide t inst v
      | _ -> ());
  t

let propose t ~inst ~members v =
  (* A late proposer to an instance that is over has nothing to do: [decide]
     already fired when the decision arrived, once per process. *)
  if not (over t inst || Hashtbl.mem t.states inst) then begin
    let members_arr = Array.of_list members in
    let n = Array.length members_arr in
    if n = 0 then invalid_arg "Consensus.propose: empty membership";
    let st =
      {
        members = members_arr;
        majority = (n / 2) + 1;
        est = v;
        ts = 0;
        round = 0;
        phase3_done = false;
        decided = false;
        max_round = 0;
        estimates = Hashtbl.create 8;
        proposals = Hashtbl.create 8;
        acks = Hashtbl.create 8;
        proposed_rounds = Hashtbl.create 8;
        decide_sent = false;
      }
    in
    Hashtbl.replace t.states inst st;
    note_live t;
    Process.incr t.proc "consensus.instances_started";
    if Process.traced t.proc then
      Process.event t.proc ~component:"consensus" ~kind:Gc_obs.Event.Propose
        ~msg:(Printf.sprintf "cs:%d" inst)
        ~attrs:
          [
            ("inst", string_of_int inst);
            ("val", Gc_net.Payload.to_string v);
          ]
        ();
    (* Solicitation ping: lets members that have nothing to propose yet
       join the instance reactively (their layer above is asked to
       propose on first contact). *)
    Array.iter
      (fun q ->
        if q <> Process.id t.proc then Rc.send t.rc ~dst:q (Cs_start { inst }))
      members_arr;
    enter_round t inst st 1;
    (* Replay traffic that arrived before we started. *)
    match Hashtbl.find_opt t.backlog inst with
    | None -> ()
    | Some q ->
        let msgs = List.rev !q in
        Hashtbl.remove t.backlog inst;
        List.iter (fun (src, payload) -> handle_message t inst src payload) msgs
  end

(* Drop [tbl]'s entries below [floor], passing each to [stop].  The tables
   hold only unapplied instances, so a pass is short. *)
let drop_below tbl ~floor ~stop =
  if Hashtbl.length tbl > 0 then
    Hashtbl.filter_map_inplace
      (fun inst v ->
        if inst < floor then begin
          stop v;
          None
        end
        else Some v)
      tbl

let forget_below t ~inst =
  if inst > t.floor then begin
    t.floor <- inst;
    (* An undecided instance below the floor (started before a state
       transfer overtook it) has round timers that must stop too. *)
    drop_below t.states ~floor:inst ~stop:(fun st -> st.decided <- true);
    drop_below t.decided_set ~floor:inst ~stop:ignore;
    drop_below t.solicited ~floor:inst ~stop:ignore;
    drop_below t.backlog ~floor:inst ~stop:ignore;
    note_live t
  end

let lowest_held t =
  let keys tbl = Sorted.keys tbl in
  match
    List.sort Int.compare
      (keys t.states @ keys t.decided_set @ keys t.solicited @ keys t.backlog)
  with
  | [] -> None
  | inst :: _ -> Some inst

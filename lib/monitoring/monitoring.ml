module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Gm = Gc_membership.Group_membership
module Sorted = Gc_sim.Sorted

type policy =
  | Immediate
  | Threshold of int
  | Output_triggered
  | Threshold_or_output of int

type Gc_net.Payload.t += Mo_suspect of { q : int } | Mo_retract of { q : int }

let () =
  Gc_net.Payload.register_printer (function
    | Mo_suspect { q } -> Some (Printf.sprintf "mon.suspect(%d)" q)
    | Mo_retract { q } -> Some (Printf.sprintf "mon.retract(%d)" q)
    | _ -> None)

let () =
  let module W = Gc_net.Wire in
  Gc_net.Payload.register_codec ~tag:"mon"
    ~encode:(fun _enc w p ->
      match p with
      | Mo_suspect { q } ->
          W.u8 w 0;
          W.varint w q;
          true
      | Mo_retract { q } ->
          W.u8 w 1;
          W.varint w q;
          true
      | _ -> false)
    ~decode:(fun _dec r ->
      match W.read_u8 r with
      | 0 -> Mo_suspect { q = W.read_varint r }
      | 1 -> Mo_retract { q = W.read_varint r }
      | k -> Gc_net.Payload.malformed (Printf.sprintf "mon constructor %d" k))

type t = {
  proc : Process.t;
  rc : Rc.t;
  membership : Gm.t;
  policy : policy;
  monitor : Fd.monitor;
  (* q -> set of members currently suspecting q (gossip view) *)
  suspectors : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable proposed : int;
  mutable wrongful : int;
  mutable stopped : bool;
}

let suspector_set t q =
  match Hashtbl.find_opt t.suspectors q with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace t.suspectors q s;
      s

let propose_exclusion t q reason =
  if (not t.stopped) && Gc_membership.View.mem (Gm.view t.membership) q then begin
    t.proposed <- t.proposed + 1;
    Process.incr t.proc "monitoring.exclusions_proposed";
    if Process.oracle_alive t.proc q then begin
      t.wrongful <- t.wrongful + 1;
      Process.incr t.proc "monitoring.wrongful_exclusions"
    end;
    Process.event t.proc ~component:"monitoring" ~kind:Gc_obs.Event.Exclude
      ~attrs:[ ("peer", string_of_int q); ("reason", reason) ]
      ();
    Gm.remove t.membership q
  end

(* Only current members' opinions count towards the threshold. *)
let threshold_met t k q =
  let v = Gm.view t.membership in
  let votes =
    Sorted.fold
      (fun m () acc -> if Gc_membership.View.mem v m then acc + 1 else acc)
      (suspector_set t q) 0
  in
  votes >= k

let gossip t payload =
  let me = Process.id t.proc in
  List.iter
    (fun m -> if m <> me then Rc.send t.rc ~dst:m payload)
    (Gm.view t.membership).members

let on_own_suspicion t q =
  if not t.stopped then
    match t.policy with
    | Immediate -> propose_exclusion t q "immediate"
    | Output_triggered -> () (* only channel evidence counts *)
    | Threshold k | Threshold_or_output k ->
        Hashtbl.replace (suspector_set t q) (Process.id t.proc) ();
        gossip t (Mo_suspect { q });
        if threshold_met t k q then propose_exclusion t q "threshold"

let on_own_trust t q =
  if not t.stopped then
    match t.policy with
    | Immediate | Output_triggered -> ()
    | Threshold _ | Threshold_or_output _ ->
        Hashtbl.remove (suspector_set t q) (Process.id t.proc);
        gossip t (Mo_retract { q })

let on_stuck t ~dst ~age:_ =
  if not t.stopped then
    match t.policy with
    | Output_triggered | Threshold_or_output _ ->
        propose_exclusion t dst "output-triggered"
    | Immediate | Threshold _ -> ()

let create proc ~fd ~rc ~membership ?(exclusion_timeout = 5000.0) ~policy () =
  let t_ref = ref None in
  let monitor =
    Fd.monitor fd ~label:"monitoring" ~timeout:exclusion_timeout
      ~on_suspect:(fun q ->
        match !t_ref with Some t -> on_own_suspicion t q | None -> ())
      ~on_trust:(fun q ->
        match !t_ref with Some t -> on_own_trust t q | None -> ())
      ()
  in
  let t =
    {
      proc;
      rc;
      membership;
      policy;
      monitor;
      suspectors = Hashtbl.create 8;
      proposed = 0;
      wrongful = 0;
      stopped = false;
    }
  in
  t_ref := Some t;
  Rc.on_deliver rc (fun ~src payload ->
      (* Gossip from processes outside the current view is void: an excluded
         process's stale suspicions (e.g. accumulated during a partition)
         must not remove members after the network heals. *)
      if (not t.stopped) && Gc_membership.View.mem (Gm.view t.membership) src
      then
        match (payload, t.policy) with
        | Mo_suspect { q }, (Threshold k | Threshold_or_output k) ->
            Hashtbl.replace (suspector_set t q) src ();
            if threshold_met t k q then propose_exclusion t q "threshold"
        | Mo_retract { q }, (Threshold _ | Threshold_or_output _) ->
            Hashtbl.remove (suspector_set t q) src
        | (Mo_suspect _ | Mo_retract _), _ -> ()
        | _ -> ());
  Rc.set_on_stuck rc (fun ~dst ~age -> on_stuck t ~dst ~age);
  (* Excluded members' gossip no longer counts; forget their channel
     buffers. *)
  Gm.on_view membership (fun v ->
      Sorted.iter
        (fun _q set ->
          List.iter
            (fun m ->
              if not (Gc_membership.View.mem v m) then Hashtbl.remove set m)
            (Sorted.keys set))
        t.suspectors;
      List.iter
        (fun q -> Hashtbl.remove t.suspectors q)
        (List.filter
           (fun q -> not (Gc_membership.View.mem v q))
           (Sorted.keys t.suspectors)));
  t

let stop t =
  t.stopped <- true;
  Fd.stop t.monitor

let exclusions_proposed t = t.proposed
let wrongful_exclusions_proposed t = t.wrongful

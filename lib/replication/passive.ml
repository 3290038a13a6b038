module Stack = Gcs.Gcs_stack
module Rc = Gc_rchannel.Reliable_channel
module Fd = Gc_fd.Failure_detector
module View = Gc_membership.View

type Gc_net.Payload.t +=
  | Pa_update of {
      epoch : int;
      useq : int;
      cid : int;
      rid : int;
      cmd : Gc_net.Payload.t;
    }
  | Pa_change of { epoch : int }
  | Pa_state of {
      app : Gc_net.Payload.t;
      completed : ((int * int) * Gc_net.Payload.t) list;
      rlist : int list;
      epoch : int;
      expected : int;
    }

let () =
  Gc_net.Payload.register_printer (function
    | Pa_update { epoch; useq; _ } ->
        Some (Printf.sprintf "passive.update@%d.%d" epoch useq)
    | Pa_change { epoch } -> Some (Printf.sprintf "passive.change@%d" epoch)
    | Pa_state _ -> Some "passive.state"
    | _ -> None)

type t = {
  stack : Stack.t;
  sm : State_machine.t;
  id : int;
  completed : (int * int, Gc_net.Payload.t) Hashtbl.t;
  mutable rlist : int list; (* rotation order; head = primary *)
  mutable epoch : int;
  mutable next_useq : int; (* primary side *)
  mutable expected : int; (* backup side: next update to apply *)
  buffer : (int, int * Gc_net.Payload.t) Hashtbl.t; (* useq -> origin, update *)
  in_flight : (int * int, unit) Hashtbl.t;
  mutable change_requested : bool; (* one change proposal per epoch *)
  mutable n_changes : int;
  mutable n_applied : int;
  mutable n_discarded : int;
}

let stack t = t.stack
let primary t = match t.rlist with [] -> None | p :: _ -> Some p
let epoch t = t.epoch
let primary_changes t = t.n_changes
let updates_applied t = t.n_applied
let updates_discarded t = t.n_discarded
let crash t = Stack.crash t.stack

let reply t ~cid ~rid result =
  Rc.send (Stack.reliable_channel t.stack) ~dst:cid (Rpc.Rep { rid; result })

let apply_update t ~origin ~cid ~rid ~cmd =
  Hashtbl.remove t.in_flight (cid, rid);
  let result =
    match Hashtbl.find_opt t.completed (cid, rid) with
    | Some r -> r
    | None ->
        let r = t.sm.State_machine.apply cmd in
        Hashtbl.replace t.completed (cid, rid) r;
        t.n_applied <- t.n_applied + 1;
        r
  in
  (* The issuing primary answers the client once its own update has been
     delivered — i.e. once its position relative to any concurrent
     primary-change is settled (Figure 8). *)
  if origin = t.id then reply t ~cid ~rid result

let rec drain t =
  match Hashtbl.find_opt t.buffer t.expected with
  | None -> ()
  | Some (origin, Pa_update { cid; rid; cmd; _ }) ->
      Hashtbl.remove t.buffer t.expected;
      t.expected <- t.expected + 1;
      apply_update t ~origin ~cid ~rid ~cmd;
      drain t
  | Some _ -> ()

let handle_update t ~origin u =
  match u with
  | Pa_update { epoch; useq; cid; rid; cmd } ->
      if epoch = t.epoch then begin
        if useq = t.expected then begin
          t.expected <- t.expected + 1;
          apply_update t ~origin ~cid ~rid ~cmd;
          drain t
        end
        else if useq > t.expected then Hashtbl.replace t.buffer useq (origin, u)
      end
      else begin
        (* Ordered after a primary change: the paper's outcome 2 — the old
           primary's processing is void; the client will retry. *)
        t.n_discarded <- t.n_discarded + 1;
        Gc_kernel.Process.incr (Stack.process t.stack) "passive.discards";
        if Gc_kernel.Process.traced (Stack.process t.stack) then
          Gc_kernel.Process.event (Stack.process t.stack) ~component:"passive"
            ~kind:(Gc_obs.Event.Custom "discard")
            ~attrs:
              [ ("epoch", string_of_int epoch); ("useq", string_of_int useq) ]
            ()
      end
  | _ -> ()

let handle_change t e =
  if e = t.epoch then begin
    t.epoch <- t.epoch + 1;
    t.rlist <- (match t.rlist with [] -> [] | p :: rest -> rest @ [ p ]);
    t.expected <- 1;
    t.next_useq <- 1;
    Hashtbl.reset t.buffer;
    Hashtbl.reset t.in_flight;
    t.change_requested <- false;
    t.n_changes <- t.n_changes + 1;
    Gc_kernel.Process.incr (Stack.process t.stack) "passive.primary_changes";
    if Gc_kernel.Process.traced (Stack.process t.stack) then
      Gc_kernel.Process.event (Stack.process t.stack) ~component:"passive"
        ~kind:(Gc_obs.Event.Custom "primary_change")
        ~attrs:
          [
            ("epoch", string_of_int t.epoch);
            ( "primary",
              match primary t with Some p -> string_of_int p | None -> "-" );
          ]
        ()
  end

let handle_request t ~cid ~rid ~cmd =
  match Hashtbl.find_opt t.completed (cid, rid) with
  | Some result -> reply t ~cid ~rid result
  | None -> (
      match primary t with
      | Some p when p = t.id ->
          if not (Hashtbl.mem t.in_flight (cid, rid)) then begin
            Hashtbl.replace t.in_flight (cid, rid) ();
            let useq = t.next_useq in
            t.next_useq <- useq + 1;
            Stack.rbcast t.stack (Pa_update { epoch = t.epoch; useq; cid; rid; cmd })
          end
      | Some p ->
          Rc.send (Stack.reliable_channel t.stack) ~dst:cid
            (Rpc.Redirect { rid; primary = p })
      | None -> ())

let create runtime ~id ~initial ?config ?(primary_suspect_timeout = 250.0)
    ~make_sm () =
  let sm = make_sm () in
  let completed = Hashtbl.create 64 in
  let t_ref = ref None in
  let provider () =
    match !t_ref with
    | Some t ->
        Pa_state
          {
            app = sm.State_machine.snapshot ();
            completed = Gc_sim.Sorted.bindings completed;
            rlist = t.rlist;
            epoch = t.epoch;
            expected = t.expected;
          }
    | None -> Pa_state { app = sm.State_machine.snapshot (); completed = [];
                         rlist = []; epoch = 0; expected = 1 }
  in
  let installer payload =
    match (payload, !t_ref) with
    | Pa_state { app; completed = l; rlist; epoch; expected }, Some t ->
        sm.State_machine.restore app;
        List.iter (fun (k, v) -> Hashtbl.replace completed k v) l;
        t.rlist <- (rlist @ [ id ]);
        t.epoch <- epoch;
        t.expected <- expected
    | _ -> ()
  in
  let stack =
    Stack.create runtime ~id ~initial ?config ~app_state_provider:provider
      ~app_state_installer:installer ()
  in
  let t =
    {
      stack;
      sm;
      id;
      completed;
      rlist = initial;
      epoch = 0;
      next_useq = 1;
      expected = 1;
      buffer = Hashtbl.create 16;
      in_flight = Hashtbl.create 16;
      change_requested = false;
      n_changes = 0;
      n_applied = 0;
      n_discarded = 0;
    }
  in
  t_ref := Some t;
  Rc.on_deliver (Stack.reliable_channel stack) (fun ~src:_ payload ->
      match payload with
      | Rpc.Req { cid; rid; cmd } -> handle_request t ~cid ~rid ~cmd
      | _ -> ());
  Stack.on_deliver stack (fun ~origin ~ordered:_ payload ->
      match payload with
      | Pa_update _ -> handle_update t ~origin payload
      | Pa_change { epoch } -> handle_change t epoch
      | _ -> ());
  (* Membership evolution: excluded members leave the rotation; joiners are
     appended. *)
  Stack.on_view stack (fun v ->
      let kept = List.filter (fun q -> View.mem v q) t.rlist in
      let fresh =
        List.filter (fun q -> not (List.mem q kept)) v.View.members
      in
      t.rlist <- kept @ fresh);
  (* Aggressive primary suspicion: a backup asks for rotation, never for
     exclusion. *)
  ignore
    (Fd.monitor (Stack.failure_detector stack) ~label:"passive-primary"
       ~timeout:primary_suspect_timeout
       ~on_suspect:(fun q ->
         if
           Some q = primary t && q <> id
           && List.mem id t.rlist
           && not t.change_requested
         then begin
           t.change_requested <- true;
           Stack.abcast t.stack (Pa_change { epoch = t.epoch })
         end)
       ());
  t

let snapshot t = t.sm.State_machine.snapshot ()

module Process = Gc_kernel.Process
module Fd = Gc_fd.Failure_detector
module Rc = Gc_rchannel.Reliable_channel
module Sorted = Gc_sim.Sorted
module View = Gc_membership.View

type config = {
  hb_period : float;
  fd_timeout : float;
  rto : float;
  token_idle_delay : float;
  max_per_token : int;
  recovery_timeout : float;
  rejoin_delay : float;
  state_transfer_delay : float;
}

let default_config =
  {
    hb_period = 20.0;
    fd_timeout = 1000.0;
    rto = 50.0;
    token_idle_delay = 5.0;
    max_per_token = 10;
    recovery_timeout = 1500.0;
    rejoin_delay = 500.0;
    state_transfer_delay = 100.0;
  }

type rid = int * int

type omsg = { gseq : int; rid : rid; body : Gc_net.Payload.t }

type epoch = int * int (* counter, initiator *)

type Gc_net.Payload.t +=
  | Tt_token of { vid : int; next_gseq : int }
  | Tt_data of { vid : int; m : omsg }
  | Tt_recreq of { epoch : epoch; proposal : int list }
  | Tt_recresp of { epoch : epoch; last : int; undelivered : omsg list }
  | Tt_install of {
      epoch : epoch;
      view : View.t;
      fill : omsg list;
      last_gseq : int;
    }
  | Tt_joinreq of { p : int; rejoin : bool }
  | Tt_state of { view : View.t; last_gseq : int; app : Gc_net.Payload.t option }

let () =
  Gc_net.Payload.register_printer (function
    | Tt_token { vid; next_gseq } ->
        Some (Printf.sprintf "tt.token@v%d#%d" vid next_gseq)
    | Tt_data { m; _ } -> Some (Printf.sprintf "tt.data#%d" m.gseq)
    | Tt_recreq { epoch = e, i; _ } -> Some (Printf.sprintf "tt.recreq(%d,%d)" e i)
    | Tt_recresp { epoch = e, i; _ } ->
        Some (Printf.sprintf "tt.recresp(%d,%d)" e i)
    | Tt_install { view; _ } -> Some (Format.asprintf "tt.install(%a)" View.pp view)
    | Tt_joinreq { p; _ } -> Some (Printf.sprintf "tt.join(%d)" p)
    | Tt_state { view; _ } -> Some (Format.asprintf "tt.state(%a)" View.pp view)
    | _ -> None)

type recovery = {
  r_epoch : epoch;
  r_proposal : int list;
  r_old : int list;
  responses : (int, int * omsg list) Hashtbl.t;
  joiners : int list;
}

type t = {
  proc : Process.t;
  fd : Fd.t;
  monitor : Fd.monitor;
  rc : Rc.t;
  config : config;
  app_state_provider : (unit -> Gc_net.Payload.t) option;
  app_state_installer : (Gc_net.Payload.t -> unit) option;
  mutable view : View.t;
  mutable active : bool;
  mutable killed : bool;
  (* ordering *)
  mutable out_queue : (rid * Gc_net.Payload.t) list; (* newest first *)
  mutable rid_counter : int;
  mutable last_gseq : int;
  ord_buf : (int, omsg) Hashtbl.t;
  delivered_rids : (rid, unit) Hashtbl.t;
  (* Recent delivered messages (by gseq): recovery responses include them so
     that a message sequenced and locally delivered moments before a ring
     failure still reaches the survivors that missed it. *)
  delivered_log : (int, omsg) Hashtbl.t;
  mutable recovering : bool;
  mutable rec_started_at : float;
  (* A token that arrived "from the future" (we have not yet installed the
     view it belongs to, e.g. a joiner whose state transfer is still in
     flight): replayed once the view catches up, so the ring never loses its
     token to a slow member. *)
  mutable stashed_token : (int * int) option;
  (* recovery / membership *)
  mutable cur_epoch : epoch;
  mutable epoch_counter : int;
  mutable my_recovery : recovery option;
  mutable pending_joins : (int * bool) list;
  (* instrumentation *)
  mutable n_token_passes : int;
  mutable n_views : int;
  mutable n_exclusions : int;
  mutable excluded_since : float option;
  mutable subscribers : (origin:int -> Gc_net.Payload.t -> unit) list;
  mutable view_subscribers : (View.t -> unit) list;
}

let me t = Process.id t.proc
let view t = t.view
let is_member t = t.active
let alive t = Process.alive t.proc
let id t = me t
let crash t = Process.crash t.proc
let on_deliver t f = t.subscribers <- f :: t.subscribers
let on_view t f = t.view_subscribers <- f :: t.view_subscribers
let token_passes t = t.n_token_passes
let process t = t.proc
let view_changes t = t.n_views
let exclusions_suffered t = t.n_exclusions

let notify t ~origin body =
  List.iter (fun f -> f ~origin body) (List.rev t.subscribers)

let alive_members t =
  List.filter (fun q -> not (Fd.suspected t.monitor q)) t.view.View.members

let successor t =
  let ring = t.view.View.members in
  let rec find = function
    | [] -> None
    | [ last ] -> if last = me t then List.nth_opt ring 0 else None
    | x :: (y :: _ as rest) -> if x = me t then Some y else find rest
  in
  if List.length ring <= 1 then None else find ring

(* ---------- delivery ---------- *)

let log_bound = 512

let record_delivery t m =
  Hashtbl.replace t.delivered_log m.gseq m;
  Hashtbl.remove t.delivered_log (m.gseq - log_bound)

let rec try_deliver t =
  match Hashtbl.find_opt t.ord_buf (t.last_gseq + 1) with
  | None -> ()
  | Some m ->
      Hashtbl.remove t.ord_buf (t.last_gseq + 1);
      t.last_gseq <- t.last_gseq + 1;
      record_delivery t m;
      if not (Hashtbl.mem t.delivered_rids m.rid) then begin
        Hashtbl.replace t.delivered_rids m.rid ();
        if Process.traced t.proc then
          Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.Deliver
            ~msg:(Printf.sprintf "tt:%d.%d" (fst m.rid) (snd m.rid))
            ~attrs:[ ("gseq", string_of_int m.gseq) ]
            ();
        notify t ~origin:(fst m.rid) m.body
      end;
      try_deliver t

let accept_data t m =
  if m.gseq > t.last_gseq && not (Hashtbl.mem t.ord_buf m.gseq) then
    Hashtbl.replace t.ord_buf m.gseq m;
  try_deliver t

(* ---------- token handling ---------- *)

let send_members t payload =
  List.iter (fun q -> if q <> me t then Rc.send t.rc ~dst:q payload)
    t.view.View.members

let forward_token t next_gseq =
  match successor t with
  | Some next ->
      t.n_token_passes <- t.n_token_passes + 1;
      Rc.send t.rc ~dst:next (Tt_token { vid = t.view.View.vid; next_gseq })
  | None -> ()

let hold_token t next_gseq =
  if t.active && not t.recovering then begin
    (* Sequence up to [max_per_token] queued messages. *)
    let batch, rest =
      let q = List.rev t.out_queue in
      let rec split acc i = function
        | x :: rest when i < t.config.max_per_token -> split (x :: acc) (i + 1) rest
        | rest -> (List.rev acc, rest)
      in
      split [] 0 q
    in
    t.out_queue <- List.rev rest;
    let gseq = ref next_gseq in
    List.iter
      (fun (rid, body) ->
        let m = { gseq = !gseq; rid; body } in
        incr gseq;
        send_members t (Tt_data { vid = t.view.View.vid; m });
        accept_data t m)
      batch;
    let next_gseq = !gseq in
    if batch = [] then
      (* Idle rotation at a bounded rate. *)
      ignore
        (Process.timer t.proc ~delay:t.config.token_idle_delay (fun () ->
             if t.active && not t.recovering then forward_token t next_gseq))
    else forward_token t next_gseq
  end

let replay_stashed_token t =
  match t.stashed_token with
  | Some (vid, next_gseq) when vid = t.view.View.vid && t.active ->
      t.stashed_token <- None;
      hold_token t (max next_gseq (t.last_gseq + 1))
  | _ -> ()

(* ---------- recovery (membership + ring regeneration) ---------- *)

let epoch_gt a b = compare a b > 0

let by_gseq a b = Int.compare a.gseq b.gseq

(* [ord_buf] and [delivered_log] are keyed by gseq, so key-sorted traversal
   is already delivery order. *)
let undelivered_list t = Sorted.values t.ord_buf

(* What a recovery response carries: everything still buffered plus the
   recent delivered log (the coordinator prunes to what is needed). *)
let recovery_payload t =
  let log = Sorted.values t.delivered_log in
  (undelivered_list t @ log) |> List.sort by_gseq

let rec maybe_coordinate t =
  if t.active && Process.alive t.proc then begin
    let alive = alive_members t in
    let joins =
      List.filter (fun (p, _) -> not (View.mem t.view p)) t.pending_joins
    in
    let want = alive @ List.map fst joins in
    let change_needed = want <> t.view.View.members in
    let i_coordinate = match alive with c :: _ -> c = me t | [] -> false in
    let majority = 2 * List.length alive > View.size t.view in
    if change_needed && i_coordinate && majority then begin
      let already =
        match t.my_recovery with
        | Some r -> r.r_proposal = want
        | None -> false
      in
      if not already then start_recovery t want (List.map fst joins)
    end
  end

and start_recovery t proposal joiners =
  t.epoch_counter <- t.epoch_counter + 1;
  let epoch = (t.epoch_counter, me t) in
  let old = t.view.View.members in
  let r =
    {
      r_epoch = epoch;
      r_proposal = proposal;
      r_old = old;
      responses = Hashtbl.create 8;
      joiners;
    }
  in
  t.my_recovery <- Some r;
  adopt_recovery t epoch;
  Hashtbl.replace r.responses (me t) (t.last_gseq, recovery_payload t);
  Process.incr t.proc "totem.recoveries";
  if Process.traced t.proc then
    Process.event t.proc ~component:"totem"
      ~kind:(Gc_obs.Event.Custom "recovery_start")
      ~attrs:[ ("epoch", Printf.sprintf "%d,%d" (fst epoch) (snd epoch)) ]
      ();
  List.iter
    (fun q ->
      if q <> me t && List.mem q old then
        Rc.send t.rc ~dst:q (Tt_recreq { epoch; proposal }))
    proposal;
  check_recovery_complete t

and adopt_recovery t epoch =
  if epoch_gt epoch t.cur_epoch then t.cur_epoch <- epoch;
  if not t.recovering then begin
    t.recovering <- true;
    t.rec_started_at <- Process.now t.proc
  end;
  ignore
    (Process.timer t.proc ~delay:t.config.recovery_timeout (fun () ->
         if t.recovering && t.active then maybe_coordinate t))

and handle_recreq t ~src ~epoch =
  if t.active && epoch_gt epoch t.cur_epoch then begin
    adopt_recovery t epoch;
    Rc.send t.rc ~dst:src
      (Tt_recresp { epoch; last = t.last_gseq; undelivered = recovery_payload t })
  end

and handle_recresp t ~src ~epoch ~last ~undelivered =
  match t.my_recovery with
  | Some r when r.r_epoch = epoch ->
      if not (Hashtbl.mem r.responses src) then begin
        Hashtbl.replace r.responses src (last, undelivered);
        check_recovery_complete t
      end
  | _ -> ()

and check_recovery_complete t =
  match t.my_recovery with
  | None -> ()
  | Some r ->
      let responders = List.filter (fun q -> List.mem q r.r_old) r.r_proposal in
      if List.for_all (fun q -> Hashtbl.mem r.responses q) responders then begin
        (* Union of reported messages above the slowest survivor's point;
           highest delivered sequence. *)
        let fill = Hashtbl.create 32 in
        let max_last = ref 0 and min_last = ref max_int in
        Sorted.iter
          (fun _src (l, msgs) ->
            max_last := max !max_last l;
            min_last := min !min_last l;
            List.iter (fun m -> Hashtbl.replace fill m.gseq m) msgs)
          r.responses;
        let fill_list =
          Sorted.values fill |> List.filter (fun m -> m.gseq > !min_last)
        in
        let last_gseq =
          List.fold_left (fun acc m -> max acc m.gseq) !max_last fill_list
        in
        let new_view =
          { View.vid = t.view.View.vid + 1; members = r.r_proposal }
        in
        t.my_recovery <- None;
        let install =
          Tt_install { epoch = r.r_epoch; view = new_view; fill = fill_list;
                       last_gseq }
        in
        let audience = List.sort_uniq Int.compare (r.r_old @ r.r_proposal) in
        List.iter
          (fun q -> if q <> me t then Rc.send t.rc ~dst:q install)
          audience;
        apply_install t ~view:new_view ~fill:fill_list ~last_gseq;
        (* Token regeneration by the coordinator of the new ring. *)
        hold_token t (t.last_gseq + 1);
        List.iter
          (fun p ->
            ignore
              (Process.timer t.proc ~delay:t.config.state_transfer_delay
                 (fun () ->
                   let app = Option.map (fun g -> g ()) t.app_state_provider in
                   Rc.send t.rc ~dst:p
                     (Tt_state { view = t.view; last_gseq = t.last_gseq; app }))))
          r.joiners
      end

and apply_install t ~view ~fill ~last_gseq =
  List.iter (fun m -> accept_data t m) fill;
  (* Remaining gaps belong to messages nobody received: skip them for good. *)
  let drain = Sorted.bindings t.ord_buf in
  Hashtbl.reset t.ord_buf;
  List.iter
    (fun (_, m) ->
      t.last_gseq <- max t.last_gseq m.gseq;
      record_delivery t m;
      if not (Hashtbl.mem t.delivered_rids m.rid) then begin
        Hashtbl.replace t.delivered_rids m.rid ();
        if Process.traced t.proc then
          Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.Deliver
            ~msg:(Printf.sprintf "tt:%d.%d" (fst m.rid) (snd m.rid))
            ~attrs:[ ("gseq", string_of_int m.gseq) ]
            ();
        notify t ~origin:(fst m.rid) m.body
      end)
    drain;
  t.last_gseq <- max t.last_gseq last_gseq;
  t.view <- view;
  t.recovering <- false;
  t.n_views <- t.n_views + 1;
  t.pending_joins <-
    List.filter (fun (p, _) -> not (View.mem view p)) t.pending_joins;
  Fd.set_peers t.fd view.View.members;
  Process.incr t.proc "totem.view_changes";
  Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.ViewInstall
    ~msg:(Printf.sprintf "view:%d" view.View.vid)
    ~attrs:
      [
        ("vid", string_of_int view.View.vid);
        ("view", Format.asprintf "%a" View.pp view);
      ]
    ();
  List.iter (fun f -> f view) (List.rev t.view_subscribers);
  replay_stashed_token t

and handle_install t ~epoch ~view ~fill ~last_gseq =
  if t.active then begin
    if epoch_gt epoch t.cur_epoch then t.cur_epoch <- epoch;
    if View.mem view (me t) then apply_install t ~view ~fill ~last_gseq
    else begin
      t.active <- false;
      t.killed <- true;
      t.view <- view;
      t.n_exclusions <- t.n_exclusions + 1;
      t.excluded_since <- Some (Process.now t.proc);
      Process.incr t.proc "totem.exclusions";
      Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.Exclude
        ~attrs:[ ("peer", string_of_int (me t)) ]
        ();
      schedule_rejoin t
    end
  end

and schedule_rejoin t =
  ignore
    (Process.timer t.proc ~delay:t.config.rejoin_delay (fun () ->
         if t.killed then begin
           (match List.filter (fun q -> q <> me t) t.view.View.members with
           | via :: _ ->
               Rc.send t.rc ~dst:via (Tt_joinreq { p = me t; rejoin = true })
           | [] -> ());
           schedule_rejoin t
         end))

let handle_joinreq t ~p ~rejoin =
  if t.active then begin
    if not (List.mem_assoc p t.pending_joins) && not (View.mem t.view p) then
      t.pending_joins <- (p, rejoin) :: t.pending_joins;
    match alive_members t with
    | c :: _ when c = me t -> maybe_coordinate t
    | c :: _ -> Rc.send t.rc ~dst:c (Tt_joinreq { p; rejoin })
    | [] -> ()
  end

let handle_state t ~view ~last_gseq ~app =
  if not t.active then begin
    (match (app, t.app_state_installer) with
    | Some s, Some f -> f s
    | _ -> ());
    t.view <- view;
    t.last_gseq <- last_gseq;
    Hashtbl.reset t.ord_buf;
    t.active <- true;
    t.killed <- false;
    t.recovering <- false;
    t.excluded_since <- None;
    Fd.set_peers t.fd view.View.members;
    t.n_views <- t.n_views + 1;
    Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.ViewInstall
      ~msg:(Printf.sprintf "view:%d" view.View.vid)
      ~attrs:
        [
          ("vid", string_of_int view.View.vid);
          ("view", Format.asprintf "%a" View.pp view);
          ("rejoin", "true");
        ]
      ();
    List.iter (fun f -> f view) (List.rev t.view_subscribers);
    replay_stashed_token t
  end

let create runtime ~id ~initial ?(config = default_config)
    ?app_state_provider ?app_state_installer () =
  let proc = Process.create runtime ~id in
  Process.incr ~by:0 proc "totem.recoveries";
  Process.incr ~by:0 proc "totem.view_changes";
  Process.incr ~by:0 proc "totem.exclusions";
  let fd = Fd.create proc ~hb_period:config.hb_period ~peers:initial () in
  let rc = Rc.create proc ~rto:config.rto () in
  let t_ref = ref None in
  let monitor =
    Fd.monitor fd ~label:"totem" ~timeout:config.fd_timeout
      ~on_suspect:(fun _q ->
        match !t_ref with Some t -> maybe_coordinate t | None -> ())
      ()
  in
  let t =
    {
      proc;
      fd;
      monitor;
      rc;
      config;
      app_state_provider;
      app_state_installer;
      view = View.initial initial;
      active = List.mem id initial;
      killed = false;
      out_queue = [];
      rid_counter = 0;
      last_gseq = 0;
      ord_buf = Hashtbl.create 32;
      delivered_rids = Hashtbl.create 256;
      delivered_log = Hashtbl.create 256;
      recovering = false;
      rec_started_at = 0.0;
      stashed_token = None;
      cur_epoch = (0, -1);
      epoch_counter = 0;
      my_recovery = None;
      pending_joins = [];
      n_token_passes = 0;
      n_views = 0;
      n_exclusions = 0;
      excluded_since = None;
      subscribers = [];
      view_subscribers = [];
    }
  in
  t_ref := Some t;
  Rc.on_deliver rc (fun ~src payload ->
      match payload with
      | Tt_token { vid; next_gseq } ->
          if t.active && vid = t.view.View.vid && not t.recovering then
            hold_token t next_gseq
          else if vid > t.view.View.vid || not t.active then
            t.stashed_token <- Some (vid, next_gseq)
      | Tt_data { vid; m } ->
          if t.active && vid = t.view.View.vid then accept_data t m
      | Tt_recreq { epoch; proposal = _ } -> handle_recreq t ~src ~epoch
      | Tt_recresp { epoch; last; undelivered } ->
          handle_recresp t ~src ~epoch ~last ~undelivered
      | Tt_install { epoch; view; fill; last_gseq } ->
          handle_install t ~epoch ~view ~fill ~last_gseq
      | Tt_joinreq { p; rejoin } -> handle_joinreq t ~p ~rejoin
      | Tt_state { view; last_gseq; app } -> handle_state t ~view ~last_gseq ~app
      | _ -> ());
  (* The founding head starts the token. *)
  if t.active && View.primary t.view = Some id then
    ignore (Process.timer proc ~delay:1.0 (fun () -> hold_token t 1));
  t

let abcast t body =
  if t.active || t.killed then begin
    let rid = (me t, t.rid_counter) in
    t.rid_counter <- t.rid_counter + 1;
    if Process.traced t.proc then
      Process.event t.proc ~component:"totem" ~kind:Gc_obs.Event.Send
        ~msg:(Printf.sprintf "tt:%d.%d" (fst rid) (snd rid))
        ();
    t.out_queue <- (rid, body) :: t.out_queue
  end

let join t ~via =
  if not t.active then
    Rc.send t.rc ~dst:via (Tt_joinreq { p = me t; rejoin = false })

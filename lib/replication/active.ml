module Stack = Gcs.Gcs_stack
module Rc = Gc_rchannel.Reliable_channel

type Gc_net.Payload.t +=
  | Ac_cmd of { contact : int; cid : int; rid : int; cmd : Gc_net.Payload.t }
  | Ac_state of {
      app : Gc_net.Payload.t;
      completed : ((int * int) * Gc_net.Payload.t) list;
    }

let () =
  Gc_net.Payload.register_printer (function
    | Ac_cmd { cid; rid; _ } -> Some (Printf.sprintf "active.cmd#%d.%d" cid rid)
    | Ac_state _ -> Some "active.state"
    | _ -> None)

type t = {
  stack : Stack.t;
  sm : State_machine.t;
  completed : (int * int, Gc_net.Payload.t) Hashtbl.t;
  mutable applied : int;
}

let stack t = t.stack
let commands_applied t = t.applied
let crash t = Stack.crash t.stack

let reply t ~cid ~rid result =
  Rc.send (Stack.reliable_channel t.stack) ~dst:cid (Rpc.Rep { rid; result })

let create runtime ~id ~initial ?config ~make_sm () =
  let sm = make_sm () in
  let completed = Hashtbl.create 64 in
  let provider () =
    Ac_state
      {
        app = sm.State_machine.snapshot ();
        completed = Gc_sim.Sorted.bindings completed;
      }
  in
  let installer = function
    | Ac_state { app; completed = l } ->
        sm.State_machine.restore app;
        List.iter (fun (k, v) -> Hashtbl.replace completed k v) l
    | _ -> ()
  in
  let stack =
    Stack.create runtime ~id ~initial ?config ~app_state_provider:provider
      ~app_state_installer:installer ()
  in
  let t = { stack; sm; completed; applied = 0 } in
  (* Client-facing side: requests arrive over the reliable channel. *)
  Rc.on_deliver (Stack.reliable_channel stack) (fun ~src:_ payload ->
      match payload with
      | Rpc.Req { cid; rid; cmd } -> (
          match Hashtbl.find_opt completed (cid, rid) with
          | Some result -> reply t ~cid ~rid result
          | None -> Stack.abcast stack (Ac_cmd { contact = id; cid; rid; cmd }))
      | _ -> ());
  (* Replica side: apply commands in the agreed total order. *)
  Stack.on_deliver stack (fun ~origin:_ ~ordered:_ payload ->
      match payload with
      | Ac_cmd { contact; cid; rid; cmd } ->
          let result =
            match Hashtbl.find_opt completed (cid, rid) with
            | Some r -> r
            | None ->
                let r = t.sm.State_machine.apply cmd in
                Hashtbl.replace completed (cid, rid) r;
                t.applied <- t.applied + 1;
                r
          in
          if contact = id then reply t ~cid ~rid result
      | _ -> ());
  t

let snapshot t = t.sm.State_machine.snapshot ()

module Engine = Gc_sim.Engine
module Trace = Gc_sim.Trace
module Netsim = Gc_net.Netsim
module Stack = Gcs.Gcs_stack
module Tr = Gc_traditional.Traditional_stack
module Tt = Gc_totem.Totem_stack
module Event = Gc_obs.Event
module Audit = Gc_obs.Audit
module Fault_script = Gc_faultgen.Fault_script
module Injector = Gc_faultgen.Injector

type stack_kind = Abgb | Gbcast | Traditional | Totem

let all_stacks = [ Abgb; Gbcast; Traditional; Totem ]

let stack_to_string = function
  | Abgb -> "abgb"
  | Gbcast -> "gbcast"
  | Traditional -> "traditional"
  | Totem -> "totem"

let stack_of_string = function
  | "abgb" | "new" -> Some Abgb
  | "gbcast" -> Some Gbcast
  | "traditional" -> Some Traditional
  | "totem" -> Some Totem
  | _ -> None

type Gc_net.Payload.t += Fuzz of int

let () =
  Gc_net.Payload.register_printer (function
    | Fuzz k -> Some (Printf.sprintf "fuzz#%d" k)
    | _ -> None)

type outcome = {
  stack : stack_kind;
  script : Fault_script.t;
  events : Event.t list;
  report : Audit.report;
  delivered : int;
  trace_dropped : int;
}

(* The audited safety surface and the documented limitations per stack.
   The AB-GB architectures get NO waivers: any violation is a bug.  The
   kill-and-rejoin baselines only promise ordering within one membership
   incarnation (paper Section 4.3), so violations whose nodes were
   excluded, or resumed from a freeze, are downgraded to documented
   behaviour — each waiver still checks the pattern in the history. *)
let waivers_for = function
  | Abgb | Gbcast -> []
  | Traditional | Totem ->
      [
        Audit.excluded_rejoin ~check:Audit.Total_order;
        Audit.recovered_freeze ~check:Audit.Total_order;
        Audit.restarted_rejoin ~check:Audit.Total_order;
        Audit.excluded_rejoin ~check:Audit.Fifo;
        Audit.recovered_freeze ~check:Audit.Fifo;
        Audit.restarted_rejoin ~check:Audit.Fifo;
        Audit.restarted_rejoin ~check:Audit.Replay_idempotence;
      ]

let checks_for (_ : stack_kind) = Audit.all_checks

(* Component whose [Deliver] events carry the stack's total order — the
   surface the reorder test hook perturbs. *)
let ordered_component = function
  | Abgb | Gbcast -> "abcast"
  | Traditional -> "traditional"
  | Totem -> "totem"

(* Swap the first two distinct ordered deliveries at one node: the oracle
   must catch this, and shrinking a failure that does not depend on the
   faults must converge to (almost) no events. *)
let swap_two_deliveries ~component events =
  let is_target node (e : Event.t) =
    e.Event.component = component
    && e.Event.kind = Event.Deliver
    && e.Event.msg <> None
    && match node with Some n -> e.Event.node = n | None -> true
  in
  let node =
    List.find_map
      (fun (e : Event.t) -> if is_target None e then Some e.Event.node else None)
      events
  in
  match node with
  | None -> events
  | Some n ->
      let indices = ref [] in
      List.iteri
        (fun idx e ->
          if is_target (Some n) e && List.length !indices < 2 then
            match !indices with
            | [ (_, first) ] when (first : Event.t).Event.msg <> e.Event.msg ->
                indices := !indices @ [ (idx, e) ]
            | [] -> indices := [ (idx, e) ]
            | _ -> ())
        events;
      (match !indices with
      | [ (i1, e1); (i2, e2) ] ->
          List.mapi
            (fun idx e -> if idx = i1 then e2 else if idx = i2 then e1 else e)
            events
      | _ -> events)

let run ?(casts = 12) ?(inject_reorder = false) ~stack script =
  let { Fault_script.seed; nodes; horizon; _ } = script in
  let engine = Engine.create ~seed () in
  let trace = Trace.create ~enabled:true ~capacity:400_000 () in
  let net = Netsim.create engine ~trace ~delay:Gc_net.Delay.lan ~n:nodes () in
  let initial = List.init nodes (fun i -> i) in
  let delivered = ref 0 in
  let count_at_0 id = if id = 0 then incr delivered in
  let send, fd_of, on_restart, on_restore =
    match stack with
    | Abgb | Gbcast ->
        (* Kill -9 support: each node keeps an in-memory durable log that
           survives the rebuild (the sim analogue of a --data-dir), plus a
           boot counter scoping its channel generations.  Only armed when
           the script actually restarts someone, so fault-free runs stay
           bit-for-bit identical to the committed determinism pins. *)
        let has_restart =
          List.exists
            (function Fault_script.Restart _ -> true | _ -> false)
            script.Fault_script.events
        in
        let storages =
          if has_restart then
            Some (Array.init nodes (fun _ -> Gc_kernel.Storage.in_memory ()))
          else None
        in
        let storage_for id = Option.map (fun a -> a.(id)) storages in
        let boots = Array.make nodes 0 in
        let make ~id ~initial =
          let s =
            Stack.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial
              ?storage:(storage_for id) ~boot_epoch:boots.(id) ()
          in
          Stack.on_deliver s (fun ~origin:_ ~ordered:_ _ ->
              count_at_0 (Stack.id s));
          s
        in
        let stacks = Array.init nodes (fun id -> make ~id ~initial) in
        let on_restart ~node = Stack.crash stacks.(node) in
        let on_restore ~node =
          boots.(node) <- boots.(node) + 1;
          (* Rebuild as a passive joiner — the founding view without
             itself — so the fresh stack does not participate from
             protocol position zero (re-running decided instances,
             re-delivering the prefix) before the sponsor's resync
             snapshot bootstraps it at the group's current position. *)
          let s =
            make ~id:node ~initial:(List.filter (fun p -> p <> node) initial)
          in
          stacks.(node) <- s;
          let via = ref None in
          for p = nodes - 1 downto 0 do
            if p <> node && Netsim.alive net p then via := Some p
          done;
          match !via with
          | Some v -> Stack.join s ~force:true ~via:v
          | None -> ()
        in
        ( (fun i k ->
            if stack = Gbcast && k mod 2 = 1 then Stack.rbcast stacks.(i) (Fuzz k)
            else Stack.abcast stacks.(i) (Fuzz k)),
          (fun i ->
            if i >= 0 && i < nodes then Some (Stack.failure_detector stacks.(i))
            else None),
          Some on_restart,
          Some on_restore )
    | Traditional ->
        let stacks =
          Array.init nodes (fun id -> Tr.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ())
        in
        Array.iter
          (fun s ->
            Tr.on_deliver s (fun ~origin:_ ~ordered:_ _ -> count_at_0 (Tr.id s)))
          stacks;
        ((fun i k -> Tr.abcast stacks.(i) (Fuzz k)), (fun _ -> None), None, None)
    | Totem ->
        let stacks =
          Array.init nodes (fun id -> Tt.create (Gc_kernel.Runtime.of_netsim net ~trace) ~id ~initial ())
        in
        Array.iter
          (fun s ->
            Tt.on_deliver s (fun ~origin:_ _ -> count_at_0 (Tt.id s)))
          stacks;
        ((fun i k -> Tt.abcast stacks.(i) (Fuzz k)), (fun _ -> None), None, None)
  in
  Injector.install ~fd_of ?on_restart ?on_restore ~trace net script;
  (* Spread the workload over the fault window so broadcasts hit every
     phase of every fault, leaving the tail of the run to settle. *)
  let span = 0.65 *. horizon in
  for k = 0 to casts - 1 do
    let t = 100.0 +. (span -. 100.0) *. float_of_int k /. float_of_int (max 1 (casts - 1)) in
    let sender = k mod nodes in
    ignore (Engine.schedule_at engine ~time:t (fun () -> send sender k))
  done;
  Engine.run ~until:horizon engine;
  let events = Trace.records trace in
  let events =
    if inject_reorder then
      swap_two_deliveries ~component:(ordered_component stack) events
    else events
  in
  let report =
    Audit.run ~checks:(checks_for stack) ~waivers:(waivers_for stack) events
  in
  {
    stack;
    script;
    events;
    report;
    delivered = !delivered;
    trace_dropped = Trace.dropped trace;
  }

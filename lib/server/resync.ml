module Stack = Gcs.Gcs_stack
module Storage = Gc_kernel.Storage

(* Decode one durable-log entry back into the replicated operation it
   carried, if any — the log also records membership traffic and anything
   else that rode generic broadcast, which replay skips. *)
let op_of_entry entry =
  match Storage.Record.decode entry with
  | exception Gc_net.Wire.Short -> None
  | record -> (
      match Gc_net.Payload.decode record.Storage.Record.payload with
      | Ok (Stack.Gcs_app { klass; body = Proto.Sv_op { origin; opid; op } })
        ->
          Some (origin, opid, op, klass = Stack.Conflict.Ordered)
      | _ -> None)

let replay_entry ~kv ~metrics entry =
  match op_of_entry entry with
  | None -> ()
  | Some (origin, opid, op, ordered) ->
      Gc_obs.Metrics.incr metrics
        (match Kv.apply kv ~origin ~opid ~ordered op with
        | None -> "server.dup_ops_skipped"
        | Some _ -> "server.recovered_ops")

let provide ~kv ~metrics =
  Gc_obs.Metrics.incr metrics "server.full_transfers";
  Proto.Sv_state { blob = Kv.to_blob kv }

let install ~kv ~metrics payload =
  match payload with
  | Proto.Sv_state { blob } -> (
      match Kv.restore kv blob with
      | () -> true
      | exception Gc_net.Wire.Short ->
          Gc_obs.Metrics.incr metrics "server.bad_delivery";
          false)
  | _ ->
      Gc_obs.Metrics.incr metrics "server.bad_delivery";
      false

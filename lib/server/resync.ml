module Stack = Gcs.Gcs_stack
module Storage = Gc_kernel.Storage

(* Delta state transfer backs off this many entries below the joiner's
   announced log high-water mark: commuting deliveries may interleave
   differently across replicas, so log indices near the crash point are
   only approximately comparable between nodes.  Re-sending the margin is
   harmless — every operation funnels through the (origin, opid)
   applied-set, so overlap is skipped, not re-applied.

   The margin is a bandwidth heuristic, not a correctness argument: the
   interleaving skew between two replicas' logs is unbounded in theory
   (one origin's commuting traffic can be arbitrarily delayed to the
   joiner while everything else flows).  Correctness comes from
   [install]'s verification — the sponsor stamps the delta with its
   applied-set cardinality and XOR digest at capture time, and a joiner
   whose post-install applied-set does not match both falls back to a
   full state transfer. *)
let delta_margin = 256

(* How many log entries the periodic snapshot leaves behind when it
   truncates the prefix: the window delta transfer can serve from.  Must
   comfortably exceed [delta_margin]. *)
let log_retain = 1024

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

let apply_entry ~kv ~metrics ~on_fresh entry =
  match op_of_entry entry with
  | None -> ()
  | Some (origin, opid, op, ordered) ->
      match Kv.apply kv ~origin ~opid ~ordered op with
      | None -> Gc_obs.Metrics.incr metrics "server.dup_ops_skipped"
      | Some result -> on_fresh ~entry ~origin ~opid ~result

(* Joiner state transfer, durable-log flavoured: a joiner that announces
   a log high-water mark within our retained window gets the log suffix
   (cost proportional to the outage), stamped with our applied-set
   cardinality and digest so it can verify coverage; anyone else gets
   the full image. *)
let provide ~kv ~metrics ?storage ~have () =
  let serve_full () =
    Gc_obs.Metrics.incr metrics "server.full_transfers";
    Proto.Sv_state { blob = Kv.to_blob kv }
  in
  match storage with
  | Some store when have >= 0 ->
      let lo, _next = Storage.extent store in
      if have - delta_margin >= lo then begin
        let from = have - delta_margin in
        let entries = ref [] in
        Storage.iter_from store from (fun ~index:_ entry ->
            entries := entry :: !entries);
        Gc_obs.Metrics.incr metrics "server.delta_transfers";
        Proto.Sv_delta
          {
            from;
            entries = List.rev !entries;
            applied = Kv.applied_count kv;
            digest = Kv.applied_digest kv;
          }
      end
      else serve_full ()
  | _ -> serve_full ()

let install ~kv ~metrics ~on_fresh payload =
  match payload with
  | Proto.Sv_state { blob } -> (
      match Kv.restore kv blob with
      | () -> `Installed
      | exception Gc_net.Wire.Short ->
          Gc_obs.Metrics.incr metrics "server.bad_delivery";
          `Unrecognised)
  | Proto.Sv_delta { from = _; entries; applied; digest } ->
      List.iter (fun entry -> apply_entry ~kv ~metrics ~on_fresh entry) entries;
      (* The moment of truth for log-suffix transfer: our applied-set must
         now equal the sponsor's at capture time.  Equal cardinality plus
         equal XOR digest means equal sets (w.h.p.); anything else means
         the suffix missed operations we can never recover later — the
         membership snapshot's delivered-id sets (already installed by the
         stack layer) suppress their retransmission — so the caller must
         fall back to a full transfer. *)
      if Kv.applied_count kv = applied && Kv.applied_digest kv = digest then
        `Installed
      else begin
        Gc_obs.Metrics.incr metrics "server.delta_rejected";
        `Verify_failed
      end
  | _ ->
      Gc_obs.Metrics.incr metrics "server.bad_delivery";
      `Unrecognised

(* Per-node registry of named counters, gauges and log-bucketed latency
   histograms.  Everything on the record path is an integer increment or a
   single array bump, so the registry is cheap enough to leave always-on. *)

(* Histogram bucketing: 4 buckets per octave (factor sqrt(sqrt 2) ~ 1.19
   between bucket edges) starting at [base] = 0.001 ms.  Bucket 0 holds
   values <= base; the last bucket is an overflow catch-all.  With 128
   buckets this spans 0.001 ms .. ~2.6e6 ms, far beyond any simulated
   latency, with <= ~19% relative quantile error — tightened further by
   tracking the exact min/max/sum. *)
let n_buckets = 128
let base = 0.001
let buckets_per_octave = 4.0

let bucket_of value =
  if value <= base then 0
  else
    let idx = 1 + int_of_float (Float.log2 (value /. base) *. buckets_per_octave) in
    if idx >= n_buckets then n_buckets - 1 else idx

(* Upper edge of bucket [i]: representative value reported for quantiles. *)
let bucket_upper i =
  if i = 0 then base
  else base *. Float.exp2 (float_of_int i /. buckets_per_octave)

type hist = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

type entry =
  | Counter of int ref
  | Gauge of float ref
  | Hist of hist

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter r) -> r
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a counter")
  | None ->
      let r = ref 0 in
      Hashtbl.add t.entries name (Counter r);
      r

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let gauge_ref t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Gauge r) -> r
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a gauge")
  | None ->
      let r = ref 0.0 in
      Hashtbl.add t.entries name (Gauge r);
      r

let set_gauge t name v = gauge_ref t name := v

let hist t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) -> h
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a histogram")
  | None ->
      let h =
        {
          counts = Array.make n_buckets 0;
          count = 0;
          sum = 0.0;
          min = infinity;
          max = neg_infinity;
        }
      in
      Hashtbl.add t.entries name (Hist h);
      h

let observe t name value =
  let h = hist t name in
  let b = bucket_of value in
  h.counts.(b) <- h.counts.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. value;
  if value < h.min then h.min <- value;
  if value > h.max then h.max <- value

(* ---------- reads ---------- *)

let counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter r) -> !r
  | _ -> 0

let gauge t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Gauge r) -> !r
  | _ -> 0.0

let hist_count t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) -> h.count
  | _ -> 0

let quantile_of_hist h q =
  if h.count = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.of_int h.count *. q +. 0.5) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let acc = ref 0 and result = ref h.max in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + h.counts.(i);
         if !acc >= rank then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    (* The bucket edge can overshoot the true extremes; clamp. *)
    if !result > h.max then h.max else if !result < h.min then h.min else !result
  end

let quantile t name q =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) -> quantile_of_hist h q
  | _ -> Float.nan

let hist_max t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) when h.count > 0 -> h.max
  | _ -> Float.nan

let hist_mean t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) when h.count > 0 -> h.sum /. float_of_int h.count
  | _ -> Float.nan

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []
  |> List.sort String.compare

(* ---------- handles ----------

   A handle names one entry and finds it on first use, exactly as [incr]
   or [set_gauge] would (so the registry's contents never depend on
   whether a site records through a handle), then keeps the cell: later
   records skip the name lookup. *)

type counter = { c_reg : t; c_name : string; mutable c_cell : int ref option }
type gauge = { g_reg : t; g_name : string; mutable g_cell : float ref option }

let counter_handle t name = { c_reg = t; c_name = name; c_cell = None }
let gauge_handle t name = { g_reg = t; g_name = name; g_cell = None }

let bump ?(by = 1) c =
  match c.c_cell with
  | Some r -> r := !r + by
  | None ->
      let r = counter_ref c.c_reg c.c_name in
      c.c_cell <- Some r;
      r := !r + by

let set g v =
  match g.g_cell with
  | Some r -> r := v
  | None ->
      let r = gauge_ref g.g_reg g.g_name in
      g.g_cell <- Some r;
      r := v

let get g = match g.g_cell with Some r -> !r | None -> gauge g.g_reg g.g_name

(* ---------- frozen views ---------- *)

type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (int * int) list;
}

type view = V_counter of int | V_gauge of float | V_hist of hist_view

let sparse_buckets counts =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if counts.(i) > 0 then acc := (i, counts.(i)) :: !acc
  done;
  !acc

let view_of_entry = function
  | Counter r -> V_counter !r
  | Gauge r -> V_gauge !r
  | Hist h ->
      V_hist
        {
          hv_count = h.count;
          hv_sum = h.sum;
          hv_min = h.min;
          hv_max = h.max;
          hv_buckets = sparse_buckets h.counts;
        }

let view t name =
  Option.map view_of_entry (Hashtbl.find_opt t.entries name)

(* ---------- merge ---------- *)

(* Counters and histograms add; gauges keep the max (the interesting
   cross-node reading for e.g. blocked time or queue depth). *)
let merge_into ~into src =
  Hashtbl.iter
    (fun name entry ->
      match entry with
      | Counter r -> incr ~by:!r into name
      | Gauge r ->
          let g = gauge_ref into name in
          if !r > !g then g := !r
      | Hist h ->
          let h' = hist into name in
          Array.iteri
            (fun i c -> h'.counts.(i) <- h'.counts.(i) + c)
            h.counts;
          h'.count <- h'.count + h.count;
          h'.sum <- h'.sum +. h.sum;
          if h.min < h'.min then h'.min <- h.min;
          if h.max > h'.max then h'.max <- h.max)
    src.entries

let merged ms =
  let into = create () in
  List.iter (fun m -> merge_into ~into m) ms;
  into

(* ---------- delta ---------- *)

(* The window between two captures of one registry, on a copy of [after]:
   counters and histograms subtract, gauges keep the [after] reading.  A
   counter or any histogram bucket that decreased means the source
   restarted between captures, so [after]'s entry stands alone (the
   Prometheus counter-reset convention).  A window's exact extremes are
   unknowable from two cumulative captures; they are bounded by the edges
   of its occupied buckets.  Entries only in [before] are dropped. *)
let delta ~before ~after =
  let t = merged [ after ] in
  Hashtbl.iter
    (fun name entry ->
      match (entry, Hashtbl.find_opt before.entries name) with
      | Counter a, Some (Counter b) -> if !a >= !b then a := !a - !b
      | Hist a, Some (Hist b)
        when a.count >= b.count && Array.for_all2 ( >= ) a.counts b.counts ->
          Array.iteri (fun i c -> a.counts.(i) <- a.counts.(i) - c) b.counts;
          a.count <- a.count - b.count;
          a.sum <- a.sum -. b.sum;
          a.min <- infinity;
          a.max <- neg_infinity;
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                if a.min = infinity then
                  a.min <- (if i = 0 then 0.0 else bucket_upper (i - 1));
                a.max <- bucket_upper i
              end)
            a.counts
      | _ -> ())
    t.entries;
  t

(* ---------- JSON ---------- *)

let num x : Json.t = if Float.is_nan x then Null else Num x

let hist_to_json h : Json.t =
  (* Sparse bucket encoding: only non-empty buckets, as [idx, count]. *)
  let buckets =
    Array.to_list h.counts
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) ->
           Json.Arr [ Num (float_of_int i); Num (float_of_int c) ])
  in
  Obj
    [
      ("type", Str "hist");
      ("count", Num (float_of_int h.count));
      ("sum", num h.sum);
      ("min", num (if h.count = 0 then Float.nan else h.min));
      ("max", num (if h.count = 0 then Float.nan else h.max));
      ("p50", num (quantile_of_hist h 0.50));
      ("p90", num (quantile_of_hist h 0.90));
      ("p95", num (quantile_of_hist h 0.95));
      ("p99", num (quantile_of_hist h 0.99));
      ("buckets", Arr buckets);
    ]

(* Zero counters and empty histograms are omitted by default: [of_json]
   recreates entries lazily anyway, so an absent entry and a zero entry
   read back the same, and the dump stays proportional to what the run
   actually did.  [include_zeros] keeps them, for diffing registries
   across runs or replicas where a structurally absent metric and a
   metric that never fired must stay distinguishable. *)
let to_json ?(include_zeros = false) t : Json.t =
  Obj
    (List.filter_map
       (fun name ->
         match Hashtbl.find t.entries name with
         | Counter { contents = 0 } when not include_zeros -> None
         | Counter r ->
             Some
               ( name,
                 Json.Obj
                   [
                     ("type", Str "counter"); ("value", Num (float_of_int !r));
                   ] )
         | Gauge r ->
             Some (name, Json.Obj [ ("type", Str "gauge"); ("value", num !r) ])
         | Hist h when h.count = 0 && not include_zeros -> None
         | Hist h -> Some (name, hist_to_json h))
       (names t))

let of_json (j : Json.t) =
  let t = create () in
  let float_field obj k =
    match Json.member k obj with Some (Num x) -> x | _ -> Float.nan
  in
  (match j with
  | Obj kvs ->
      List.iter
        (fun (name, v) ->
          match Json.member "type" v with
          | Some (Str "counter") ->
              incr ~by:(int_of_float (float_field v "value")) t name
          | Some (Str "gauge") -> set_gauge t name (float_field v "value")
          | Some (Str "hist") ->
              let h = hist t name in
              (match Json.member "buckets" v with
              | Some (Arr bs) ->
                  List.iter
                    (function
                      | Json.Arr [ Num i; Num c ] ->
                          let i = int_of_float i and c = int_of_float c in
                          if i >= 0 && i < n_buckets then
                            h.counts.(i) <- h.counts.(i) + c
                      | _ -> ())
                    bs
              | _ -> ());
              h.count <- int_of_float (float_field v "count");
              h.sum <- float_field v "sum";
              let mn = float_field v "min" and mx = float_field v "max" in
              h.min <- (if Float.is_nan mn then infinity else mn);
              h.max <- (if Float.is_nan mx then neg_infinity else mx)
          | _ -> ())
        kvs
  | _ -> invalid_arg "Metrics.of_json: expected an object");
  t

(* ---------- Prometheus exposition ---------- *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names map '.' (and
   anything else illegal) to '_'. *)
let prom_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

(* Label values escape backslash, double quote and newline. *)
let prom_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_num x =
  if Float.is_nan x then "NaN"
  else if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let render_labels labels extra =
  match labels @ extra with
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_escape v))
             kvs)
      ^ "}"

let to_prometheus ?(labels = []) t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter
    (fun name ->
      let n = prom_name ("gcs_" ^ name) in
      match Hashtbl.find t.entries name with
      | Counter r ->
          line "# TYPE %s counter" n;
          line "%s%s %d" n (render_labels labels []) !r
      | Gauge r ->
          line "# TYPE %s gauge" n;
          line "%s%s %s" n (render_labels labels []) (prom_num !r)
      | Hist h ->
          line "# TYPE %s histogram" n;
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                cum := !cum + c;
                line "%s_bucket%s %d" n
                  (render_labels labels [ ("le", prom_num (bucket_upper i)) ])
                  !cum
              end)
            h.counts;
          line "%s_bucket%s %d" n (render_labels labels [ ("le", "+Inf") ]) h.count;
          line "%s_sum%s %s" n (render_labels labels []) (prom_num h.sum);
          line "%s_count%s %d" n (render_labels labels []) h.count)
    (names t);
  Buffer.contents buf

(* ---------- pretty-printing ---------- *)

let pp ppf t =
  let pp_entry name =
    match Hashtbl.find t.entries name with
    | Counter r -> Fmt.pf ppf "  %-42s %10d@." name !r
    | Gauge r -> Fmt.pf ppf "  %-42s %10.2f@." name !r
    | Hist h ->
        if h.count = 0 then Fmt.pf ppf "  %-42s (no samples)@." name
        else
          Fmt.pf ppf
            "  %-42s n=%-6d mean=%-8.3f p50=%-8.3f p90=%-8.3f p99=%-8.3f \
             max=%-8.3f@."
            name h.count
            (h.sum /. float_of_int h.count)
            (quantile_of_hist h 0.50)
            (quantile_of_hist h 0.90)
            (quantile_of_hist h 0.99)
            h.max
  in
  List.iter pp_entry (names t)

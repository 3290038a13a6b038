(* Unit and property tests for the simulation substrate: RNG, heap, engine,
   statistics. *)

module Engine = Gc_sim.Engine
module Rng = Gc_sim.Rng
module Heap = Gc_sim.Heap
module Stats = Gc_sim.Stats

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let child = Rng.split a in
  (* The child must not replay the parent's continuation. *)
  let parent_next = Rng.int64 a in
  let child_next = Rng.int64 child in
  Alcotest.(check bool) "distinct streams" true (parent_next <> child_next)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bernoulli_bias () =
  let r = Rng.create 11L in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.3f near 0.3" freq)
    true
    (Float.abs (freq -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 13L in
  let total = ref 0.0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    total := !total +. Rng.exponential r ~mean:5.0
  done;
  let m = !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 5.0" m)
    true
    (Float.abs (m -. 5.0) < 0.25)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:9.0 (fun () -> log := 3 :: !log));
  Engine.run e;
  Support.check_list_int "execution order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.001)) "clock at last event" 9.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:2.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Support.check_list_int "FIFO at equal timestamps" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel t;
  Engine.run e;
  Support.check_bool "cancelled timer silent" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> incr fired));
  Engine.run ~until:5.0 e;
  Support.check_int "only early event" 1 !fired;
  Alcotest.(check (float 0.001)) "clock parked at limit" 5.0 (Engine.now e);
  Engine.run e;
  Support.check_int "late event after resume" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_past_schedule_clamped () =
  let e = Engine.create () in
  let at = ref nan in
  ignore
    (Engine.schedule e ~delay:5.0 (fun () ->
         ignore (Engine.schedule_at e ~time:1.0 (fun () -> at := Engine.now e))));
  Engine.run e;
  Alcotest.(check (float 0.001)) "clamped to now" 5.0 !at

let test_stats_percentiles () =
  let s = Stats.sample () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.001)) "median" 50.5 (Stats.median s);
  Alcotest.(check (float 0.001)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 0.001)) "p100" 100.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Stats.mean s);
  Alcotest.(check (float 0.001)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 0.001)) "max" 100.0 (Stats.max_value s);
  (* Between ranks the value is interpolated, not the nearest rank (9). *)
  let ten = Stats.sample () in
  for i = 1 to 10 do
    Stats.add ten (float_of_int i)
  done;
  Alcotest.(check (float 0.001)) "p90 of 1..10" 9.1 (Stats.percentile ten 90.0)

let test_stats_empty () =
  let s = Stats.sample () in
  Support.check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  Support.check_bool "median nan" true (Float.is_nan (Stats.median s))

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"sample mean between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.sample () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-9 && m <= Stats.max_value s +. 1e-9)

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "rng bernoulli bias" `Quick test_rng_bernoulli_bias;
        Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
        Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
        Alcotest.test_case "engine run until" `Quick test_engine_run_until;
        Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "engine past schedule clamped" `Quick
          test_engine_past_schedule_clamped;
        Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "stats empty" `Quick test_stats_empty;
        QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
      ] );
  ]

(* Planted E2 violations, direct and through the handle constructors: a
   name outside Catalog.metrics (a typo mints a dead time series) and a
   counter recorded as another kind.  The catalogued calls stay silent. *)

module Metrics = Gc_obs.Metrics

let _record m =
  Metrics.incr m "fixture.not_in_catalog";
  Metrics.observe m "abcast.delivered" 1.0;
  Metrics.incr m "abcast.delivered"

let _handles m =
  ignore (Metrics.counter_handle m "fixture.handle_not_in_catalog");
  ignore (Metrics.gauge_handle m "abcast.delivered");
  ignore (Metrics.counter_handle m "abcast.delivered")

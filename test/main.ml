let () =
  Alcotest.run "groupcomm"
    (Test_sim.suite @ Test_net.suite @ Test_kernel.suite @ Test_fd.suite
   @ Test_rchannel.suite @ Test_rbcast.suite @ Test_consensus.suite @ Test_abcast.suite @ Test_gbcast.suite @ Test_membership.suite @ Test_monitoring.suite @ Test_gcs.suite @ Test_traditional.suite @ Test_replication.suite @ Test_gbcast_modes.suite @ Test_client.suite @ Test_integration.suite @ Test_totem.suite @ Test_soak.suite @ Test_misc.suite @ Test_obs.suite @ Test_audit.suite
   @ Test_faultgen.suite @ Test_fuzz.suite @ Test_fuzz_pins.suite @ Test_lint.suite
   @ Test_perf_structs.suite @ Test_wire.suite @ Test_conformance.suite
   @ Test_telemetry.suite @ Test_gbcast_batch.suite @ Test_conflict_index.suite
   @ Test_evloop.suite @ Test_storage.suite @ Test_resync.suite @ Test_server.suite
   @ Test_alloc.suite)

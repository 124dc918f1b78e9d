(* Aggregates every suite; `dune runtest` runs them all. *)
let () =
  Alcotest.run "crosstalk-mitigation"
    (Test_util.suite
    @ Test_linalg.suite
    @ Test_circuit.suite
    @ Test_device.suite
    @ Test_sim.suite
    @ Test_noise.suite
    @ Test_golden.suite
    @ Test_density.suite
    @ Test_persist.suite
    @ Test_smt.suite
    @ Test_characterization.suite
    @ Test_scheduler.suite
    @ Test_window.suite
    @ Test_benchmarks.suite
    @ Test_metrics.suite
    @ Test_extensions.suite
    @ Test_faults.suite
    @ Test_serve.suite
    @ Test_chaos.suite
    @ Test_fleet.suite
    @ Test_codec_golden.suite
    @ Test_calibration.suite
    @ Test_mitigation.suite
    @ Test_integration.suite
    @ Test_smoke.suite)

let () =
  Alcotest.run "hlcs"
    (Test_logic.tests @ Test_bitvec.tests @ Test_kernel.tests @ Test_pq.tests
   @ Test_osss.tests
   @ Test_osss_extra.tests @ Test_hlir.tests @ Test_arrays.tests @ Test_lint.tests
   @ Test_rtl.tests
   @ Test_levelized.tests
   @ Test_opt.tests @ Test_cec.tests @ Test_synth.tests @ Test_fsm.tests @ Test_analysis.tests
   @ Test_pci.tests
   @ Test_interface.tests
   @ Test_wavediff.tests @ Test_coverage.tests @ Test_misc.tests @ Test_flow.tests
   @ Test_determinism.tests @ Test_vcd.tests @ Test_runtime.tests @ Test_store.tests
   @ Test_fault.tests @ Test_monitor.tests @ Test_swarm.tests
   @ Test_config_codec.tests @ Test_admission.tests @ Test_serve.tests)

(* Aggregate test runner for all suites. *)

let () =
  Alcotest.run "hbproto"
    [
      Test_lts.tests;
      Test_mc.tests;
      Test_explore.tests;
      Test_ltl.tests;
      Test_pexplore.tests;
      Test_store.tests;
      Test_proc.tests;
      Test_compiled.tests;
      Test_ta.tests;
      Test_ta_compiled.tests;
      Test_sim.tests;
      Test_heartbeat.tests;
      Test_export.tests;
      Test_runtime.tests;
      Test_fault.tests;
      Test_fd.tests;
      Test_lint.tests;
      Test_por.tests;
      Test_resilience.tests;
      Test_slice.tests;
      Test_zone.tests;
      Test_lubounds.tests;
    ]

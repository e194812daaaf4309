let () =
  Alcotest.run "dpv"
    [
      ("tensor", Test_tensor.tests);
      ("linprog", Test_linprog.tests);
      ("simplex-warm", Test_simplex_warm.tests);
      ("milp-parallel", Test_milp_parallel.tests);
      ("pool", Test_pool.tests);
      ("faults", Test_faults.tests);
      ("obs", Test_obs.tests);
      ("solver-properties", Test_solver_properties.tests);
      ("nn", Test_nn.tests);
      ("conv", Test_conv.tests);
      ("train", Test_train.tests);
      ("absint", Test_absint.tests);
      ("absint-guided", Test_absint_guided.tests);
      ("absint-incremental", Test_absint_incremental.tests);
      ("completion", Test_completion.tests);
      ("spec", Test_spec.tests);
      ("scenario", Test_scenario.tests);
      ("monitor", Test_monitor.tests);
      ("controller", Test_controller.tests);
      ("core", Test_core.tests);
      ("campaign", Test_campaign.tests);
      ("extensions", Test_extensions.tests);
      ("certificate", Test_certificate.tests);
      ("determinism", Test_workflow_determinism.tests);
      ("serve", Test_serve.tests);
    ]

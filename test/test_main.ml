let () =
  Alcotest.run "systrace"
    [
      ("util", Test_util.tests);
      ("isa", Test_isa.tests);
      ("machine", Test_machine.tests);
      ("tracing", Test_tracing.tests);
      ("stream", Test_stream.tests);
      ("epoxie", Test_epoxie.tests);
      ("kernel", Test_kernel.tests);
      ("tracesim", Test_tracesim.tests);
      ("workloads", Test_workloads.tests);
      ("validate", Test_validate.tests);
      ("serve", Test_serve.tests);
      ("threads", Test_threads.tests);
      ("cli", Test_cli.tests);
    ]

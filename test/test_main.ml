let () =
  Alcotest.run "pld"
    [
      ("util", Test_util.suite);
      ("apfixed", Test_apfixed.suite);
      ("ir", Test_ir.suite);
      ("aptype", Test_aptype.suite);
      ("value", Test_value.suite);
      ("kpn", Test_kpn.suite);
      ("hls", Test_hls.suite);
      ("noc", Test_noc.suite);
      ("riscv", Test_riscv.suite);
      (* engine's two-process store tests fork, which OCaml 5 forbids
         once any domain has been created — keep them ahead of every
         suite that spawns domains (pnr multi-seed, service, ...). *)
      ("engine", Test_engine.suite);
      ("pnr", Test_pnr.suite);
      ("telemetry", Test_telemetry.suite);
      ("pmu", Test_pmu.suite);
      ("insight", Test_insight.suite);
      ("pld", Test_pld.suite);
      ("service", Test_service.suite);
      ("rosetta", Test_rosetta.suite);
      ("faults", Test_faults.suite);
      ("proptest", Test_proptest.suite);
    ]

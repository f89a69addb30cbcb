let () =
  Alcotest.run "koptlog"
    [
      ("rng", Test_rng.suite);
      ("heap+queue", Test_heap.suite);
      ("summary", Test_summary.suite);
      ("entry", Test_entry.suite);
      ("entry-set", Test_entry_set.suite);
      ("seq-set", Test_seq_set.suite);
      ("id-pack", Test_id_pack.suite);
      ("dep-vector", Test_dep_vector.suite);
      ("storage", Test_storage.suite);
      ("durable", Test_durable.suite);
      ("crash-images", Test_crash_images.suite);
      ("apps", Test_apps.suite);
      ("node", Test_node.suite);
      ("node-edge", Test_node_edge.suite);
      ("config", Test_config.suite);
      ("gc", Test_gc.suite);
      ("direct-tracking", Test_direct.suite);
      ("bank-conservation", Test_bank.suite);
      ("fuzz", Test_fuzz.suite);
      ("harness-bits", Test_harness_bits.suite);
      ("oracle", Test_oracle.suite);
      ("cluster", Test_cluster.suite);
      ("figure1", Test_figure1.suite);
      ("explore", Test_explore.suite);
      ("corpus", Test_corpus.suite);
      ("integration", Test_integration.suite);
      ("recovery-fast", Test_recovery_fast.suite);
      ("churn", Test_churn.suite);
      ("obs", Test_obs.suite);
      ("net-codec", Test_net_codec.suite);
      ("net-deployment", Test_net.suite);
      ("link", Test_link.suite);
      ("shardkv", Test_shardkv.suite);
    ]

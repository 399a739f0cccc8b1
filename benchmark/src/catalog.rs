//! Every metric the benchmark can print, with its unit. `BENCHMARK.json`
//! lists the same names (a test holds the two together) and adds the
//! direction and, for end-to-end metrics, the regression bound.

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; `README.md` says what "work" and "op" are on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, grouped by the crate they attribute time or work to.
/// A workload that never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // worldgen / scenario
    ("worldgen.compile_s", "s"),
    ("worldgen.graph_bytes", "B"),
    ("worldgen.interconnects", "count"),
    ("scenario.install_s", "s"),
    // bdrmap
    ("bdrmap.first_cycle_s", "s"),
    ("bdrmap.cycle_ms_per_vp_p50", "ms"),
    ("bdrmap.links_inferred", "count"),
    ("bdrmap.cycles_in_window", "count"),
    // core: round engine
    ("core.cycle_rounds", "count"),
    ("core.cycle_rounds_s", "s"),
    ("core.quiet_round_ms_p50", "ms"),
    ("core.round_ms_max", "ms"),
    ("core.commit_ms_per_round", "ms"),
    ("core.round_unattributed_share", "ratio"),
    ("core.engine_tn_rounds_per_s", "1/s"),
    // core: durability
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_ms_first", "ms"),
    ("core.checkpoint_ms_last", "ms"),
    ("core.checkpoint_bytes", "B"),
    ("core.finalize_s", "s"),
    ("core.resume_s", "s"),
    ("core.arm_reactive_s", "s"),
    // netsim
    ("netsim.probes_per_round", "count"),
    ("netsim.hops_per_probe", "count"),
    ("netsim.send_probe_ns", "ns"),
    ("netsim.allocs_per_probe", "count"),
    // probing
    ("probing.tslp_round_s", "s"),
    ("probing.tslp_ns_per_probe", "ns"),
    ("probing.synth_s", "s"),
    ("probing.synth_bins", "count"),
    // tsdb
    ("tsdb.points", "count"),
    ("tsdb.series", "count"),
    ("tsdb.write_ns_per_point", "ns"),
    ("tsdb.annotate_ns", "ns"),
    ("tsdb.downsample_us_p50", "us"),
    ("tsdb.dump_records_s", "s"),
    ("tsdb.content_hash_s", "s"),
    ("tsdb.wal_bytes_per_point", "B"),
    ("tsdb.wal_append_ns_per_point", "ns"),
    ("tsdb.wal_sync_ms_p50", "ms"),
    // inference
    ("inference.fold_ns_per_sample", "ns"),
    ("inference.windows_served", "count"),
    ("inference.window_fallbacks", "count"),
    ("inference.levelshift_us_per_window", "us"),
    ("inference.autocorr_s", "s"),
    ("inference.autocorr_us_per_window", "us"),
    ("inference.precision", "ratio"),
    ("inference.recall", "ratio"),
    // serve
    ("serve.publish_ms", "ms"),
    ("serve.snapshot_bytes", "B"),
    ("serve.handle_us.links", "us"),
    ("serve.handle_us.timeseries_hit", "us"),
    ("serve.handle_us.timeseries_miss", "us"),
    ("serve.handle_us.explain", "us"),
    ("serve.handle_us.health", "us"),
    ("serve.handle_us.metrics", "us"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.wire_overhead_us", "us"),
    ("serve.shed", "count"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    ("serve.gen_late_ms_max", "ms"),
    // vfs
    ("vfs.bytes_written", "B"),
    ("vfs.fsyncs", "count"),
    ("vfs.fsync_s", "s"),
    ("vfs.disk_bytes_per_point", "B"),
    // obs
    ("obs.render_prom_us", "us"),
    ("obs.journal_events", "count"),
    // process and the tracer itself
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.allocs_per_work", "count"),
    ("proc.alloc_mb_per_work", "MB"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

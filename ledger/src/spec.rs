//! The benchmark's contract, compiled in: workload names and the two
//! metric tables.  `BENCHMARK.json` at the repository root restates these
//! names and carries the regression bounds; `tests/ledger_smoke.rs` checks
//! that the two agree.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// The metric's name as printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "compile-cold",
    "exec-rect-atomic",
    "exec-skewed-certified",
    "serve-zipf",
];

/// Metrics a user of the system sees, measured with tracing off.  Every
/// workload reports every one of them (see README "Metric names").
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s"),
    higher("work_per_s", "1/s"),
    lower("op_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of single layers, from the traced pass.  A layer a workload
/// never calls reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // loopir
    lower("loopir.parse_us", "us"),
    higher("loopir.bytes_per_s", "B/s"),
    // analysis
    lower("analysis.analyze_us", "us"),
    lower("analysis.findings", "count"),
    // footprint
    lower("footprint.classify_us", "us"),
    lower("footprint.classes", "count"),
    lower("footprint.model_lines", "count"),
    lower("footprint.model_ratio", "ratio"),
    // partition
    lower("partition.rect_us", "us"),
    lower("partition.para2d_us", "us"),
    lower("partition.para3d_ms", "ms"),
    lower("partition.para_candidates", "count"),
    // plan
    lower("plan.build_us", "us"),
    lower("plan.fingerprint_us", "us"),
    lower("plan.encode_us", "us"),
    lower("plan.decode_us", "us"),
    lower("plan.json_bytes", "B"),
    lower("plan.cache.get_us", "us"),
    higher("plan.cache.hit_rate", "ratio"),
    lower("plan.cache.evictions", "count"),
    lower("plan.store.append_us", "us"),
    lower("plan.store.bytes_per_plan", "B"),
    lower("plan.store.replay_ms", "ms"),
    // certify
    lower("certify.certify_us", "us"),
    lower("certify.recheck_us", "us"),
    higher("certify.fastpath_share", "ratio"),
    // calibrate, codegen
    lower("calibrate.choose_us", "us"),
    lower("codegen.emit_us", "us"),
    // runtime
    lower("runtime.lower_us", "us"),
    lower("runtime.store_ms", "ms"),
    lower("runtime.run_ms", "ms"),
    lower("runtime.ns_per_iter", "ns"),
    higher("runtime.busy_share", "ratio"),
    lower("runtime.barrier_wait_ms", "ms"),
    lower("runtime.tile_busy_max_over_mean", "ratio"),
    lower("runtime.dynamic_over_static", "ratio"),
    higher("runtime.scaling_eff", "ratio"),
    lower("runtime.tracked_run_ms", "ms"),
    lower("runtime.lines_max_tile", "count"),
    lower("runtime.cancellation_polls", "count"),
    lower("runtime.retries", "count"),
    lower("runtime.reference_ms", "ms"),
    lower("runtime.reference_ns_per_iter", "ns"),
    lower("runtime.verify_ms", "ms"),
    // machine
    lower("machine.simulate_ms", "ms"),
    higher("machine.accesses_per_s", "1/s"),
    lower("machine.cold_misses", "count"),
    // serve
    lower("serve.protocol.request_encode_us", "us"),
    lower("serve.protocol.request_decode_us", "us"),
    lower("serve.protocol.response_encode_us", "us"),
    lower("serve.protocol.response_decode_us", "us"),
    lower("serve.handle_now.hit_us", "us"),
    lower("serve.handle_now.computed_us", "us"),
    lower("serve.handle_now.run_us", "us"),
    lower("serve.pipeline.build_plan_us", "us"),
    lower("serve.pipeline.run_plan_us", "us"),
    lower("serve.transport_us", "us"),
    lower("serve.hit.latency_us.p50", "us"),
    lower("serve.computed.latency_us.p50", "us"),
    lower("serve.run.latency_us.p50", "us"),
    lower("serve.latency_ms.p95", "ms"),
    lower("serve.latency_us.p99", "us"),
    lower("serve.shed_share", "ratio"),
    lower("serve.coalesced", "count"),
    lower("serve.batched", "count"),
    // tails demoted from end-to-end (README "Metric names")
    lower("compile.ms.p95", "ms"),
    // accounting
    lower("compile.residual_rel", "ratio"),
    lower("exec.residual_rel", "ratio"),
    lower("serve.residual_rel", "ratio"),
    lower("trace.overhead_rel", "ratio"),
    higher("host.parallel_speedup_2t", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the unit its [`MetricSpec`] names.
    pub value: f64,
    /// Samples the value summarises (1 for a single reading or a count).
    pub samples: usize,
}

/// The metrics one pass produced, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: std::collections::BTreeMap<&'static str, Measured>,
}

impl Metrics {
    /// Record `name`.  Panics on a name neither table lists, or one set
    /// twice: both are bugs in the workload that calls this.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is in neither table of spec.rs"
        );
        let old = self.values.insert(name, Measured { value, samples });
        assert!(old.is_none(), "metric `{name}` set twice");
    }

    /// The recorded value of `name`, if the pass set it.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }
}

//! End-to-end benchmark of the DarkVec reproduction: one driver, three
//! workloads (`batch`, `serve`, `monitor`) run against the public API of
//! the workspace crates, an output check per workload, and a traced run
//! that breaks the wall time down by layer.
//!
//! Every workload reports every end-to-end metric in [`E2E`]; what each
//! one means on each workload is documented in `perfbench/README.md`.
//! A traced run (`--trace 1`) reports every metric in [`LAYERS`]; a layer
//! that does no work on a workload reports 0.

pub mod batch;
pub mod daemon;
pub mod host;
pub mod loadgen;
pub mod spans;

use darkvec_gen::SimConfig;
use std::collections::HashMap;

/// End-to-end metrics: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("result_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    // batch
    ("types.filter_s", "s"),
    ("services.resolve_s", "s"),
    ("corpus.build_s", "s"),
    ("corpus.tokens", "count"),
    ("w2v.train_s", "s"),
    ("w2v.pairs", "count"),
    ("w2v.pairs_per_s", "1/s"),
    ("supervised.prepare_s", "s"),
    ("supervised.report_s", "s"),
    ("ml.knn.dots", "count"),
    ("ml.knn.bytes", "B"),
    ("ml.normalize_s", "s"),
    ("graph.knn_build_s", "s"),
    ("graph.louvain_s", "s"),
    ("graph.louvain.sweeps", "count"),
    ("graph.silhouette_s", "s"),
    ("unsupervised.canonical_s", "s"),
    ("eval.macro_f1", "ratio"),
    ("batch.unattributed_s", "s"),
    // serve
    ("serve.classify_us", "us"),
    ("ml.knn.query_us", "us"),
    ("protocol.codec_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.fallback_ratio", "ratio"),
    ("serve.refused_ratio", "ratio"),
    ("serve.connections", "count"),
    ("serve.oneshot_p50_us", "us"),
    ("serve.max_qps", "1/s"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.run_s", "s"),
    ("serve.unattributed_s", "s"),
    // monitor
    ("serve.retrain_s", "s"),
    ("corpus.day_build_s", "s"),
    ("shard.merge_s", "s"),
    ("w2v.warm_train_s", "s"),
    ("w2v.warm_pairs", "count"),
    ("cache.store_s", "s"),
    ("cache.stores", "count"),
    ("serve.ingest_us", "us"),
    ("serve.coalesced_ratio", "ratio"),
    ("lineage.step_s", "s"),
    ("unsupervised.cluster_s", "s"),
    ("lineage.observe_s", "s"),
    ("monitor.rollovers", "count"),
    ("monitor.unattributed_s", "s"),
    // every workload
    ("query.cost_us", "us"),
    ("query.p50_us", "us"),
    ("query.p99_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub smoke: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        match args.workload.as_str() {
            "batch" | "serve" | "monitor" => Ok(args),
            w => Err(format!("unknown workload {w:?} (batch, serve, monitor)")),
        }
    }

    /// The simulated capture the workload runs on: the simulator's default
    /// scale (30 days, `sender_scale` 0.1), or a tiny one for smoke runs.
    pub fn sim(&self) -> SimConfig {
        let mut sim = if self.smoke {
            SimConfig {
                days: 10,
                ..SimConfig::tiny(0)
            }
        } else {
            SimConfig::default()
        };
        sim.seed = self.seed;
        sim
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub values: HashMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// The result object: every end-to-end metric, or with `trace` every
    /// per-layer metric (0 for a layer this workload does not exercise).
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace { LAYERS } else { E2E };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `q`-quantile by nearest rank; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs the workload named in `args`.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "batch" => batch::run(args),
        "serve" => daemon::run_serve(args),
        _ => daemon::run_monitor(args),
    }
}

/// The per-layer table of a traced run: self time per span name, the
/// root's self time as the unattributed row, and their total against the
/// traced wall time.
pub fn layer_report(spans: &[spans::Span], wall: f64) -> String {
    let root = spans
        .iter()
        .find(|s| s.parent.is_none())
        .map_or("", |s| s.name);
    let rows = spans::layer_table(spans);
    let total: f64 = rows.iter().map(|r| r.1).sum();
    let mut text = format!("{:<28} {:>12} {:>7}\n", "layer", "self_s", "share");
    for (name, self_s) in &rows {
        let label = if *name == root {
            format!("{root}.unattributed")
        } else {
            name.to_string()
        };
        text.push_str(&format!(
            "{label:<28} {self_s:>12.6} {:>6.2}%\n",
            100.0 * self_s / wall.max(1e-12)
        ));
    }
    text.push_str(&format!(
        "{:<28} {total:>12.6} (traced wall {wall:.6} s)",
        "total"
    ));
    text
}

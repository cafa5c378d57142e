//! Host and build stamp, and process resource readings.

use darkvec::DarkVecConfig;

/// One `key=value` description of where and how a result was measured:
/// CPU, core count, SIMD dispatch, compiler, git commit, source hash,
/// workload seed and the pipeline configuration fingerprint.
pub fn stamp(workload: &str, seed: u64, cfg: &DarkVecConfig) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "cpu={cpu:?} nproc={nproc} simd={} rustc={:?} commit={} source={} workload={workload} seed={seed} config={:?}",
        darkvec_kernels::active_path().name(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE"),
        cfg.fingerprint(),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

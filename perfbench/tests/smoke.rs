//! Smoke-size run of every workload, untraced and traced: the result
//! line must name every metric `BENCHMARK.json` lists, with its unit.

use darkvec_obs::Json;
use std::path::Path;
use std::process::Command;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_darkvec-perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn assert_reports(workload: &str, trace: bool, list: &str) {
    let bench = benchmark();
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct").map(|c| matches!(c, Json::Bool(true))),
        Some(true),
        "{workload}: output checks failed"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics object");
    for (name, unit) in listed(&bench, list) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if list == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

#[test]
fn batch_prints_every_metric() {
    assert_reports("batch", false, "end_to_end");
    assert_reports("batch", true, "per_layer");
}

#[test]
fn serve_prints_every_metric() {
    assert_reports("serve", false, "end_to_end");
    assert_reports("serve", true, "per_layer");
}

#[test]
fn monitor_prints_every_metric() {
    assert_reports("monitor", false, "end_to_end");
    assert_reports("monitor", true, "per_layer");
}

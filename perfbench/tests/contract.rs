//! The benchmark's own checks: `BENCHMARK.json` lists exactly the
//! metrics the code reports, a smoke run of every workload passes its
//! correctness checks and prints exactly those names, and the untraced
//! path records no spans.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rsp_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use rsp_perfbench::record::result_line;
use rsp_perfbench::{run_workload, Opts, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a Value {
    entry
        .get(key)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

fn check_list(json: &[Value], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(json.len(), defs.len(), "metric count differs");
    for (entry, def) in json.iter().zip(defs) {
        assert_eq!(field(entry, "name").as_str(), Some(def.name));
        assert_eq!(
            field(entry, "unit").as_str(),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            field(entry, "better").as_str(),
            Some(def.better.as_str()),
            "{}",
            def.name
        );
        if with_bound {
            assert_eq!(field(entry, "bound").as_f64(), def.bound, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let v = benchmark_json();
    check_list(listed(&v, "end_to_end"), END_TO_END, true);
    check_list(listed(&v, "per_layer"), PER_LAYER, false);
    let names: Vec<&str> = listed(&v, "workloads")
        .iter()
        .filter_map(|w| field(w, "name").as_str())
        .collect();
    assert_eq!(names, WORKLOADS);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    let widest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );
}

fn smoke(workload: &str, trace: bool) -> rsp_perfbench::metrics::Outcome {
    let opts = Opts {
        seed: 7,
        seconds: 0.3,
        trace,
        smoke: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{workload}-{trace}")),
    };
    let out = run_workload(workload, &opts).expect("smoke run sets up");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
    assert!(out.attempted > 0);
    let line: Value = serde_json::from_str(&result_line(&out)).expect("result line is JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    out
}

fn names_of(out: &rsp_perfbench::metrics::Outcome) -> BTreeSet<&'static str> {
    out.metrics.iter().map(|m| m.def.name).collect()
}

fn all(defs: &[MetricDef]) -> BTreeSet<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

#[test]
fn every_workload_passes_a_smoke_run_untraced_without_spans() {
    for w in WORKLOADS {
        let out = smoke(w, false);
        assert!(
            out.tracer.spans().is_empty(),
            "{w}: untraced run recorded spans"
        );
        assert_eq!(names_of(&out), all(END_TO_END), "{w}");
        assert_eq!(out.metrics.len(), END_TO_END.len(), "{w}: a name twice");
        for m in &out.metrics {
            assert!(m.value > 0.0, "{w}: {} is {}", m.def.name, m.value);
        }
    }
}

#[test]
fn every_workload_passes_a_smoke_run_traced() {
    for w in WORKLOADS {
        let out = smoke(w, true);
        assert!(
            !out.tracer.spans().is_empty(),
            "{w}: traced run recorded no spans"
        );
        assert_eq!(names_of(&out), all(PER_LAYER), "{w}");
        assert_eq!(out.metrics.len(), PER_LAYER.len(), "{w}: a name twice");
        // A layer the workload does not exercise reports 0.
        for m in &out.metrics {
            if !m.def.workloads.contains(w) {
                assert_eq!(m.value, 0.0, "{w}: {}", m.def.name);
            }
        }
    }
}

#[test]
fn every_metric_is_measured_by_some_workload() {
    for d in END_TO_END {
        assert_eq!(d.workloads, WORKLOADS, "{}", d.name);
    }
    for d in PER_LAYER {
        assert!(!d.workloads.is_empty(), "{}", d.name);
        for w in d.workloads {
            assert!(WORKLOADS.contains(w), "{}: {w}", d.name);
        }
    }
}

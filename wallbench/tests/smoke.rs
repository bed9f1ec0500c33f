//! Smoke mode of every workload, untraced and traced, plus the metric
//! names against `BENCHMARK.json`.

use wallbench::report::{Config, Outcome};
use wallbench::{end_to_end, per_layer, Workload, END_TO_END, PER_LAYER};

fn names(out: &Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

#[test]
fn every_workload_is_correct_and_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = end_to_end(w, &Config::smoke(7));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted >= 1);
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&out), expected, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{}: {} = {}", w.name(), m.name, m.value);
        }
        let last = out.json();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_accounts_for_the_round_trip() {
    let dir = std::env::temp_dir().join(format!("wallbench-smoke-{}", std::process::id()));
    let spans = dir.join("spans.jsonl");
    let out = per_layer(Workload::ServeRcv1, &Config::smoke(7), Some(&spans));
    assert!(out.correct(), "{:?}", out.failures);
    assert_eq!(names(&out), PER_LAYER.to_vec());
    let (rtt, handler_us, socket) = (
        value(&out, "serve.rtt_ms"),
        value(&out, "serve.handler_us"),
        value(&out, "serve.socket_ms"),
    );
    assert!((handler_us / 1e3 + socket - rtt).abs() < 1e-9, "handler + socket = round trip");
    assert!(value(&out, "dist.accounted_share") > 0.9, "dist spans cover the epoch");
    assert_eq!(value(&out, "serve.busy_share"), 0.0);
    let text = std::fs::read_to_string(&spans).expect("spans written");
    assert!(text.lines().count() > 10);
    assert!(text.lines().all(|l| l.starts_with("{\"id\":") && l.contains("\"request\":")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    for w in Workload::ALL {
        assert!(declared(w.name()), "workload {}", w.name());
    }
    for (n, unit) in END_TO_END {
        assert!(declared(n), "end-to-end {n}");
        assert!(text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{unit}\"")), "unit of {n}");
    }
    for n in PER_LAYER {
        assert!(declared(n), "per-layer {n}");
    }
    let count = text.matches("\"name\":").count();
    assert_eq!(count, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}

//! Run configuration, results, host facts, and the printed report.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or epochs).
    pub attempted: u64,
    /// Operations that failed a correctness check or errored.
    pub failed: u64,
    /// One line per failed check, for the printed report.
    pub failures: Vec<String>,
    /// Human-readable context lines (sample counts, percentiles used).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn fail(&mut self, line: impl Into<String>) {
        self.failures.push(line.into());
    }

    /// Whether every op succeeded, every check passed and every metric
    /// was measured (a non-finite value means it was not).
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self.attempted > 0
    }

    /// The result object: the last line the benchmark prints.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// How long a workload measures: at least `seconds`, and on until
/// `min_ops` operations completed (so a tail percentile has ten samples
/// beyond it), but never past `cap_secs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub seconds: f64,
    pub min_ops: usize,
    pub cap_secs: f64,
}

impl Window {
    pub fn done(&self, elapsed: f64, ops: usize) -> bool {
        elapsed >= self.cap_secs || (elapsed >= self.seconds && ops >= self.min_ops)
    }
}

/// Inputs common to every workload.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Dataset example-count scale.
    pub scale: f64,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Longest a measurement window may stretch to reach its op floor.
    pub cap_secs: f64,
    /// Shrinks op floors and fixed epoch counts for a quick check.
    pub smoke: bool,
}

impl Config {
    pub fn new(seed: u64, seconds: f64) -> Self {
        Config {
            seed,
            seconds,
            scale: crate::data::SCALE,
            setups: 5,
            cap_secs: 120.0,
            smoke: false,
        }
    }

    /// A configuration that runs every workload in a few seconds.
    pub fn smoke(seed: u64) -> Self {
        Config { seed, seconds: 0.3, scale: 0.001, setups: 1, cap_secs: 20.0, smoke: true }
    }

    /// The measurement window for a workload whose tail percentile is
    /// `tail_pct`.
    pub fn window(&self, tail_pct: f64) -> Window {
        let min_ops = if self.smoke { 5 } else { crate::stats::samples_needed(tail_pct) };
        Window { seconds: self.seconds, min_ops, cap_secs: self.cap_secs.max(self.seconds) }
    }
}

/// Times `f` `n` times (at least once) and returns the median seconds
/// with the last result.
pub fn repeat_timed<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    let out = last.expect("at least one repeat ran");
    (crate::stats::median(&secs), out)
}

/// Facts about the host that the numbers depend on.
pub fn host_facts(workload_threads: usize) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut lines = vec![
        format!("nproc: {nproc}"),
        format!("avx2_available: {}", sgd_linalg::avx2_available()),
        format!(
            "kernel tier: {:?} (engine runs use RunOptions::default().tier = {:?})",
            sgd_linalg::pool::current_tier(),
            sgd_core::RunOptions::default().tier
        ),
        format!("commit: {}", commit()),
        format!("busy threads in this workload: {workload_threads}"),
    ];
    if workload_threads > nproc {
        lines.push(format!(
            "WARNING: this workload runs {workload_threads} busy threads on {nproc} cores (oversubscribed)"
        ));
    }
    lines
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        o.metric("setup_s", "s", 0.5);
        o.metric("op_p50_ms", "ms", 1.25);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
    }

    #[test]
    fn an_unmeasured_metric_is_not_correct() {
        let mut o = Outcome { attempted: 1, ..Default::default() };
        o.metric("x", "ms", f64::NAN);
        assert!(!o.correct());
        assert!(o.json().contains("\"value\": null"));
    }

    #[test]
    fn window_waits_for_the_op_floor_up_to_the_cap() {
        let w = Window { seconds: 1.0, min_ops: 100, cap_secs: 5.0 };
        assert!(!w.done(0.5, 1000));
        assert!(!w.done(2.0, 99));
        assert!(w.done(2.0, 100));
        assert!(w.done(5.0, 0));
    }
}

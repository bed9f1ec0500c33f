//! Wall-clock benchmark of the repository's three real paths: TCP
//! serving (`sgd-serve`), TCP parameter-server training (`sgd-dist`)
//! and wall-mode engine training (`sgd-core`). See `README.md` beside
//! this package for the workloads, metrics and predictions.

mod data;
mod dist;
pub mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Config, Outcome};
use trace::Tracer;
use train::Corner;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s"), ("final_loss", "nats")];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 38] = [
    "serve.rtt_ms",
    "serve.handler_us",
    "serve.socket_ms",
    "serve.parse_us",
    "serve.registry_us",
    "serve.predict_us",
    "serve.request_bytes",
    "serve.reply_bytes",
    "serve.busy_share",
    "dist.epoch_ms",
    "dist.pull_ms",
    "dist.lease_ms",
    "dist.push_ms",
    "dist.compute_ms",
    "dist.wait_share",
    "dist.accounted_share",
    "dist.calls_per_epoch",
    "dist.bytes_per_epoch",
    "dist.stale_share",
    "dist.inproc_pull_ms",
    "dist.inproc_push_ms",
    "dist.apply_us",
    "dist.modeled_epoch_ms",
    "dist.residual",
    "engine.sync.train_ms",
    "engine.sync.eval_ms",
    "engine.sync.modeled_ratio",
    "engine.hogwild.train_ms",
    "engine.hogwild.eval_ms",
    "engine.hogwild.modeled_ratio",
    "engine.hogwild.coherency_conflicts_per_epoch",
    "linalg.pool_submissions_per_epoch",
    "linalg.gemv_us",
    "linalg.gemv_t_us",
    "linalg.gemv_w1_us",
    "linalg.gemv_t_w1_us",
    "models.loss_ms",
    "trace.overhead_pct",
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRcv1,
    DistRcv1,
    TrainCovtypeSync,
    TrainCovtypeHogwild,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeRcv1,
        Workload::DistRcv1,
        Workload::TrainCovtypeSync,
        Workload::TrainCovtypeHogwild,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRcv1 => "serve-rcv1",
            Workload::DistRcv1 => "dist-rcv1",
            Workload::TrainCovtypeSync => "train-covtype-sync",
            Workload::TrainCovtypeHogwild => "train-covtype-hogwild",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload keeps busy: client and server threads of
    /// the loopback paths, or the engine's pool width.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServeRcv1 => 2 * serve::CLIENTS,
            Workload::DistRcv1 => 2 * dist::WORKERS + 1,
            Workload::TrainCovtypeSync | Workload::TrainCovtypeHogwild => train::THREADS,
        }
    }

    fn corner(self) -> Option<Corner> {
        match self {
            Workload::TrainCovtypeSync => Some(Corner::Sync),
            Workload::TrainCovtypeHogwild => Some(Corner::Hogwild),
            _ => None,
        }
    }
}

/// The untraced run: the end-to-end metrics of one workload.
pub fn end_to_end(w: Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::ServeRcv1 => serve::e2e(cfg, &mut out),
        Workload::DistRcv1 => dist::e2e(cfg, &mut out),
        Workload::TrainCovtypeSync => train::e2e(cfg, Corner::Sync, &mut out),
        Workload::TrainCovtypeHogwild => train::e2e(cfg, Corner::Hogwild, &mut out),
    }
    out
}

/// The traced run: every per-layer metric. The workload's own path runs
/// for the window (a third untraced, then traced, which gives the
/// tracing overhead); the other paths run short traced probes so every
/// layer is reported. Spans go to `spans_path` when given.
pub fn per_layer(w: Workload, cfg: &Config, spans_path: Option<&std::path::Path>) -> Outcome {
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let serve_overhead = match serve::setup(cfg) {
        Ok(s) => serve::layers(&s, cfg, w == Workload::ServeRcv1, &tracer, &mut out),
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.fail(format!("serve set-up failed: {e}"));
            None
        }
    };
    let d = dist::DistSetup::new(cfg);
    let dist_overhead = dist::layers(&d, cfg, w == Workload::DistRcv1, &tracer, &mut out);
    drop(d);
    let t = train::TrainSetup::new(cfg);
    let train_overhead = train::layers(&t, cfg, w.corner(), &tracer, &mut out);
    // Exactly one path is the run's own workload and measures it.
    let overhead = serve_overhead.or(dist_overhead).or(train_overhead);
    out.metric("trace.overhead_pct", "%", overhead.unwrap_or(f64::NAN));
    let spans = tracer.spans();
    for (name, (n, total, self_ns)) in trace::summarize(&spans) {
        out.note(format!(
            "span {name:<16} n={n:<7} total={:>10.3} ms self={:>10.3} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    if let Some(path) = spans_path {
        match tracer.write_jsonl(path) {
            Ok(n) => out.note(format!("wrote {n} spans to {}", path.display())),
            Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    out
}

//! `train-covtype-sync` and `train-covtype-hogwild`: `Engine::run`
//! under `Timing::Wall` with 2 threads, LR on the dense covtype batch.
//!
//! Each run repeats a fixed number of epochs of one corner (`CpuPar`
//! sync, or `CpuPar` Hogwild) until the window closes. Op = one epoch,
//! timed by the benchmark from the engine's per-epoch observer callback,
//! so it includes the loss evaluation users wait for. An epoch fails on
//! a non-finite loss, divergence or an `EngineError`; a sync run also
//! fails when its final loss is not bitwise the first run's, a Hogwild
//! run when its final loss is not below the initial one.

use std::hint::black_box;
use std::time::Instant;

use sgd_core::{
    Configuration, CpuModelConfig, DeviceKind, Engine, EpochMetrics, EpochObserver, RunOptions,
    RunReport, Strategy, Timing,
};
use sgd_datagen::Dataset;
use sgd_linalg::pool::{self, PoolStats};
use sgd_linalg::{CpuExec, Exec, Matrix};
use sgd_models::{lr, Batch, Examples, LinearTask, LogisticLoss, Task};

use crate::report::{repeat_timed, Config, Outcome, Window};
use crate::stats::{below, median};
use crate::trace::Tracer;

/// Pool width of both corners: the host's two cores.
pub const THREADS: usize = 2;
/// Tail percentile printed for the epoch time.
pub const TAIL_PCT: f64 = 99.0;

/// One of the two CPU corners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corner {
    Sync,
    Hogwild,
}

impl Corner {
    pub fn label(self) -> &'static str {
        match self {
            Corner::Sync => "sync",
            Corner::Hogwild => "hogwild",
        }
    }

    fn strategy(self) -> Strategy {
        match self {
            Corner::Sync => Strategy::Sync,
            Corner::Hogwild => Strategy::Hogwild,
        }
    }

    /// Epochs per run and step size: full-batch gradient descent takes
    /// large steps, per-example Hogwild small ones.
    fn plan(self) -> (usize, f64) {
        match self {
            Corner::Sync => (50, 2.0),
            Corner::Hogwild => (10, 0.05),
        }
    }

    fn configuration(self, timing: Timing) -> Configuration {
        Configuration::new(DeviceKind::CpuPar, self.strategy()).with_timing(timing)
    }
}

pub struct TrainSetup {
    pub ds: Dataset,
    pub dense: Matrix,
    pub task: LinearTask<LogisticLoss>,
}

impl TrainSetup {
    pub fn new(cfg: &Config) -> Self {
        let (ds, dense) = crate::data::covtype(cfg.scale);
        let task = lr(ds.d());
        TrainSetup { ds, dense, task }
    }

    pub fn batch(&self) -> Batch<'_> {
        Batch::new(Examples::Dense(&self.dense), &self.ds.y)
    }
}

fn options(epochs: usize, seed: u64) -> RunOptions {
    RunOptions {
        max_epochs: epochs,
        max_secs: 120.0,
        plateau: None,
        threads: THREADS,
        seed,
        ..Default::default()
    }
}

/// Timestamps every completed epoch.
struct Stamps(Vec<Instant>);

impl EpochObserver for Stamps {
    fn on_epoch(&mut self, _m: &EpochMetrics) {
        self.0.push(Instant::now());
    }
}

/// What repeated runs of one corner measured.
#[derive(Debug, Default)]
struct Runs {
    /// Wall time of every epoch, milliseconds.
    epoch_ms: Vec<f64>,
    /// Per run: wall per epoch, report (training only) wall per epoch,
    /// pool submissions per epoch, coherency conflicts per epoch.
    wall_per_epoch_ms: Vec<f64>,
    train_per_epoch_ms: Vec<f64>,
    submissions_per_epoch: Vec<f64>,
    conflicts_per_epoch: Vec<f64>,
    /// Per run: epochs per wall second, the run's set-up included.
    epochs_per_s: Vec<f64>,
    finals: Vec<f64>,
    wall_secs: f64,
}

/// Runs `corner` repeatedly until `window` closes (at least `min_runs`
/// runs); with a tracer, every run and epoch is a span.
fn runs(
    s: &TrainSetup,
    cfg: &Config,
    corner: Corner,
    window: Window,
    min_runs: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Runs {
    let (epochs, alpha) = corner.plan();
    let epochs = if cfg.smoke { 3 } else { epochs };
    let batch = s.batch();
    let config = corner.configuration(Timing::Wall);
    let opts = options(epochs, cfg.seed);
    let mut local = tracer.map(Tracer::local);
    let mut r = Runs::default();
    let start = Instant::now();
    let mut first_final: Option<f64> = None;
    while r.finals.len() < min_runs || !window.done(start.elapsed().as_secs_f64(), r.epoch_ms.len())
    {
        out.attempted += epochs as u64;
        let stats = PoolStats::new();
        let mut stamps = Stamps(Vec::with_capacity(epochs));
        let run_no = r.finals.len() as u64;
        let span = local.as_mut().map(|l| l.open("engine.run", None, run_no));
        let t0 = Instant::now();
        let result = pool::with_stats(&stats, || {
            Engine::try_run_observed(&config, &s.task, &batch, alpha, &opts, &mut stamps)
        });
        let wall = t0.elapsed().as_secs_f64();
        if let (Some(l), Some(span)) = (local.as_mut(), span) {
            let mut prev = t0;
            for (e, &t) in stamps.0.iter().enumerate() {
                l.record("engine.epoch", Some(span.id()), e as u64, prev, t);
                prev = t;
            }
            l.close(span);
        }
        let rep = match result {
            Ok(rep) => rep,
            Err(e) => {
                out.failed += epochs as u64;
                out.fail(format!("{} run: {e}", corner.label()));
                break;
            }
        };
        let mut prev = t0;
        for &t in &stamps.0 {
            r.epoch_ms.push(t.duration_since(prev).as_secs_f64() * 1e3);
            prev = t;
        }
        let done = rep.trace.epochs().max(1) as f64;
        r.wall_per_epoch_ms.push(wall / done * 1e3);
        r.epochs_per_s.push(done / wall);
        r.train_per_epoch_ms.push(rep.opt_seconds / done * 1e3);
        r.submissions_per_epoch.push(stats.submissions() as f64 / done);
        r.conflicts_per_epoch.push(rep.metrics.total_coherency_conflicts() / done);
        let last = final_loss(&rep);
        if let Some(problem) = check(corner, &rep, epochs, *first_final.get_or_insert(last)) {
            out.failed += epochs as u64;
            out.fail(format!("{} run {run_no}: {problem}", corner.label()));
        }
        r.finals.push(last);
    }
    r.wall_secs = start.elapsed().as_secs_f64();
    r
}

fn final_loss(rep: &RunReport) -> f64 {
    rep.trace.points().last().map_or(f64::NAN, |p| p.1)
}

/// The correctness check of one run, `None` when it passed.
fn check(corner: Corner, rep: &RunReport, epochs: usize, first_final: f64) -> Option<String> {
    let initial = rep.trace.points().first().map_or(f64::NAN, |p| p.1);
    let last = final_loss(rep);
    if rep.trace.epochs() != epochs || rep.diverged() || !last.is_finite() {
        return Some(format!(
            "{} after {} epochs, loss {last}",
            rep.outcome.label(),
            rep.trace.epochs()
        ));
    }
    match corner {
        Corner::Sync if last.to_bits() != first_final.to_bits() => {
            Some(format!("final loss {last:e} is not bitwise the first run's {first_final:e}"))
        }
        Corner::Hogwild if !below(last, initial) => {
            Some(format!("loss {last} is not below initial {initial}"))
        }
        _ => None,
    }
}

/// The untraced run of one corner.
pub fn e2e(cfg: &Config, corner: Corner, out: &mut Outcome) {
    let (setup_s, s) = repeat_timed(cfg.setups, || TrainSetup::new(cfg));
    let r = runs(&s, cfg, corner, cfg.window(TAIL_PCT), 1, None, out);
    out.note(format!(
        "train-covtype-{}: {} epochs in {} runs over {:.1} s at {THREADS} threads",
        corner.label(),
        r.epoch_ms.len(),
        r.finals.len(),
        r.wall_secs,
    ));
    out.note(format!("op ms: {}", crate::stats::describe(&r.epoch_ms)));
    out.note(crate::stats::tail(&r.epoch_ms, TAIL_PCT));
    out.metric("setup_s", "s", setup_s);
    out.metric("op_p50_ms", "ms", median(&r.epoch_ms));
    out.metric("ops_per_s", "1/s", median(&r.epochs_per_s));
    out.metric("final_loss", "nats", median(&r.finals));
}

/// The traced run's engine, linalg and models layers. `primary` is the
/// corner that is this run's workload, if any: it first runs untraced
/// for a third of the window, then traced for the rest, and the
/// overhead in percent is returned. Other corners run a short traced
/// probe.
pub fn layers(
    s: &TrainSetup,
    cfg: &Config,
    primary: Option<Corner>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Option<f64> {
    let mut overhead = None;
    let mut sync_submissions = f64::NAN;
    for corner in [Corner::Sync, Corner::Hogwild] {
        let traced = if primary == Some(corner) {
            let w = Window { seconds: cfg.seconds / 3.0, min_ops: 1, cap_secs: cfg.cap_secs };
            let plain = runs(s, cfg, corner, w, 1, None, out);
            let w = Window { seconds: cfg.seconds * 2.0 / 3.0, min_ops: 1, cap_secs: cfg.cap_secs };
            let traced = runs(s, cfg, corner, w, 1, Some(tracer), out);
            overhead = Some((median(&traced.epoch_ms) / median(&plain.epoch_ms) - 1.0) * 100.0);
            traced
        } else {
            let w = Window { seconds: 0.0, min_ops: 0, cap_secs: cfg.cap_secs };
            runs(s, cfg, corner, w, 3, Some(tracer), out)
        };
        let train = median(&traced.train_per_epoch_ms);
        let eval = median(&traced.wall_per_epoch_ms) - train;
        // The same corner under the CPU model of the paper's machine.
        let (epochs, alpha) = corner.plan();
        let modeled_cfg =
            corner.configuration(Timing::Modeled(CpuModelConfig::paper_machine(THREADS)));
        let modeled = Engine::try_run(
            &modeled_cfg,
            &s.task,
            &s.batch(),
            alpha,
            &options(epochs.min(5), cfg.seed),
        )
        .map(|rep| rep.time_per_epoch() * 1e3);
        let modeled_ms = match modeled {
            Ok(ms) => ms,
            Err(e) => {
                out.fail(format!("modeled {} run: {e}", corner.label()));
                f64::NAN
            }
        };
        let (train_name, eval_name, ratio_name) = match corner {
            Corner::Sync => {
                ("engine.sync.train_ms", "engine.sync.eval_ms", "engine.sync.modeled_ratio")
            }
            Corner::Hogwild => (
                "engine.hogwild.train_ms",
                "engine.hogwild.eval_ms",
                "engine.hogwild.modeled_ratio",
            ),
        };
        out.metric(train_name, "ms", train);
        out.metric(eval_name, "ms", eval);
        out.metric(ratio_name, "ratio", train / modeled_ms);
        match corner {
            Corner::Sync => sync_submissions = median(&traced.submissions_per_epoch),
            Corner::Hogwild => out.metric(
                "engine.hogwild.coherency_conflicts_per_epoch",
                "count",
                median(&traced.conflicts_per_epoch),
            ),
        }
        out.note(format!(
            "engine {}: {} traced epochs; train {train:.4} + eval {eval:.4} ms/epoch; modeled {modeled_ms:.4} ms/epoch",
            corner.label(),
            traced.epoch_ms.len()
        ));
    }
    out.metric("linalg.pool_submissions_per_epoch", "count", sync_submissions);

    // The kernels of a sync epoch on the covtype matrix, at the pool
    // width the engine uses and at width 1 for reference.
    let a = &s.dense;
    let iters = if cfg.smoke { 5 } else { 400 };
    let x_cols = vec![1.0 / a.cols() as f64; a.cols()];
    let x_rows = vec![1.0 / a.rows() as f64; a.rows()];
    let (mut y_rows, mut y_cols) = (vec![0.0; a.rows()], vec![0.0; a.cols()]);
    let mut e = CpuExec::par();
    for (width, gemv_name, gemv_t_name) in [
        (THREADS, "linalg.gemv_us", "linalg.gemv_t_us"),
        (1, "linalg.gemv_w1_us", "linalg.gemv_t_w1_us"),
    ] {
        pool::with_threads(width, || {
            let (gemv, _) = repeat_timed(iters, || {
                e.gemv(a, black_box(&x_cols), &mut y_rows);
                black_box(&mut y_rows);
            });
            let (gemv_t, _) = repeat_timed(iters, || {
                e.gemv_t(a, black_box(&x_rows), &mut y_cols);
                black_box(&mut y_cols);
            });
            out.metric(gemv_name, "us", gemv * 1e6);
            out.metric(gemv_t_name, "us", gemv_t * 1e6);
        });
    }
    let batch = s.batch();
    let w = s.task.init_model();
    let (loss, _) = pool::with_threads(THREADS, || {
        repeat_timed(iters / 4 + 1, || black_box(s.task.loss(&mut e, &batch, black_box(&w))))
    });
    out.metric("models.loss_ms", "ms", loss * 1e3);
    overhead
}

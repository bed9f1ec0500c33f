//! Hogbatch: asynchronous mini-batch SGD over a shared model.
//!
//! The paper executes asynchronous MLP training as Hogbatch (after
//! Sallinen et al., IPDPS 2016): worker threads pull mini-batches, compute
//! the batch gradient against a (possibly stale) snapshot of the shared
//! model, and apply the update without locks. With one thread this is
//! plain sequential mini-batch SGD — the paper's `cpu-seq` asynchronous
//! MLP baseline.

use std::time::Instant;

use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{FaultCounters, FaultTally};
use crate::metrics::{EpochMetrics, EpochObserver, Recorder};
use crate::report::RunReport;
use crate::shared_model::SharedModel;
use crate::supervisor::Supervisor;

/// Splits `full` (dense examples required for MLP) into owned mini-batch
/// matrices of `batch_size` rows. Returns `(matrices, label_slices)` to
/// borrow `Batch`es from.
pub(crate) fn make_batches(
    x: &sgd_linalg::Matrix,
    y: &[Scalar],
    batch_size: usize,
) -> Vec<(sgd_linalg::Matrix, Vec<Scalar>)> {
    assert!(batch_size > 0, "batch size must be positive");
    let n = x.rows();
    let mut out = Vec::with_capacity(n.div_ceil(batch_size));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + batch_size).min(n);
        out.push((x.row_range(lo, hi), y[lo..hi].to_vec()));
        lo = hi;
    }
    out
}

/// Runs Hogbatch with `threads` workers over the given mini-batches.
/// `full` is the whole dataset, used only for (untimed) loss evaluation.
pub(crate) fn hogbatch_observed<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    threads: usize,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    assert!(!batches.is_empty(), "at least one mini-batch required");
    let threads = threads.max(1);
    // Pin the ambient kernel width to the worker count for the whole run
    // (inherited by the pooled workers and the untimed loss evaluations).
    crate::pool::with_threads(threads, || {
        hogbatch_run(task, full, batches, threads, alpha, opts, obs)
    })
}

fn hogbatch_run<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    threads: usize,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let device = if threads == 1 { DeviceKind::CpuSeq } else { DeviceKind::CpuPar };
    let dim = task.dim();
    let model = SharedModel::from_slice(&task.init_model());
    // Concurrent workers read round-stale snapshots; with one worker every
    // snapshot is fresh.
    let staleness_rounds = if threads > 1 { batches.len().div_ceil(threads) as u64 } else { 0 };

    let mut eval = CpuExec::par();
    let mut trace = LossTrace::new();
    let mut snapshot = vec![0.0; dim];
    model.snapshot_into(&mut snapshot);
    let initial_loss = task.loss(&mut eval, full, &snapshot);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let tally = FaultTally::new();

    let mut opt_seconds = 0.0;
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        let t0 = Instant::now();
        match faults {
            None => {
                crate::pool::run_workers(threads, |t| {
                    let mut e = CpuExec::seq();
                    let mut w = vec![0.0; dim];
                    let mut g = vec![0.0; dim];
                    let mut b = t;
                    while b < batches.len() {
                        // Stale snapshot, gradient, lock-free scatter.
                        model.snapshot_into(&mut w);
                        task.gradient(&mut e, &batches[b], &w, &mut g);
                        for (j, &gj) in g.iter().enumerate() {
                            if gj != 0.0 {
                                model.add(j, -alpha * gj);
                            }
                        }
                        b += threads;
                    }
                });
            }
            Some(plan) => {
                // `snapshot` still holds the epoch-start model (refreshed
                // only after the epoch): the stale-read target. Death
                // decisions key on the worker index, so they are taken
                // here before dispatch; a dead worker's batches are
                // skipped and the rest carry on.
                let mut alive: Vec<usize> = Vec::with_capacity(threads);
                for t in 0..threads {
                    if plan.worker_dead(t, epoch) {
                        fc.dead_workers += 1;
                    } else {
                        alive.push(t);
                    }
                }
                crate::pool::run_workers(alive.len(), |i| {
                    let t = alive[i];
                    let mut e = CpuExec::seq();
                    let mut w = vec![0.0; dim];
                    let mut g = vec![0.0; dim];
                    let (mut dropped, mut stale_n, mut corrupted) = (0u64, 0u64, 0u64);
                    let mut b = t;
                    while b < batches.len() {
                        model.snapshot_into(&mut w);
                        let stale = plan.stale_read(epoch, b);
                        let read: &[Scalar] = if stale {
                            stale_n += 1;
                            &snapshot
                        } else {
                            &w
                        };
                        task.gradient(&mut e, &batches[b], read, &mut g);
                        let mut a = alpha;
                        if let Some(f) = plan.corrupt_factor(epoch, b) {
                            a *= f;
                            corrupted += 1;
                        }
                        if plan.drops_update(epoch, b) {
                            dropped += 1;
                        } else {
                            for (j, &gj) in g.iter().enumerate() {
                                if gj != 0.0 {
                                    model.add(j, -a * gj);
                                }
                            }
                        }
                        b += threads;
                    }
                    tally.add(dropped, stale_n, corrupted);
                });
            }
        }
        let mut epoch_secs = t0.elapsed().as_secs_f64();
        if let Some(plan) = faults {
            tally.drain_into(&mut fc);
            let dil = plan.async_dilation(threads);
            fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
            epoch_secs *= dil;
        }
        opt_seconds += epoch_secs;

        model.snapshot_into(&mut snapshot);
        let loss = task.loss(&mut eval, full, &snapshot); // untimed
        trace.push(opt_seconds, loss);
        rec.record(EpochMetrics {
            staleness_rounds,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, opt_seconds, loss)
        });
        if sup.observe(epoch + 1, opt_seconds, loss, &snapshot, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: format!("{} async {} (hogbatch)", task.name(), device.label()),
        device,
        step_size: alpha,
        trace,
        opt_seconds,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NullObserver;
    use sgd_linalg::Matrix;
    use sgd_models::{Examples, MlpTask};

    fn toy() -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(96, 6, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 5 + j) % 4) as Scalar + 1.0) / 4.0
        });
        let y: Vec<Scalar> = (0..96).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    #[test]
    fn make_batches_covers_all_rows() {
        let (x, y) = toy();
        let batches = make_batches(&x, &y, 40);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0.rows(), 40);
        assert_eq!(batches[2].0.rows(), 16);
        let total: usize = batches.iter().map(|(m, _)| m.rows()).sum();
        assert_eq!(total, 96);
        assert_eq!(batches[1].1.len(), 40);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let (x, y) = toy();
        let _ = make_batches(&x, &y, 0);
    }

    #[test]
    fn sequential_hogbatch_trains_mlp() {
        let (x, y) = toy();
        let task = MlpTask::new(vec![6, 5, 2], 3);
        let owned = make_batches(&x, &y, 16);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 120, ..Default::default() };
        let rep = hogbatch_observed(&task, &full, &batches, 1, 2.0, &opts, &mut NullObserver);
        assert_eq!(rep.device, DeviceKind::CpuSeq);
        let start = rep.trace.points()[0].1;
        assert!(rep.best_loss() < start * 0.6, "loss {} -> {}", start, rep.best_loss());
    }

    #[test]
    fn parallel_hogbatch_trains_mlp() {
        let (x, y) = toy();
        let task = MlpTask::new(vec![6, 5, 2], 3);
        let owned = make_batches(&x, &y, 8);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 120, ..Default::default() };
        let rep = hogbatch_observed(&task, &full, &batches, 4, 2.0, &opts, &mut NullObserver);
        assert_eq!(rep.device, DeviceKind::CpuPar);
        let start = rep.trace.points()[0].1;
        assert!(rep.best_loss() < start * 0.7, "loss {} -> {}", start, rep.best_loss());
    }

    #[test]
    fn works_for_linear_tasks_too() {
        let (x, y) = toy();
        let task = sgd_models::lr(6);
        let owned = make_batches(&x, &y, 12);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 60, ..Default::default() };
        let rep = hogbatch_observed(&task, &full, &batches, 2, 1.0, &opts, &mut NullObserver);
        assert!(rep.best_loss() < 0.3, "loss {}", rep.best_loss());
    }
}

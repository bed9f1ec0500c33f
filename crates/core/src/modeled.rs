//! Runners that report *modeled* CPU time (see `sgd-cpusim`).
//!
//! Functional results are computed exactly (and deterministically); the
//! reported seconds come from the performance model of the paper's
//! dual-socket Xeon instead of the host's wall clock, so the paper's
//! parallel-CPU findings reproduce even on small or single-core hosts.
//!
//! For the asynchronous runners the *statistical* effect of concurrency is
//! simulated with bounded staleness: examples (or mini-batches) are
//! processed in rounds of `threads`, every member of a round reading the
//! model as it stood when the round began — the standard analytical
//! approximation of Hogwild's delayed reads. With one thread this is
//! exactly sequential execution.

use sgd_cpusim::{CpuModelExec, CpuSpec, HogwildCost};
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{Batch, Examples, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{sync_epoch_faults, FaultCounters, FaultPlan, SyncFaultDecision};
use crate::hogwild::shuffled_order;
use crate::metrics::{EpochMetrics, EpochObserver, Recorder};
use crate::report::RunReport;
use crate::supervisor::Supervisor;

/// Which machine the CPU model describes and how many threads to model.
#[derive(Clone, Debug)]
pub struct CpuModelConfig {
    /// The modeled machine.
    pub spec: CpuSpec,
    /// Modeled thread count (1 = the paper's `cpu-seq` column).
    pub threads: usize,
    /// ViennaCL's GEMM result-size threshold (0 disables it — the Fig. 6
    /// ablation and the TensorFlow/Eigen comparator).
    pub gemm_parallel_threshold: usize,
}

impl CpuModelConfig {
    /// The paper's machine at `threads` threads with ViennaCL behaviour.
    pub fn paper_machine(threads: usize) -> Self {
        CpuModelConfig {
            spec: CpuSpec::xeon_e5_2660_v4_dual(),
            threads: threads.max(1),
            gemm_parallel_threshold: sgd_linalg::DEFAULT_GEMM_PARALLEL_THRESHOLD,
        }
    }

    /// Device label for reports.
    pub fn device(&self) -> DeviceKind {
        if self.threads == 1 {
            DeviceKind::CpuSeq
        } else {
            DeviceKind::CpuPar
        }
    }

    fn exec(&self) -> CpuModelExec {
        let mut e = CpuModelExec::new(self.spec.clone(), self.threads);
        e.gemm_parallel_threshold = self.gemm_parallel_threshold;
        e
    }
}

/// Synchronous (batch) gradient descent with modeled CPU time.
pub(crate) fn sync_modeled_observed<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let mut e = mc.exec();
    let mut eval = CpuExec::seq();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    // Last applied gradient, kept for stale-gradient-replay faults.
    let mut prev_g = vec![0.0; task.dim()];
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let workers = mc.threads.max(1);
    // Straggler stalls charged on top of the cost model's own clock.
    let mut extra = 0.0;
    let mut model_secs_at_epoch_start = 0.0;
    for epoch in 0..opts.max_epochs {
        if let Some(plan) = faults {
            if plan.barrier_stalled(workers, epoch) {
                sup.abort(epoch + 1);
                break;
            }
        }
        let mut fc = FaultCounters::default();
        task.gradient(&mut e, batch, &w, &mut g);
        let d = match faults {
            Some(plan) => sync_epoch_faults(plan, epoch, &mut fc),
            None => SyncFaultDecision::none(),
        };
        if !d.dropped {
            let step = if d.stale { &prev_g } else { &g };
            e.axpy(-alpha * d.alpha_factor, step, &mut w);
        }
        if !d.stale {
            std::mem::swap(&mut g, &mut prev_g);
        }
        if let Some(plan) = faults {
            // The modeled barrier waits for the slowest straggler.
            let dil = plan.sync_dilation(workers);
            fc.straggler_delay_secs = (e.elapsed_secs() - model_secs_at_epoch_start) * (dil - 1.0);
            extra += fc.straggler_delay_secs;
        }
        model_secs_at_epoch_start = e.elapsed_secs();
        let elapsed = e.elapsed_secs() + extra;
        let loss = task.loss(&mut eval, batch, &w); // untimed
        trace.push(elapsed, loss);
        rec.record(EpochMetrics { faults: fc, ..EpochMetrics::new(epoch + 1, elapsed, loss) });
        if sup.observe(epoch + 1, elapsed, loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: format!("{} sync {} (modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
        trace,
        opt_seconds: e.elapsed_secs() + extra,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

/// One bounded-staleness epoch for a linear task: rounds of `round`
/// examples read the pre-round model, updates apply additively at round
/// end. `round == 1` is exactly sequential incremental SGD.
pub(crate) fn staleness_epoch<L: PointwiseLoss + ?Sized>(
    loss: &L,
    batch: &Batch<'_>,
    w: &mut [Scalar],
    alpha: f64,
    order: &[u32],
    round: usize,
) {
    let round = round.max(1);
    let mut pending: Vec<(u32, Scalar)> = Vec::with_capacity(round * 8);
    for chunk in order.chunks(round) {
        pending.clear();
        for &i in chunk {
            let i = i as usize;
            match batch.x {
                Examples::Sparse(m) => {
                    let row = m.row(i);
                    let margin: Scalar =
                        row.cols.iter().zip(row.vals).map(|(&c, &v)| v * w[c as usize]).sum();
                    let s = loss.dloss_at(margin, batch.y[i]);
                    if s != 0.0 {
                        let step = -alpha * s;
                        if round == 1 {
                            for (&c, &v) in row.cols.iter().zip(row.vals) {
                                w[c as usize] += step * v;
                            }
                        } else {
                            pending.extend(
                                row.cols.iter().zip(row.vals).map(|(&c, &v)| (c, step * v)),
                            );
                        }
                    }
                }
                Examples::Dense(m) => {
                    let row = m.row(i);
                    let margin: Scalar = row.iter().zip(w.iter()).map(|(&v, &wj)| v * wj).sum();
                    let s = loss.dloss_at(margin, batch.y[i]);
                    if s != 0.0 {
                        let step = -alpha * s;
                        if round == 1 {
                            for (j, &v) in row.iter().enumerate() {
                                w[j] += step * v;
                            }
                        } else {
                            pending
                                .extend(row.iter().enumerate().map(|(j, &v)| (j as u32, step * v)));
                        }
                    }
                }
            }
        }
        for &(c, d) in &pending {
            w[c as usize] += d;
        }
    }
}

/// [`staleness_epoch`] with per-example fault injection. Each lane of a
/// round is one modeled worker: a dead lane's examples are skipped, stale
/// reads come from the epoch-start model, corrupted steps are scaled, and
/// dropped updates never land. Decisions hash on the example index, so the
/// schedule is independent of the round size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn staleness_epoch_faulty<L: PointwiseLoss + ?Sized>(
    loss: &L,
    batch: &Batch<'_>,
    w: &mut [Scalar],
    alpha: f64,
    order: &[u32],
    round: usize,
    plan: &FaultPlan,
    epoch: usize,
    epoch_start: &[Scalar],
    fc: &mut FaultCounters,
) {
    let round = round.max(1);
    let mut pending: Vec<(u32, Scalar)> = Vec::with_capacity(round * 8);
    for chunk in order.chunks(round) {
        pending.clear();
        for (lane, &i) in chunk.iter().enumerate() {
            if plan.worker_dead(lane, epoch) {
                continue;
            }
            let i = i as usize;
            let stale = plan.stale_read(epoch, i);
            if stale {
                fc.stale_reads += 1;
            }
            let s = match batch.x {
                Examples::Sparse(m) => {
                    let row = m.row(i);
                    let read = if stale { epoch_start } else { &*w };
                    let margin: Scalar =
                        row.cols.iter().zip(row.vals).map(|(&c, &v)| v * read[c as usize]).sum();
                    loss.dloss_at(margin, batch.y[i])
                }
                Examples::Dense(m) => {
                    let row = m.row(i);
                    let read = if stale { epoch_start } else { &*w };
                    let margin: Scalar = row.iter().zip(read.iter()).map(|(&v, &wj)| v * wj).sum();
                    loss.dloss_at(margin, batch.y[i])
                }
            };
            if s == 0.0 {
                continue;
            }
            let mut step = -alpha * s;
            if let Some(f) = plan.corrupt_factor(epoch, i) {
                step *= f;
                fc.corrupted_updates += 1;
            }
            if plan.drops_update(epoch, i) {
                fc.dropped_updates += 1;
                continue;
            }
            match batch.x {
                Examples::Sparse(m) => {
                    let row = m.row(i);
                    if round == 1 {
                        for (&c, &v) in row.cols.iter().zip(row.vals) {
                            w[c as usize] += step * v;
                        }
                    } else {
                        pending.extend(row.cols.iter().zip(row.vals).map(|(&c, &v)| (c, step * v)));
                    }
                }
                Examples::Dense(m) => {
                    let row = m.row(i);
                    if round == 1 {
                        for (j, &v) in row.iter().enumerate() {
                            w[j] += step * v;
                        }
                    } else {
                        pending.extend(row.iter().enumerate().map(|(j, &v)| (j as u32, step * v)));
                    }
                }
            }
        }
        for &(c, d) in &pending {
            w[c as usize] += d;
        }
    }
}

/// Batch shape statistics the Hogwild cost model needs.
pub(crate) fn batch_stats(batch: &Batch<'_>) -> (usize, f64, usize, usize) {
    match batch.x {
        Examples::Sparse(m) => {
            let (_, avg, _) = m.nnz_per_row_stats();
            (m.rows(), avg, m.cols(), m.sparse_size_bytes())
        }
        Examples::Dense(m) => (m.rows(), m.cols() as f64, m.cols(), 8 * m.len()),
    }
}

/// Hogwild for a linear task with modeled time and bounded-staleness
/// statistics.
pub(crate) fn hogwild_modeled_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let (n, avg_nnz, dim, data_bytes) = batch_stats(batch);
    let cost = HogwildCost { spec: mc.spec.clone(), threads: mc.threads };
    let epoch_secs = cost.epoch_secs(n, avg_nnz, dim, data_bytes);
    // Expected cross-core invalidations per epoch under the cost model —
    // the same quantity its coherency time term charges for.
    let coherency_per_epoch = n as f64 * avg_nnz * cost.conflict_rate(avg_nnz, dim);
    let staleness_rounds = if mc.threads > 1 { n.div_ceil(mc.threads) as u64 } else { 0 };

    let order = shuffled_order(n, opts.seed);
    let mut w = task.init_model();
    let mut eval = CpuExec::seq();
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let mut epoch_start: Vec<Scalar> = Vec::new();
    let mut elapsed = 0.0;
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        let mut secs = epoch_secs;
        match faults {
            None => staleness_epoch(loss_fn, batch, &mut w, alpha, &order, mc.threads),
            Some(plan) => {
                if epoch_start.len() == w.len() {
                    epoch_start.copy_from_slice(&w);
                } else {
                    epoch_start = w.clone();
                }
                if plan.has_dead_worker(mc.threads, epoch) {
                    fc.dead_workers = 1;
                }
                staleness_epoch_faulty(
                    loss_fn,
                    batch,
                    &mut w,
                    alpha,
                    &order,
                    mc.threads,
                    plan,
                    epoch,
                    &epoch_start,
                    &mut fc,
                );
                // Independent modeled workers absorb the straggler.
                let dil = plan.async_dilation(mc.threads);
                fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
                secs = epoch_secs * dil;
            }
        }
        elapsed += secs;
        let loss = task.loss(&mut eval, batch, &w);
        trace.push(elapsed, loss);
        rec.record(EpochMetrics {
            staleness_rounds,
            coherency_conflicts: coherency_per_epoch,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, elapsed, loss)
        });
        if sup.observe(epoch + 1, elapsed, loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: format!("{} async {} (modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
        trace,
        opt_seconds: elapsed,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

/// Hogbatch with modeled time: workers compute mini-batch gradients
/// against round-stale snapshots; timing is one batch's modeled
/// single-thread cost scaled by the batch count over the effective cores,
/// plus the coherency cost of the concurrent dense model updates.
pub(crate) fn hogbatch_modeled_observed<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    mc: &CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    assert!(!batches.is_empty(), "at least one mini-batch required");
    let dim = task.dim();
    let mut w = task.init_model();
    let mut eval = CpuExec::seq();

    // Modeled cost of one epoch: per-batch gradient on one core, batches
    // spread over the machine, coherency from the dense updates.
    let mut probe = CpuModelExec::new(mc.spec.clone(), 1);
    let mut g = vec![0.0; dim];
    task.gradient(&mut probe, &batches[0], &w, &mut g);
    probe.axpy(-alpha, &g, &mut w);
    let batch_cost = probe.elapsed_secs();
    // Re-initialize: the probe step above must not perturb the trajectory.
    w = task.init_model();
    let (coherency, coherency_per_epoch) = if mc.threads > 1 {
        // Each batch update writes the whole (dense) model once, but the
        // write phase is only a small fraction of a batch's duration, so
        // the probability that another worker writes concurrently is the
        // write duty cycle times the number of other workers.
        let write_secs = dim as f64 * 1e-9;
        let duty = (write_secs / batch_cost.max(1e-12)).min(1.0);
        let rate = ((mc.threads - 1) as f64 * duty).min(1.0);
        let pipelines = (dim as f64 * 8.0 / mc.spec.cacheline as f64).sqrt().max(1.0);
        // Expected conflicting model-cacheline writes per epoch, and the
        // time they cost once invalidation latency is spread over the
        // memory pipelines.
        let conflicts = batches.len() as f64 * dim as f64 * rate;
        (conflicts * mc.spec.coherency_inval_ns * 1e-9 / pipelines, conflicts)
    } else {
        (0.0, 0.0)
    };
    let staleness_rounds =
        if mc.threads > 1 { batches.len().div_ceil(mc.threads) as u64 } else { 0 };
    // Scale by total rows rather than batch count so a smaller trailing
    // batch is not charged as a full one.
    let total_rows: usize = batches.iter().map(|b| b.n()).sum();
    let equivalent_batches = total_rows as f64 / batches[0].n().max(1) as f64;
    let epoch_secs = (batch_cost * equivalent_batches / mc.spec.effective_cores(mc.threads))
        .max(coherency)
        + if mc.threads > 1 { mc.spec.fork_join_secs } else { 0.0 };

    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, full, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let workers = mc.threads.max(1);
    let mut epoch_start: Vec<Scalar> = Vec::new();
    let mut elapsed = 0.0;
    let mut cpu = CpuExec::seq();
    let mut snapshot = vec![0.0; dim];
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        let mut secs = epoch_secs;
        match faults {
            None => {
                // Rounds of `threads` batches share a stale snapshot.
                for group in batches.chunks(workers) {
                    snapshot.copy_from_slice(&w);
                    for b in group {
                        task.gradient(&mut cpu, b, &snapshot, &mut g);
                        for (wj, &gj) in w.iter_mut().zip(&g) {
                            *wj -= alpha * gj;
                        }
                    }
                }
            }
            Some(plan) => {
                if epoch_start.len() == w.len() {
                    epoch_start.copy_from_slice(&w);
                } else {
                    epoch_start = w.clone();
                }
                if plan.has_dead_worker(workers, epoch) {
                    fc.dead_workers = 1;
                }
                // Lane index within a round = modeled worker id; fault
                // decisions hash on the global batch index.
                let mut idx = 0usize;
                for group in batches.chunks(workers) {
                    snapshot.copy_from_slice(&w);
                    for (lane, b) in group.iter().enumerate() {
                        let bi = idx;
                        idx += 1;
                        if plan.worker_dead(lane, epoch) {
                            continue;
                        }
                        let stale = plan.stale_read(epoch, bi);
                        if stale {
                            fc.stale_reads += 1;
                        }
                        let read: &[Scalar] = if stale { &epoch_start } else { &snapshot };
                        task.gradient(&mut cpu, b, read, &mut g);
                        let mut a = alpha;
                        if let Some(f) = plan.corrupt_factor(epoch, bi) {
                            a *= f;
                            fc.corrupted_updates += 1;
                        }
                        if plan.drops_update(epoch, bi) {
                            fc.dropped_updates += 1;
                            continue;
                        }
                        for (wj, &gj) in w.iter_mut().zip(&g) {
                            *wj -= a * gj;
                        }
                    }
                }
                let dil = plan.async_dilation(workers);
                fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
                secs = epoch_secs * dil;
            }
        }
        elapsed += secs;
        let loss = task.loss(&mut eval, full, &w);
        trace.push(elapsed, loss);
        rec.record(EpochMetrics {
            staleness_rounds,
            coherency_conflicts: coherency_per_epoch,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, elapsed, loss)
        });
        if sup.observe(epoch + 1, elapsed, loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: format!("{} async {} (hogbatch, modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
        trace,
        opt_seconds: elapsed,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogwild::hogwild_observed;
    use crate::metrics::NullObserver;
    use crate::sync::sync_observed;
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, LinearLoss, MlpTask};

    fn sparse_data(n: usize, d: usize) -> (CsrMatrix, Vec<Scalar>) {
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                let mut v = vec![((i % d) as u32, sign), (((i * 5 + 1) % d) as u32, sign * 0.5)];
                v.sort_by_key(|e| e.0);
                v.dedup_by_key(|e| e.0);
                v
            })
            .collect();
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_row_entries(n, d, &entries), y)
    }

    #[test]
    fn modeled_sync_statistics_match_wall_sync() {
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions { max_epochs: 8, ..Default::default() };
        let wall = sync_observed(&task, &b, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        let modeled = sync_modeled_observed(
            &task,
            &b,
            &CpuModelConfig::paper_machine(56),
            0.5,
            &opts,
            &mut NullObserver,
        );
        for (p, q) in wall.trace.points().iter().zip(modeled.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
        assert!(modeled.opt_seconds > 0.0);
    }

    #[test]
    fn modeled_single_thread_hogwild_matches_wall_hogwild() {
        let (x, y) = sparse_data(200, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let wall = hogwild_observed(&task, task.pointwise(), &b, 1, 0.5, &opts, &mut NullObserver);
        let modeled = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(1),
            0.5,
            &opts,
            &mut NullObserver,
        );
        for (p, q) in wall.trace.points().iter().zip(modeled.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn staleness_changes_trajectory_but_still_converges() {
        let (x, y) = sparse_data(256, 8); // low-dimensional: much contention
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(8);
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        let fresh = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(1),
            0.2,
            &opts,
            &mut NullObserver,
        );
        let stale = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(56),
            0.2,
            &opts,
            &mut NullObserver,
        );
        // The delayed reads produce a measurably different trajectory...
        let diff: f64 = fresh
            .trace
            .points()
            .iter()
            .zip(stale.trace.points())
            .map(|(p, q)| (p.1 - q.1).abs())
            .sum();
        assert!(diff > 1e-9, "staleness must alter the trajectory");
        // ...while both still optimize.
        let l0 = fresh.trace.points()[0].1;
        assert!(fresh.best_loss() < 0.5 * l0);
        assert!(stale.best_loss() < 0.5 * l0);
    }

    #[test]
    fn staleness_round_one_is_exactly_incremental() {
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let order = crate::hogwild::shuffled_order(128, 1);
        let mut w1 = task.init_model();
        staleness_epoch(task.pointwise(), &b, &mut w1, 0.3, &order, 1);
        // Reference: plain incremental updates in the same order.
        let mut w2 = task.init_model();
        for &i in &order {
            let i = i as usize;
            let row = x.row(i);
            let margin: Scalar =
                row.cols.iter().zip(row.vals).map(|(&c, &v)| v * w2[c as usize]).sum();
            let s = task.pointwise().dloss(margin, y[i]);
            for (&c, &v) in row.cols.iter().zip(row.vals) {
                w2[c as usize] += -0.3 * s * v;
            }
        }
        assert!(sgd_linalg::approx_eq_slice(&w1, &w2, 1e-12));
    }

    #[test]
    fn modeled_dense_hogwild_par_slower_per_epoch() {
        // covtype-like: dense, low-dimensional => parallel is slower.
        let x = Matrix::from_fn(512, 54, |i, j| (((i + j) % 5) as Scalar - 2.0) / 2.0);
        let y: Vec<Scalar> = (0..512).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(54);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        let seq = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(1),
            0.1,
            &opts,
            &mut NullObserver,
        );
        let par = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(56),
            0.1,
            &opts,
            &mut NullObserver,
        );
        assert!(par.time_per_epoch() > seq.time_per_epoch());
    }

    #[test]
    fn modeled_sparse_hogwild_par_faster_per_epoch() {
        let (x, y) = sparse_data(4096, 100_000);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(100_000);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        let seq = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(1),
            0.1,
            &opts,
            &mut NullObserver,
        );
        let par = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &CpuModelConfig::paper_machine(56),
            0.1,
            &opts,
            &mut NullObserver,
        );
        assert!(par.time_per_epoch() < seq.time_per_epoch());
    }

    #[test]
    fn modeled_hogbatch_runs_and_speeds_up() {
        // w8a-like sizes: large enough that a batch's compute dominates
        // its model-update write phase (as at the paper's scale).
        let x = Matrix::from_fn(1024, 300, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 4) as Scalar + 1.0) / 4.0
        });
        let y: Vec<Scalar> = (0..1024).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let task = MlpTask::new(vec![300, 10, 5, 2], 1);
        let owned = crate::hogbatch::make_batches(&x, &y, 512);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        // Zero fork/join isolates the scaling law from the (realistic)
        // per-region overhead, which dominates at this toy scale.
        let mut mc1 = CpuModelConfig::paper_machine(1);
        mc1.spec.fork_join_secs = 0.0;
        let mut mc56 = CpuModelConfig::paper_machine(56);
        mc56.spec.fork_join_secs = 0.0;
        let seq =
            hogbatch_modeled_observed(&task, &full, &batches, &mc1, 0.5, &opts, &mut NullObserver);
        let par =
            hogbatch_modeled_observed(&task, &full, &batches, &mc56, 0.5, &opts, &mut NullObserver);
        assert!(par.time_per_epoch() < seq.time_per_epoch());
        // Both make progress on the loss.
        assert!(seq.best_loss() < seq.trace.points()[0].1);
        assert!(par.best_loss() < par.trace.points()[0].1);
    }

    #[test]
    fn modeled_straggler_hits_sync_harder_than_hogwild() {
        // The paper-level claim the faults bench quantifies: a 4x straggler
        // stalls the synchronous barrier by the full 4x, while 8
        // independent Hogwild workers only lose its throughput share.
        let (x, y) = sparse_data(128, 16);
        let b = Batch::new(Examples::Sparse(&x), &y);
        let task = lr(16);
        let mc = CpuModelConfig::paper_machine(8);
        let clean = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let faulty = RunOptions {
            faults: crate::FaultPlan::default().with_straggler(0, 4.0),
            ..clean.clone()
        };
        let sc = sync_modeled_observed(&task, &b, &mc, 0.5, &clean, &mut NullObserver);
        let sf = sync_modeled_observed(&task, &b, &mc, 0.5, &faulty, &mut NullObserver);
        let hc = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &mc,
            0.2,
            &clean,
            &mut NullObserver,
        );
        let hf = hogwild_modeled_observed(
            &task,
            task.pointwise(),
            &b,
            &mc,
            0.2,
            &faulty,
            &mut NullObserver,
        );
        assert_eq!(sc.trace.epochs(), sf.trace.epochs(), "straggler leaves statistics alone");
        assert_eq!(hc.trace.epochs(), hf.trace.epochs());
        let sync_ratio = sf.opt_seconds / sc.opt_seconds;
        let async_ratio = hf.opt_seconds / hc.opt_seconds;
        assert!((sync_ratio - 4.0).abs() < 1e-9, "sync dilation {sync_ratio}");
        let expected = 8.0 / (7.0 + 0.25);
        assert!((async_ratio - expected).abs() < 1e-9, "async dilation {async_ratio}");
        assert!(async_ratio < sync_ratio, "async absorbs the straggler");
    }

    #[test]
    fn gemm_threshold_ablation_changes_modeled_time() {
        // Large enough that the input-layer products dominate and benefit
        // from parallelism once the ViennaCL threshold is lifted.
        let x = Matrix::from_fn(20_000, 50, |i, j| (((i + j) % 7) as Scalar - 3.0) / 3.0);
        let y: Vec<Scalar> = (0..20_000).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = MlpTask::new(vec![50, 10, 5, 2], 1);
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        // The weight-gradient products (50x10, 10x5, 5x2 results) stay
        // below the threshold; with it lifted they parallelize too.
        let mut with = CpuModelConfig::paper_machine(56);
        with.spec.fork_join_secs = 0.0;
        let mut without = with.clone();
        without.gemm_parallel_threshold = 0;
        let rep_with = sync_modeled_observed(&task, &b, &with, 0.5, &opts, &mut NullObserver);
        let rep_without = sync_modeled_observed(&task, &b, &without, 0.5, &opts, &mut NullObserver);
        assert!(
            rep_without.time_per_epoch() < rep_with.time_per_epoch(),
            "lifting the ViennaCL threshold must speed the modeled epoch up: {} vs {}",
            rep_without.time_per_epoch(),
            rep_with.time_per_epoch()
        );
    }
}

//! Asynchronous SGD on the simulated GPU.
//!
//! Two kernels, mirroring the paper's GPU asynchronous implementations:
//!
//! * **warp-Hogwild** for the linear tasks: one thread per example, warps
//!   execute in lockstep. All 32 lanes read the model *before* any of them
//!   writes (lockstep loads), and the unsynchronized read-modify-write
//!   update means that when several lanes touch the same coordinate only
//!   the last lane's write survives — the intra-warp update conflicts that
//!   destroy statistical efficiency on dense data. On sparse data the
//!   conflicts vanish but the warp pays divergence (high nnz variance) and
//!   non-coalesced model gathers — the hardware-efficiency penalty.
//! * **Hogbatch** for the MLP: mini-batches dispatched kernel-by-kernel.
//!   Although many host threads enqueue work, only one kernel executes at
//!   a time (the paper's observation), so the updates are effectively
//!   sequential — statistical efficiency matches sequential mini-batch SGD
//!   and each small kernel pays a host dispatch/synchronization overhead.

use std::collections::BTreeMap;

use sgd_gpusim::kernels::GpuExec;
use sgd_gpusim::WarpCtx;
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{Batch, Examples, PointwiseLoss, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{FaultCounters, FaultPlan};
use crate::hogwild::shuffled_order;
use crate::metrics::{EpochMetrics, EpochObserver, GpuEpochProbe, Recorder};
use crate::report::RunReport;
use crate::supervisor::Supervisor;

/// Options specific to the GPU asynchronous kernels.
#[derive(Clone, Debug)]
pub struct GpuAsyncOptions {
    /// Resolve intra-warp conflicts with atomic adds (lossless, serialized)
    /// instead of the default last-write-wins races. Ablation knob.
    pub atomic_updates: bool,
    /// Host-side dispatch + synchronization cost charged per kernel launch
    /// in the Hogbatch path. The paper's asynchronous MLP launches
    /// thousands of small dependent kernels from contending host threads;
    /// this overhead is why its GPU Hogbatch is only ~2X faster than one
    /// CPU core despite the device's raw throughput.
    pub host_sync_overhead_secs: f64,
}

impl Default for GpuAsyncOptions {
    fn default() -> Self {
        GpuAsyncOptions { atomic_updates: false, host_sync_overhead_secs: 150e-6 }
    }
}

const F64: u64 = std::mem::size_of::<Scalar>() as u64;
const U32: u64 = std::mem::size_of::<u32>() as u64;

/// Processes one warp of examples functionally, optionally reporting its
/// memory/compute behaviour to a tracing context. `stale_from` redirects
/// the phase-1 model reads to a stale snapshot (fault injection);
/// `dropped` discards the warp's phase-2 store after the gradient work is
/// done. Returns the number of updates lost to (or serialized by)
/// intra-warp conflicts.
#[allow(clippy::too_many_arguments)]
fn process_warp(
    loss: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    w: &mut [Scalar],
    alpha: f64,
    lanes: &[u32],
    atomic: bool,
    ctx: &mut Option<&mut WarpCtx<'_>>,
    addrs: TraceAddrs,
    stale_from: Option<&[Scalar]>,
    dropped: bool,
) -> u64 {
    // Phase 1: lockstep gradient computation — every lane's margin is
    // computed against the model as it stood when the warp arrived (or a
    // stale snapshot of it, when the fault plan says so).
    let mut coeffs: Vec<Scalar> = Vec::with_capacity(lanes.len());
    let rw: &[Scalar] = match stale_from {
        Some(s) => s,
        None => w,
    };
    match batch.x {
        Examples::Sparse(m) => {
            for &i in lanes {
                let row = m.row(i as usize);
                let margin: Scalar =
                    row.cols.iter().zip(row.vals).map(|(&c, &v)| v * rw[c as usize]).sum();
                coeffs.push(loss.dloss_at(margin, batch.y[i as usize]));
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                trace_sparse_pass(m, lanes, ctx, addrs);
            }
        }
        Examples::Dense(m) => {
            for &i in lanes {
                let row = m.row(i as usize);
                let margin: Scalar = row.iter().zip(rw.iter()).map(|(&v, &wj)| v * wj).sum();
                coeffs.push(loss.dloss_at(margin, batch.y[i as usize]));
            }
            if let Some(ctx) = ctx.as_deref_mut() {
                trace_dense_pass(m, lanes, ctx, addrs);
            }
        }
    }
    if dropped {
        // The gradient work happened but the warp's store phase is lost.
        if let Some(ctx) = ctx.as_deref_mut() {
            ctx.record_conflicts(0);
        }
        return 0;
    }

    // Phase 2: lockstep unsynchronized updates. Without atomics, lanes that
    // touch the same coordinate all start from the pre-warp value and the
    // last store wins (lost updates). BTreeMap, not HashMap: this path is
    // pinned bit-for-bit by tests/fault_determinism.rs, and ordered
    // containers keep iteration-order nondeterminism out by construction.
    let mut pre: BTreeMap<u32, Scalar> = BTreeMap::new();
    let mut touches: u64 = 0;
    for (lane, &i) in lanes.iter().enumerate() {
        let s = coeffs[lane];
        if s == 0.0 {
            continue;
        }
        let step = -alpha * s;
        let mut apply = |c: u32, v: Scalar| {
            touches += 1;
            if atomic {
                w[c as usize] += step * v;
                pre.entry(c).or_insert(0.0);
            } else {
                let base = *pre.entry(c).or_insert(w[c as usize]);
                w[c as usize] = base + step * v;
            }
        };
        match batch.x {
            Examples::Sparse(m) => {
                let row = m.row(i as usize);
                for (&c, &v) in row.cols.iter().zip(row.vals) {
                    apply(c, v);
                }
            }
            Examples::Dense(m) => {
                for (j, &v) in m.row(i as usize).iter().enumerate() {
                    if v != 0.0 {
                        apply(j as u32, v);
                    }
                }
            }
        }
    }
    let conflicts = touches.saturating_sub(pre.len() as u64);
    if let Some(ctx) = ctx.as_deref_mut() {
        ctx.record_conflicts(conflicts);
        if atomic && conflicts > 0 {
            // Serialized atomic retries on the conflicting coordinates.
            ctx.compute(conflicts * 8, 1);
        }
    }
    conflicts
}

/// Resolves the fault plan's per-warp decisions (the warp index is the
/// async worker id), tallies them, and runs the warp with the resulting
/// effects applied.
#[allow(clippy::too_many_arguments)]
fn process_faulty_warp(
    loss: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    w: &mut [Scalar],
    alpha: f64,
    lanes: &[u32],
    atomic: bool,
    ctx: &mut Option<&mut WarpCtx<'_>>,
    addrs: TraceAddrs,
    plan: &FaultPlan,
    epoch: usize,
    wi: usize,
    epoch_start: &[Scalar],
    fc: &mut FaultCounters,
) -> u64 {
    let mut a = alpha;
    if let Some(f) = plan.corrupt_factor(epoch, wi) {
        a *= f;
        fc.corrupted_updates += 1;
    }
    let stale = plan.stale_read(epoch, wi);
    if stale {
        fc.stale_reads += 1;
    }
    let dropped = plan.drops_update(epoch, wi);
    if dropped {
        fc.dropped_updates += 1;
    }
    let stale_from = if stale { Some(epoch_start) } else { None };
    process_warp(loss, batch, w, a, lanes, atomic, ctx, addrs, stale_from, dropped)
}

/// Simulated device addresses of the buffers a traced warp touches,
/// resolved once per run through the device's deterministic buffer
/// registry (host pointer values must never reach the cost model: their
/// run-to-run placement would make simulated cycles irreproducible).
/// Stale reads trace against the model's device buffer — the host-side
/// staleness snapshot is a modelling artifact with no device presence.
#[derive(Clone, Copy)]
struct TraceAddrs {
    /// Values array (sparse) or the row-major example matrix (dense).
    x: u64,
    /// Column-index array; unused for dense batches.
    cols: u64,
    /// The shared model vector.
    w: u64,
}

impl TraceAddrs {
    fn resolve(dev: &mut sgd_gpusim::GpuDevice, batch: &Batch<'_>, w: &[Scalar]) -> TraceAddrs {
        match batch.x {
            Examples::Sparse(m) => TraceAddrs {
                x: dev.buffer_addr(m.values()),
                cols: dev.buffer_addr(m.col_idx()),
                w: dev.buffer_addr(w),
            },
            Examples::Dense(m) => {
                TraceAddrs { x: dev.buffer_addr(m.as_slice()), cols: 0, w: dev.buffer_addr(w) }
            }
        }
    }
}

/// Memory/divergence trace of one warp's pass over sparse rows
/// (thread-per-example layout: value/index loads scatter across rows, the
/// model gather scatters across coordinates, trip count is the warp max).
fn trace_sparse_pass(
    m: &sgd_linalg::CsrMatrix,
    lanes: &[u32],
    ctx: &mut WarpCtx<'_>,
    addrs: TraceAddrs,
) {
    let TraceAddrs { x: vals_p, cols: cols_p, w: w_p } = addrs;
    let trips: Vec<u64> = lanes.iter().map(|&i| m.row_nnz(i as usize) as u64).collect();
    let max_trip = trips.iter().copied().max().unwrap_or(0);
    let mut acc: Vec<(u64, u32)> = Vec::with_capacity(lanes.len());
    for k in 0..max_trip {
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let off = m.row_ptr()[i as usize] as u64 + k;
                acc.push((vals_p + off * F64, F64 as u32));
            }
        }
        ctx.load(&acc);
        acc.clear();
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let off = m.row_ptr()[i as usize] as u64 + k;
                acc.push((cols_p + off * U32, U32 as u32));
            }
        }
        ctx.load(&acc);
        acc.clear();
        // Gather model coordinates, then scatter the updates back: the
        // same scattered addresses cost a load and a store each.
        for (l, &i) in lanes.iter().enumerate() {
            if trips[l] > k {
                let c = m.col_idx()[m.row_ptr()[i as usize] + k as usize];
                acc.push((w_p + c as u64 * F64, F64 as u32));
            }
        }
        ctx.load(&acc);
        ctx.store(&acc);
        acc.clear();
    }
    // fma for the margin + fma for the update per element.
    ctx.diverged_loop(&trips, 4);
}

/// Memory trace for dense rows: lanes stride by the row pitch (32
/// transactions per element column), the model access is a broadcast (one
/// transaction), updates store to the same broadcast coordinate.
fn trace_dense_pass(
    m: &sgd_linalg::Matrix,
    lanes: &[u32],
    ctx: &mut WarpCtx<'_>,
    addrs: TraceAddrs,
) {
    let TraceAddrs { x: x_p, w: w_p, .. } = addrs;
    let d = m.cols() as u64;
    let mut acc: Vec<(u64, u32)> = Vec::with_capacity(lanes.len());
    for k in 0..d {
        for &i in lanes {
            acc.push((x_p + (i as u64 * d + k) * F64, F64 as u32));
        }
        ctx.load(&acc);
        acc.clear();
        let coord = [(w_p + k * F64, F64 as u32)];
        ctx.load(&coord); // broadcast model read
        ctx.store(&coord); // conflicting lockstep writes coalesce to one tx
    }
    ctx.diverged_loop(&vec![d; lanes.len()], 4);
}

/// Runs warp-Hogwild for a linear task on the simulated GPU.
///
/// The whole epoch is a single kernel (one thread per example). The first
/// two epochs are traced (cold/warm L2); later epochs replay the warm cost
/// while computing functionally identical updates.
pub(crate) fn gpu_hogwild_observed<T: Task>(
    task: &T,
    loss_fn: &dyn PointwiseLoss,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
    gopts: &GpuAsyncOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let mut dev = opts.gpu_device();
    let warp_size = dev.spec().warp_size;
    let order = shuffled_order(batch.n(), opts.seed);
    let warps: Vec<&[u32]> = order.chunks(warp_size).collect();

    let mut w = task.init_model();
    let mut eval = CpuExec::par();
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut probe = GpuEpochProbe::new();
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let mut epoch_start: Vec<Scalar> = Vec::new();
    let addrs = TraceAddrs::resolve(&mut dev, batch, &w);

    let mut warm_cost = 0.0;
    let mut conflicts_total: u64 = 0;
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        probe.begin(&dev);
        let epoch_conflicts: u64;
        match faults {
            None => {
                if epoch < 2 {
                    let t0 = dev.elapsed_secs();
                    let w_cell = &mut w;
                    let mut conflicts = 0u64;
                    dev.run_kernel(warps.len(), |wi, ctx| {
                        let mut c = Some(ctx);
                        conflicts += process_warp(
                            loss_fn,
                            batch,
                            w_cell,
                            alpha,
                            warps[wi],
                            gopts.atomic_updates,
                            &mut c,
                            addrs,
                            None,
                            false,
                        );
                    });
                    epoch_conflicts = conflicts;
                    warm_cost = dev.elapsed_secs() - t0;
                } else {
                    let mut conflicts = 0u64;
                    for lanes in &warps {
                        conflicts += process_warp(
                            loss_fn,
                            batch,
                            &mut w,
                            alpha,
                            lanes,
                            gopts.atomic_updates,
                            &mut None,
                            addrs,
                            None,
                            false,
                        );
                    }
                    epoch_conflicts = conflicts;
                    dev.advance_secs(warm_cost);
                }
            }
            Some(plan) => {
                // One warp = one asynchronous worker: dead warps are
                // removed from the launch list (the device absorbs the
                // loss of work), stale/corrupt/drop decisions hash on the
                // warp index, and a straggler stretches the epoch by the
                // harmonic dilation instead of stalling a barrier.
                let epoch_t0 = dev.elapsed_secs();
                if plan.stale_rate > 0.0 {
                    epoch_start.resize(w.len(), 0.0);
                    epoch_start.copy_from_slice(&w);
                }
                let live: Vec<usize> =
                    (0..warps.len()).filter(|&wi| !plan.worker_dead(wi, epoch)).collect();
                fc.dead_workers = (warps.len() - live.len()) as u64;
                let mut conflicts = 0u64;
                if epoch < 2 {
                    let t0 = dev.elapsed_secs();
                    let w_cell = &mut w;
                    let snap = &epoch_start;
                    let fcr = &mut fc;
                    let live_ref = &live;
                    dev.run_kernel(live.len(), |k, ctx| {
                        let wi = live_ref[k];
                        let mut c = Some(ctx);
                        conflicts += process_faulty_warp(
                            loss_fn,
                            batch,
                            w_cell,
                            alpha,
                            warps[wi],
                            gopts.atomic_updates,
                            &mut c,
                            addrs,
                            plan,
                            epoch,
                            wi,
                            snap,
                            fcr,
                        );
                    });
                    warm_cost = dev.elapsed_secs() - t0;
                } else {
                    for &wi in &live {
                        conflicts += process_faulty_warp(
                            loss_fn,
                            batch,
                            &mut w,
                            alpha,
                            warps[wi],
                            gopts.atomic_updates,
                            &mut None,
                            addrs,
                            plan,
                            epoch,
                            wi,
                            &epoch_start,
                            &mut fc,
                        );
                    }
                    dev.advance_secs(warm_cost);
                }
                epoch_conflicts = conflicts;
                let es = dev.elapsed_secs() - epoch_t0;
                let dil = plan.async_dilation(warps.len());
                fc.straggler_delay_secs = es * (dil - 1.0);
                dev.advance_secs(fc.straggler_delay_secs);
            }
        }
        conflicts_total += epoch_conflicts;
        let (cycles, l2) = probe.end(&dev);
        let loss = task.loss(&mut eval, batch, &w); // untimed
        trace.push(dev.elapsed_secs(), loss);
        rec.record(EpochMetrics {
            update_conflicts: epoch_conflicts,
            simulated_cycles: cycles,
            l2_hit_ratio: l2,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, dev.elapsed_secs(), loss)
        });
        if sup.observe(epoch + 1, dev.elapsed_secs(), loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    rec.set_update_conflicts(conflicts_total);
    RunReport {
        label: format!("{} async gpu (warp-hogwild)", task.name()),
        device: DeviceKind::Gpu,
        step_size: alpha,
        trace,
        opt_seconds: dev.elapsed_secs(),
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

/// Runs Hogbatch for any task on the simulated GPU: batches are processed
/// strictly in sequence (only one kernel executes at a time), each batch's
/// primitive stream paying the per-kernel host dispatch overhead.
pub(crate) fn gpu_hogbatch_observed<T: Task>(
    task: &T,
    full: &Batch<'_>,
    batches: &[Batch<'_>],
    alpha: f64,
    opts: &RunOptions,
    gopts: &GpuAsyncOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    assert!(!batches.is_empty(), "at least one mini-batch required");
    let mut dev = opts.gpu_device();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    let mut eval = CpuExec::par();
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, full, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut probe = GpuEpochProbe::new();
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let mut epoch_start: Vec<Scalar> = Vec::new();

    let mut warm_cost = 0.0;
    let mut cpu = CpuExec::seq();
    for epoch in 0..opts.max_epochs {
        let mut fc = FaultCounters::default();
        probe.begin(&dev);
        match faults {
            None => {
                if epoch == 0 {
                    let t0 = dev.elapsed_secs();
                    for b in batches {
                        let k0 = dev.stats().kernels_launched;
                        let mut e = GpuExec::new(&mut dev);
                        task.gradient(&mut e, b, &w, &mut g);
                        e.axpy(-alpha, &g, &mut w);
                        let launches = dev.stats().kernels_launched - k0;
                        dev.advance_secs(gopts.host_sync_overhead_secs * launches as f64);
                    }
                    warm_cost = dev.elapsed_secs() - t0;
                } else {
                    for b in batches {
                        task.gradient(&mut cpu, b, &w, &mut g);
                        cpu.axpy(-alpha, &g, &mut w);
                    }
                    dev.advance_secs(warm_cost);
                }
            }
            Some(plan) => {
                // Batches are enqueued round-robin by `opts.threads` host
                // workers: a dead worker's batches never launch, decisions
                // hash on the batch index, a straggling enqueuer stretches
                // the serialized stream by the harmonic dilation.
                let epoch_t0 = dev.elapsed_secs();
                let workers = opts.threads.max(1);
                if plan.has_dead_worker(workers, epoch) {
                    fc.dead_workers = 1;
                }
                if plan.stale_rate > 0.0 {
                    epoch_start.resize(w.len(), 0.0);
                    epoch_start.copy_from_slice(&w);
                }
                if epoch == 0 {
                    let t0 = dev.elapsed_secs();
                    for (bi, b) in batches.iter().enumerate() {
                        if plan.worker_dead(bi % workers, epoch) {
                            continue;
                        }
                        let k0 = dev.stats().kernels_launched;
                        let mut e = GpuExec::new(&mut dev);
                        let read: &[Scalar] = if plan.stale_read(epoch, bi) {
                            fc.stale_reads += 1;
                            &epoch_start
                        } else {
                            &w
                        };
                        task.gradient(&mut e, b, read, &mut g);
                        let mut a = alpha;
                        if let Some(f) = plan.corrupt_factor(epoch, bi) {
                            a *= f;
                            fc.corrupted_updates += 1;
                        }
                        if plan.drops_update(epoch, bi) {
                            fc.dropped_updates += 1;
                        } else {
                            e.axpy(-a, &g, &mut w);
                        }
                        let launches = dev.stats().kernels_launched - k0;
                        dev.advance_secs(gopts.host_sync_overhead_secs * launches as f64);
                    }
                    warm_cost = dev.elapsed_secs() - t0;
                } else {
                    for (bi, b) in batches.iter().enumerate() {
                        if plan.worker_dead(bi % workers, epoch) {
                            continue;
                        }
                        let read: &[Scalar] = if plan.stale_read(epoch, bi) {
                            fc.stale_reads += 1;
                            &epoch_start
                        } else {
                            &w
                        };
                        task.gradient(&mut cpu, b, read, &mut g);
                        let mut a = alpha;
                        if let Some(f) = plan.corrupt_factor(epoch, bi) {
                            a *= f;
                            fc.corrupted_updates += 1;
                        }
                        if plan.drops_update(epoch, bi) {
                            fc.dropped_updates += 1;
                        } else {
                            cpu.axpy(-a, &g, &mut w);
                        }
                    }
                    dev.advance_secs(warm_cost);
                }
                let es = dev.elapsed_secs() - epoch_t0;
                let dil = plan.async_dilation(workers);
                fc.straggler_delay_secs = es * (dil - 1.0);
                dev.advance_secs(fc.straggler_delay_secs);
            }
        }
        let (cycles, l2) = probe.end(&dev);
        let loss = task.loss(&mut eval, full, &w);
        trace.push(dev.elapsed_secs(), loss);
        rec.record(EpochMetrics {
            simulated_cycles: cycles,
            l2_hit_ratio: l2,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, dev.elapsed_secs(), loss)
        });
        if sup.observe(epoch + 1, dev.elapsed_secs(), loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    // The serialized kernel stream loses no updates.
    rec.set_update_conflicts(0);
    RunReport {
        label: format!("{} async gpu (hogbatch)", task.name()),
        device: DeviceKind::Gpu,
        step_size: alpha,
        trace,
        opt_seconds: dev.elapsed_secs(),
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogbatch::{hogbatch_observed, make_batches};
    use crate::hogwild::hogwild_observed;
    use crate::metrics::NullObserver;
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, MlpTask};

    fn dense_data(n: usize, d: usize) -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(n, d, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 5) as Scalar + 1.0) / 5.0
        });
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    #[test]
    fn dense_warps_lose_most_updates() {
        // Every lane updates every coordinate: in a 32-wide warp,
        // 31/32 of updates are lost to last-write-wins.
        let (x, y) = dense_data(64, 6);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let opts = RunOptions { max_epochs: 1, ..Default::default() };
        let rep = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.1,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let conflicts = rep.update_conflicts().expect("gpu run records conflicts");
        // 64 examples, 6 coords each = 384 touches; 2 warps x 6 unique.
        assert_eq!(conflicts, 384 - 12);
        // The per-epoch metrics carry the same count.
        assert_eq!(rep.metrics.epochs[0].update_conflicts, 384 - 12);
    }

    #[test]
    fn dense_gpu_hogwild_needs_more_epochs_than_sequential() {
        // The statistical-efficiency gap of Table III on dense data: with
        // last-write-wins warps, the GPU makes far less progress per epoch
        // than sequential incremental SGD at the same step size.
        let (x, y) = dense_data(256, 8);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(8);
        let alpha = 0.02;
        let epochs = 3;
        let opts = RunOptions { max_epochs: epochs, ..Default::default() };
        let seq = hogwild_observed(&task, task.pointwise(), &b, 1, alpha, &opts, &mut NullObserver);
        let gpu = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            alpha,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let l_seq = seq.trace.points()[epochs].1;
        let l_gpu = gpu.trace.points()[epochs].1;
        let l0 = seq.trace.points()[0].1;
        assert!(l_seq < l0, "sequential must make progress");
        // GPU progress from the start must be a small fraction of the
        // sequential progress (31/32 of its updates are lost).
        assert!(
            (l0 - l_gpu) < 0.5 * (l0 - l_seq),
            "gpu progress {} vs seq progress {}",
            l0 - l_gpu,
            l0 - l_seq
        );
        assert!(gpu.update_conflicts().expect("recorded") > 0);
    }

    #[test]
    fn disjoint_sparse_matches_sequential_hogwild() {
        // With disjoint per-example supports the warp semantics are
        // invisible: trajectories match sequential Hogwild exactly.
        let n = 96;
        let d = 96;
        let entries: Vec<Vec<(u32, Scalar)>> = (0..n).map(|i| vec![(i as u32, 1.0)]).collect();
        let y: Vec<Scalar> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let xs = CsrMatrix::from_row_entries(n, d, &entries);
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let task = lr(d);
        let opts = RunOptions { max_epochs: 5, ..Default::default() };
        let seq = hogwild_observed(&task, task.pointwise(), &b, 1, 0.5, &opts, &mut NullObserver);
        let gpu = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.5,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        assert_eq!(gpu.update_conflicts(), Some(0));
        for (p, q) in seq.trace.points().iter().zip(gpu.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn atomic_updates_keep_all_updates() {
        let (x, y) = dense_data(64, 6);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(6);
        let opts = RunOptions { max_epochs: 20, ..Default::default() };
        let lww = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.5,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let atomic = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.5,
            &opts,
            &GpuAsyncOptions { atomic_updates: true, ..Default::default() },
            &mut NullObserver,
        );
        // Atomic (mini-batch-like) updates make faster statistical progress
        // on dense data than last-write-wins.
        assert!(atomic.best_loss() < lww.best_loss() + 1e-12);
    }

    #[test]
    fn epoch_cost_replay_is_consistent() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let rep = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.1,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let pts = rep.trace.points();
        assert!(pts.len() >= 6);
        let d4 = pts[4].0 - pts[3].0;
        let d5 = pts[5].0 - pts[4].0;
        assert!((d4 - d5).abs() < 1e-15);
    }

    #[test]
    fn gpu_hogwild_metrics_cover_conflicts_cycles_and_l2() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 5, ..Default::default() };
        let rep = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.1,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let m = &rep.metrics;
        assert_eq!(m.epochs.len(), rep.trace.epochs());
        let total: u64 = m.epochs.iter().map(|e| e.update_conflicts).sum();
        assert_eq!(Some(total), rep.update_conflicts(), "per-epoch conflicts sum to the total");
        for e in &m.epochs {
            assert!(e.update_conflicts > 0, "dense warps conflict every epoch");
            assert!(e.simulated_cycles > 0.0);
            assert!(e.l2_hit_ratio.is_finite());
        }
    }

    #[test]
    fn gpu_hogbatch_statistics_match_sequential_hogbatch() {
        let (x, y) = dense_data(96, 6);
        let task = MlpTask::new(vec![6, 5, 2], 1);
        let owned = make_batches(&x, &y, 16);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 10, ..Default::default() };
        let cpu = hogbatch_observed(&task, &full, &batches, 1, 1.0, &opts, &mut NullObserver);
        let gpu = gpu_hogbatch_observed(
            &task,
            &full,
            &batches,
            1.0,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        for (p, q) in cpu.trace.points().iter().zip(gpu.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-9, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn gpu_straggler_dilates_async_time_by_the_harmonic_mean() {
        let (x, y) = dense_data(128, 4);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let clean = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.1,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        let lag_opts =
            RunOptions { faults: FaultPlan::default().with_straggler(0, 4.0), ..opts.clone() };
        let lag = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.1,
            &lag_opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        // A straggler-only plan changes no updates: same trajectory.
        assert_eq!(clean.trace.epochs(), lag.trace.epochs());
        for (p, q) in clean.trace.points().iter().zip(lag.trace.points()) {
            assert_eq!(p.1, q.1);
        }
        // 128 examples / 32-lane warps = 4 async workers; one 4x straggler
        // dilates time by 4/(3 + 1/4), far below the 4x a barrier pays.
        let dil = lag_opts.faults.async_dilation(4);
        assert!(dil > 1.0 && dil < 4.0, "dilation {dil}");
        let ratio = lag.opt_seconds / clean.opt_seconds;
        assert!((ratio - dil).abs() < 1e-9, "ratio {ratio} vs dilation {dil}");
    }

    #[test]
    fn gpu_warp_hogwild_absorbs_update_faults() {
        let (x, y) = dense_data(256, 8);
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(8);
        let opts = RunOptions {
            max_epochs: 8,
            plateau: None,
            faults: FaultPlan::default()
                .with_seed(5)
                .with_drops(0.2)
                .with_stale_reads(0.2)
                .with_corruption(0.2, 0.5)
                .with_worker_death(0, 1),
            ..Default::default()
        };
        let rep = gpu_hogwild_observed(
            &task,
            task.pointwise(),
            &b,
            0.02,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        assert!(
            !matches!(rep.outcome, crate::report::RunOutcome::FaultAborted { .. }),
            "async gpu must absorb a dead warp, got {:?}",
            rep.outcome
        );
        let totals = rep.metrics.total_faults();
        assert!(totals.dropped_updates > 0, "drops never fired");
        assert!(totals.stale_reads > 0, "stale reads never fired");
        assert!(totals.corrupted_updates > 0, "corruption never fired");
        assert!(totals.dead_workers > 0, "death never registered");
    }

    #[test]
    fn gpu_hogbatch_supervises_faults() {
        let (x, y) = dense_data(96, 6);
        let task = lr(6);
        let owned = make_batches(&x, &y, 8);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions {
            max_epochs: 10,
            threads: 4,
            plateau: None,
            faults: FaultPlan::default()
                .with_seed(11)
                .with_drops(0.2)
                .with_corruption(0.2, 0.5)
                .with_worker_death(1, 2),
            ..Default::default()
        };
        let rep = gpu_hogbatch_observed(
            &task,
            &full,
            &batches,
            0.5,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        assert!(
            !matches!(rep.outcome, crate::report::RunOutcome::FaultAborted { .. }),
            "serialized gpu stream must absorb a dead enqueuer, got {:?}",
            rep.outcome
        );
        let totals = rep.metrics.total_faults();
        assert!(totals.dropped_updates > 0, "drops never fired");
        assert!(totals.corrupted_updates > 0, "corruption never fired");
        assert!(totals.dead_workers > 0, "death never registered");
        assert!(rep.best_loss() < rep.trace.points()[0].1, "still makes progress");
    }

    #[test]
    fn host_sync_overhead_slows_hogbatch() {
        let (x, y) = dense_data(96, 6);
        let task = MlpTask::new(vec![6, 5, 2], 1);
        let owned = make_batches(&x, &y, 8);
        let batches: Vec<Batch<'_>> =
            owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
        let full = Batch::new(Examples::Dense(&x), &y);
        let opts = RunOptions { max_epochs: 3, ..Default::default() };
        let fast = gpu_hogbatch_observed(
            &task,
            &full,
            &batches,
            1.0,
            &opts,
            &GpuAsyncOptions { host_sync_overhead_secs: 0.0, ..Default::default() },
            &mut NullObserver,
        );
        let slow = gpu_hogbatch_observed(
            &task,
            &full,
            &batches,
            1.0,
            &opts,
            &GpuAsyncOptions::default(),
            &mut NullObserver,
        );
        assert!(slow.time_per_epoch() > 2.0 * fast.time_per_epoch());
    }
}

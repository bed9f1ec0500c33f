//! TensorFlow-like synchronous MLP training (the paper's Fig. 9
//! comparator).
//!
//! Differences from our own implementation, mirroring TensorFlow 0.12:
//!
//! * execution is op-granular through the [`crate::tfgraph`] interpreter —
//!   every op (and every backward op, and one update per parameter
//!   tensor) is a separate kernel with a materialized output;
//! * the GPU path pays a per-op host dispatch overhead (the graph
//!   executor schedules kernels one at a time);
//! * the CPU backend parallelizes *all* matrix products (TF's Eigen has no
//!   ViennaCL-style minimum-size threshold), which is why TF's GPU-over-CPU
//!   speedup is lower than ours on small nets — its CPU baseline is
//!   faster, and its GPU pays more launches.

use std::time::Instant;

use sgd_core::{
    Configuration, DeviceKind, EpochMetrics, LossTrace, RunMetrics, RunOptions, RunOutcome,
    RunReport, Strategy, Timing,
};
use sgd_gpusim::kernels::GpuExec;
use sgd_linalg::{Backend, CpuExec, Matrix, Scalar};
use sgd_models::Task;

use crate::tfgraph::{Graph, Session};

/// Host-side dispatch cost per GPU kernel launch in the graph executor.
const TF_GPU_DISPATCH_SECS: f64 = 50e-6;

/// Builds the TF session for an MLP with the same initialization as
/// [`sgd_models::MlpTask`] (so cross-framework trajectories coincide).
fn build_session(layers: &[usize], seed: u64) -> Session {
    let task = sgd_models::MlpTask::new(layers.to_vec(), seed);
    let w = task.init_model();
    let (graph, _, shapes) = Graph::mlp(layers);
    let mut params = Vec::new();
    let mut off = 0;
    for &(r, c) in &shapes {
        params.push(Matrix::from_vec(r, c, w[off..off + r * c].to_vec()));
        off += r * c;
    }
    Session::new(graph, params)
}

/// Runs the TensorFlow comparator for one engine [`Configuration`]
/// corner.
///
/// The graph executor implements synchronous (full-batch) GD only, so
/// the configuration's strategy must be [`Strategy::Sync`]; the timing
/// source and device follow the configuration like
/// [`sgd_core::Engine::run`].
pub fn run_tensorflow(
    cfg: &Configuration,
    layers: &[usize],
    x: &Matrix,
    y: &[Scalar],
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    assert!(
        matches!(cfg.strategy, Strategy::Sync),
        "the TensorFlow comparator implements synchronous GD only"
    );
    match &cfg.timing {
        Timing::Wall => sync_wall(layers, x, y, cfg.device, alpha, opts),
        Timing::Modeled(mc) => {
            assert_ne!(cfg.device, DeviceKind::Gpu, "modeled timing covers CPU devices");
            sync_modeled(layers, x, y, mc, alpha, opts)
        }
    }
}

/// Runs synchronous (full-batch) MLP training through the graph executor.
fn sync_wall(
    layers: &[usize],
    x: &Matrix,
    y: &[Scalar],
    device: DeviceKind,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let classes: Vec<usize> = y.iter().map(|&l| usize::from(l > 0.0)).collect();
    let mut sess = build_session(layers, opts.seed);
    let label = format!("TF MLP sync {}", device.label());

    match device {
        DeviceKind::CpuSeq => {
            cpu_loop(&mut sess, x, &classes, CpuExec::seq(), device, alpha, opts, label)
        }
        DeviceKind::CpuPar => sgd_core::pool::with_threads(opts.threads, || {
            // Eigen-style backend: no small-GEMM threshold.
            cpu_loop(
                &mut sess,
                x,
                &classes,
                CpuExec(Backend::par_unconditional()),
                device,
                alpha,
                opts,
                label,
            )
        }),
        DeviceKind::Gpu => gpu_loop(&mut sess, x, &classes, alpha, opts, label),
    }
}

#[allow(clippy::too_many_arguments)]
fn cpu_loop(
    sess: &mut Session,
    x: &Matrix,
    classes: &[usize],
    mut e: CpuExec,
    device: DeviceKind,
    alpha: f64,
    opts: &RunOptions,
    label: String,
) -> RunReport {
    let mut trace = LossTrace::new();
    trace.push(0.0, sess.loss(&mut e, x, classes));
    let stop = opts.stop_loss();
    let mut opt_seconds = 0.0;
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        let t0 = Instant::now();
        let grads = sess.gradients(&mut e, x, classes);
        sess.apply_gradients(&mut e, &grads, alpha);
        opt_seconds += t0.elapsed().as_secs_f64();
        let loss = sess.loss(&mut e, x, classes);
        trace.push(opt_seconds, loss);
        metrics.epochs.push(EpochMetrics::new(epoch + 1, opt_seconds, loss));
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if opt_seconds > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label,
        device,
        step_size: alpha,
        trace,
        opt_seconds,
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

fn gpu_loop(
    sess: &mut Session,
    x: &Matrix,
    classes: &[usize],
    alpha: f64,
    opts: &RunOptions,
    label: String,
) -> RunReport {
    let mut dev = opts.gpu_device();
    let mut eval = CpuExec::seq();
    let mut trace = LossTrace::new();
    trace.push(0.0, sess.loss(&mut eval, x, classes));
    let stop = opts.stop_loss();
    let mut warm_cost = 0.0;
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        let cycles0 = dev.elapsed_cycles();
        if epoch < 2 {
            let t0 = dev.elapsed_secs();
            let k0 = dev.stats().kernels_launched;
            let mut e = GpuExec::new(&mut dev);
            let grads = sess.gradients(&mut e, x, classes);
            sess.apply_gradients(&mut e, &grads, alpha);
            let launches = dev.stats().kernels_launched - k0;
            dev.advance_secs(TF_GPU_DISPATCH_SECS * launches as f64);
            warm_cost = dev.elapsed_secs() - t0;
        } else {
            let grads = sess.gradients(&mut eval, x, classes);
            sess.apply_gradients(&mut eval, &grads, alpha);
            dev.advance_secs(warm_cost);
        }
        let loss = sess.loss(&mut eval, x, classes);
        trace.push(dev.elapsed_secs(), loss);
        metrics.epochs.push(EpochMetrics {
            simulated_cycles: dev.elapsed_cycles() - cycles0,
            ..EpochMetrics::new(epoch + 1, dev.elapsed_secs(), loss)
        });
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if dev.elapsed_secs() > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label,
        device: DeviceKind::Gpu,
        step_size: alpha,
        trace,
        opt_seconds: dev.elapsed_secs(),
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

/// Synchronous MLP training through the graph executor with *modeled* CPU
/// time (see `sgd-cpusim`): the machine is the paper's Xeon, the backend
/// is Eigen-like (no ViennaCL small-GEMM threshold).
fn sync_modeled(
    layers: &[usize],
    x: &Matrix,
    y: &[Scalar],
    mc: &sgd_core::CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let classes: Vec<usize> = y.iter().map(|&l| usize::from(l > 0.0)).collect();
    let mut sess = build_session(layers, opts.seed);
    let mut e = sgd_cpusim::CpuModelExec::new(mc.spec.clone(), mc.threads);
    e.gemm_parallel_threshold = 0; // Eigen parallelizes every product
    let mut eval = CpuExec::seq();
    let mut trace = LossTrace::new();
    trace.push(0.0, sess.loss(&mut eval, x, &classes));
    let stop = opts.stop_loss();
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        let grads = sess.gradients(&mut e, x, &classes);
        sess.apply_gradients(&mut e, &grads, alpha);
        let loss = sess.loss(&mut eval, x, &classes);
        trace.push(e.elapsed_secs(), loss);
        metrics.epochs.push(EpochMetrics::new(epoch + 1, e.elapsed_secs(), loss));
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if e.elapsed_secs() > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label: format!("TF MLP sync {} (modeled)", mc.device().label()),
        device: mc.device(),
        step_size: alpha,
        trace,
        opt_seconds: e.elapsed_secs(),
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_core::Engine;
    use sgd_models::{Batch, Examples, MlpTask};

    fn toy() -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(48, 5, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 4) as Scalar + 1.0) / 4.0
        });
        let y = (0..48).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn corner(device: DeviceKind) -> Configuration {
        Configuration::new(device, Strategy::Sync)
    }

    #[test]
    fn tf_trajectory_matches_our_sync_mlp() {
        // Same math, same init: TF-sim and our MLP task must produce the
        // same loss trajectory under synchronous GD.
        let (x, y) = toy();
        let layers = vec![5, 4, 2];
        let opts = RunOptions { max_epochs: 8, ..Default::default() };
        let tf = run_tensorflow(&corner(DeviceKind::CpuSeq), &layers, &x, &y, 0.5, &opts);

        let task = MlpTask::new(layers, opts.seed);
        let b = Batch::new(Examples::Dense(&x), &y);
        let ours = Engine::run(&corner(DeviceKind::CpuSeq), &task, &b, 0.5, &opts);
        for (p, q) in tf.trace.points().iter().zip(ours.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-10, "{} vs {}", p.1, q.1);
        }
    }

    #[test]
    fn gpu_run_is_costed_and_converges_like_cpu() {
        let (x, y) = toy();
        let layers = vec![5, 4, 2];
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let gpu = run_tensorflow(&corner(DeviceKind::Gpu), &layers, &x, &y, 0.5, &opts);
        let cpu = run_tensorflow(&corner(DeviceKind::CpuSeq), &layers, &x, &y, 0.5, &opts);
        assert!(gpu.opt_seconds > 0.0);
        for (p, q) in gpu.trace.points().iter().zip(cpu.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-10);
        }
        assert!(gpu.metrics.total_simulated_cycles().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn gpu_dispatch_overhead_dominates_tiny_graphs() {
        // >= 12 launches x 50 us means at least ~0.6 ms per epoch on a
        // tiny input regardless of arithmetic.
        let (x, y) = toy();
        let opts = RunOptions { max_epochs: 4, ..Default::default() };
        let gpu = run_tensorflow(&corner(DeviceKind::Gpu), &[5, 4, 2], &x, &y, 0.5, &opts);
        assert!(gpu.time_per_epoch() > 0.5e-3, "{}", gpu.time_per_epoch());
    }
}

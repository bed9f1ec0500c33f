//! Engine fingerprints: every corner of the 2×2×2 configuration cube
//! dispatched through `Engine::run` must reproduce the report the
//! per-corner `run_*` entry points produced before the engine replaced
//! them.
//!
//! Corners whose execution is deterministic (sequential, modeled, or
//! simulated-GPU time) are pinned bit-for-bit to fingerprints recorded
//! from those entry points: label, epoch count, outcome, every loss's
//! bits, the update-conflict count, and a hash of the best model's
//! bits. The recordings use the default `Scalar` kernel tier and a fixed
//! thread count, so they hold on any host. Corners that race real threads (wall-clock
//! Hogwild/Hogbatch/replicated with >1 worker) are nondeterministic by
//! construction, so only the report shape — label, device, and a
//! non-empty trace — is checked.

use sgd_study::core::{
    Configuration, CpuModelConfig, DeviceKind, Engine, FaultPlan, GpuAsyncOptions, Replication,
    RunOptions, RunOutcome, RunReport, Strategy, Timing,
};
use sgd_study::linalg::{CsrMatrix, Matrix};
use sgd_study::models::{lr, Batch, Examples, MlpTask};

fn dense() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(64, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (x, y)
}

fn sparse() -> (CsrMatrix, Vec<f64>) {
    let entries: Vec<Vec<(u32, f64)>> =
        (0..64).map(|i| vec![((i % 16) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
    let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    (CsrMatrix::from_row_entries(64, 16, &entries), y)
}

fn opts() -> RunOptions {
    // A fixed width: the cpu-par reduction order depends on the thread
    // count, so the recorded fingerprints need one that no host changes.
    RunOptions { max_epochs: 8, plateau: None, threads: 4, ..Default::default() }
}

/// What a deterministic corner's report must reproduce bit for bit.
struct Fingerprint {
    label: &'static str,
    epochs: usize,
    outcome: RunOutcome,
    /// `f64::to_bits` of every loss on the trace, the initial model's
    /// first.
    losses: &'static [u64],
    update_conflicts: Option<u64>,
    /// [`model_hash`] of the best model, which moves even where a change
    /// is too small to show in a rounded loss.
    best_model_hash: u64,
}

/// FNV-1a over the bit patterns of a model's weights.
fn model_hash(weights: &[f64]) -> u64 {
    weights
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Sync on `dense()`, LR, α = 0.5, wall clock: cpu-seq, cpu-par, gpu.
#[rustfmt::skip]
const SYNC_WALL: [Fingerprint; 3] = [
    Fingerprint {
        label: "LR sync cpu-seq",
        epochs: 8,
        outcome: RunOutcome::BudgetExhausted,
        losses: &[
            0x3fe62e42fefa39ee, 0x3fdd66425be529a5, 0x3fd531ee38d88334,
            0x3fd05187be40b7c6, 0x3fca57ab3e99ec71, 0x3fc6000a2dc06a23,
            0x3fc2d881b44d5150, 0x3fc075ccb9db5fda, 0x3fbd3203292b9a2b,
        ],
        update_conflicts: None,
        best_model_hash: 0x575afb6ca86ae195,
    },
    Fingerprint {
        label: "LR sync cpu-par",
        epochs: 8,
        outcome: RunOutcome::BudgetExhausted,
        losses: &[
            0x3fe62e42fefa39ee, 0x3fdd66425be529a5, 0x3fd531ee38d88332,
            0x3fd05187be40b7c6, 0x3fca57ab3e99ec71, 0x3fc6000a2dc06a22,
            0x3fc2d881b44d5150, 0x3fc075ccb9db5fda, 0x3fbd3203292b9a2c,
        ],
        update_conflicts: None,
        best_model_hash: 0x1f32307b6b3e1ede,
    },
    Fingerprint {
        label: "LR sync gpu",
        epochs: 8,
        outcome: RunOutcome::BudgetExhausted,
        losses: &[
            0x3fe62e42fefa39ee, 0x3fdd66425be529a5, 0x3fd531ee38d88334,
            0x3fd05187be40b7c6, 0x3fca57ab3e99ec71, 0x3fc6000a2dc06a23,
            0x3fc2d881b44d5150, 0x3fc075ccb9db5fda, 0x3fbd3203292b9a2b,
        ],
        update_conflicts: None,
        best_model_hash: 0x575afb6ca86ae195,
    },
];

/// Sync on `sparse()`, LR, α = 0.5, modeled paper machine at 1 and 4
/// threads.
#[rustfmt::skip]
const SYNC_MODELED: [Fingerprint; 2] = [
    Fingerprint {
        label: "LR sync cpu-seq (modeled)",
        epochs: 8,
        outcome: RunOutcome::BudgetExhausted,
        losses: &[
            0x3fe62e42fefa39ee, 0x3fe5ee82fecf8f7a, 0x3fe5afc0fcb2336d,
            0x3fe571f8fb0de7ad, 0x3fe535270519bbc1, 0x3fe4f9472f3987fe,
            0x3fe4be5597582dd8, 0x3fe4844e653ad6be, 0x3fe44b2dcacd6947,
        ],
        update_conflicts: None,
        best_model_hash: 0x793215cb81f3f585,
    },
    Fingerprint {
        label: "LR sync cpu-par (modeled)",
        epochs: 8,
        outcome: RunOutcome::BudgetExhausted,
        losses: &[
            0x3fe62e42fefa39ee, 0x3fe5ee82fecf8f7a, 0x3fe5afc0fcb2336d,
            0x3fe571f8fb0de7ad, 0x3fe535270519bbc1, 0x3fe4f9472f3987fe,
            0x3fe4be5597582dd8, 0x3fe4844e653ad6be, 0x3fe44b2dcacd6947,
        ],
        update_conflicts: None,
        best_model_hash: 0x793215cb81f3f585,
    },
];

/// One-worker Hogwild on `sparse()`, LR, α = 0.2.
#[rustfmt::skip]
const HOGWILD_WALL_1: Fingerprint = Fingerprint {
    label: "LR async cpu-seq",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe62e42fefa39ee, 0x3fe0ca664afcc817, 0x3fda5578407f8bad,
        0x3fd552385c4cd33b, 0x3fd1bc2811caacea, 0x3fce2ae67eb5cef0,
        0x3fca2158c19e1385, 0x3fc6f9e22fca4c00, 0x3fc474e97ce6c406,
    ],
    update_conflicts: None,
    best_model_hash: 0xea1e1198410b8325,
};

/// Modeled 4-thread Hogwild on `sparse()`, LR, α = 0.2.
#[rustfmt::skip]
const HOGWILD_MODELED: Fingerprint = Fingerprint {
    label: "LR async cpu-par (modeled)",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe62e42fefa39ee, 0x3fe0c88625a0200c, 0x3fda508458a4ca15,
        0x3fd54d33c3d7535d, 0x3fd1b7806ee7d225, 0x3fce228eca17eee8,
        0x3fca19f798615e7e, 0x3fc6f36085ac70a0, 0x3fc46f2adc3901c2,
    ],
    update_conflicts: None,
    best_model_hash: 0x0a71b431c1148091,
};

/// Warp-Hogwild on `sparse()`, LR, α = 0.2, default GPU options.
#[rustfmt::skip]
const GPU_HOGWILD: Fingerprint = Fingerprint {
    label: "LR async gpu (warp-hogwild)",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe62e42fefa39ee, 0x3fe34ceeedd1f6cd, 0x3fe0f126566d8eda,
        0x3fde00a9af85f0b8, 0x3fdac96d85d72bf5, 0x3fd819e7fd846482,
        0x3fd5d6da300d02ef, 0x3fd3eafed46c2710, 0x3fd245bd14b5fad6,
    ],
    update_conflicts: Some(264),
    best_model_hash: 0xea11e3d30758c255,
};

/// One-worker Hogbatch on `dense()`, MLP 6-4-2 (seed 42), batches of
/// 16, α = 0.5.
#[rustfmt::skip]
const HOGBATCH_WALL_1: Fingerprint = Fingerprint {
    label: "MLP async cpu-seq (hogbatch)",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe89f2bb1c8db25, 0x3fc759a76fa68134, 0x3fb5d220ed8b4b40,
        0x3faa85d5cc3f55fa, 0x3fa27de90295c57d, 0x3f9bf090de6c590d,
        0x3f963af15ef5eb96, 0x3f925626452da8cb, 0x3f8f0f5dfc8b1ed4,
    ],
    update_conflicts: None,
    best_model_hash: 0xb6ac7f600be8a6a5,
};

/// Modeled 4-thread Hogbatch on `dense()`, LR, batches of 16, α = 0.2.
#[rustfmt::skip]
const HOGBATCH_MODELED: Fingerprint = Fingerprint {
    label: "LR async cpu-par (hogbatch, modeled)",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe62e42fefa39ee, 0x3fd689f3d9758c0b, 0x3fccf9ad8364b613,
        0x3fc52f2de97ae525, 0x3fc0a868b85e83c9, 0x3fbb6d33d4625340,
        0x3fb74c216e46e9ba, 0x3fb43ea23bc6e322, 0x3fb1e5b0b9012790,
    ],
    update_conflicts: None,
    best_model_hash: 0x51ee1609e14a7983,
};

/// GPU Hogbatch on `dense()`, MLP 6-4-2 (seed 42), batches of 16,
/// α = 0.5, default GPU options.
#[rustfmt::skip]
const GPU_HOGBATCH: Fingerprint = Fingerprint {
    label: "MLP async gpu (hogbatch)",
    epochs: 8,
    outcome: RunOutcome::BudgetExhausted,
    losses: &[
        0x3fe89f2bb1c8db25, 0x3fc759a76fa68134, 0x3fb5d220ed8b4b40,
        0x3faa85d5cc3f55fa, 0x3fa27de90295c57d, 0x3f9bf090de6c590d,
        0x3f963af15ef5eb96, 0x3f925626452da8cb, 0x3f8f0f5dfc8b1ed4,
    ],
    update_conflicts: Some(0),
    best_model_hash: 0xb6ac7f600be8a6a5,
};

fn assert_fingerprint(report: &RunReport, fp: &Fingerprint) {
    assert_eq!(report.label, fp.label);
    assert_eq!(report.trace.epochs(), fp.epochs, "{}", fp.label);
    assert_eq!(report.metrics.epochs.len(), fp.epochs, "{}", fp.label);
    assert_eq!(report.outcome, fp.outcome, "{}", fp.label);
    let losses: Vec<u64> = report.trace.points().iter().map(|p| p.1.to_bits()).collect();
    assert_eq!(losses, fp.losses, "{}: loss trajectory drifted from the recording", fp.label);
    assert_eq!(report.update_conflicts(), fp.update_conflicts, "{}", fp.label);
    let best =
        report.best_model.as_deref().unwrap_or_else(|| panic!("{}: no best model", fp.label));
    assert_eq!(model_hash(best), fp.best_model_hash, "{}: best model drifted", fp.label);
}

/// Bit-identical comparison of two runs of a deterministic corner.
fn assert_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.device, b.device);
    assert_eq!(a.step_size, b.step_size);
    assert_eq!(a.trace.epochs(), b.trace.epochs());
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(p.1, q.1, "loss diverged: {} vs {}", p.1, q.1);
    }
    assert_eq!(a.metrics.epochs.len(), a.trace.epochs());
    assert_eq!(a.outcome, b.outcome);
}

/// Shape-only check for racy wall-clock corners.
fn assert_shape(report: &RunReport, label: &str) {
    assert_eq!(report.label, label);
    assert_eq!(report.device, DeviceKind::CpuPar);
    assert!(report.trace.epochs() > 0, "{label}");
    assert_eq!(report.metrics.epochs.len(), report.trace.epochs(), "{label}");
}

#[test]
fn sync_wall_matches_legacy_on_every_device() {
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let devices = [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu];
    for (device, fp) in devices.into_iter().zip(&SYNC_WALL) {
        let cfg = Configuration::new(device, Strategy::Sync);
        assert_fingerprint(&Engine::run(&cfg, &lr(6), &batch, 0.5, &opts()), fp);
    }
}

#[test]
fn sync_modeled_matches_legacy() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    for (threads, fp) in [1usize, 4].into_iter().zip(&SYNC_MODELED) {
        let mc = CpuModelConfig::paper_machine(threads);
        let cfg = Configuration::new(mc.device(), Strategy::Sync)
            .with_timing(Timing::Modeled(mc.clone()));
        assert_fingerprint(&Engine::run(&cfg, &lr(16), &batch, 0.5, &opts()), fp);
    }
}

#[test]
fn hogwild_wall_single_thread_matches_legacy() {
    // One worker: no races, the interleaving is fixed, so the run is
    // deterministic and pinned bit-for-bit.
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let o = RunOptions { threads: 1, ..opts() };
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
    assert_fingerprint(&Engine::run(&cfg, &lr(16), &batch, 0.2, &o), &HOGWILD_WALL_1);
}

#[test]
fn hogwild_wall_multithread_matches_legacy_shape() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let cfg = Configuration::new(DeviceKind::CpuPar, Strategy::Hogwild);
    assert_shape(&Engine::run(&cfg, &lr(16), &batch, 0.2, &opts()), "LR async cpu-par");
}

#[test]
fn hogwild_modeled_matches_legacy() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Hogwild).with_timing(Timing::Modeled(mc.clone()));
    assert_fingerprint(&Engine::run(&cfg, &lr(16), &batch, 0.2, &opts()), &HOGWILD_MODELED);
}

#[test]
fn gpu_hogwild_matches_legacy_including_conflicts() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild)
        .with_gpu_async(GpuAsyncOptions::default());
    assert_fingerprint(&Engine::run(&cfg, &lr(16), &batch, 0.2, &opts()), &GPU_HOGWILD);
}

#[test]
fn hogbatch_wall_single_thread_matches_legacy() {
    let (x, y) = dense();
    let full = Batch::new(Examples::Dense(&x), &y);
    let task = MlpTask::new(vec![6, 4, 2], 42);
    let o = RunOptions { threads: 1, ..opts() };
    let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogbatch { batch_size: 16 });
    assert_fingerprint(&Engine::run(&cfg, &task, &full, 0.5, &o), &HOGBATCH_WALL_1);
}

#[test]
fn hogbatch_wall_multithread_matches_legacy_shape() {
    let (x, y) = dense();
    let full = Batch::new(Examples::Dense(&x), &y);
    let o = RunOptions { threads: 2, ..opts() };
    let cfg = Configuration::new(DeviceKind::CpuPar, Strategy::Hogbatch { batch_size: 16 });
    assert_shape(&Engine::run(&cfg, &lr(6), &full, 0.2, &o), "LR async cpu-par (hogbatch)");
}

#[test]
fn hogbatch_modeled_matches_legacy() {
    let (x, y) = dense();
    let full = Batch::new(Examples::Dense(&x), &y);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg = Configuration::new(mc.device(), Strategy::Hogbatch { batch_size: 16 })
        .with_timing(Timing::Modeled(mc.clone()));
    assert_fingerprint(&Engine::run(&cfg, &lr(6), &full, 0.2, &opts()), &HOGBATCH_MODELED);
}

#[test]
fn gpu_hogbatch_matches_legacy() {
    let (x, y) = dense();
    let full = Batch::new(Examples::Dense(&x), &y);
    let task = MlpTask::new(vec![6, 4, 2], 42);
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogbatch { batch_size: 16 })
        .with_gpu_async(GpuAsyncOptions::default());
    assert_fingerprint(&Engine::run(&cfg, &task, &full, 0.5, &opts()), &GPU_HOGBATCH);
}

#[test]
fn empty_fault_plan_is_bit_identical_on_every_deterministic_corner() {
    // A plan that configures nothing harmful — even with a custom seed
    // and a 1.0x "straggler" — must route every runner through its
    // unmodified code path: times, losses, and outcomes bit-identical to
    // a run with default options.
    let noop = FaultPlan::default().with_seed(1234).with_straggler(0, 1.0);
    assert!(noop.is_empty());
    let o = opts();
    let fo = RunOptions { faults: noop, ..opts() };

    // `det_time`: wall-clock CPU corners time real execution, so only
    // losses are comparable across two runs; modeled/simulated corners
    // must also reproduce their clocks exactly.
    let check = |run: &dyn Fn(&RunOptions) -> RunReport, det_time: bool| {
        let clean = run(&o);
        let gated = run(&fo);
        assert_identical(&clean, &gated);
        if det_time {
            assert_eq!(clean.opt_seconds, gated.opt_seconds, "{}", clean.label);
            for (c, g) in clean.trace.points().iter().zip(gated.trace.points()) {
                assert_eq!(c.0, g.0, "epoch time drifted under an empty plan");
            }
        }
        assert_eq!(gated.metrics.total_faults().total_events(), 0);
    };

    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    let task = lr(16);
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu] {
        let cfg = Configuration::new(device, Strategy::Sync);
        check(&|ro| Engine::run(&cfg, &task, &batch, 0.5, ro), device == DeviceKind::Gpu);
    }
    let mc = CpuModelConfig::paper_machine(4);
    for strategy in [Strategy::Sync, Strategy::Hogwild] {
        let cfg =
            Configuration::new(mc.device(), strategy).with_timing(Timing::Modeled(mc.clone()));
        check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, ro), true);
    }
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
    check(&|ro| Engine::run(&cfg, &task, &batch, 0.2, ro), true);

    let (x, yd) = dense();
    let full = Batch::new(Examples::Dense(&x), &yd);
    let dtask = lr(6);
    let cfg = Configuration::new(mc.device(), Strategy::Hogbatch { batch_size: 16 })
        .with_timing(Timing::Modeled(mc.clone()));
    check(&|ro| Engine::run(&cfg, &dtask, &full, 0.2, ro), true);
    let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogbatch { batch_size: 16 });
    check(&|ro| Engine::run(&cfg, &dtask, &full, 0.2, ro), true);
}

#[test]
fn replicated_hogwild_matches_legacy_shape() {
    let (xs, y) = sparse();
    let batch = Batch::new(Examples::Sparse(&xs), &y);
    for (repl, name) in [
        (Replication::PerMachine, "per-machine"),
        (Replication::PerNode { nodes: 2 }, "per-node(2)"),
        (Replication::PerCore, "per-core"),
    ] {
        let cfg = Configuration::new(
            DeviceKind::CpuPar,
            Strategy::ReplicatedHogwild { replication: repl },
        );
        let report = Engine::run(&cfg, &lr(16), &batch, 0.2, &opts());
        assert_shape(&report, &format!("LR async cpu-par [{name}]"));
    }
}

#[test]
fn sync_training_through_the_backend_replays_exactly_on_every_device() {
    // The sync runner's cpu-seq / cpu-par / gpu-sim arms share one
    // `ComputeBackend::dispatch` path. Per device, two runs through that
    // path must produce bit-identical loss trajectories (the recorded
    // fingerprints above pin the path itself bitwise);
    // across devices the trajectories agree at the tolerances the core
    // suite has always pinned — bitwise is not promised there because
    // parallel gradient reductions may legally reorder by an ULP.
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let o = opts();
    let run =
        |d: DeviceKind| Engine::run(&Configuration::new(d, Strategy::Sync), &task, &batch, 0.5, &o);
    let seq = run(DeviceKind::CpuSeq);
    for device in [DeviceKind::CpuSeq, DeviceKind::CpuPar, DeviceKind::Gpu] {
        let a = run(device);
        let b = run(device);
        assert_eq!(a.trace.epochs(), b.trace.epochs(), "{}", a.label);
        for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(
                p.1.to_bits(),
                q.1.to_bits(),
                "{}: loss not bit-deterministic across runs ({} vs {})",
                a.label,
                p.1,
                q.1
            );
        }
        assert_eq!(seq.trace.epochs(), a.trace.epochs(), "{}", a.label);
        for (p, q) in seq.trace.points().iter().zip(a.trace.points()) {
            assert!(
                (p.1 - q.1).abs() < 1e-9,
                "{}: loss drifted from cpu-seq ({} vs {})",
                a.label,
                p.1,
                q.1
            );
        }
    }
}

#[test]
fn run_options_kernel_tier_scalar_pins_the_default_trajectory() {
    // `RunOptions::tier` defaults to Scalar; setting it explicitly must be
    // a no-op down to the bit — times included, since modeled timing is
    // deterministic.
    use sgd_study::linalg::KernelTier;
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Sync).with_timing(Timing::Modeled(mc.clone()));
    let default_run = Engine::run(&cfg, &task, &batch, 0.5, &opts());
    let pinned =
        Engine::run(&cfg, &task, &batch, 0.5, &RunOptions { tier: KernelTier::Scalar, ..opts() });
    assert_identical(&default_run, &pinned);
    for (p, q) in default_run.trace.points().iter().zip(pinned.trace.points()) {
        assert_eq!(p.0.to_bits(), q.0.to_bits(), "modeled epoch time drifted");
        assert_eq!(p.1.to_bits(), q.1.to_bits(), "loss drifted under an explicit Scalar tier");
    }
}

#[test]
fn engine_tier_sweep_is_deterministic_and_vector_tiers_agree() {
    // The tier-sweep smoke for full training runs: every tier converges,
    // each tier replays bit-identically, and the two vector tiers (AVX2
    // when available, portable otherwise vs. forced-portable) agree
    // bitwise on any data — the same discipline `pool_bit_identity.rs`
    // pins for bare kernels, now through `Engine::run`.
    use sgd_study::linalg::KernelTier;
    let (x, y) = dense();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let mc = CpuModelConfig::paper_machine(4);
    let cfg =
        Configuration::new(mc.device(), Strategy::Sync).with_timing(Timing::Modeled(mc.clone()));
    let run =
        |tier: KernelTier| Engine::run(&cfg, &task, &batch, 0.5, &RunOptions { tier, ..opts() });
    let mut by_tier = Vec::new();
    for tier in [KernelTier::Scalar, KernelTier::Simd, KernelTier::SimdPortable] {
        let a = run(tier);
        let b = run(tier);
        assert!(a.best_loss().is_finite(), "{tier:?} produced a non-finite loss");
        assert!(a.best_loss() < 0.5, "{tier:?} failed to make progress: {}", a.best_loss());
        assert_eq!(a.trace.epochs(), b.trace.epochs(), "{tier:?} epoch count not replayable");
        for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
            assert_eq!(p.1.to_bits(), q.1.to_bits(), "{tier:?} not bit-deterministic");
        }
        by_tier.push(a);
    }
    let (simd, portable) = (&by_tier[1], &by_tier[2]);
    assert_eq!(simd.trace.epochs(), portable.trace.epochs());
    for (p, q) in simd.trace.points().iter().zip(portable.trace.points()) {
        assert_eq!(p.1.to_bits(), q.1.to_bits(), "Simd vs SimdPortable trajectories diverge");
    }
}

#[test]
fn dispatch_modes_agree_bitwise_on_a_deterministic_parallel_corner() {
    // The persistent pool and the measured fork-join baseline split work
    // into identical chunks (assignment depends only on the requested
    // width, never on the dispatch mechanism), so a deterministic corner
    // whose kernels cross MIN_PARALLEL_LEN must produce bit-identical
    // reports under either dispatch mode.
    use sgd_study::linalg::pool::{with_dispatch, Dispatch};
    use sgd_study::linalg::MIN_PARALLEL_LEN;

    let n = MIN_PARALLEL_LEN + 101;
    let x = Matrix::from_fn(n, 6, |i, j| {
        let s = if i % 2 == 0 { 1.0 } else { -1.0 };
        s * (((i * 3 + j) % 5) as f64 + 1.0) / 5.0
    });
    let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let batch = Batch::new(Examples::Dense(&x), &y);
    let task = lr(6);
    let cfg = Configuration::new(DeviceKind::CpuPar, Strategy::Sync);
    for threads in [2usize, 4] {
        let o = RunOptions { threads, max_epochs: 4, plateau: None, ..Default::default() };
        let pooled = with_dispatch(Dispatch::Pool, || Engine::run(&cfg, &task, &batch, 0.5, &o));
        let forked =
            with_dispatch(Dispatch::ForkJoin, || Engine::run(&cfg, &task, &batch, 0.5, &o));
        assert_identical(&pooled, &forked);
    }
}

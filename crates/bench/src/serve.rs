//! Serving bench: micro-batched inference vs unbatched dispatch.
//!
//! Not a paper figure, but the paper's thesis applied to inference: the
//! fixed per-dispatch cost (kernel launch on the GPU, pool hand-off /
//! call overhead on the CPU) is amortized by batching requests exactly
//! as dense batched SGD amortizes kernel launches during training. The
//! sweep trains an LR model through the engine's publish hook, then
//! replays a deterministic open-loop workload against every backend ×
//! batch-size cell and reports p50/p95/p99 latency plus throughput.
//! Under the modeled service clock every number is bit-deterministic
//! for a fixed seed — `check` pins that, plus the batching win and a
//! disk round trip, and runs in CI.

use sgd_core::{Configuration, DeviceKind, Engine, RunOptions, Strategy, Timing};
use sgd_serve::{
    open_loop_arrivals, open_requests, run_admitted, AdmissionPolicy, BatchPolicy, Checkpoint,
    CheckpointPublisher, ClosedClients, ComputeService, ModelRegistry, RequestPool, ServableModel,
    ServeBackend, ServeOutcome, ServeTiming, Server, TaskDescriptor,
};

use crate::cli::ExperimentConfig;
use crate::prep::{prepare_all, Prepared};

/// Micro-batcher sizes swept (1 is the unbatched baseline).
pub const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];

/// Requests per serving run.
pub const REQUESTS: usize = 512;

/// Flush deadline for partial batches, seconds.
pub const MAX_WAIT_SECS: f64 = 2.5e-4;

/// The three serving backends swept.
pub fn backends() -> [ServeBackend; 3] {
    [ServeBackend::CpuSeq, ServeBackend::CpuPar { threads: 4 }, ServeBackend::GpuSim]
}

/// One (dataset, backend, batch-size) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Dataset name.
    pub dataset: String,
    /// Backend label.
    pub backend: String,
    /// Micro-batcher max batch size (1 = unbatched).
    pub batch: usize,
    /// Requests served.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Offered load, requests/second.
    pub rate_rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
}

/// Trains an LR model on the prepared dataset through the engine and the
/// serve-layer publish hook, returning the best-so-far published model.
pub fn train_published_model(cfg: &ExperimentConfig, p: &Prepared) -> ServableModel {
    let task = sgd_models::lr(p.ds.d());
    let batch = p.linear_batch();
    let registry = ModelRegistry::new();
    let descriptor = TaskDescriptor::LogisticRegression { dim: p.ds.d() as u64 };
    let mut publisher = CheckpointPublisher::new(&registry, p.name(), descriptor.clone());
    let corner = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync).with_timing(Timing::Wall);
    let opts = RunOptions {
        max_epochs: cfg.max_epochs.min(5),
        target_loss: None,
        plateau: None,
        ..cfg.run_options()
    };
    Engine::run_observed(&corner, &task, &batch, 0.1, &opts, &mut publisher);
    match registry.get(p.name()) {
        Some(snap) => snap.model.clone(),
        // An LR epoch at this step size always improves on the zero
        // model, but fall back to serving zeros rather than panicking.
        None => {
            let ck = Checkpoint::new(descriptor, vec![0.0; p.ds.d()])
                .expect("descriptor matches its own dimension");
            ServableModel::from_checkpoint(&ck).expect("zero model is valid")
        }
    }
}

/// Request pool for a prepared dataset: dense rows for the paper's dense
/// profile (covtype), CSR rows otherwise — the same representation the
/// training batch uses.
pub fn request_pool(p: &Prepared) -> RequestPool {
    match &p.dense {
        Some(m) => RequestPool::dense(m.clone()),
        None => RequestPool::from_dataset(&p.ds),
    }
}

/// Unbatched single-request service time on a fresh server — the probe
/// that anchors the offered load (shared with the router sweep).
pub fn probe_service_secs(backend: ServeBackend, model: &ServableModel, pool: &RequestPool) -> f64 {
    let mut srv = Server::new(backend, ServeTiming::Modeled);
    let (_, secs) = srv.predict(model, &pool.assemble(&[0]).examples());
    secs.max(1e-9)
}

/// Runs one cell of the sweep: open-loop `arrivals` (request `i` scores
/// pool row `i`) through the batcher, shedding nothing.
fn serve_cell(
    backend: ServeBackend,
    model: &ServableModel,
    pool: &RequestPool,
    batch: usize,
    arrivals: &[f64],
) -> ServeOutcome {
    let mut srv = Server::new(backend, ServeTiming::Modeled);
    let mut svc = ComputeService::new(&mut srv, model, pool);
    let policy = BatchPolicy::new(batch, MAX_WAIT_SECS);
    let open = open_requests(arrivals);
    run_admitted(&mut svc, &policy, &AdmissionPolicy::unbounded(), &open, &ClosedClients::none())
}

/// Runs the sweep: every selected dataset × backend × batch size, at an
/// offered load of twice the backend's unbatched capacity (so the
/// unbatched baseline saturates and batching has something to win).
pub fn rows(cfg: &ExperimentConfig) -> Vec<ServeRow> {
    let mut out = Vec::new();
    for p in prepare_all(cfg) {
        let model = train_published_model(cfg, &p);
        let pool = request_pool(&p);
        for backend in backends() {
            let probe = probe_service_secs(backend, &model, &pool);
            let rate = 2.0 / probe;
            let arrivals = open_loop_arrivals(rate, REQUESTS, cfg.seed);
            for batch in BATCH_SIZES {
                let o = serve_cell(backend, &model, &pool, batch, &arrivals);
                out.push(ServeRow {
                    dataset: p.name().to_string(),
                    backend: backend.label(),
                    batch,
                    requests: o.summary.n,
                    batches: o.batches,
                    rate_rps: rate,
                    p50_ms: o.summary.p50 * 1e3,
                    p95_ms: o.summary.p95 * 1e3,
                    p99_ms: o.summary.p99 * 1e3,
                    throughput_rps: o.summary.throughput,
                });
            }
        }
    }
    out
}

/// Hand-rolled JSON for `BENCH_serve.json` (the repo carries no JSON
/// dependency; every float the sweep emits is finite).
pub fn to_json(rows: &[ServeRow]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"serve-microbatch\",\n  \"unit\": \"ms latency / requests per second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"backend\": \"{}\", \"batch\": {}, \
             \"requests\": {}, \"batches\": {}, \"rate_rps\": {:.1}, \"p50_ms\": {:.6}, \
             \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"throughput_rps\": {:.1}}}{}\n",
            r.dataset,
            r.backend,
            r.batch,
            r.requests,
            r.batches,
            r.rate_rps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.throughput_rps,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table for stdout.
pub fn render(rows: &[ServeRow]) -> String {
    let mut out = String::from(
        "Serve sweep: micro-batched inference, open loop at 2x unbatched capacity (LR)\n",
    );
    out.push_str(&format!(
        "{:<9} {:<9} {:>5} {:>8} | {:>10} {:>10} {:>10} {:>12}\n",
        "dataset", "backend", "batch", "batches", "p50-ms", "p95-ms", "p99-ms", "rps"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<9} {:>5} {:>8} | {:>10.4} {:>10.4} {:>10.4} {:>12.1}\n",
            r.dataset,
            r.backend,
            r.batch,
            r.batches,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.throughput_rps
        ));
    }
    out
}

/// CI smoke mode. Asserts, on a tiny dataset:
/// 1. the modeled-timing sweep is bit-deterministic for a fixed seed;
/// 2. for at least one backend, some batched cell beats the unbatched
///    baseline on throughput at equal-or-better p99;
/// 3. a model trained through the engine, checkpointed to disk,
///    reloaded, and served returns bitwise-identical decisions to the
///    in-memory model;
/// 4. the cost-model router holds its CI gate on the mixed workload
///    (see [`crate::router::check`]): deterministic, within 5% of the
///    best fixed backend in every cell, strictly better than the best
///    single fixed backend in at least one.
pub fn check(cfg: &ExperimentConfig) -> Result<(), String> {
    // (1) Determinism: two full sweeps must agree bitwise.
    let a = rows(cfg);
    let b = rows(cfg);
    if a.len() != b.len() {
        return Err(format!("sweep size diverged across runs ({} vs {})", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        let same = x.p50_ms.to_bits() == y.p50_ms.to_bits()
            && x.p99_ms.to_bits() == y.p99_ms.to_bits()
            && x.throughput_rps.to_bits() == y.throughput_rps.to_bits()
            && x.batches == y.batches;
        if !same {
            return Err(format!(
                "{} {} batch={} not bit-deterministic across runs",
                x.dataset, x.backend, x.batch
            ));
        }
    }

    // (2) The batching win, per backend.
    let mut any_win = false;
    for backend in backends() {
        let label = backend.label();
        let cells: Vec<&ServeRow> = a.iter().filter(|r| r.backend == label).collect();
        let Some(base) = cells.iter().find(|r| r.batch == 1) else {
            return Err(format!("no unbatched baseline for backend {label}"));
        };
        let win = cells.iter().any(|r| {
            r.batch > 1 && r.throughput_rps > base.throughput_rps && r.p99_ms <= base.p99_ms
        });
        if win {
            any_win = true;
        }
    }
    if !any_win {
        return Err(
            "no backend beat unbatched dispatch on throughput at equal-or-better p99".to_string()
        );
    }

    // (3) Disk round trip: checkpoint → fresh reload → bitwise-equal
    // decisions on every backend.
    for p in prepare_all(cfg) {
        let model = train_published_model(cfg, &p);
        let pool = request_pool(&p);
        let ck = model.to_checkpoint().map_err(|e| e.to_string())?;
        let path = std::env::temp_dir().join(format!("sgd-serve-check-{}.ckpt", p.name()));
        ck.save(&path).map_err(|e| e.to_string())?;
        let reloaded = Checkpoint::load(&path).map_err(|e| e.to_string())?;
        std::fs::remove_file(&path).ok();
        let served = ServableModel::from_checkpoint(&reloaded).map_err(|e| e.to_string())?;
        let arrivals = vec![0.0; 32];
        for backend in backends() {
            let live = serve_cell(backend, &model, &pool, 8, &arrivals);
            let cold = serve_cell(backend, &served, &pool, 8, &arrivals);
            for (i, (x, y)) in live.decisions.iter().zip(&cold.decisions).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "{} {}: reloaded model diverged at request {i} ({x} vs {y})",
                        p.name(),
                        backend.label()
                    ));
                }
            }
        }
    }

    // (4) The router gate, on its own mixed sparse + dense workload.
    crate::router::check(cfg)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_on_the_smoke_config() {
        check(&ExperimentConfig::smoke()).expect("serve check must pass");
    }

    #[test]
    fn sweep_produces_a_full_grid_and_valid_json() {
        let cfg = ExperimentConfig::smoke();
        let rows = rows(&cfg);
        assert_eq!(rows.len(), BATCH_SIZES.len() * backends().len(), "one dataset, full grid");
        for r in &rows {
            assert_eq!(r.requests, REQUESTS);
            assert!(r.batches >= REQUESTS / r.batch.max(1), "batches bounded below");
            assert!(r.p50_ms.is_finite() && r.p99_ms.is_finite());
            assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms);
            assert!(r.throughput_rps > 0.0);
        }
        let json = to_json(&rows);
        assert!(json.contains("\"serve-microbatch\""));
        assert_eq!(json.matches("\"backend\"").count(), rows.len());
        let table = render(&rows);
        assert!(table.contains("p99-ms"));
    }

    #[test]
    fn trained_model_beats_zero_weights() {
        let cfg = ExperimentConfig::smoke();
        let p = &prepare_all(&cfg)[0];
        let model = train_published_model(&cfg, p);
        assert!(model.weights().iter().any(|&w| w != 0.0), "training published a real model");
    }
}

//! Router bench: cost-model backend routing vs every fixed backend.
//!
//! PR 6's tentpole gives the serving batcher a per-batch router: the
//! shared [`sgd_core::CostModel`] estimates each candidate backend's
//! service time for the assembled batch's workload and dispatches to
//! the argmin. This sweep measures what that buys on a *mixed*
//! workload — a sparse dataset (w8a-style CSR rows, where kernel-launch
//! overhead dwarfs the arithmetic and the CPU wins) next to the paper's
//! dense profile (covtype, where a large enough micro-batch amortizes
//! the launch and the simulated GPU wins) — against the three fixed
//! backends on identical arrival traces. No single fixed backend wins
//! every (dataset × batch-size) cell; the router should match the
//! per-cell winner everywhere and beat the best *single* fixed backend
//! somewhere. `check` pins exactly that, plus bit-determinism, and runs
//! in CI as part of `serve --check`.

use sgd_serve::{
    open_loop_arrivals, open_requests, run_admitted, AdmissionPolicy, BatchPolicy, ClosedClients,
    ComputeService, ServeBackend, ServeTiming, Server,
};

use crate::cli::ExperimentConfig;
use crate::prep::prepare_all;
use crate::serve::{probe_service_secs, request_pool, train_published_model};

/// Micro-batcher sizes swept. 256 is the cell where the dense GPU win
/// shows up: at the modeled rates a 256-row gemv amortizes the K80's
/// kernel-launch overhead past the CPU's dispatch-plus-compute cost.
pub const BATCH_SIZES: [usize; 3] = [1, 16, 256];

/// Requests per serving run.
pub const REQUESTS: usize = 512;

/// Flush deadline for partial batches, seconds. Longer than the serve
/// sweep's so the 256-deep cell actually fills at the offered load.
pub const MAX_WAIT_SECS: f64 = 1.0e-3;

/// Worker width for the fixed cpu-par contender and the router's
/// cpu-par candidate.
pub const PAR_THREADS: usize = 4;

/// The router's candidate set: every fixed backend.
pub fn candidates() -> [ServeBackend; 3] {
    ServeBackend::fixed_set(PAR_THREADS)
}

/// One contender in the sweep: a fixed backend, or the cost-model
/// router choosing among all of them per batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contender {
    /// Always dispatch to this backend.
    Fixed(ServeBackend),
    /// Pick the cost-model argmin per assembled batch.
    Routed,
}

impl Contender {
    /// Column label.
    pub fn label(&self) -> String {
        match self {
            Contender::Fixed(b) => b.label(),
            Contender::Routed => "router".to_string(),
        }
    }

    /// A fresh server for this contender.
    pub fn server(&self) -> Server {
        match self {
            Contender::Fixed(b) => Server::new(*b, ServeTiming::Modeled),
            Contender::Routed => Server::routed(candidates().to_vec(), ServeTiming::Modeled),
        }
    }
}

/// The four contenders, fixed backends first.
pub fn contenders() -> [Contender; 4] {
    let [seq, par, gpu] = candidates();
    [Contender::Fixed(seq), Contender::Fixed(par), Contender::Fixed(gpu), Contender::Routed]
}

/// One (dataset, contender, batch-size) cell.
#[derive(Clone, Debug)]
pub struct RouterRow {
    /// Dataset name.
    pub dataset: String,
    /// Contender label (`cpu-seq`, `cpu-par4`, `gpu-sim`, `router`).
    pub contender: String,
    /// Micro-batcher max batch size (1 = unbatched).
    pub batch: usize,
    /// Requests served.
    pub requests: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Offered load, requests/second (shared by every contender in the
    /// dataset × batch cell).
    pub rate_rps: f64,
    /// Mean latency, milliseconds — the metric the CI gate compares.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Batches this contender dispatched to each backend, in
    /// `candidates()` order. A fixed contender's count is all in one
    /// slot; the router's split is the routing decision record.
    pub dispatched: [usize; 3],
}

/// Runs one cell and tallies the per-backend dispatch counts.
fn router_cell(
    contender: Contender,
    model: &sgd_serve::ServableModel,
    pool: &sgd_serve::RequestPool,
    batch: usize,
    arrivals: &[f64],
    rate: f64,
    dataset: &str,
) -> RouterRow {
    let mut srv = contender.server();
    let policy = BatchPolicy::new(batch, MAX_WAIT_SECS);
    let mut svc = ComputeService::new(&mut srv, model, pool);
    let open = open_requests(arrivals);
    let o = run_admitted(
        &mut svc,
        &policy,
        &AdmissionPolicy::unbounded(),
        &open,
        &ClosedClients::none(),
    );
    let mut dispatched = [0usize; 3];
    for label in &o.batch_backends {
        if let Some(i) = candidates().iter().position(|b| &b.label() == label) {
            dispatched[i] += 1;
        }
    }
    RouterRow {
        dataset: dataset.to_string(),
        contender: contender.label(),
        batch,
        requests: o.summary.n,
        batches: o.batches,
        rate_rps: rate,
        mean_ms: o.summary.mean * 1e3,
        p50_ms: o.summary.p50 * 1e3,
        p99_ms: o.summary.p99 * 1e3,
        throughput_rps: o.summary.throughput,
        dispatched,
    }
}

/// Runs the sweep. Unlike the serve sweep (which re-anchors the offered
/// load per backend), every contender in a cell replays the *same*
/// arrival trace, anchored at twice the cpu-seq unbatched capacity —
/// latencies are directly comparable, which is what routing is about.
pub fn rows(cfg: &ExperimentConfig) -> Vec<RouterRow> {
    let mut out = Vec::new();
    for p in prepare_all(cfg) {
        let model = train_published_model(cfg, &p);
        let pool = request_pool(&p);
        let probe = probe_service_secs(ServeBackend::CpuSeq, &model, &pool);
        let rate = 2.0 / probe;
        let arrivals = open_loop_arrivals(rate, REQUESTS, cfg.seed);
        for batch in BATCH_SIZES {
            for c in contenders() {
                out.push(router_cell(c, &model, &pool, batch, &arrivals, rate, p.name()));
            }
        }
    }
    out
}

/// Hand-rolled JSON for `BENCH_router.json`.
pub fn to_json(rows: &[RouterRow]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"serve-router\",\n  \"unit\": \"ms latency / requests per second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"contender\": \"{}\", \"batch\": {}, \
             \"requests\": {}, \"batches\": {}, \"rate_rps\": {:.1}, \"mean_ms\": {:.6}, \
             \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"throughput_rps\": {:.1}, \
             \"dispatched\": {{\"cpu-seq\": {}, \"cpu-par{}\": {}, \"gpu-sim\": {}}}}}{}\n",
            r.dataset,
            r.contender,
            r.batch,
            r.requests,
            r.batches,
            r.rate_rps,
            r.mean_ms,
            r.p50_ms,
            r.p99_ms,
            r.throughput_rps,
            r.dispatched[0],
            PAR_THREADS,
            r.dispatched[1],
            r.dispatched[2],
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table for stdout.
pub fn render(rows: &[RouterRow]) -> String {
    let mut out = String::from(
        "Router sweep: cost-model routing vs fixed backends, shared arrival traces (LR)\n",
    );
    out.push_str(&format!(
        "{:<9} {:<9} {:>5} {:>8} | {:>10} {:>10} {:>10} {:>12} | {:>17}\n",
        "dataset",
        "contender",
        "batch",
        "batches",
        "mean-ms",
        "p50-ms",
        "p99-ms",
        "rps",
        "seq/par/gpu"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<9} {:>5} {:>8} | {:>10.4} {:>10.4} {:>10.4} {:>12.1} | {:>5}/{:>5}/{:>5}\n",
            r.dataset,
            r.contender,
            r.batch,
            r.batches,
            r.mean_ms,
            r.p50_ms,
            r.p99_ms,
            r.throughput_rps,
            r.dispatched[0],
            r.dispatched[1],
            r.dispatched[2],
        ));
    }
    out
}

/// The rows of one (dataset, batch) cell, fixed contenders and router.
fn cell<'a>(rows: &'a [RouterRow], dataset: &str, batch: usize) -> Vec<&'a RouterRow> {
    rows.iter().filter(|r| r.dataset == dataset && r.batch == batch).collect()
}

/// CI gate for the router (run from `serve --check` and the router
/// bin's `--check`). On a mixed sparse + dense workload, asserts:
/// 1. the sweep is bit-deterministic across runs, routing decisions
///    included;
/// 2. the router never loses more than 5% mean latency to the best
///    fixed backend in *any* cell;
/// 3. the router strictly beats the best *single* fixed backend (the
///    one with the lowest total mean across the whole workload) in at
///    least one cell — i.e. no fixed choice dominates routing.
pub fn check(cfg: &ExperimentConfig) -> Result<(), String> {
    // The mixed workload: one CSR profile (launch-dominated, CPU wins)
    // plus the paper's dense profile (amortizable, GPU wins at depth).
    let mut cfg = cfg.clone();
    cfg.datasets = vec!["w8a".into(), "covtype".into()];

    // (1) Determinism, routing decisions included.
    let a = rows(&cfg);
    let b = rows(&cfg);
    if a.len() != b.len() {
        return Err(format!("sweep size diverged across runs ({} vs {})", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        let same = x.mean_ms.to_bits() == y.mean_ms.to_bits()
            && x.p99_ms.to_bits() == y.p99_ms.to_bits()
            && x.throughput_rps.to_bits() == y.throughput_rps.to_bits()
            && x.batches == y.batches
            && x.dispatched == y.dispatched;
        if !same {
            return Err(format!(
                "{} {} batch={} not bit-deterministic across runs (routing or latency diverged)",
                x.dataset, x.contender, x.batch
            ));
        }
    }

    // (2) Per cell: router within 5% of the best fixed backend.
    let datasets: Vec<String> = cfg.datasets.clone();
    for ds in &datasets {
        for batch in BATCH_SIZES {
            let rows = cell(&a, ds, batch);
            let Some(router) = rows.iter().find(|r| r.contender == "router") else {
                return Err(format!("missing router row for {ds} batch={batch}"));
            };
            let best_fixed = rows
                .iter()
                .filter(|r| r.contender != "router")
                .map(|r| r.mean_ms)
                .fold(f64::INFINITY, f64::min);
            if router.mean_ms > best_fixed * 1.05 {
                return Err(format!(
                    "{ds} batch={batch}: router mean {:.4}ms loses >5% to best fixed {:.4}ms",
                    router.mean_ms, best_fixed
                ));
            }
        }
    }

    // (3) No single fixed backend dominates the router.
    let mut best_single: Option<(String, f64)> = None;
    for c in contenders() {
        let label = c.label();
        if label == "router" {
            continue;
        }
        let total: f64 = a.iter().filter(|r| r.contender == label).map(|r| r.mean_ms).sum();
        let better = match &best_single {
            Some((_, t)) => total < *t,
            None => true,
        };
        if better {
            best_single = Some((label, total));
        }
    }
    let Some((best_label, _)) = best_single else {
        return Err("no fixed contenders in the sweep".to_string());
    };
    let beats = datasets.iter().any(|ds| {
        BATCH_SIZES.iter().any(|&batch| {
            let rows = cell(&a, ds, batch);
            let router = rows.iter().find(|r| r.contender == "router");
            let fixed = rows.iter().find(|r| r.contender == best_label);
            match (router, fixed) {
                (Some(r), Some(f)) => r.mean_ms < f.mean_ms,
                _ => false,
            }
        })
    });
    if !beats {
        return Err(format!(
            "router never strictly beat the best single fixed backend ({best_label}) in any cell"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_on_the_smoke_config() {
        check(&ExperimentConfig::smoke()).expect("router check must pass");
    }

    #[test]
    fn sweep_produces_a_full_grid_and_valid_json() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.datasets = vec!["covtype".into()];
        let rows = rows(&cfg);
        assert_eq!(rows.len(), BATCH_SIZES.len() * contenders().len(), "one dataset, full grid");
        for r in &rows {
            assert_eq!(r.requests, REQUESTS);
            assert_eq!(r.dispatched.iter().sum::<usize>(), r.batches, "every batch tallied");
            assert!(r.mean_ms.is_finite() && r.p99_ms.is_finite());
            assert!(r.throughput_rps > 0.0);
        }
        let json = to_json(&rows);
        assert!(json.contains("\"serve-router\""));
        assert_eq!(json.matches("\"contender\"").count(), rows.len());
        let table = render(&rows);
        assert!(table.contains("seq/par/gpu"));
    }

    #[test]
    fn router_splits_the_dense_workload_across_backends() {
        // The routing story in one assertion: on the dense profile the
        // router sends shallow batches to a CPU backend and deep ones to
        // the simulated GPU.
        let mut cfg = ExperimentConfig::smoke();
        cfg.datasets = vec!["covtype".into()];
        let all = rows(&cfg);
        let shallow = all
            .iter()
            .find(|r| r.contender == "router" && r.batch == 1)
            .expect("router row at batch 1");
        assert_eq!(shallow.dispatched[2], 0, "unbatched dense requests stay off the GPU");
        let deep = all
            .iter()
            .find(|r| r.contender == "router" && r.batch == 256)
            .expect("router row at batch 256");
        assert!(
            deep.dispatched[2] > 0,
            "deep dense batches should route to the GPU: {:?}",
            deep.dispatched
        );
    }
}

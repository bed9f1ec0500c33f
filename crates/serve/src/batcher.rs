//! Request micro-batcher: admission queue, batching policy, and batched
//! dispatch through the unified backend layer.
//!
//! Single-example predict requests enter an admission queue; the batcher
//! coalesces them into batches under a policy (max batch size `B`, max
//! wait `W`) and dispatches each batch as *one* gemv/spmv/gemm stream
//! through [`sgd_core::ComputeBackend`] — the same dispatch
//! implementation training uses. `B = 1, W = 0` degenerates to unbatched
//! per-request dispatch — the baseline the bench compares against.
//!
//! Queueing is simulated by [`crate::admission::run_admitted`], a
//! deterministic discrete-event system over request arrival timestamps;
//! under [`crate::admission::AdmissionPolicy::unbounded`] it is the plain
//! batcher and never sheds. Given identical arrivals, policy, and a
//! modeled service clock, every latency in the outcome is bit-identical
//! across runs. The batch trigger rule is the classic one: a batch
//! launches when `B` requests are pending or the oldest pending request
//! has waited `W`, whichever comes first, and never before the server is
//! free again.
//!
//! Service time comes from a [`ServeTiming`]: `Modeled` charges the
//! shared [`CostModel`] estimate (bit-exact across runs; the
//! serving-side analog of `Timing::Modeled` in the engine), `Wall`
//! measures the real computation with `Instant`. The simulated GPU
//! always uses its simulated clock — and because the server's
//! [`sgd_core::BackendSession`] holds one persistent device whose batch
//! buffers are bound to stable logical names, consecutive GPU batches
//! trace a *warm* L2 (the PR-5 cold-device bug) while staying
//! bit-deterministic across runs.
//!
//! A server can also be built with [`Server::routed`]: it then picks the
//! backend per batch from the shared cost model (dense/large → gpu-sim,
//! small/sparse → cpu), turning the paper's guidance table into a live
//! scheduling policy.

use sgd_core::{
    BackendFault, BackendSession, ComputeBackend, CostModel, ExecTask, FaultPlan, GpuDispatch,
    Workload,
};
use sgd_linalg::{pool, Exec, Scalar};
use sgd_models::Examples;

use crate::admission::{OutcomeCounts, RequestOutcome};
use crate::model::ServableModel;
use crate::stats::LatencySummary;

/// The serving backend *is* the training backend: one enum, one axis.
pub type ServeBackend = ComputeBackend;

/// Batching policy of the admission queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are pending (>= 1).
    pub max_batch: usize,
    /// Dispatch once the oldest pending request has waited this many
    /// seconds, even if the batch is not full.
    pub max_wait: f64,
}

impl BatchPolicy {
    /// A policy coalescing up to `max_batch` requests within `max_wait`
    /// seconds. A zero `max_batch` is treated as 1.
    pub fn new(max_batch: usize, max_wait: f64) -> Self {
        BatchPolicy { max_batch: max_batch.max(1), max_wait: max_wait.max(0.0) }
    }

    /// The unbatched baseline: every request dispatches alone.
    pub fn unbatched() -> Self {
        BatchPolicy { max_batch: 1, max_wait: 0.0 }
    }
}

/// Where service time comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeTiming {
    /// Analytic cost model — bit-deterministic across runs.
    Modeled,
    /// Real `Instant` measurements around the computation (CPU backends
    /// only; the simulated GPU always uses its simulated clock).
    Wall,
}

/// How the server picks a backend for each batch.
enum Route {
    /// Every batch goes to one fixed backend.
    Fixed(ComputeBackend),
    /// Each batch goes to whichever candidate the shared cost model
    /// predicts fastest for that batch's workload.
    Routed(Vec<ComputeBackend>),
}

/// One batched predict as a backend job.
struct PredictJob<'a> {
    model: &'a ServableModel,
    x: &'a Examples<'a>,
}

impl ExecTask for PredictJob<'_> {
    type Out = Vec<Scalar>;
    fn run<E: Exec>(&mut self, e: &mut E) -> Vec<Scalar> {
        self.model.predict_batch(e, self.x)
    }
}

/// A serving endpoint: a backend route, a service clock, and the
/// session state (persistent simulated GPU) dispatches accumulate in.
pub struct Server {
    route: Route,
    timing: ServeTiming,
    session: BackendSession,
    cost: CostModel,
    last_backend: ComputeBackend,
    last_gpu: Option<GpuDispatch>,
}

impl Server {
    /// A server on the fixed `backend` with the given service clock.
    pub fn new(backend: ServeBackend, timing: ServeTiming) -> Self {
        Server {
            route: Route::Fixed(backend),
            timing,
            session: BackendSession::new(),
            // At the ambient (default, Scalar) tier this is bit-identical
            // to `CostModel::default()`; under a SIMD tier scope the
            // model prices CPU arithmetic at the measured vector rate.
            cost: CostModel::for_tier(pool::current_tier()),
            last_backend: backend,
            last_gpu: None,
        }
    }

    /// A router server: each batch goes to whichever of `candidates` the
    /// shared cost model predicts fastest (empty candidate lists fall
    /// back to the sequential CPU).
    pub fn routed(candidates: Vec<ServeBackend>, timing: ServeTiming) -> Self {
        let first = candidates.first().copied().unwrap_or(ComputeBackend::CpuSeq);
        Server {
            route: Route::Routed(candidates),
            timing,
            session: BackendSession::new(),
            cost: CostModel::for_tier(pool::current_tier()),
            last_backend: first,
            last_gpu: None,
        }
    }

    /// The backend this server dispatches to — for a router, the backend
    /// the most recent batch was routed to.
    pub fn backend(&self) -> ServeBackend {
        match &self.route {
            Route::Fixed(b) => *b,
            Route::Routed(_) => self.last_backend,
        }
    }

    /// The shared cost model pricing this server's dispatches.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Simulated-device accounting of the most recent batch (`None`
    /// until a batch runs on the GPU backend).
    pub fn last_gpu_dispatch(&self) -> Option<&GpuDispatch> {
        self.last_gpu.as_ref()
    }

    /// The backend the route selects for this batch (the router's
    /// decision, made before dispatch; a fixed server always answers its
    /// one backend).
    pub fn route(&self, model: &ServableModel, x: &Examples<'_>) -> ServeBackend {
        match &self.route {
            Route::Fixed(b) => *b,
            Route::Routed(cands) => self
                .cost
                .fastest(cands.iter(), &predict_workload(model, x))
                .unwrap_or(ComputeBackend::CpuSeq),
        }
    }

    /// Installs a fault gate on the server's backend session: every
    /// subsequent [`Server::try_predict`] draws one decision from `plan`
    /// (see [`sgd_core::DispatchFaults`]). The ungated [`Server::predict`]
    /// path ignores the gate entirely.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.session.install_faults(plan);
    }

    /// Binds the batch's buffers to stable logical names before a GPU
    /// dispatch: each batch is a fresh host allocation, but a fixed name
    /// keeps the virtual address — the device L2 stays warm across
    /// batches and the trace never depends on the host allocator.
    fn bind_gpu_buffers(&mut self, model: &ServableModel, x: &Examples<'_>) {
        let dev = self.session.gpu_device();
        dev.bind_buffer("serve.weights", model.weights());
        match x {
            Examples::Dense(m) => {
                dev.bind_buffer("serve.batch", m.as_slice());
            }
            Examples::Sparse(s) => {
                dev.bind_buffer("serve.batch.vals", s.values());
                dev.bind_buffer("serve.batch.cols", s.col_idx());
            }
        }
    }

    /// Service seconds of a finished dispatch under this server's clock.
    /// The modeled CPU estimate is dilated by the dispatch's fault factor
    /// (1.0 on the ungated path); the wall and simulated-GPU clocks are
    /// already dilated by the gate itself.
    fn service_secs(
        &self,
        backend: ComputeBackend,
        model: &ServableModel,
        x: &Examples<'_>,
        wall_secs: f64,
        gpu: Option<GpuDispatch>,
        fault_dilation: f64,
    ) -> f64 {
        match (backend, self.timing) {
            // The simulated GPU always answers with its own clock.
            (ComputeBackend::GpuSim, _) => gpu.map(|g| g.sim_secs).unwrap_or(0.0),
            (_, ServeTiming::Wall) => wall_secs,
            (b, ServeTiming::Modeled) => {
                self.cost.estimate_secs(&b, &predict_workload(model, x)) * fault_dilation
            }
        }
    }

    /// Scores one batch: returns each example's decision value and the
    /// service time in seconds under this server's clock. This is the
    /// unconditional path — any installed fault gate is bypassed; fault-
    /// surfacing front-ends go through [`Server::try_predict`].
    pub fn predict(&mut self, model: &ServableModel, x: &Examples<'_>) -> (Vec<Scalar>, f64) {
        let backend = self.route(model, x);
        self.last_backend = backend;
        if backend == ComputeBackend::GpuSim {
            self.bind_gpu_buffers(model, x);
        }
        let mut job = PredictJob { model, x };
        let d = backend.dispatch(&mut self.session, &mut job);
        self.last_gpu = d.gpu.or(self.last_gpu);
        let secs = self.service_secs(backend, model, x, d.wall_secs, d.gpu, 1.0);
        (d.out, secs)
    }

    /// Scores one batch through the session's fault gate: a dead backend
    /// surfaces as a typed [`BackendFault`] (the job never runs), a
    /// straggling one completes with its service time dilated. Without
    /// an installed gate this is exactly [`Server::predict`] and never
    /// fails.
    pub fn try_predict(
        &mut self,
        model: &ServableModel,
        x: &Examples<'_>,
    ) -> Result<(Vec<Scalar>, f64), BackendFault> {
        let backend = self.route(model, x);
        self.last_backend = backend;
        if backend == ComputeBackend::GpuSim {
            self.bind_gpu_buffers(model, x);
        }
        let mut job = PredictJob { model, x };
        let d = backend.try_dispatch(&mut self.session, &mut job)?;
        self.last_gpu = d.gpu.or(self.last_gpu);
        let secs = self.service_secs(backend, model, x, d.wall_secs, d.gpu, d.fault_dilation);
        Ok((d.out, secs))
    }
}

/// Workload estimate of one batched predict — the unit the modeled CPU
/// clock charges for and the router prices backends against.
pub fn predict_workload(model: &ServableModel, x: &Examples<'_>) -> Workload {
    match model {
        ServableModel::Lr { .. } | ServableModel::Svm { .. } => match x {
            Examples::Dense(m) => {
                let (n, d) = (m.rows() as f64, m.cols() as f64);
                // One fused gemv: stream the batch, read the model, write
                // the decisions.
                Workload { flops: 2.0 * n * d, bytes: 8.0 * (n * d + d + n), kernels: 1.0 }
            }
            Examples::Sparse(s) => {
                let nnz = s.nnz() as f64;
                let n = s.rows() as f64;
                // CSR streams values+indices; model gathers are
                // uncoalesced, so charge a pessimistic line per nnz.
                Workload {
                    flops: 2.0 * nnz,
                    bytes: 12.0 * nnz + 32.0 * nnz + 8.0 * n,
                    kernels: 1.0,
                }
            }
        },
        ServableModel::Mlp { task, .. } => {
            let n = x.n() as f64;
            let mut w = Workload::default();
            for pair in task.layers().windows(2) {
                if let (Some(&a), Some(&b)) = (pair.first(), pair.get(1)) {
                    // gemm + bias + activation per link.
                    w.flops += n * (2 * a * b + 5 * b) as f64;
                    w.bytes += 8.0 * (n * (a + b) as f64 + (a * b + b) as f64);
                    w.kernels += 3.0;
                }
            }
            w.kernels = w.kernels.max(1.0);
            w
        }
    }
}

/// Floating-point operation estimate of one batched predict.
pub fn predict_flops(model: &ServableModel, x: &Examples<'_>) -> f64 {
    predict_workload(model, x).flops
}

/// Everything one serving run produced.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Latency (completion − arrival) of each completed request,
    /// seconds, in completion order. Open-loop traffic with nothing shed
    /// completes in arrival order.
    pub latencies: Vec<f64>,
    /// Decision value of each completed request, same order as
    /// `latencies` (NaN under a service that prices batches without
    /// scoring them).
    pub decisions: Vec<Scalar>,
    /// Number of batches dispatched.
    pub batches: usize,
    /// Largest batch dispatched.
    pub max_batch_seen: usize,
    /// Backend label each batch was dispatched to, in dispatch order
    /// (constant for a fixed server; the router's per-batch decisions).
    pub batch_backends: Vec<String>,
    /// Total server busy time, seconds.
    pub service_secs: f64,
    /// First arrival to last completion, seconds.
    pub makespan: f64,
    /// Latency/throughput summary.
    pub summary: LatencySummary,
    /// How each offered request resolved, indexed by request id (see
    /// [`crate::admission::run_admitted`] for the id order). Never a
    /// silent drop: `outcomes.len() == counts.offered()`.
    pub outcomes: Vec<RequestOutcome>,
    /// The conservation ledger over `outcomes`.
    pub counts: OutcomeCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{run_admitted, AdmissionPolicy, ClosedClients, ComputeService};
    use crate::checkpoint::Checkpoint;
    use crate::loadgen::{open_requests, RequestPool};
    use crate::model::TaskDescriptor;
    use sgd_linalg::Matrix;

    fn lr_model(dim: usize) -> ServableModel {
        let w: Vec<Scalar> = (0..dim).map(|i| 0.1 * (i as Scalar + 1.0)).collect();
        let ck = Checkpoint::new(TaskDescriptor::LogisticRegression { dim: dim as u64 }, w)
            .expect("dims");
        ServableModel::from_checkpoint(&ck).expect("valid")
    }

    fn toy_pool() -> RequestPool {
        RequestPool::dense(Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, -1.0, 0.5],
            &[3.0, 1.0, 0.0],
        ]))
    }

    /// Open-loop traffic through the batcher with nothing shed: request
    /// `i` arrives at `arrivals[i]` and scores pool row `i`.
    fn serve_open(
        srv: &mut Server,
        model: &ServableModel,
        pool: &RequestPool,
        policy: &BatchPolicy,
        arrivals: &[f64],
    ) -> ServeOutcome {
        let mut svc = ComputeService::new(srv, model, pool);
        let open = open_requests(arrivals);
        run_admitted(&mut svc, policy, &AdmissionPolicy::unbounded(), &open, &ClosedClients::none())
    }

    /// `clients` closed-loop clients, `per_client` requests each, through
    /// the batcher with nothing shed.
    fn serve_closed(
        srv: &mut Server,
        model: &ServableModel,
        policy: &BatchPolicy,
        clients: usize,
        per_client: usize,
        think: f64,
    ) -> ServeOutcome {
        let pool = toy_pool();
        let mut svc = ComputeService::new(srv, model, &pool);
        let closed = ClosedClients { clients, per_client, think, priority: 0 };
        run_admitted(&mut svc, policy, &AdmissionPolicy::unbounded(), &[], &closed)
    }

    #[test]
    fn unbatched_policy_serves_one_request_per_batch() {
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let model = lr_model(3);
        let arrivals: Vec<f64> = (0..6).map(|i| i as f64 * 1e-3).collect();
        let out = serve_open(&mut srv, &model, &toy_pool(), &BatchPolicy::unbatched(), &arrivals);
        assert_eq!(out.batches, 6);
        assert_eq!(out.max_batch_seen, 1);
        assert_eq!(out.summary.n, 6);
        assert!(out.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(out.batch_backends.len(), 6);
        assert!(out.batch_backends.iter().all(|b| b == "cpu-seq"));
    }

    #[test]
    fn saturating_arrivals_coalesce_into_full_batches() {
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let model = lr_model(3);
        // All 8 requests arrive at t=0: the first dispatches alone or the
        // batch fills instantly, depending on policy.
        let arrivals = vec![0.0; 8];
        let out = serve_open(&mut srv, &model, &toy_pool(), &BatchPolicy::new(4, 1.0), &arrivals);
        assert_eq!(out.batches, 2, "8 simultaneous requests at B=4 is 2 batches");
        assert_eq!(out.max_batch_seen, 4);
    }

    #[test]
    fn max_wait_flushes_partial_batches() {
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let model = lr_model(3);
        // One early request, one far later: W must flush the first alone.
        let arrivals = vec![0.0, 1.0];
        let out = serve_open(&mut srv, &model, &toy_pool(), &BatchPolicy::new(64, 0.01), &arrivals);
        assert_eq!(out.batches, 2);
        // First request waited W, then service.
        let l0 = out.latencies.first().copied().unwrap_or(0.0);
        assert!(l0 >= 0.01, "flush waited max_wait ({l0})");
        assert!(l0 < 0.02, "but not much longer ({l0})");
    }

    #[test]
    fn decisions_match_direct_computation_in_arrival_order() {
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let model = lr_model(3);
        let pool = toy_pool();
        let arrivals = vec![0.0; 5];
        let out = serve_open(&mut srv, &model, &pool, &BatchPolicy::new(3, 1e-3), &arrivals);
        // Request i uses pool row i % 3; compare to a direct single-row
        // predict on the same backend.
        for i in 0..5 {
            let row = pool.assemble(&[i % 3]);
            let mut direct = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
            let (scores, _) = direct.predict(&model, &row.examples());
            assert_eq!(
                out.decisions.get(i).copied().map(f64::to_bits),
                scores.first().copied().map(f64::to_bits),
                "request {i} decision must match a direct predict bitwise"
            );
        }
    }

    #[test]
    fn modeled_timing_is_bit_deterministic() {
        let model = lr_model(3);
        let arrivals: Vec<f64> = (0..40).map(|i| i as f64 * 1e-6).collect();
        let run = || {
            let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
            serve_open(&mut srv, &model, &toy_pool(), &BatchPolicy::new(8, 1e-4), &arrivals)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.latencies.len(), b.latencies.len());
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gpu_sim_service_time_is_deterministic_and_amortizes_launches() {
        let model = lr_model(3);
        let arrivals = vec![0.0; 32];
        let serve = |policy: BatchPolicy| {
            let mut srv = Server::new(ServeBackend::GpuSim, ServeTiming::Modeled);
            serve_open(&mut srv, &model, &toy_pool(), &policy, &arrivals)
        };
        let unbatched = serve(BatchPolicy::unbatched());
        let unbatched2 = serve(BatchPolicy::unbatched());
        assert_eq!(
            unbatched.service_secs.to_bits(),
            unbatched2.service_secs.to_bits(),
            "simulated clock is deterministic"
        );
        let batched = serve(BatchPolicy::new(32, 1e-3));
        assert!(batched.batches < unbatched.batches);
        assert!(
            batched.service_secs < unbatched.service_secs,
            "batching amortizes per-kernel launch overhead: {} vs {}",
            batched.service_secs,
            unbatched.service_secs
        );
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let model = lr_model(3);
        let out = serve_closed(&mut srv, &model, &BatchPolicy::new(4, 1e-4), 3, 5, 0.0);
        assert_eq!(out.summary.n, 15);
        assert_eq!(out.latencies.len(), 15);
        assert!(out.batches >= 5, "at most `clients` requests per batch");
        assert!(out.max_batch_seen <= 3);
        assert!(out.summary.throughput > 0.0);
        assert_eq!(out.batch_backends.len(), out.batches);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let model = lr_model(3);
        let run = || {
            let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
            serve_closed(&mut srv, &model, &BatchPolicy::new(2, 1e-5), 4, 6, 1e-6)
        };
        let (a, b) = (run(), run());
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn cpu_par_backend_matches_seq_decisions() {
        let model = lr_model(3);
        let arrivals = vec![0.0; 9];
        let pol = BatchPolicy::new(3, 1e-4);
        let seq = serve_open(
            &mut Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled),
            &model,
            &toy_pool(),
            &pol,
            &arrivals,
        );
        let par = serve_open(
            &mut Server::new(ServeBackend::CpuPar { threads: 4 }, ServeTiming::Modeled),
            &model,
            &toy_pool(),
            &pol,
            &arrivals,
        );
        for (s, p) in seq.decisions.iter().zip(&par.decisions) {
            assert_eq!(s.to_bits(), p.to_bits(), "backends agree bitwise");
        }
    }

    #[test]
    fn modeled_cpu_clock_charges_the_shared_cost_model() {
        // The old local constants moved into sgd_core::CostModel; the
        // modeled service time must equal its estimate exactly.
        let model = lr_model(3);
        let mut srv = Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled);
        let pool = toy_pool();
        let batch = pool.assemble(&[0, 1]);
        let x = batch.examples();
        let (_, secs) = srv.predict(&model, &x);
        let expect =
            srv.cost_model().estimate_secs(&ComputeBackend::CpuSeq, &predict_workload(&model, &x));
        assert_eq!(secs.to_bits(), expect.to_bits());
    }

    #[test]
    fn router_prefers_cpu_for_tiny_batches_and_gpu_for_large_dense() {
        let model = lr_model(64);
        let wide = Matrix::from_fn(256, 64, |i, j| ((i + j) % 7) as f64 - 3.0);
        let pool = RequestPool::dense(wide);
        let mut srv = Server::routed(ComputeBackend::fixed_set(4).to_vec(), ServeTiming::Modeled);
        let one = pool.assemble(&[0]);
        assert_eq!(srv.route(&model, &one.examples()), ComputeBackend::CpuSeq);
        let big = pool.assemble(&(0..256).collect::<Vec<_>>());
        assert_eq!(srv.route(&model, &big.examples()), ComputeBackend::GpuSim);
        // Dispatch updates `backend()` to the routed choice.
        let _ = srv.predict(&model, &big.examples());
        assert_eq!(srv.backend(), ComputeBackend::GpuSim);
    }

    #[test]
    fn routed_server_is_deterministic_and_matches_fixed_decisions() {
        let model = lr_model(3);
        let arrivals: Vec<f64> = (0..24).map(|i| i as f64 * 3e-6).collect();
        let pol = BatchPolicy::new(8, 1e-4);
        let run = || {
            let mut srv =
                Server::routed(ComputeBackend::fixed_set(4).to_vec(), ServeTiming::Modeled);
            serve_open(&mut srv, &model, &toy_pool(), &pol, &arrivals)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.batch_backends, b.batch_backends, "same arrivals, same routing");
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let fixed = serve_open(
            &mut Server::new(ServeBackend::CpuSeq, ServeTiming::Modeled),
            &model,
            &toy_pool(),
            &pol,
            &arrivals,
        );
        for (r, f) in a.decisions.iter().zip(&fixed.decisions) {
            assert_eq!(r.to_bits(), f.to_bits(), "routing never changes the math");
        }
    }
}

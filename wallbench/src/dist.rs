//! `dist-rcv1`: LR on the rcv1 profile over the loopback-TCP parameter
//! server, 2 workers, 4 shards, a sync quorum of 2.
//!
//! The untraced run repeats `run_dist_wire` for a fixed number of
//! epochs. The traced run drives `DistWorker`s over a timing wrapper
//! around `DistWireClient` against a `DistWireServer`, steered by the
//! benchmark's own coordinator, so every pull, lease, push, gradient and
//! idle wait is a span. Op = one epoch; an epoch fails when the run
//! aborts or a transport error occurs.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgd_core::{RunOptions, RunOutcome};
use sgd_datagen::Dataset;
use sgd_dist::{
    make_shards, run_dist_modeled, run_dist_wire, ConsistencyMode, DistConfig, DistWireClient,
    DistWireServer, DistWorker, InProcTransport, LeaseGrant, ParamServer, PushOutcome, Reply,
    Request, Transport, TransportError,
};
use sgd_linalg::CpuExec;
use sgd_models::{lr, Batch, Examples, LinearTask, LogisticLoss, Task};
use sgd_serve::framing::lock_tolerant;

use crate::report::{repeat_timed, Config, Outcome, Window};
use crate::stats::{below, median};
use crate::trace::{covered_ns, Span, Tracer};

pub const WORKERS: usize = 2;
pub const SHARDS: usize = 4;
/// Tail percentile printed for the epoch time. Its floor of 100 epochs
/// also steadies the median: an epoch is a dozen round trips, each with
/// or without a delayed-ACK stall, so epoch times are bimodal and the
/// median needs many epochs to settle.
pub const TAIL_PCT: f64 = 90.0;
/// Epochs per training run, and the step size.
pub const EPOCHS: usize = 10;
const ALPHA: f64 = 8.0;
/// Epochs of a traced probe when the parameter server is not the run's
/// workload.
const PROBE_EPOCHS: usize = 3;
/// Sleep between polls of shared state, as the repository's wire runner
/// does.
const POLL: Duration = Duration::from_micros(200);

pub fn mode() -> ConsistencyMode {
    ConsistencyMode::Sync { grads_to_wait: 2 }
}

pub fn cluster() -> DistConfig {
    DistConfig { workers: WORKERS, shards: SHARDS, mode: mode(), ..DistConfig::default() }
}

fn options(epochs: usize, seed: u64) -> RunOptions {
    RunOptions {
        max_epochs: epochs,
        max_secs: 120.0,
        plateau: None,
        threads: 1,
        seed,
        ..Default::default()
    }
}

pub struct DistSetup {
    pub ds: Dataset,
    pub task: LinearTask<LogisticLoss>,
}

impl DistSetup {
    pub fn new(cfg: &Config) -> Self {
        let ds = crate::data::rcv1(cfg.scale);
        let task = lr(ds.d());
        DistSetup { ds, task }
    }

    pub fn batch(&self) -> Batch<'_> {
        Batch::new(Examples::Sparse(&self.ds.x), &self.ds.y)
    }
}

/// Epoch times and losses of repeated `run_dist_wire` runs.
#[derive(Debug, Default)]
struct Runs {
    epoch_ms: Vec<f64>,
    finals: Vec<f64>,
    /// Epochs per wall second of each run, set-up and evaluation
    /// included.
    epochs_per_s: Vec<f64>,
    wall_secs: f64,
}

/// Repeats `run_dist_wire` for `EPOCHS` epochs until `window` closes.
fn wire_runs(s: &DistSetup, cfg: &Config, window: Window, out: &mut Outcome) -> Runs {
    let epochs = if cfg.smoke { PROBE_EPOCHS } else { EPOCHS };
    let batch = s.batch();
    let mut runs = Runs::default();
    let start = Instant::now();
    loop {
        out.attempted += epochs as u64;
        let t0 = Instant::now();
        let result = run_dist_wire(&s.task, &batch, &cluster(), ALPHA, &options(epochs, cfg.seed));
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok(rep) => {
                let pts = rep.trace.points();
                let done = pts.len().saturating_sub(1);
                for w in pts.windows(2) {
                    runs.epoch_ms.push((w[1].0 - w[0].0) * 1e3);
                }
                let initial = pts.first().map_or(f64::NAN, |p| p.1);
                let last = pts.last().map_or(f64::NAN, |p| p.1);
                let aborted = matches!(
                    rep.outcome,
                    RunOutcome::FaultAborted { .. } | RunOutcome::Diverged { .. }
                );
                if aborted || done != epochs || !below(last, initial) {
                    out.failed += epochs as u64;
                    out.fail(format!(
                        "dist run ended {} after {done} epochs with loss {last} (initial {initial})",
                        rep.outcome.label()
                    ));
                }
                runs.finals.push(last);
                runs.epochs_per_s.push(done as f64 / wall);
            }
            Err(e) => {
                out.failed += epochs as u64;
                out.fail(format!("dist run: {e}"));
                break;
            }
        }
        if window.done(start.elapsed().as_secs_f64(), runs.epoch_ms.len()) {
            break;
        }
    }
    runs.wall_secs = start.elapsed().as_secs_f64();
    runs
}

/// The untraced run: set-up (repeated), then repeated training runs.
pub fn e2e(cfg: &Config, out: &mut Outcome) {
    let (setup_s, s) = repeat_timed(cfg.setups, || DistSetup::new(cfg));
    let runs = wire_runs(&s, cfg, cfg.window(TAIL_PCT), out);
    out.note(format!(
        "dist-rcv1: {} epochs in {} runs over {:.1} s",
        runs.epoch_ms.len(),
        runs.finals.len(),
        runs.wall_secs,
    ));
    out.note(format!("op ms: {}", crate::stats::describe(&runs.epoch_ms)));
    out.note(crate::stats::tail(&runs.epoch_ms, TAIL_PCT));
    out.metric("setup_s", "s", setup_s);
    out.metric("op_p50_ms", "ms", median(&runs.epoch_ms));
    out.metric("ops_per_s", "1/s", median(&runs.epochs_per_s));
    out.metric("final_loss", "nats", median(&runs.finals));
}

/// Shared counters of the traced transports.
#[derive(Default)]
struct Counters {
    /// Index of the epoch in progress.
    epoch: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
    pushes: AtomicU64,
}

/// Wire bytes of one message, computed from the protocol's text
/// encoding: every `f64` is 16 hex digits plus a separating space.
fn line_bytes(header: String, floats: usize) -> u64 {
    (header.len() + 17 * floats + 1) as u64
}

fn request_bytes(req: &Request) -> u64 {
    match req {
        Request::Join { worker } => line_bytes(format!("JOIN {worker}"), 0),
        Request::Pull => line_bytes("PULL".into(), 0),
        Request::Lease { worker } => line_bytes(format!("LEASE {worker}"), 0),
        Request::Push { worker, version, shard, grad } => {
            line_bytes(format!("PUSH {worker} {version} {shard}"), grad.len())
        }
        Request::Leave { worker } => line_bytes(format!("LEAVE {worker}"), 0),
    }
}

fn reply_bytes(reply: &Reply) -> u64 {
    match reply {
        Reply::Model { version, model } => line_bytes(format!("MODEL {version}"), model.len()),
        Reply::Lease(LeaseGrant::Shard(s)) => line_bytes(format!("LEASE SHARD {s}"), 0),
        Reply::Lease(LeaseGrant::Drained) => line_bytes("LEASE DRAINED".into(), 0),
        Reply::Lease(LeaseGrant::Shutdown) => line_bytes("LEASE SHUTDOWN".into(), 0),
        Reply::Pushed(PushOutcome::Applied { version }) => {
            line_bytes(format!("PUSHED APPLIED {version}"), 0)
        }
        Reply::Pushed(PushOutcome::Accumulated) => line_bytes("PUSHED ACC".into(), 0),
        Reply::Pushed(PushOutcome::RejectedStale { current }) => {
            line_bytes(format!("PUSHED STALE {current}"), 0)
        }
        Reply::Pushed(PushOutcome::DownWeighted { version, staleness }) => {
            line_bytes(format!("PUSHED DW {version} {staleness}"), 0)
        }
        Reply::Left => line_bytes("LEFT".into(), 0),
    }
}

/// A `Transport` that records a span around every call of the one it
/// wraps, under the worker's root span, tagged with the current epoch.
struct Timed<'t, C> {
    inner: C,
    local: crate::trace::Local<'t>,
    worker_span: u64,
    counters: &'t Counters,
}

impl<C: Transport> Transport for Timed<'_, C> {
    fn call(&mut self, req: Request) -> Result<Reply, TransportError> {
        let name = match &req {
            Request::Join { .. } => "dist.join",
            Request::Pull => "dist.pull",
            Request::Lease { .. } => "dist.lease",
            Request::Push { .. } => "dist.push",
            Request::Leave { .. } => "dist.leave",
        };
        let sent = request_bytes(&req);
        let epoch = self.counters.epoch.load(Ordering::Relaxed);
        let span = self.local.open(name, Some(self.worker_span), epoch);
        let reply = self.inner.call(req);
        self.local.close(span);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = &reply {
            self.counters.bytes.fetch_add(sent + reply_bytes(r), Ordering::Relaxed);
        }
        reply
    }
}

/// What a traced run measured.
#[derive(Debug, Default)]
struct TracedRun {
    epoch_ms: Vec<f64>,
    losses: Vec<f64>,
    initial: f64,
    calls: u64,
    bytes: u64,
    pushes: u64,
    rejected: u64,
}

/// One worker's loop, mirroring the repository's wire runner with a
/// span around each step.
fn worker_loop(
    wk: usize,
    addr: std::net::SocketAddr,
    s: &DistSetup,
    shards: &[sgd_dist::Shard],
    tracer: &Tracer,
    counters: &Counters,
) -> Result<(), TransportError> {
    let mut local = tracer.local();
    let root = local.open("dist.worker", None, wk as u64);
    let client = DistWireClient::connect(addr).map_err(|e| {
        // The server accepts exactly WORKERS connections: hand it a
        // throwaway one so it does not wait for this worker forever.
        drop(std::net::TcpStream::connect(addr));
        TransportError(format!("connect: {e}"))
    })?;
    let timed = Timed { inner: client, local: tracer.local(), worker_span: root.id(), counters };
    let mut w = DistWorker::new(wk, timed);
    let outcome = (|| {
        w.join()?;
        loop {
            w.pull()?;
            match w.lease()? {
                LeaseGrant::Shard(id) => {
                    let shard = shards
                        .get(id)
                        .ok_or_else(|| TransportError(format!("unknown shard {id}")))?;
                    loop {
                        let epoch = counters.epoch.load(Ordering::Relaxed);
                        let span = local.open("dist.compute", Some(root.id()), epoch);
                        w.compute(&s.task, shard);
                        local.close(span);
                        counters.pushes.fetch_add(1, Ordering::Relaxed);
                        match w.push(id)? {
                            PushOutcome::RejectedStale { .. } => w.pull()?,
                            _ => break,
                        }
                    }
                }
                LeaseGrant::Drained => {
                    let epoch = counters.epoch.load(Ordering::Relaxed);
                    let span = local.open("dist.wait", Some(root.id()), epoch);
                    std::thread::sleep(POLL);
                    local.close(span);
                }
                LeaseGrant::Shutdown => break,
            }
        }
        w.leave()
    })();
    drop(w);
    local.close(root);
    outcome
}

/// Trains for `epochs` epochs with the benchmark's own coordinator,
/// recording spans.
fn traced_run(
    s: &DistSetup,
    cfg: &Config,
    epochs: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> TracedRun {
    let batch = s.batch();
    let shards = make_shards(&batch, SHARDS);
    let w0 = s.task.init_model();
    let server = Arc::new(Mutex::new(ParamServer::new(w0.clone(), ALPHA, mode(), shards.len())));
    let front = DistWireServer::new(Arc::clone(&server));
    let mut run =
        TracedRun { initial: s.task.loss(&mut CpuExec::seq(), &batch, &w0), ..Default::default() };
    let listener =
        match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr().map(|a| (l, a))) {
            Ok(la) => la,
            Err(e) => {
                out.attempted += epochs as u64;
                out.failed += epochs as u64;
                out.fail(format!("dist bind: {e}"));
                return run;
            }
        };
    let (listener, addr) = listener;
    let counters = Counters::default();
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|sc| {
        let serving = sc.spawn(|| front.serve_connections(&listener, WORKERS));
        for wk in 0..WORKERS {
            let (shards, counters, errors) = (&shards, &counters, &errors);
            sc.spawn(move || {
                if let Err(e) = worker_loop(wk, addr, s, shards, tracer, counters) {
                    lock_tolerant(errors).push(format!("worker {wk}: {e}"));
                }
            });
        }
        let mut local = tracer.local();
        let mut eval = CpuExec::seq();
        for epoch in 0..epochs {
            let order = crate::data::permutation(shards.len(), cfg.seed ^ ((epoch as u64) << 32));
            let span = local.open("dist.epoch", None, epoch as u64);
            counters.epoch.store(epoch as u64, Ordering::Relaxed);
            lock_tolerant(&server).begin_epoch(&order);
            let mut done = false;
            while start.elapsed().as_secs_f64() < cfg.cap_secs {
                if lock_tolerant(&server).epoch_done() {
                    done = true;
                    break;
                }
                let errored = !lock_tolerant(&errors).is_empty();
                if errored && lock_tolerant(&server).live_workers() == 0 {
                    break;
                }
                std::thread::sleep(POLL);
            }
            out.attempted += 1;
            if !done {
                local.close(span);
                out.failed += (epochs - epoch) as u64;
                out.attempted += (epochs - epoch - 1) as u64;
                out.fail(format!("traced dist epoch {epoch} did not complete"));
                break;
            }
            let eval_span = local.open("dist.eval", Some(span.id()), epoch as u64);
            let loss = {
                let mut srv = lock_tolerant(&server);
                srv.flush_pending();
                s.task.loss(&mut eval, &batch, srv.model())
            };
            local.close(eval_span);
            run.epoch_ms.push(local.close(span) * 1e3);
            run.losses.push(loss);
        }
        lock_tolerant(&server).initiate_shutdown();
        if let Ok(Err(e)) = serving.join() {
            lock_tolerant(&errors).push(format!("server: {e}"));
        }
    });
    for e in lock_tolerant(&errors).drain(..) {
        out.fail(e);
    }
    run.calls = counters.calls.load(Ordering::Relaxed);
    run.bytes = counters.bytes.load(Ordering::Relaxed);
    run.pushes = counters.pushes.load(Ordering::Relaxed);
    run.rejected = lock_tolerant(&server).stats().rejected;
    let last = run.losses.last().copied().unwrap_or(f64::NAN);
    if !below(last, run.initial) {
        out.fail(format!("traced dist loss {last} is not below {}", run.initial));
    }
    run
}

/// The traced run's parameter-server layers; returns the tracing
/// overhead in percent when this is the run's own workload.
pub fn layers(
    s: &DistSetup,
    cfg: &Config,
    primary: bool,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Option<f64> {
    let plain = primary.then(|| {
        let w = Window { seconds: cfg.seconds / 3.0, min_ops: 1, cap_secs: cfg.cap_secs };
        wire_runs(s, cfg, w, out)
    });
    let epochs = if primary && !cfg.smoke {
        let per_epoch = plain.as_ref().map_or(f64::NAN, |p| median(&p.epoch_ms) / 1e3);
        ((cfg.seconds * 2.0 / 3.0 / per_epoch).ceil() as usize).clamp(PROBE_EPOCHS, 400)
    } else {
        PROBE_EPOCHS
    };
    let run = traced_run(s, cfg, epochs, tracer, out);
    let spans: Vec<Span> =
        tracer.spans().into_iter().filter(|sp| sp.name.starts_with("dist.")).collect();
    let durations = |name: &str| -> Vec<f64> {
        spans.iter().filter(|sp| sp.name == name).map(|sp| sp.duration_ns() as f64 / 1e6).collect()
    };
    let total = |name: &str| -> f64 { durations(name).iter().fold(0.0, |a, b| a + b) };
    let epoch_ms = median(&run.epoch_ms);
    let n_epochs = run.epoch_ms.len().max(1) as f64;
    out.metric("dist.epoch_ms", "ms", epoch_ms);
    out.metric("dist.pull_ms", "ms", median(&durations("dist.pull")));
    out.metric("dist.lease_ms", "ms", median(&durations("dist.lease")));
    out.metric("dist.push_ms", "ms", median(&durations("dist.push")));
    out.metric("dist.compute_ms", "ms", median(&durations("dist.compute")));
    out.metric("dist.wait_share", "ratio", total("dist.wait") / total("dist.worker"));
    out.metric("dist.accounted_share", "ratio", accounted_share(&spans));
    out.metric("dist.calls_per_epoch", "count", run.calls as f64 / n_epochs);
    out.metric("dist.bytes_per_epoch", "B", run.bytes as f64 / n_epochs);
    out.metric("dist.stale_share", "ratio", run.rejected as f64 / run.pushes.max(1) as f64);

    // The same requests over the in-process transport, and the server
    // apply alone, at the model's full dimension.
    let batch = s.batch();
    let shards = make_shards(&batch, SHARDS);
    let w0 = s.task.init_model();
    let mut grad = vec![0.0; w0.len()];
    s.task.gradient(&mut CpuExec::seq(), &shards[0].batch(), &w0, &mut grad);
    let iters = if cfg.smoke { 5 } else { 200 };
    let shared = Arc::new(Mutex::new(ParamServer::new(w0.clone(), ALPHA, mode(), SHARDS)));
    let mut inproc = InProcTransport::new(Arc::clone(&shared));
    let (pull, _) = repeat_timed(iters, || {
        black_box(inproc.call(Request::Pull).ok());
    });
    let mut version = 0;
    let mut push_secs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let req = Request::Push { worker: 0, version, shard: 0, grad: grad.clone() };
        let t = Instant::now();
        let reply = inproc.call(req);
        push_secs.push(t.elapsed().as_secs_f64());
        version = next_version(version, reply.ok());
    }
    out.metric("dist.inproc_pull_ms", "ms", pull * 1e3);
    out.metric("dist.inproc_push_ms", "ms", median(&push_secs) * 1e3);
    let mut ps = ParamServer::new(w0, ALPHA, mode(), SHARDS);
    let mut version = 0;
    let (apply, _) = repeat_timed(iters, || {
        let outcome = ps.push(0, version, 0, &grad);
        version = next_version(version, Some(Reply::Pushed(outcome)));
    });
    out.metric("dist.apply_us", "us", apply * 1e6);

    // The modeled cluster's prediction for the same configuration.
    let modeled =
        run_dist_modeled(&s.task, &batch, &cluster(), ALPHA, &options(PROBE_EPOCHS, cfg.seed));
    let modeled_ms = modeled.time_per_epoch() * 1e3;
    let measured = plain.as_ref().map_or(epoch_ms, |p| median(&p.epoch_ms));
    out.metric("dist.modeled_epoch_ms", "ms", modeled_ms);
    out.metric("dist.residual", "ratio", measured / modeled_ms);
    out.note(format!(
        "dist layers: {} traced epochs; measured {measured:.3} ms/epoch vs modeled {modeled_ms:.4} ms/epoch",
        run.epoch_ms.len()
    ));
    plain.map(|p| (epoch_ms / median(&p.epoch_ms) - 1.0) * 100.0)
}

/// The version to tag the next push with, given the last reply.
fn next_version(version: u64, reply: Option<Reply>) -> u64 {
    match reply {
        Some(Reply::Pushed(PushOutcome::Applied { version }))
        | Some(Reply::Pushed(PushOutcome::DownWeighted { version, .. }))
        | Some(Reply::Pushed(PushOutcome::RejectedStale { current: version })) => version,
        _ => version,
    }
}

/// Median over (epoch, worker) of the share of the epoch's wall time
/// that the worker's spans (pull, lease, push, compute, wait, join,
/// leave) cover.
fn accounted_share(spans: &[Span]) -> f64 {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == "dist.worker").collect();
    let mut shares = Vec::new();
    for epoch in spans.iter().filter(|s| s.name == "dist.epoch") {
        for root in &roots {
            let iv: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let covered = covered_ns(epoch.start_ns, epoch.end_ns, &iv);
            shares.push(covered as f64 / epoch.duration_ns().max(1) as f64);
        }
    }
    median(&shares)
}

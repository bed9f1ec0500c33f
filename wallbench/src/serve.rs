//! `serve-rcv1`: a closed loop of two `WireClient` connections against
//! one `WireServer::serve_connections` serving an LR model trained on
//! the rcv1 profile.
//!
//! Op = one request: a dataset row as a LIBSVM line, in seeded order
//! (client `c` sends rows `order[c], order[c + 2], ...`). A request
//! fails on an I/O error, any `ERR` reply, or a decision that is not
//! bitwise the in-process `predict_batch` value for that row.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sgd_core::{Configuration, DeviceKind, Engine, RunOptions, Strategy};
use sgd_datagen::{libsvm, Dataset};
use sgd_linalg::CpuExec;
use sgd_models::{lr, Batch, Examples, Task};
use sgd_serve::wire::WireResponse;
use sgd_serve::{
    Checkpoint, ModelRegistry, ServableModel, TaskDescriptor, WireClient, WireConfig, WireServer,
};

use crate::report::{repeat_timed, Config, Outcome, Window};
use crate::stats::{below, mean, median};
use crate::trace::Tracer;

/// Registry name of the served model.
pub const MODEL: &str = "rcv1-lr";
/// Client connections (and server workers): no more than the host's
/// two cores.
pub const CLIENTS: usize = 2;
/// Tail percentile printed for the round trip.
pub const TAIL_PCT: f64 = 99.0;
/// Requests a traced probe sends when serving is not the run's
/// workload.
const PROBE_REQUESTS: usize = 24;
/// Full-batch epochs and step size that train the served model.
const TRAIN_EPOCHS: usize = 5;
const TRAIN_ALPHA: f64 = 8.0;

/// Everything the serving loop needs, built before the first request.
pub struct Served {
    pub ds: Dataset,
    pub lines: Vec<String>,
    /// In-process decision value of every row.
    pub expected: Vec<f64>,
    pub order: Vec<usize>,
    pub registry: ModelRegistry,
    pub listener: TcpListener,
    /// Training loss of the served model, and before training.
    pub trained_loss: (f64, f64),
}

/// Generates the dataset, trains and publishes the model, and binds
/// the server's listener.
pub fn setup(cfg: &Config) -> std::io::Result<Served> {
    let ds = crate::data::rcv1(cfg.scale);
    let task = lr(ds.d());
    let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
    let opts = RunOptions {
        max_epochs: TRAIN_EPOCHS,
        plateau: None,
        threads: 1,
        seed: cfg.seed,
        ..Default::default()
    };
    let corner = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync);
    let report = Engine::try_run(&corner, &task, &batch, TRAIN_ALPHA, &opts)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let initial = report.trace.points().first().map_or(f64::NAN, |p| p.1);
    let weights = report.best_model.clone().unwrap_or_else(|| task.init_model());
    let ck = Checkpoint::new(TaskDescriptor::LogisticRegression { dim: ds.d() as u64 }, weights)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let model =
        ServableModel::from_checkpoint(&ck).map_err(|e| std::io::Error::other(e.to_string()))?;
    let expected = model.predict_batch(&mut CpuExec::seq(), &Examples::Sparse(&ds.x));
    let registry = ModelRegistry::new();
    registry.publish(MODEL, model, TRAIN_EPOCHS, report.best_loss());
    let lines = crate::data::request_lines(&ds);
    let order = crate::data::permutation(ds.n(), cfg.seed);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(Served {
        ds,
        lines,
        expected,
        order,
        registry,
        listener,
        trained_loss: (report.best_loss(), initial),
    })
}

/// Logistic loss of decision value `m` for label `y`, computed stably.
fn logistic_loss(y: f64, m: f64) -> f64 {
    let z = -y * m;
    z.max(0.0) + (-z.abs()).exp().ln_1p()
}

/// What one pass of the closed loop measured.
#[derive(Debug, Default)]
pub struct Live {
    pub rtt_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub loss: Vec<f64>,
    pub wall_secs: f64,
    pub failures: Vec<String>,
    // Traced passes only: per-request layer replays.
    pub handler_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub registry_us: Vec<f64>,
    pub predict_us: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
}

impl Live {
    fn merge(&mut self, o: Live) {
        self.rtt_ms.extend(o.rtt_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.busy += o.busy;
        self.loss.extend(o.loss);
        self.failures.extend(o.failures);
        self.handler_us.extend(o.handler_us);
        self.parse_us.extend(o.parse_us);
        self.registry_us.extend(o.registry_us);
        self.predict_us.extend(o.predict_us);
        self.request_bytes.extend(o.request_bytes);
        self.reply_bytes.extend(o.reply_bytes);
    }
}

/// Runs the closed loop for `window`; with a tracer, every request also
/// records its round trip and in-process replays of each server layer.
pub fn run(s: &Served, window: Window, tracer: Option<&Tracer>) -> Live {
    let addr = match s.listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            return Live {
                attempted: 1,
                failed: 1,
                failures: vec![format!("addr: {e}")],
                ..Live::default()
            }
        }
    };
    let config = WireConfig { workers: CLIENTS, ..WireConfig::default() };
    let server = WireServer::with_config(&s.registry, MODEL, config);
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    let mut live = Live::default();
    std::thread::scope(|sc| {
        let serving = sc.spawn(|| server.serve_connections(&s.listener, CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, sent) = (&server, &sent);
                sc.spawn(move || client_loop(s, server, addr, c, window, start, sent, tracer))
            })
            .collect();
        for c in clients {
            match c.join() {
                Ok(l) => live.merge(l),
                Err(_) => live.failures.push("a client thread panicked".into()),
            }
        }
        live.wall_secs = start.elapsed().as_secs_f64();
        match serving.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => live.failures.push(format!("server: {e}")),
            Err(_) => live.failures.push("the server thread panicked".into()),
        }
    });
    live
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    s: &Served,
    server: &WireServer<'_>,
    addr: SocketAddr,
    c: usize,
    window: Window,
    start: Instant,
    sent: &AtomicUsize,
    tracer: Option<&Tracer>,
) -> Live {
    let mut live = Live::default();
    let mut client = match WireClient::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            // The server accepts exactly CLIENTS connections: hand it a
            // throwaway one so it does not wait for this client forever.
            drop(TcpStream::connect(addr));
            live.attempted = 1;
            live.failed = 1;
            live.failures.push(format!("client {c}: connect: {e}"));
            return live;
        }
    };
    let mut local = tracer.map(Tracer::local);
    let dim = s.ds.d();
    let mut k = c;
    while !window.done(start.elapsed().as_secs_f64(), sent.load(Ordering::Relaxed)) {
        let req = k as u64;
        let row = s.order[k % s.order.len()];
        k += CLIENTS;
        let line = &s.lines[row];
        live.attempted += 1;
        let root = local.as_mut().map(|l| l.open("serve.request", None, req));
        let root_id = root.as_ref().map(|r| r.id());
        let rtt_span = local.as_mut().map(|l| l.open("serve.rtt", root_id, req));
        let t0 = Instant::now();
        let response = client.score(line);
        let rtt = t0.elapsed().as_secs_f64();
        if let (Some(l), Some(span)) = (local.as_mut(), rtt_span) {
            l.close(span);
        }
        sent.fetch_add(1, Ordering::Relaxed);
        live.rtt_ms.push(rtt * 1e3);
        let expected = s.expected[row];
        match response {
            Ok(WireResponse::Ok(v)) if v.to_bits() == expected.to_bits() => {
                live.loss.push(logistic_loss(s.ds.y[row], v));
            }
            Ok(WireResponse::Ok(v)) => {
                live.failed += 1;
                live.failures.push(format!("row {row}: decision {v} != in-process {expected}"));
            }
            Ok(WireResponse::Busy { .. }) => {
                live.failed += 1;
                live.busy += 1;
                live.failures.push(format!("row {row}: ERR BUSY"));
            }
            Ok(WireResponse::Err { detail, .. }) => {
                live.failed += 1;
                live.failures.push(format!("row {row}: ERR {detail}"));
            }
            Err(e) => {
                live.failed += 1;
                live.failures.push(format!("client {c}: {e}"));
                break;
            }
        }
        if let (Some(l), Some(root)) = (local.as_mut(), root) {
            // The whole server path minus sockets: the same line through
            // serve_lines over in-memory buffers.
            let mut input = Vec::with_capacity(line.len() + 1);
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
            let mut reply = Vec::new();
            let span = l.open("serve.handler", Some(root.id()), req);
            let handled = server.serve_lines(BufReader::new(&input[..]), &mut reply);
            live.handler_us.push(l.close(span) * 1e6);
            if handled.is_err() {
                live.failures.push(format!("row {row}: in-memory handler failed"));
            }
            live.request_bytes.push(input.len() as f64);
            live.reply_bytes.push(reply.len() as f64);
            // The handler's layers, each called on its own.
            let span = l.open("serve.parse", Some(root.id()), req);
            let parsed = libsvm::parse_str("wire", line, dim);
            live.parse_us.push(l.close(span) * 1e6);
            let span = l.open("serve.registry", Some(root.id()), req);
            let snap = s.registry.get(MODEL);
            live.registry_us.push(l.close(span) * 1e6);
            if let (Ok(parsed), Some(snap)) = (parsed, snap) {
                let span = l.open("serve.predict", Some(root.id()), req);
                let out =
                    snap.model.predict_batch(&mut CpuExec::seq(), &Examples::Sparse(&parsed.x));
                live.predict_us.push(l.close(span) * 1e6);
                if out.first().map(|v| v.to_bits()) != Some(expected.to_bits()) {
                    live.failures.push(format!("row {row}: replayed prediction differs"));
                }
            } else {
                live.failures.push(format!("row {row}: replay could not parse or resolve"));
            }
            l.close(root);
        }
    }
    live
}

/// Folds a pass's failures into `out`.
fn account(out: &mut Outcome, live: &mut Live) {
    out.attempted += live.attempted;
    out.failed += live.failed;
    let n = live.failures.len();
    for f in live.failures.drain(..).take(5) {
        out.fail(f);
    }
    if n > 5 {
        out.fail(format!("... and {} more serve failures", n - 5));
    }
}

/// The untraced run: set-up (repeated), then the closed loop.
pub fn e2e(cfg: &Config, out: &mut Outcome) {
    let (setup_s, served) = repeat_timed(cfg.setups, || setup(cfg));
    let s = match served {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.fail(format!("serve set-up failed: {e}"));
            return;
        }
    };
    check_training(&s, out);
    let mut live = run(&s, cfg.window(TAIL_PCT), None);
    account(out, &mut live);
    let ok = live.loss.len() as f64;
    out.note(format!(
        "serve-rcv1: {} requests over {:.1} s from {CLIENTS} clients",
        live.rtt_ms.len(),
        live.wall_secs,
    ));
    out.note(format!("op ms: {}", crate::stats::describe(&live.rtt_ms)));
    out.note(crate::stats::tail(&live.rtt_ms, TAIL_PCT));
    out.metric("setup_s", "s", setup_s);
    out.metric("op_p50_ms", "ms", median(&live.rtt_ms));
    out.metric("ops_per_s", "1/s", ok / live.wall_secs);
    out.metric("final_loss", "nats", mean(&live.loss));
}

fn check_training(s: &Served, out: &mut Outcome) {
    let (trained, initial) = s.trained_loss;
    if !below(trained, initial) {
        out.fail(format!("served model did not train: loss {trained} vs initial {initial}"));
    }
}

/// The traced run's serve layers. As the run's own workload the loop
/// first runs untraced for a third of the window, so the tracing
/// overhead is the traced median over the untraced one; otherwise a
/// short traced probe. Returns the overhead in percent when measured.
pub fn layers(
    s: &Served,
    cfg: &Config,
    primary: bool,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Option<f64> {
    check_training(s, out);
    let (plain, traced) = if primary {
        let mut plain =
            run(s, Window { seconds: cfg.seconds / 3.0, min_ops: 1, cap_secs: cfg.cap_secs }, None);
        account(out, &mut plain);
        let w = Window { seconds: cfg.seconds * 2.0 / 3.0, min_ops: 1, cap_secs: cfg.cap_secs };
        (Some(plain), run(s, w, Some(tracer)))
    } else {
        let w = Window {
            seconds: 0.0,
            min_ops: if cfg.smoke { 4 } else { PROBE_REQUESTS },
            cap_secs: cfg.cap_secs,
        };
        (None, run(s, w, Some(tracer)))
    };
    let mut traced = traced;
    account(out, &mut traced);
    let rtt = median(&traced.rtt_ms);
    let handler_us = median(&traced.handler_us);
    out.metric("serve.rtt_ms", "ms", rtt);
    out.metric("serve.handler_us", "us", handler_us);
    // Round trip minus handler, so the two add up to the traced round trip.
    out.metric("serve.socket_ms", "ms", rtt - handler_us / 1e3);
    out.metric("serve.parse_us", "us", median(&traced.parse_us));
    out.metric("serve.registry_us", "us", median(&traced.registry_us));
    out.metric("serve.predict_us", "us", median(&traced.predict_us));
    out.metric("serve.request_bytes", "B", mean(&traced.request_bytes));
    out.metric("serve.reply_bytes", "B", mean(&traced.reply_bytes));
    out.metric("serve.busy_share", "ratio", traced.busy as f64 / traced.attempted.max(1) as f64);
    out.note(format!(
        "serve layers: {} traced round trips; accounting: handler {:.4} ms + socket {:.4} ms = rtt {:.4} ms",
        traced.rtt_ms.len(),
        handler_us / 1e3,
        rtt - handler_us / 1e3,
        rtt
    ));
    plain.map(|p| (rtt / median(&p.rtt_ms) - 1.0) * 100.0)
}

//! Loopback-TCP transport for the parameter server, running on
//! `sgd-serve`'s shared line server and client ([`sgd_serve::framing`]).
//!
//! Protocol: one request per line, one response line per request. A
//! weight or gradient vector (`<vec>` below) is written by one codec,
//! `encode_vec` / `parse_vec`, in both directions:
//!
//! * a coordinate whose bit pattern is not +0.0 is ` <16 hex digits>`,
//!   the `{:016x}` image of `to_bits`;
//! * each maximal run of `n` +0.0 coordinates is one token ` z<n>`
//!   (decimal, no leading zeros).
//!
//! Every value therefore survives the round trip *bitwise* — `-0.0`,
//! NaN payloads and subnormals are written explicitly — which the
//! 1-worker parity pin against the modeled cluster rests on. A dense
//! vector encodes to exactly 17 bytes per weight; a sparse one costs 17
//! bytes per nonzero plus one short token per zero run, so a line's
//! size tracks the model's nonzeros, not its dimension.
//!
//! * `JOIN <worker>` / `PULL` → `MODEL <version> <vec>`
//! * `LEASE <worker>` → `LEASE SHARD <id>` | `LEASE DRAINED` |
//!   `LEASE SHUTDOWN`
//! * `PUSH <worker> <version> <shard> <vec>` →
//!   `PUSHED APPLIED <version>` | `PUSHED ACC` | `PUSHED STALE <current>`
//!   | `PUSHED DW <version> <staleness>`
//! * `LEAVE <worker>` → `LEFT`
//! * anything else → `ERR <detail>`
//!
//! Elastic membership at the transport level: a connection that ends —
//! EOF, read timeout, or I/O error — with a `JOIN`ed worker that never
//! sent `LEAVE` is treated as a worker death, and the server revokes
//! its outstanding shard leases so survivors pick the work up. Request
//! semantics are the crate-private `transport::serve_request`, the exact
//! state machine the in-process transport drives — the two transports
//! cannot drift.
//!
//! Every wire byte flows through bounded, typed parsing: a malformed
//! line is an `ERR` response, never a panic, and this file is in the
//! analyzer's panic-freedom and indexing-ban scope. A decoded vector's
//! length is bounded before anything is allocated for it: a `PUSH`
//! must match the model dimension exactly, and a `MODEL` reply may not
//! exceed `MAX_MODEL_DIM`.

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgd_core::{
    EpochMetrics, LossTrace, NullObserver, Recorder, RunOptions, RunReport, Supervisor,
};
use sgd_linalg::{CpuExec, Scalar};
use sgd_models::{Batch, Task};
use sgd_serve::framing::{self, lock_tolerant, LineClient};

use crate::modeled::{epoch_order, DistConfig};
use crate::server::{LeaseGrant, ParamServer, PushOutcome};
use crate::shard::make_shards;
use crate::transport::{serve_request, Reply, Request, Transport, TransportError};
use crate::worker::{DistWorker, WorkerStep};

/// Longest vector a client accepts in a `MODEL` reply: above news20's
/// d = 1,355,191, the widest of the paper's datasets.
const MAX_MODEL_DIM: usize = 1 << 21;

/// How often wire-run threads poll for state they wait on (epoch
/// completion, a drained lease pool).
const POLL: Duration = Duration::from_micros(200);

/// The TCP front-end of one [`ParamServer`].
pub struct DistWireServer {
    server: Arc<Mutex<ParamServer>>,
    /// Longest accepted request line, bytes. A `PUSH` takes 17 bytes per
    /// nonzero gradient component plus a short token per zero run, so
    /// the bound caps the nonzeros a line may carry, not the dimension.
    pub max_line_bytes: usize,
    /// Read timeout installed on accepted connections; an idle worker
    /// connection past it counts as a death (`None` = wait forever).
    pub read_timeout: Option<Duration>,
}

impl DistWireServer {
    /// A front-end over `server` with a 4 MiB line cap: gradients of up
    /// to ~250k nonzeros per `PUSH`, at any model dimension.
    pub fn new(server: Arc<Mutex<ParamServer>>) -> Self {
        DistWireServer {
            server,
            max_line_bytes: 4 * 1024 * 1024,
            read_timeout: Some(Duration::from_secs(5)),
        }
    }

    /// The shared server handle.
    pub fn server(&self) -> Arc<Mutex<ParamServer>> {
        Arc::clone(&self.server)
    }

    /// Serves one accepted connection to completion.
    // analyzer: root(panic-freedom) -- wire request entry point: every byte a remote worker sends flows through here
    pub fn handle(&self, stream: TcpStream) -> std::io::Result<usize> {
        let (reader, writer) = framing::setup_connection(stream, self.read_timeout)?;
        self.serve_lines(reader, writer)
    }

    /// Accepts `connections` connections on the shared accept pool with
    /// one scoped thread per connection (a worker connection is
    /// persistent, so every connection needs a live thread). Returns
    /// total lines handled.
    // analyzer: root(panic-freedom) -- wire request entry point: the accept loop serving untrusted connections
    pub fn serve_connections(
        &self,
        listener: &TcpListener,
        connections: usize,
    ) -> std::io::Result<usize> {
        framing::serve_connections(listener, connections, connections, |stream| self.handle(stream))
    }

    /// The transport-agnostic core: one request line in, one response
    /// line out, through the shared [`framing::serve_lines`] loop. Ending
    /// the stream (EOF, timeout, or error) with a joined worker that never
    /// sent `LEAVE` revokes that worker's membership and leases —
    /// death-on-EOF.
    // analyzer: root(panic-freedom) -- wire request entry point: the per-line protocol core
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<usize> {
        use std::fmt::Write as _;
        // Per connection, not per request: the bound is a public field.
        let too_long = format!("ERR line too long (max {} bytes)", self.max_line_bytes);
        // The model dimension never changes: a PUSH must match it exactly.
        let dim = {
            let srv = lock_tolerant(&self.server);
            srv.model().len()
        };
        // The worker this connection JOINed as, and whether it departed
        // cleanly; an unclean end revokes the membership below.
        let mut joined: Option<usize> = None;
        let mut departed = false;
        let outcome =
            framing::serve_lines(reader, writer, self.max_line_bytes, &too_long, |line, reply| {
                match parse_request(line, dim) {
                    Ok(req) => {
                        match &req {
                            Request::Join { worker } => {
                                joined = Some(*worker);
                                departed = false;
                            }
                            Request::Leave { worker } if joined == Some(*worker) => {
                                departed = true;
                            }
                            _ => {}
                        }
                        encode_reply(&serve_request(&self.server, req), reply);
                    }
                    Err(msg) => {
                        let _ = write!(reply, "ERR {msg}");
                    }
                }
            });
        if let Some(worker) = joined {
            if !departed {
                lock_tolerant(&self.server).leave(worker);
            }
        }
        outcome
    }
}

fn parse_usize(tok: Option<&str>, what: &str) -> Result<usize, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<usize>()
        .map_err(|_| format!("bad {what}"))
}

fn parse_u64(tok: Option<&str>, what: &str) -> Result<u64, String> {
    tok.ok_or_else(|| format!("missing {what}"))?.parse::<u64>().map_err(|_| format!("bad {what}"))
}

/// Appends `v` in the zero-run form: ` <16 hex digits>` per coordinate
/// whose bits are not +0.0, ` z<n>` per maximal run of `n` +0.0s.
fn encode_vec(v: &[Scalar], out: &mut String) {
    use std::fmt::Write as _;
    let mut zeros = 0usize;
    for x in v {
        let bits = x.to_bits();
        if bits == 0 {
            zeros += 1;
            continue;
        }
        if zeros > 0 {
            let _ = write!(out, " z{zeros}");
            zeros = 0;
        }
        out.push(' ');
        for shift in (0..16).rev() {
            // Lossless: the mask keeps one nibble.
            let nibble = ((bits >> (shift * 4)) & 0xf) as u8;
            let digit = if nibble < 10 { b'0' + nibble } else { b'a' - 10 + nibble };
            out.push(char::from(digit));
        }
    }
    if zeros > 0 {
        let _ = write!(out, " z{zeros}");
    }
}

/// Decodes the zero-run form from the remaining tokens of a line. The
/// running length is checked against `max_len` before each token is
/// expanded, so a hostile `z<huge>` never allocates.
fn parse_vec<'a>(
    toks: impl Iterator<Item = &'a str>,
    max_len: usize,
) -> Result<Vec<Scalar>, String> {
    let mut v = Vec::new();
    for tok in toks {
        let (n, value) = match tok.strip_prefix('z') {
            Some(digits) => {
                (parse_run(digits.as_bytes()).ok_or_else(|| format!("bad zero run '{tok}'"))?, 0.0)
            }
            None => {
                let bits =
                    parse_hex(tok.as_bytes()).ok_or_else(|| format!("bad hex f64 '{tok}'"))?;
                (1, f64::from_bits(bits))
            }
        };
        if n > max_len.saturating_sub(v.len()) {
            return Err(format!("vector longer than {max_len}"));
        }
        v.resize(v.len() + n, value);
    }
    Ok(v)
}

/// Exactly 16 hex digits (either case) → the bit pattern.
fn parse_hex(tok: &[u8]) -> Option<u64> {
    if tok.len() != 16 {
        return None;
    }
    tok.iter().try_fold(0u64, |acc, &b| {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(nibble))
    })
}

/// A positive decimal count without leading zeros; `None` on overflow.
fn parse_run(digits: &[u8]) -> Option<usize> {
    match digits.first() {
        Some(b'1'..=b'9') => {}
        _ => return None,
    }
    digits.iter().try_fold(0usize, |acc, &b| {
        if !b.is_ascii_digit() {
            return None;
        }
        acc.checked_mul(10)?.checked_add(usize::from(b - b'0'))
    })
}

/// Parses one wire request line; a `PUSH` must carry exactly `dim`
/// components.
fn parse_request(line: &str, dim: usize) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or_else(|| "empty request".to_string())?;
    match verb {
        "JOIN" => Ok(Request::Join { worker: parse_usize(toks.next(), "worker id")? }),
        "PULL" => Ok(Request::Pull),
        "LEASE" => Ok(Request::Lease { worker: parse_usize(toks.next(), "worker id")? }),
        "PUSH" => {
            let worker = parse_usize(toks.next(), "worker id")?;
            let version = parse_u64(toks.next(), "version")?;
            let shard = parse_usize(toks.next(), "shard id")?;
            let grad = parse_vec(toks, dim)?;
            if grad.len() != dim {
                return Err(format!("push of {} components, model has {dim}", grad.len()));
            }
            Ok(Request::Push { worker, version, shard, grad })
        }
        "LEAVE" => Ok(Request::Leave { worker: parse_usize(toks.next(), "worker id")? }),
        other => Err(format!("unknown verb '{other}'")),
    }
}

/// Encodes one reply line into `out` (cleared by the caller).
fn encode_reply(reply: &Reply, out: &mut String) {
    use std::fmt::Write as _;
    match reply {
        Reply::Model { version, model } => {
            let _ = write!(out, "MODEL {version}");
            encode_vec(model, out);
        }
        Reply::Lease(LeaseGrant::Shard(s)) => {
            let _ = write!(out, "LEASE SHARD {s}");
        }
        Reply::Lease(LeaseGrant::Drained) => out.push_str("LEASE DRAINED"),
        Reply::Lease(LeaseGrant::Shutdown) => out.push_str("LEASE SHUTDOWN"),
        Reply::Pushed(PushOutcome::Applied { version }) => {
            let _ = write!(out, "PUSHED APPLIED {version}");
        }
        Reply::Pushed(PushOutcome::Accumulated) => out.push_str("PUSHED ACC"),
        Reply::Pushed(PushOutcome::RejectedStale { current }) => {
            let _ = write!(out, "PUSHED STALE {current}");
        }
        Reply::Pushed(PushOutcome::DownWeighted { version, staleness }) => {
            let _ = write!(out, "PUSHED DW {version} {staleness}");
        }
        Reply::Left => out.push_str("LEFT"),
    }
}

/// Encodes one request line into `out` (cleared by the caller).
fn encode_request(req: &Request, out: &mut String) {
    use std::fmt::Write as _;
    match req {
        Request::Join { worker } => {
            let _ = write!(out, "JOIN {worker}");
        }
        Request::Pull => out.push_str("PULL"),
        Request::Lease { worker } => {
            let _ = write!(out, "LEASE {worker}");
        }
        Request::Push { worker, version, shard, grad } => {
            let _ = write!(out, "PUSH {worker} {version} {shard}");
            encode_vec(grad, out);
        }
        Request::Leave { worker } => {
            let _ = write!(out, "LEAVE {worker}");
        }
    }
}

/// Parses one reply line (client side).
fn parse_reply(line: &str) -> Result<Reply, TransportError> {
    let bad = |detail: &str| TransportError(format!("{detail}: '{line}'"));
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some("MODEL") => {
            let version = parse_u64(toks.next(), "version").map_err(TransportError)?;
            let model = parse_vec(toks, MAX_MODEL_DIM).map_err(TransportError)?;
            Ok(Reply::Model { version, model })
        }
        Some("LEASE") => match toks.next() {
            Some("SHARD") => Ok(Reply::Lease(LeaseGrant::Shard(
                parse_usize(toks.next(), "shard id").map_err(TransportError)?,
            ))),
            Some("DRAINED") => Ok(Reply::Lease(LeaseGrant::Drained)),
            Some("SHUTDOWN") => Ok(Reply::Lease(LeaseGrant::Shutdown)),
            _ => Err(bad("bad lease reply")),
        },
        Some("PUSHED") => match toks.next() {
            Some("APPLIED") => Ok(Reply::Pushed(PushOutcome::Applied {
                version: parse_u64(toks.next(), "version").map_err(TransportError)?,
            })),
            Some("ACC") => Ok(Reply::Pushed(PushOutcome::Accumulated)),
            Some("STALE") => Ok(Reply::Pushed(PushOutcome::RejectedStale {
                current: parse_u64(toks.next(), "version").map_err(TransportError)?,
            })),
            Some("DW") => Ok(Reply::Pushed(PushOutcome::DownWeighted {
                version: parse_u64(toks.next(), "version").map_err(TransportError)?,
                staleness: parse_u64(toks.next(), "staleness").map_err(TransportError)?,
            })),
            _ => Err(bad("bad push reply")),
        },
        Some("LEFT") => Ok(Reply::Left),
        Some("ERR") => Err(bad("server error")),
        _ => Err(bad("unparseable reply")),
    }
}

/// The TCP transport: one persistent connection per worker.
pub struct DistWireClient {
    conn: LineClient,
}

impl DistWireClient {
    /// Connects to a [`DistWireServer`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(DistWireClient { conn: LineClient::connect(addr)? })
    }
}

impl Transport for DistWireClient {
    fn call(&mut self, req: Request) -> Result<Reply, TransportError> {
        let reply = self
            .conn
            .round_trip(|out| encode_request(&req, out))
            .map_err(|e| TransportError(format!("wire: {e}")))?;
        parse_reply(reply)
    }
}

/// A real multi-connection training run over loopback TCP: one
/// [`DistWireServer`] thread per worker connection, N worker threads
/// each driving a [`DistWorker`] over a [`DistWireClient`], and a
/// coordinator steering epochs. Reports wall-clock seconds (this runner
/// is the live-hardware counterpart of [`crate::run_dist_modeled`];
/// only `cfg.workers`, `cfg.shards`, and `cfg.mode` are read, and
/// `opts.faults` is ignored — transport-level churn is EOF-driven).
///
/// Functional guarantee rather than timing determinism: at 1 worker the
/// loss trajectory is bitwise the modeled runner's (pinned in this
/// module's tests); at N workers the interleaving is real and only
/// convergence is asserted.
pub fn run_dist_wire<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    cfg: &DistConfig,
    alpha: f64,
    opts: &RunOptions,
) -> std::io::Result<RunReport> {
    let shards = make_shards(batch, cfg.shards.max(1));
    let workers = cfg.workers.max(1);
    let w0 = task.init_model();
    let server = Arc::new(Mutex::new(ParamServer::new(w0.clone(), alpha, cfg.mode, shards.len())));
    let front = DistWireServer::new(Arc::clone(&server));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;

    let mut eval = CpuExec::seq();
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w0);
    trace.push(0.0, initial_loss);
    let mut obs = NullObserver;
    let mut rec = Recorder::new(&mut obs);
    let mut sup = Supervisor::new(opts, initial_loss);

    let worker_err: Mutex<Option<String>> = Mutex::new(None);
    let start = Instant::now();
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let serve = s.spawn(|| front.serve_connections(&listener, workers));
        for wk in 0..workers {
            let shards = &shards;
            let worker_err = &worker_err;
            s.spawn(move || {
                let outcome = (|| -> Result<(), TransportError> {
                    let client = DistWireClient::connect(addr)
                        .map_err(|e| TransportError(format!("connect: {e}")))?;
                    let mut w = DistWorker::new(wk, client);
                    w.join()?;
                    loop {
                        w.pull()?;
                        match w.work_one(task, shards)? {
                            WorkerStep::Worked { .. } => {}
                            WorkerStep::Drained => std::thread::sleep(POLL),
                            WorkerStep::Shutdown => break,
                        }
                    }
                    w.leave()
                })();
                if let Err(e) = outcome {
                    let mut slot = lock_tolerant(worker_err);
                    if slot.is_none() {
                        *slot = Some(e.to_string());
                    }
                }
            });
        }

        // The coordinator: steer epochs on the shared server handle.
        let mut order: Vec<usize> = Vec::new();
        for epoch in 0..opts.max_epochs {
            epoch_order(shards.len(), opts.seed, epoch, &mut order);
            lock_tolerant(&server).begin_epoch(&order);
            loop {
                {
                    let srv = lock_tolerant(&server);
                    if srv.epoch_done() {
                        break;
                    }
                }
                // Two separate acquisitions: never hold the error slot
                // while taking the server lock.
                let errored = lock_tolerant(&worker_err).is_some();
                let dead_cluster = errored && lock_tolerant(&server).live_workers() == 0;
                if dead_cluster || start.elapsed().as_secs_f64() > opts.max_secs {
                    break;
                }
                std::thread::sleep(POLL);
            }
            elapsed = start.elapsed().as_secs_f64();
            let (done, loss) = {
                let mut srv = lock_tolerant(&server);
                if srv.epoch_done() {
                    srv.flush_pending();
                    (true, task.loss(&mut eval, batch, srv.model()))
                } else {
                    (false, f64::NAN)
                }
            };
            if !done {
                sup.abort(epoch + 1);
                break;
            }
            trace.push(elapsed, loss);
            rec.record(EpochMetrics::new(epoch + 1, elapsed, loss));
            let model_done = {
                let srv = lock_tolerant(&server);
                sup.observe(epoch + 1, elapsed, loss, srv.model(), &trace, &mut rec)
            };
            if model_done {
                break;
            }
        }
        lock_tolerant(&server).initiate_shutdown();
        let _ = serve.join();
    });

    let verdict = sup.finish();
    Ok(RunReport {
        label: format!("{} dist-{} x{} (wire)", task.name(), cfg.mode.label(), workers),
        device: sgd_core::DeviceKind::CpuSeq,
        step_size: alpha,
        trace,
        opt_seconds: elapsed,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    })
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sgd_core::RunOutcome;
    use sgd_datagen::{generate, DatasetProfile, GenOptions};
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, Examples};

    use super::*;
    use crate::modeled::run_dist_modeled;
    use crate::server::ConsistencyMode;

    fn fixture() -> (Matrix, Vec<Scalar>) {
        let n = 48;
        let d = 5;
        let x = Matrix::from_fn(n, d, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * d + j) % 7) as Scalar + 1.0) / 7.0
        });
        let y = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn hex(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    #[test]
    fn the_line_protocol_round_trips_bitwise() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.5, -1.25],
            1.0,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        lock_tolerant(&server).begin_epoch(&[0]);
        let front = DistWireServer::new(server);
        let script = format!(
            "JOIN 0\nLEASE 0\nPUSH 0 0 0 {} {}\nPULL\nLEAVE 0\nNONSENSE\n",
            hex(1.0),
            hex(2.0)
        );
        let mut out = Vec::new();
        let handled = front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        assert_eq!(handled, 6);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("MODEL 0 {} {}", hex(0.5), hex(-1.25)));
        assert_eq!(lines[1], "LEASE SHARD 0");
        assert_eq!(lines[2], "PUSHED APPLIED 1");
        // w -= 1.0 * grad, exactly: 0.5 - 1.0 = -0.5; -1.25 - 2.0 = -3.25.
        assert_eq!(lines[3], format!("MODEL 1 {} {}", hex(-0.5), hex(-3.25)));
        assert_eq!(lines[4], "LEFT");
        assert!(lines[5].starts_with("ERR "), "unknown verb is typed: {}", lines[5]);
        // Round-trip the replies through the client parser too.
        assert_eq!(
            parse_reply(lines[3]).expect("model reply"),
            Reply::Model { version: 1, model: vec![-0.5, -3.25] }
        );
    }

    #[test]
    fn eof_without_leave_is_a_death_that_frees_the_lease() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.0; 2],
            0.1,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            2,
        )));
        lock_tolerant(&server).begin_epoch(&[0, 1]);
        let front = DistWireServer::new(Arc::clone(&server));
        // Worker 7 joins, leases shard 0, then the connection just ends.
        let script = "JOIN 7\nLEASE 7\n";
        let mut out = Vec::new();
        front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        let srv = lock_tolerant(&server);
        assert_eq!(srv.live_workers(), 0, "EOF revoked the membership");
        assert_eq!(srv.stats().reassigned, 1, "the leased shard went back to the pool");
        assert_eq!(srv.stats().leaves, 1);
        drop(srv);
        // A survivor can now lease the revoked shard.
        let mut out2 = Vec::new();
        front
            .serve_lines(BufReader::new("JOIN 8\nLEASE 8\nLEAVE 8\n".as_bytes()), &mut out2)
            .expect("io");
        let text = String::from_utf8(out2).expect("utf8");
        assert!(
            text.lines().nth(1).is_some_and(|l| l == "LEASE SHARD 0" || l == "LEASE SHARD 1"),
            "revoked shard is leasable again: {text}"
        );
    }

    #[test]
    fn clean_leave_is_not_double_counted_on_eof() {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.0; 2],
            0.1,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        let front = DistWireServer::new(Arc::clone(&server));
        let mut out = Vec::new();
        front.serve_lines(BufReader::new("JOIN 3\nLEAVE 3\n".as_bytes()), &mut out).expect("io");
        assert_eq!(lock_tolerant(&server).stats().leaves, 1, "one leave, not two");
    }

    /// Runs one worker over the wire and through the modeled cluster and
    /// asserts bitwise-equal loss trajectories.
    fn assert_one_worker_wire_matches_modeled(batch: &Batch<'_>, d: usize) {
        let task = lr(d);
        let cfg = DistConfig {
            workers: 1,
            shards: 3,
            mode: ConsistencyMode::Sync { grads_to_wait: 1 },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 4, plateau: None, ..Default::default() };
        let modeled = run_dist_modeled(&task, batch, &cfg, 0.4, &opts);
        let wire = run_dist_wire(&task, batch, &cfg, 0.4, &opts).expect("loopback run");
        assert_eq!(wire.trace.points().len(), modeled.trace.points().len());
        for (w, m) in wire.trace.points().iter().zip(modeled.trace.points()) {
            assert_eq!(
                w.1.to_bits(),
                m.1.to_bits(),
                "wire and modeled single-worker losses must agree bitwise"
            );
        }
    }

    #[test]
    fn one_worker_wire_run_matches_the_modeled_trajectory_bitwise() {
        let (x, y) = fixture();
        assert_one_worker_wire_matches_modeled(&Batch::new(Examples::Dense(&x), &y), 5);
    }

    #[test]
    fn one_worker_sparse_wire_run_matches_the_modeled_trajectory_bitwise() {
        // 64 features, of which rows touch only the first 8: the model's
        // other 56 coordinates stay +0.0 and cross the wire as zero runs,
        // and each shard's gradient is zero outside its rows' features.
        let (n, d) = (24, 64);
        let rows: Vec<Vec<(u32, Scalar)>> = (0..n)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                let a = (i % 8) as u32;
                let b = ((i * 3 + 1) % 8) as u32;
                let mut r = vec![(a, s * 0.75), (b, s * (1.0 + i as Scalar) / 16.0)];
                r.sort_by_key(|e| e.0);
                r.dedup_by_key(|e| e.0);
                r
            })
            .collect();
        let x = CsrMatrix::from_row_entries(n, d, &rows);
        let y: Vec<Scalar> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert_one_worker_wire_matches_modeled(&Batch::new(Examples::Sparse(&x), &y), d);
    }

    #[test]
    fn news_trains_over_the_wire() {
        // d = 1,355,191: a dense PUSH line (~23 MB) would exceed the 4 MiB
        // line cap, so this dataset trains over the wire only because a
        // line carries nonzeros, not the dimension.
        let ds = generate(&DatasetProfile::news(), &GenOptions::at_scale(0.005));
        assert_eq!(ds.d(), 1_355_191);
        let batch = Batch::new(Examples::Sparse(&ds.x), &ds.y);
        let task = lr(ds.d());
        let cfg = DistConfig {
            workers: 2,
            shards: 4,
            mode: ConsistencyMode::Sync { grads_to_wait: 2 },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 3, plateau: None, ..Default::default() };
        let rep = run_dist_wire(&task, &batch, &cfg, 8.0, &opts).expect("loopback run");
        assert_eq!(rep.trace.epochs(), 3, "ended {}", rep.outcome.label());
        let pts = rep.trace.points();
        assert!(pts.windows(2).all(|w| w[1].1 < w[0].1), "loss must fall every epoch: {pts:?}");
    }

    #[test]
    fn a_multi_worker_wire_run_converges() {
        let (x, y) = fixture();
        let batch = Batch::new(Examples::Dense(&x), &y);
        let task = lr(5);
        let cfg = DistConfig {
            workers: 3,
            shards: 6,
            mode: ConsistencyMode::Async {
                max_staleness: 4,
                policy: crate::server::StalePolicy::Reject,
            },
            ..Default::default()
        };
        let opts = RunOptions { max_epochs: 5, plateau: None, ..Default::default() };
        let rep = run_dist_wire(&task, &batch, &cfg, 0.3, &opts).expect("loopback run");
        assert_eq!(rep.trace.epochs(), 5);
        assert!(
            rep.best_loss() < rep.trace.points()[0].1,
            "three wire workers must reduce the loss"
        );
        assert!(!matches!(rep.outcome, RunOutcome::Diverged { .. }));
    }

    fn one_shard_server() -> Arc<Mutex<ParamServer>> {
        let server = Arc::new(Mutex::new(ParamServer::new(
            vec![0.0; 2],
            0.1,
            ConsistencyMode::Sync { grads_to_wait: 1 },
            1,
        )));
        lock_tolerant(&server).begin_epoch(&[0]);
        server
    }

    /// A `Write` that counts the calls reaching it.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_is_one_write() {
        let mut front = DistWireServer::new(one_shard_server());
        front.max_line_bytes = 16;
        let script = format!("JOIN 0\nPULL\n{}\nNONSENSE\nLEAVE 0\n", "Z".repeat(64));
        let mut out = CountingWriter::default();
        let handled = front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        assert_eq!(handled, 5);
        assert_eq!(out.writes, handled, "reply and terminator go out in one write");
        let text = String::from_utf8(out.bytes).expect("utf8");
        assert_eq!(text.lines().nth(2), Some("ERR line too long (max 16 bytes)"));
    }

    #[test]
    fn the_client_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let client =
            DistWireClient::connect(listener.local_addr().expect("addr")).expect("connect");
        assert!(client.conn.stream().nodelay().expect("nodelay"));
    }

    #[test]
    fn a_dropped_socket_without_leave_frees_the_lease() {
        let server = one_shard_server();
        let front = DistWireServer::new(Arc::clone(&server));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            let serving = s.spawn(|| front.serve_connections(&listener, 1));
            let mut client = DistWireClient::connect(addr).expect("connect");
            assert!(matches!(client.call(Request::Join { worker: 4 }), Ok(Reply::Model { .. })));
            assert_eq!(
                client.call(Request::Lease { worker: 4 }).expect("lease"),
                Reply::Lease(LeaseGrant::Shard(0))
            );
            drop(client);
            assert_eq!(serving.join().expect("no panic").expect("serve"), 2);
        });
        let srv = lock_tolerant(&server);
        assert_eq!(srv.live_workers(), 0, "the dropped socket revoked the membership");
        assert_eq!(srv.stats().reassigned, 1, "the leased shard went back to the pool");
        assert_eq!(srv.stats().leaves, 1);
    }

    fn round_trip(v: &[Scalar]) -> Vec<Scalar> {
        let mut line = String::new();
        encode_vec(v, &mut line);
        parse_vec(line.split_whitespace(), MAX_MODEL_DIM).expect("own encoding parses")
    }

    fn assert_bitwise(a: &[Scalar], b: &[Scalar]) {
        let bits = |v: &[Scalar]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn the_codec_round_trips_bitwise() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let snan = f64::from_bits(0x7ff0_0000_0000_0001);
        let sub = f64::from_bits(1);
        let cases: Vec<Vec<Scalar>> = vec![
            vec![],
            vec![0.0],
            vec![0.0; 1000],
            vec![0.0, 0.0, 1.5],
            vec![1.5, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, -2.0, 0.0],
            vec![1.0, -2.0, 3.0],
            vec![-0.0, 0.0, -0.0, -0.0],
            vec![nan, snan, -nan, 0.0, f64::INFINITY, f64::NEG_INFINITY],
            vec![sub, -sub, f64::MIN_POSITIVE / 2.0, 0.0, f64::MAX, f64::MIN],
        ];
        for v in &cases {
            assert_bitwise(&round_trip(v), v);
        }
        let mut line = String::new();
        encode_vec(&[0.0, 0.0, -0.0, 0.0], &mut line);
        assert_eq!(line, " z2 8000000000000000 z1", "-0.0 is explicit, +0.0 runs are one token");
    }

    #[test]
    fn a_dense_vector_encodes_as_plain_hex() {
        let v: Vec<Scalar> = (0..257).map(|i| (i as Scalar + 1.0) * -0.37).collect();
        let mut line = String::new();
        encode_vec(&v, &mut line);
        let plain: String = v.iter().map(|x| format!(" {:016x}", x.to_bits())).collect();
        assert_eq!(line, plain);
    }

    #[test]
    fn a_sparse_vector_costs_its_nonzeros_and_runs() {
        let d = 1_355_191;
        let mut v = vec![0.0; d];
        for j in (0..d).step_by(9973).chain([1, 2, 3, d - 1]) {
            v[j] = j as Scalar + 0.5;
        }
        let k = v.iter().filter(|x| x.to_bits() != 0).count();
        let r = v.windows(2).filter(|w| w[0].to_bits() != 0 && w[1].to_bits() == 0).count()
            + usize::from(v[0].to_bits() == 0);
        let mut line = String::new();
        encode_vec(&v, &mut line);
        assert!(line.len() <= 17 * k + 12 * r, "{} bytes for k = {k}, r = {r}", line.len());
        assert_bitwise(&round_trip(&v), &v);
    }

    #[test]
    fn seeded_random_vectors_round_trip_canonically() {
        let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
        for _ in 0..300 {
            let len: usize = rng.gen_range(0..400);
            let v: Vec<Scalar> = (0..len)
                .map(|_| match rng.gen_range(0u32..6) {
                    0..=2 => 0.0,
                    3 => -0.0,
                    4 => f64::from_bits(rng.gen::<u64>()),
                    _ => rng.gen::<f64>() - 0.5,
                })
                .collect();
            let back = round_trip(&v);
            assert_bitwise(&back, &v);
            let (mut a, mut b) = (String::new(), String::new());
            encode_vec(&v, &mut a);
            encode_vec(&back, &mut b);
            assert_eq!(a, b, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn malformed_vector_tokens_are_typed_errors() {
        let bad = [
            "z",
            "z0",
            "zq",
            "z-1",
            "z+1",
            "z07",
            "z1x",
            "z99999999999999999999999",
            "3ff00000000000",
            "3ff000000000000",
            "3ff00000000000000",
            "3ff000000000000g",
            "+3ff000000000000",
            "-3ff000000000000",
            "3ff00000000000é",
            "Z1",
        ];
        for tok in bad {
            assert!(parse_vec(std::iter::once(tok), MAX_MODEL_DIM).is_err(), "{tok} accepted");
            let reply = format!("MODEL 0 {tok}");
            assert!(parse_reply(&reply).is_err(), "{reply} accepted");
        }
        assert!(parse_vec(["z3", "z2"].into_iter(), 4).is_err(), "runs past the bound");
        assert!(parse_vec(["z3", "3ff0000000000000"].into_iter(), 3).is_err());
        assert_eq!(
            parse_vec(["z3", "3FF0000000000000"].into_iter(), 4),
            Ok(vec![0.0, 0.0, 0.0, 1.0])
        );
    }

    #[test]
    fn a_push_of_the_wrong_length_is_an_error_and_the_shard_stays_leased() {
        let server = one_shard_server();
        let front = DistWireServer::new(Arc::clone(&server));
        let one = hex(1.0);
        let script = format!(
            "JOIN 0\nLEASE 0\nPUSH 0 0 0 {one}\nPUSH 0 0 0 {one} {one} {one}\n\
             PUSH 0 0 0 z99999999999\nPUSH 0 0 0 z3\nPUSH 0 0 0 z1 {one}\n"
        );
        let mut out = Vec::new();
        front.serve_lines(BufReader::new(script.as_bytes()), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        for bad in &lines[2..6] {
            assert!(bad.starts_with("ERR "), "wrong-length push must be refused: {bad}");
        }
        assert_eq!(lines[6], "PUSHED APPLIED 1", "the shard was still leased and unapplied");
        let srv = lock_tolerant(&server);
        assert_eq!(srv.model(), &[0.0, -0.1], "only the well-formed push applied");
        assert!(srv.epoch_done());
    }
}

//! `sgd-serve`: the inference-side mirror of the training engine.
//!
//! Training in this repo ends with a [`sgd_core::RunReport`] carrying a
//! `best_model`; this crate is everything after that moment, in four
//! pieces that mirror the paper's hardware-efficiency axes at serving
//! time:
//!
//! - [`checkpoint`]: a versioned, CRC-checked binary format that
//!   round-trips `f64` weights bit-exactly and turns every corrupt,
//!   truncated, or mismatched file into a typed [`CheckpointError`] —
//!   parsing untrusted bytes never panics.
//! - [`registry`]: named models behind atomic `Arc` hot-swap, plus an
//!   [`EpochObserver`](sgd_core::EpochObserver) hook so a live training
//!   run publishes its best-so-far snapshot at epoch boundaries while
//!   requests keep scoring against the previous one (the lock-free
//!   reader discipline of HOGWILD!, applied to publication).
//! - [`batcher`]: a request micro-batcher — max-batch / max-wait
//!   policy, batched dispatch through the same gemv/spmv kernels
//!   training uses, on cpu-seq, cpu-par (persistent pool), or the
//!   simulated GPU. Dense BLAS batches amortize dispatch overhead
//!   exactly as the paper's synchronous SGD amortizes kernel launches.
//! - [`admission`]: [`run_admitted`], the one serving simulation — open-
//!   and closed-loop traffic through the batcher behind bounded
//!   per-tier queues, backpressure, and deadlines, where every offered
//!   request deterministically resolves to a typed [`RequestOutcome`]
//!   (completed, shed, or rejected; never a silent drop).
//!   [`AdmissionPolicy::unbounded`] is the plain batcher.
//! - [`loadgen`]: deterministic open-loop load generation (request
//!   pools, Poisson arrivals, offered requests) feeding the `serve`,
//!   `router` and `soak` benches.
//! - [`wire`]: an optional `std::net` loopback TCP front-end speaking
//!   LIBSVM-formatted lines through `sgd-datagen`'s typed parser, with
//!   bounded line buffers, read timeouts, an in-flight bound answering
//!   `ERR BUSY retry_after=`, and typed backend-fault surfacing.
//! - [`framing`]: the one TCP line server and line client that `wire`
//!   and `sgd-dist`'s parameter-server transport both run on.

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod checkpoint;
pub mod framing;
pub mod loadgen;
pub mod model;
pub mod registry;
pub mod stats;
pub mod wire;

pub use admission::{
    run_admitted, AdmissionPolicy, BatchService, ClosedClients, ComputeService, ModeledService,
    OfferedRequest, OutcomeCounts, RequestOutcome,
};
pub use batcher::{predict_workload, BatchPolicy, ServeBackend, ServeOutcome, ServeTiming, Server};
pub use checkpoint::{Checkpoint, CheckpointError, FORMAT_VERSION, MAGIC};
pub use loadgen::{
    offered_requests, open_loop_arrivals, open_requests, AssembledBatch, RequestPool,
};
pub use model::{ServableModel, TaskDescriptor};
pub use registry::{CheckpointPublisher, ModelRegistry, PublishedModel};
pub use stats::LatencySummary;
pub use wire::{WireClient, WireConfig, WireServer};

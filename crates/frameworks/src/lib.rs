//! Reference framework comparators.
//!
//! The paper validates its implementations against TensorFlow (sync MLP)
//! and BIDMach (sync LR/SVM) — both support CPU and GPU behind the same
//! driver program. This crate provides faithful stand-ins:
//!
//! * [`tfgraph`] / [`tensorflow`] — a static dataflow-graph executor with
//!   op-granularity kernels and materialized intermediates (no fusion, no
//!   in-place updates), executing the same batch-GD semantics TensorFlow
//!   0.12 used in the paper's experiments (dense data only).
//! * [`bidmach`] — a synchronous GLM optimizer whose GPU kernels are
//!   dense-optimized: sparse inputs run through the naive thread-per-row
//!   layout instead of the coalescing-friendly warp-per-row one, which is
//!   why its GPU speedup trails ours on sparse data (Fig. 8).

pub mod bidmach;
pub mod tensorflow;
pub mod tfgraph;

pub use bidmach::run_bidmach;
pub use tensorflow::run_tensorflow;
pub use tfgraph::{Graph, Op, Session};

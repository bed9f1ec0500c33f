//! Deterministic load generation: request pools and arrival processes.
//!
//! Open-loop arrivals are a seeded Poisson process (exponential
//! inter-arrival times from a `StdRng`): the same seed always produces
//! the same timestamps, so a modeled-timing serve run is reproducible
//! bit-for-bit. Closed-loop load (clients re-issuing on completion)
//! needs no randomness at all and is described by
//! [`crate::admission::ClosedClients`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgd_datagen::Dataset;
use sgd_linalg::{CsrMatrix, Matrix, Scalar};
use sgd_models::Examples;

use crate::admission::OfferedRequest;

/// The feature vectors requests draw from — request `i` scores row
/// `i % len`. Dense pools assemble dense batches (gemv/gemm path),
/// sparse pools assemble CSR batches (spmv path), so a serve run
/// exercises exactly one sparsity corner, like a training run.
#[derive(Clone, Debug)]
pub enum RequestPool {
    /// Requests are rows of a dense matrix.
    Dense(Matrix),
    /// Requests are rows of a CSR matrix.
    Sparse(CsrMatrix),
}

impl RequestPool {
    /// A pool of dense feature rows.
    pub fn dense(m: Matrix) -> Self {
        RequestPool::Dense(m)
    }

    /// A pool of sparse feature rows.
    pub fn sparse(m: CsrMatrix) -> Self {
        RequestPool::Sparse(m)
    }

    /// Requests drawn from a dataset's examples, keeping them sparse.
    pub fn from_dataset(ds: &Dataset) -> Self {
        RequestPool::Sparse(ds.x.clone())
    }

    /// Requests drawn from a dataset's examples, densified (the MLP and
    /// dense-BLAS serving path).
    pub fn densified(ds: &Dataset) -> Self {
        RequestPool::Dense(ds.x.to_dense())
    }

    /// Number of distinct request rows.
    pub fn len(&self) -> usize {
        match self {
            RequestPool::Dense(m) => m.rows(),
            RequestPool::Sparse(m) => m.rows(),
        }
    }

    /// `true` when the pool has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature-space width.
    pub fn dim(&self) -> usize {
        match self {
            RequestPool::Dense(m) => m.cols(),
            RequestPool::Sparse(m) => m.cols(),
        }
    }

    /// Builds the batch matrix for the given pool rows (out-of-range
    /// rows wrap around).
    pub fn assemble(&self, rows: &[usize]) -> AssembledBatch {
        match self {
            RequestPool::Dense(m) => {
                let n = m.rows().max(1);
                let picked: Vec<&[Scalar]> = rows.iter().map(|&r| m.row(r % n)).collect();
                AssembledBatch::Dense(Matrix::from_rows(&picked))
            }
            RequestPool::Sparse(m) => {
                let n = m.rows().max(1);
                let entries: Vec<Vec<(u32, Scalar)>> = rows
                    .iter()
                    .map(|&r| {
                        let row = m.row(r % n);
                        row.cols.iter().copied().zip(row.vals.iter().copied()).collect()
                    })
                    .collect();
                AssembledBatch::Sparse(CsrMatrix::from_row_entries(
                    entries.len(),
                    m.cols(),
                    &entries,
                ))
            }
        }
    }
}

/// One coalesced batch, owning its matrix.
#[derive(Clone, Debug)]
pub enum AssembledBatch {
    /// Dense batch.
    Dense(Matrix),
    /// CSR batch.
    Sparse(CsrMatrix),
}

impl AssembledBatch {
    /// Borrowed examples view for the predict entry points.
    pub fn examples(&self) -> Examples<'_> {
        match self {
            AssembledBatch::Dense(m) => Examples::Dense(m),
            AssembledBatch::Sparse(m) => Examples::Sparse(m),
        }
    }
}

/// `n` open-loop arrival timestamps at `rate` requests/second:
/// a seeded Poisson process starting at `t = 0`'s first inter-arrival
/// gap. Non-positive rates or zero requests yield an empty workload.
pub fn open_loop_arrivals(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let positive = rate.is_finite() && rate > 0.0;
    if !positive || n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen(); // [0, 1)
        t += -(1.0 - u).ln() / rate; // Exp(rate), ln of (0, 1]
        out.push(t);
    }
    out
}

/// One top-priority [`OfferedRequest`] per arrival timestamp: request `i`
/// arrives at `arrivals[i]` and scores pool row `i`.
pub fn open_requests(arrivals: &[f64]) -> Vec<OfferedRequest> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival)| OfferedRequest { arrival, priority: 0, row: i })
        .collect()
}

/// `n` open-loop [`OfferedRequest`]s at `rate` requests/second: Poisson
/// arrivals from [`open_loop_arrivals`] plus a deterministic priority
/// tier in `0..tiers` per request (a seeded splitmix64 draw, independent
/// of the arrival stream), request `i` scoring pool row `i`. The input
/// of the admission-controlled runner and the soak bench: same `(rate,
/// n, seed, tiers)` ⇒ bit-identical offered load.
pub fn offered_requests(rate: f64, n: usize, seed: u64, tiers: usize) -> Vec<OfferedRequest> {
    let tiers = tiers.max(1) as u64;
    let mut requests = open_requests(&open_loop_arrivals(rate, n, seed));
    for (i, r) in requests.iter_mut().enumerate() {
        r.priority = (mix64(seed ^ 0x9d71_f255_u64.wrapping_mul(i as u64 + 1)) % tiers) as usize;
    }
    requests
}

/// splitmix64 finalizer: a stateless, seed-stable hash for priority
/// assignment (deliberately independent of the arrival RNG stream so
/// changing `tiers` never perturbs arrival times).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_increasing_and_rate_scaled() {
        let a = open_loop_arrivals(1000.0, 500, 42);
        let b = open_loop_arrivals(1000.0, 500, 42);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(a.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        // Mean inter-arrival ~ 1/rate within a loose statistical bound.
        let mean_gap = a.last().copied().unwrap_or(0.0) / 500.0;
        assert!((mean_gap - 1e-3).abs() < 3e-4, "mean gap {mean_gap}");
        let c = open_loop_arrivals(1000.0, 500, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y), "seed changes the process");
    }

    #[test]
    fn offered_requests_are_deterministic_with_stable_arrivals_across_tiers() {
        let a = offered_requests(500.0, 200, 7, 3);
        let b = offered_requests(500.0, 200, 7, 3);
        assert_eq!(a, b, "same inputs, same offered load");
        assert!(a.iter().all(|r| r.priority < 3));
        assert!((0..3).all(|t| a.iter().any(|r| r.priority == t)), "every tier appears");
        // Priorities come from an independent hash stream: changing the
        // tier count never perturbs arrival times.
        let c = offered_requests(500.0, 200, 7, 1);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
        }
        assert!(c.iter().all(|r| r.priority == 0));
    }

    #[test]
    fn degenerate_workloads_are_empty() {
        assert!(open_loop_arrivals(0.0, 10, 1).is_empty());
        assert!(open_loop_arrivals(-5.0, 10, 1).is_empty());
        assert!(open_loop_arrivals(f64::NAN, 10, 1).is_empty());
        assert!(open_loop_arrivals(100.0, 0, 1).is_empty());
    }

    #[test]
    fn dense_assembly_picks_and_wraps_rows() {
        let pool = RequestPool::dense(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = pool.assemble(&[1, 0, 2]); // 2 wraps to row 0
        let AssembledBatch::Dense(m) = b else { panic!("dense pool assembles dense") };
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
    }

    #[test]
    fn sparse_assembly_preserves_entries_exactly() {
        let dense = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[2.5, 0.0, -0.5]]);
        let pool = RequestPool::sparse(CsrMatrix::from_dense(&dense));
        assert_eq!((pool.len(), pool.dim()), (2, 3));
        let b = pool.assemble(&[1, 1, 0]);
        let AssembledBatch::Sparse(s) = b else { panic!("sparse pool assembles sparse") };
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0).vals, &[2.5, -0.5]);
        assert_eq!(s.row(2).cols, &[1]);
    }
}

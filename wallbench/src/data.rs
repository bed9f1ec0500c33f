//! The benchmark's inputs. The datasets are one fixed draw of each
//! profile (the generator's default seed, as the repository's
//! experiments use), so loss metrics compare across workload seeds; the
//! workload seed draws everything else: the request order, the lease
//! order and the Hogwild shuffle. The same seed gives the same inputs.

use sgd_datagen::{generate, libsvm, Dataset, DatasetProfile, GenOptions};
use sgd_linalg::Matrix;

/// Example-count scale of both datasets (the repository's default
/// experiment scale).
pub const SCALE: f64 = 0.02;

/// SplitMix64 step: a small, well-mixed generator for seeded orders.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5eed_0dde_c0de_0001;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The rcv1 profile at `scale` (sparse, d = 47,236).
pub fn rcv1(scale: f64) -> Dataset {
    generate(&DatasetProfile::rcv1(), &GenOptions::at_scale(scale))
}

/// The covtype profile at `scale`, with its dense materialization
/// (d = 54).
pub fn covtype(scale: f64) -> (Dataset, Matrix) {
    let ds = generate(&DatasetProfile::covtype(), &GenOptions::at_scale(scale));
    let dense = ds.x.to_dense();
    (ds, dense)
}

/// Every row of `ds` as one LIBSVM request line (no trailing newline).
pub fn request_lines(ds: &Dataset) -> Vec<String> {
    libsvm::to_string(ds).lines().map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows a client sends, in order, for a seed.
    fn requests(seed: u64) -> Vec<String> {
        let lines = request_lines(&rcv1(0.0005));
        permutation(lines.len(), seed).into_iter().map(|i| lines[i].clone()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_dataset_and_request_order() {
        assert_eq!(requests(3), requests(3));
        let (ca, da) = covtype(0.0005);
        let (cb, db) = covtype(0.0005);
        assert_eq!(ca.y, cb.y);
        assert_eq!(da.as_slice(), db.as_slice());
    }

    #[test]
    fn another_seed_gives_another_request_order() {
        let (a, b) = (requests(3), requests(4));
        assert_ne!(a, b);
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b, "the same rows, in another order");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(1000, 9);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }
}

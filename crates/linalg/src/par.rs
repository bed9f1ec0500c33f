//! Thread-parallel implementations of the primitives.
//!
//! All kernels split work into contiguous chunks sized by the ambient
//! width from [`crate::pool`] and execute them on the persistent worker
//! pool ([`crate::pool::run`]), so the study harness controls the degree
//! of parallelism by wrapping work in [`crate::pool::with_threads`] (the
//! paper varies CPU thread counts the same way through OpenMP). Chunk
//! assignment depends only on the requested width, never on which pool
//! worker executes a chunk, so results are bit-identical across pool
//! sizes and dispatch modes.

use std::sync::Mutex;

use crate::{pool, seq, simd, CsrMatrix, Matrix, Scalar};

/// Below this much work a parallel kernel is not worth the
/// parallel-dispatch overhead and we fall back to the sequential
/// implementation. ViennaCL's OpenMP backend has the same kind of guard.
/// Measured in elements for element-wise kernels and in element-ops
/// (`len * work_per_elem`) for row-granular ones — see the private
/// `chunk_len_weighted` in this module.
pub const MIN_PARALLEL_LEN: usize = 4096;

/// Contiguous chunk size splitting `len` elements across the ambient
/// thread count, or `None` when the sequential path should run instead.
///
/// The dispatch floor lives *inside* this function so no kernel can
/// forget it: PR 4 fixed the missing guard in `gemv` by adding a caller-
/// side check, and `spmv` then shipped without one — the same bug again.
/// Callers whose per-element work is more than one scalar op pass it as
/// `work_per_elem` so the floor compares total work (a flops proxy), not
/// row count, against [`MIN_PARALLEL_LEN`].
///
/// Deliberately *not* routed through here: `gemv_t` / `spmv_t`. Their
/// partial-vector shape (chunk count = clamped thread count) is pinned
/// by the bit-identity tests — adding a floor would change reduction
/// order on fractional data and silently shift every recorded loss
/// trajectory. Their guard is the `t <= 1` early-out they already have.
fn chunk_len_weighted(len: usize, work_per_elem: usize) -> Option<usize> {
    let t = pool::current_num_threads();
    if t <= 1 || len < 2 || len.saturating_mul(work_per_elem.max(1)) < MIN_PARALLEL_LEN {
        None
    } else {
        Some(len.div_ceil(t))
    }
}

/// [`chunk_len_weighted`] for kernels doing ~one scalar op per element.
fn chunk_len(len: usize) -> Option<usize> {
    chunk_len_weighted(len, 1)
}

/// Splits `data` into `chunk`-sized contiguous pieces and runs
/// `f(base_index, piece)` as tasks on the persistent worker pool. Task
/// `i` owns piece `i`; the per-piece `Mutex` is uncontended and exists
/// only to hand the `&mut` across the pool safely.
fn for_chunks_mut<F>(data: &mut [Scalar], chunk: usize, f: F)
where
    F: Fn(usize, &mut [Scalar]) + Sync,
{
    let pieces: Vec<Mutex<(usize, &mut [Scalar])>> =
        data.chunks_mut(chunk).enumerate().map(|(ci, p)| Mutex::new((ci * chunk, p))).collect();
    pool::run(pieces.len(), |i| {
        // analyzer: allow(panic-freedom) -- each chunk mutex is touched by exactly one worker; it cannot be poisoned or contended
        let mut piece = pieces[i].lock().expect("unshared chunk mutex");
        let (base, ys) = &mut *piece;
        f(*base, ys);
    });
}

/// Maps `f(base_index, piece)` over `chunk`-sized pieces of `data` on the
/// persistent worker pool, collecting the per-chunk results in order
/// (slot `i` holds chunk `i`'s result, independent of execution order).
fn map_chunks<R, F>(data: &[Scalar], chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &[Scalar]) -> R + Sync,
{
    let pieces: Vec<&[Scalar]> = data.chunks(chunk).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..pieces.len()).map(|_| Mutex::new(None)).collect();
    pool::run(pieces.len(), |i| {
        // analyzer: allow(panic-freedom) -- each result slot is touched by exactly one worker; it cannot be poisoned or contended
        *slots[i].lock().expect("unshared result slot") = Some(f(i * chunk, pieces[i]));
    });
    slots
        .into_iter()
        // analyzer: allow(panic-freedom) -- pool::run executed every index, so every unshared slot is filled
        .map(|s| s.into_inner().expect("unshared result slot").expect("pool ran every chunk"))
        .collect()
}

pub(crate) fn dot(x: &[Scalar], y: &[Scalar]) -> Scalar {
    match chunk_len(x.len()) {
        Some(chunk) => map_chunks(x, chunk, |base, xs| simd::dot(xs, &y[base..base + xs.len()]))
            .into_iter()
            .sum(),
        None => simd::dot(x, y),
    }
}

pub(crate) fn axpy(a: Scalar, x: &[Scalar], y: &mut [Scalar]) {
    match chunk_len(x.len()) {
        Some(chunk) => {
            for_chunks_mut(y, chunk, |base, ys| simd::axpy(a, &x[base..base + ys.len()], ys));
        }
        None => simd::axpy(a, x, y),
    }
}

pub(crate) fn scale(a: Scalar, x: &mut [Scalar]) {
    match chunk_len(x.len()) {
        Some(chunk) => {
            for_chunks_mut(x, chunk, |_, xs| simd::scale(a, xs));
        }
        None => simd::scale(a, x),
    }
}

pub(crate) fn sum(x: &[Scalar]) -> Scalar {
    match chunk_len(x.len()) {
        Some(chunk) => map_chunks(x, chunk, |_, xs| xs.iter().sum::<Scalar>()).into_iter().sum(),
        None => x.iter().sum(),
    }
}

pub(crate) fn map_inplace<F>(x: &mut [Scalar], f: F)
where
    F: Fn(Scalar) -> Scalar + Sync + Send,
{
    match chunk_len(x.len()) {
        Some(chunk) => {
            for_chunks_mut(x, chunk, |_, xs| {
                for v in xs.iter_mut() {
                    *v = f(*v);
                }
            });
        }
        _ => {
            for v in x.iter_mut() {
                *v = f(*v);
            }
        }
    }
}

pub(crate) fn zip_map<F>(a: &[Scalar], b: &[Scalar], out: &mut [Scalar], f: F)
where
    F: Fn(Scalar, Scalar) -> Scalar + Sync + Send,
{
    match chunk_len(a.len()) {
        Some(chunk) => {
            for_chunks_mut(out, chunk, |base, os| {
                for (off, o) in os.iter_mut().enumerate() {
                    *o = f(a[base + off], b[base + off]);
                }
            });
        }
        _ => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
    }
}

pub(crate) fn gemv(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
    // Guarded like every other element-wise kernel: an MLP-sized product
    // (~100 output rows) is pure dispatch overhead when parallelized. The
    // floor stays row-count-based (not flops-based) on purpose — it is
    // the PR 4 behaviour the pool bench and the MLP trajectories pin.
    match chunk_len(y.len()) {
        Some(chunk) => for_chunks_mut(y, chunk, |base, ys| simd::gemv_rows(a, x, base, ys)),
        None => simd::gemv(a, x, y),
    }
}

/// Scatter reductions materialize one dense partial per chunk; capping the
/// chunk count bounds that memory traffic when the output is very wide
/// (news: 1.35 M columns), like a two-level tree reduction would.
const MAX_SCATTER_PARTIALS: usize = 8;

// analyzer: root(hot-path-alloc) -- parallel scatter kernel: per-step hot path, only the bounded per-chunk partials may allocate
pub(crate) fn gemv_t(a: &Matrix, x: &[Scalar], y: &mut [Scalar]) {
    // Scatter along rows races on y; accumulate per-chunk partials and add.
    let t = pool::current_num_threads().clamp(1, MAX_SCATTER_PARTIALS);
    if t <= 1 {
        return simd::gemv_t(a, x, y);
    }
    let cols = a.cols();
    // `div_ceil`, not `len / t`: flooring yields up to `t + 1` chunks
    // (len 9, t 8 -> nine partials), breaking the MAX_SCATTER_PARTIALS
    // memory cap on wide outputs.
    let chunk = x.len().div_ceil(t).max(1);
    let partials = map_chunks(x, chunk, |base, xs| {
        // analyzer: allow(hot-path-alloc) -- one dense partial per chunk, capped at MAX_SCATTER_PARTIALS allocations per call
        let mut acc = vec![0.0; cols];
        for (off, &xi) in xs.iter().enumerate() {
            // Element-wise, so the tier swap cannot change bits relative
            // to the scalar chunking (axpy is order-preserving per lane).
            simd::axpy(xi, a.row(base + off), &mut acc);
        }
        acc
    });
    y.fill(0.0);
    for p in partials {
        simd::axpy(1.0, &p, y);
    }
}

// analyzer: root(hot-path-alloc) -- parallel matmul: per-step hot path, only the chunk scaffolding may allocate
pub(crate) fn gemm(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m) = (a.cols(), b.cols());
    let rows = a.rows();
    // Flops-based floor: each output row costs ~k*m multiply-adds, so a
    // short-and-wide product still parallelizes while a genuinely tiny
    // one (below MIN_PARALLEL_LEN element-ops total) stays sequential.
    // This sits *below* the Backend-level ViennaCL result-size threshold
    // and never re-serializes a product that threshold admits at its
    // default — the paper's Fig. 6 anomaly reproduction is unaffected.
    let rchunk = match chunk_len_weighted(rows, k.saturating_mul(m)) {
        Some(rc) if m > 0 => rc,
        _ => return seq::gemm(a, b, c),
    };
    for_chunks_mut(c.as_mut_slice(), rchunk * m, |base, piece| {
        for (off, c_row) in piece.chunks_mut(m).enumerate() {
            let i = base / m + off;
            c_row.fill(0.0);
            let a_row = a.row(i);
            for (p, &aip) in a_row.iter().enumerate().take(k) {
                // Zero-skip contract (see `Backend::gemm`): exact zeros of
                // A are structural — identical in seq/par and every tier.
                if aip == 0.0 {
                    continue;
                }
                // axpy is element-wise (order-preserving), so the tier
                // swap keeps gemm bitwise equal to `seq::gemm` on any data.
                simd::axpy(aip, b.row(p), c_row);
            }
        }
    });
}

pub(crate) fn gemm_nt(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let m = b.rows();
    let rows = a.rows();
    // Same flops-based floor as `gemm`: one output row = m dots of len k.
    let rchunk = match chunk_len_weighted(rows, a.cols().saturating_mul(m)) {
        Some(rc) if m > 0 => rc,
        // Below-threshold fallback must stay tier-routed so the result is
        // bitwise independent of whether the chunking engaged.
        _ => return simd::gemm_nt(a, b, c),
    };
    for_chunks_mut(c.as_mut_slice(), rchunk * m, |base, piece| {
        // Tier-routed inner dot (no zero-skip, so only reduction order
        // changes): each chunk resolves the ambient tier once, exactly
        // like the gemv/spmv row chunks.
        simd::gemm_nt_rows(a, b, base / m, piece);
    });
}

pub(crate) fn gemm_tn(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    // Parallelize over rows of C = A^T B: row i of C gathers column i of A
    // against all rows of B.
    let m = b.cols();
    let rows = a.cols();
    // Same flops-based floor as `gemm`: one output row of C = A^T B costs
    // ~a.rows() axpys of length m.
    let rchunk = match chunk_len_weighted(rows, a.rows().saturating_mul(m)) {
        Some(rc) if m > 0 => rc,
        _ => return seq::gemm_tn(a, b, c),
    };
    for_chunks_mut(c.as_mut_slice(), rchunk * m, |base, piece| {
        for (off, c_row) in piece.chunks_mut(m).enumerate() {
            let i = base / m + off;
            c_row.fill(0.0);
            for p in 0..a.rows() {
                let api = a.at(p, i);
                // Same zero-skip contract as `gemm`, same tier-safe axpy.
                if api != 0.0 {
                    simd::axpy(api, b.row(p), c_row);
                }
            }
        }
    });
}

pub(crate) fn spmv(a: &CsrMatrix, x: &[Scalar], y: &mut [Scalar]) {
    // Regression fix: this kernel shipped with *no* dispatch floor (the
    // bug PR 4 fixed in `gemv`), so a tiny sparse matvec paid a full pool
    // submission for nothing. Work per row is the average nnz, making the
    // floor a flops proxy (~total nnz) rather than a row count — a short
    // but dense-rowed CSR still parallelizes. Row-granular chunking is
    // order-preserving per row, so the guard cannot change bits.
    let avg_nnz = a.nnz() / a.rows().max(1);
    match chunk_len_weighted(y.len(), avg_nnz) {
        Some(chunk) => for_chunks_mut(y, chunk, |base, ys| simd::spmv_rows(a, x, base, ys)),
        None => simd::spmv(a, x, y),
    }
}

// analyzer: root(hot-path-alloc) -- parallel sparse scatter kernel: per-step hot path, only the bounded per-chunk partials may allocate
pub(crate) fn spmv_t(a: &CsrMatrix, x: &[Scalar], y: &mut [Scalar]) {
    let t = pool::current_num_threads().clamp(1, MAX_SCATTER_PARTIALS);
    if t <= 1 {
        return seq::spmv_t(a, x, y);
    }
    let cols = a.cols();
    // Same `div_ceil` fix as `gemv_t`: never exceed `t` partials.
    let chunk = x.len().div_ceil(t).max(1);
    let partials = map_chunks(x, chunk, |base, xs| {
        // analyzer: allow(hot-path-alloc) -- one dense partial per chunk, capped at MAX_SCATTER_PARTIALS allocations per call
        let mut acc = vec![0.0; cols];
        for (off, &xi) in xs.iter().enumerate() {
            if xi != 0.0 {
                a.row(base + off).axpy_into(xi, &mut acc);
            }
        }
        acc
    });
    y.fill(0.0);
    for p in partials {
        simd::axpy(1.0, &p, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    #[test]
    fn large_dot_crosses_parallel_threshold() {
        let x: Vec<Scalar> = (0..MIN_PARALLEL_LEN * 2).map(|i| (i % 13) as Scalar).collect();
        let y: Vec<Scalar> = (0..MIN_PARALLEL_LEN * 2).map(|i| (i % 7) as Scalar).collect();
        let expect = seq::dot(&x, &y);
        assert!((dot(&x, &y) - expect).abs() <= 1e-9 * expect.abs());
    }

    #[test]
    fn gemv_t_partials_reduce_correctly() {
        let a = Matrix::from_fn(97, 11, |i, j| ((i * 31 + j * 7) % 5) as Scalar - 2.0);
        let x: Vec<Scalar> = (0..97).map(|i| (i % 3) as Scalar).collect();
        let mut got = vec![0.0; 11];
        let mut expect = vec![0.0; 11];
        gemv_t(&a, &x, &mut got);
        seq::gemv_t(&a, &x, &mut expect);
        assert!(approx_eq_slice(&got, &expect, 1e-9));
    }

    #[test]
    fn spmv_t_partials_reduce_correctly() {
        let d =
            Matrix::from_fn(53, 17, |i, j| if (i + j) % 4 == 0 { (i + j) as Scalar } else { 0.0 });
        let s = CsrMatrix::from_dense(&d);
        let x: Vec<Scalar> = (0..53).map(|i| (i % 5) as Scalar - 2.0).collect();
        let mut got = vec![0.0; 17];
        let mut expect = vec![0.0; 17];
        spmv_t(&s, &x, &mut got);
        seq::spmv_t(&s, &x, &mut expect);
        assert!(approx_eq_slice(&got, &expect, 1e-9));
    }

    #[test]
    fn large_elementwise_kernels_match_seq() {
        let n = MIN_PARALLEL_LEN * 2 + 17;
        let x: Vec<Scalar> = (0..n).map(|i| (i % 19) as Scalar * 0.25).collect();
        let mut y1: Vec<Scalar> = (0..n).map(|i| (i % 5) as Scalar).collect();
        let mut y2 = y1.clone();
        axpy(1.5, &x, &mut y1);
        seq::axpy(1.5, &x, &mut y2);
        assert!(approx_eq_slice(&y1, &y2, 1e-12));

        let mut a1 = x.clone();
        let mut a2 = x.clone();
        map_inplace(&mut a1, |v| v * v + 1.0);
        for v in a2.iter_mut() {
            *v = *v * *v + 1.0;
        }
        assert!(approx_eq_slice(&a1, &a2, 1e-12));
        assert!((sum(&a1) - a2.iter().sum::<Scalar>()).abs() < 1e-6);
    }

    #[test]
    fn tiny_gemv_is_sequential_and_exact() {
        // Regression: `gemv` was the only element-wise-guarded kernel
        // missing the MIN_PARALLEL_LEN check, forking threads for
        // MLP-sized (~100-row) products. A tiny gemv must now match
        // seq::gemv bitwise without submitting any pool work.
        let a = Matrix::from_fn(100, 37, |i, j| ((i * 7 + j * 3) % 11) as Scalar - 5.0);
        let x: Vec<Scalar> = (0..37).map(|i| (i % 5) as Scalar * 0.5 - 1.0).collect();
        let mut got = vec![0.0; 100];
        let mut expect = vec![0.0; 100];
        let stats = pool::PoolStats::new();
        pool::with_stats(&stats, || pool::with_threads(4, || gemv(&a, &x, &mut got)));
        seq::gemv(&a, &x, &mut expect);
        assert_eq!(got, expect, "guarded gemv must be exactly the sequential kernel");
        assert_eq!(stats.submissions(), 0, "tiny gemv must not dispatch to the pool");
    }

    #[test]
    fn gemv_t_partial_count_never_exceeds_the_scatter_cap() {
        // Regression: `(len / t).max(1)` yields up to `t + 1` chunks
        // (len 9, t 8 -> nine partials), violating MAX_SCATTER_PARTIALS.
        let a = Matrix::from_fn(9, 4, |i, j| (i * 4 + j) as Scalar);
        let x: Vec<Scalar> = (0..9).map(|i| i as Scalar).collect();
        let mut got = vec![0.0; 4];
        let stats = pool::PoolStats::new();
        pool::with_stats(&stats, || {
            pool::with_threads(MAX_SCATTER_PARTIALS, || gemv_t(&a, &x, &mut got))
        });
        assert!(
            stats.max_tasks() <= MAX_SCATTER_PARTIALS,
            "{} partials exceed the cap of {MAX_SCATTER_PARTIALS}",
            stats.max_tasks()
        );
        // div_ceil(9, 8) = 2 -> five chunks, each a full-width partial.
        assert_eq!(stats.max_tasks(), 5);
        let mut expect = vec![0.0; 4];
        seq::gemv_t(&a, &x, &mut expect);
        assert!(approx_eq_slice(&got, &expect, 1e-12));
    }

    #[test]
    fn tiny_spmv_is_sequential_and_exact() {
        // Regression: `spmv` parallelized with no dispatch floor at all —
        // the same bug PR 4 fixed in `gemv`. A tiny sparse matvec must now
        // match seq::spmv bitwise without submitting any pool work.
        let d = Matrix::from_fn(60, 40, |i, j| {
            if (i * 13 + j * 5) % 3 == 0 {
                ((i + j) % 7) as Scalar - 3.0
            } else {
                0.0
            }
        });
        let s = CsrMatrix::from_dense(&d);
        let x: Vec<Scalar> = (0..40).map(|i| (i % 9) as Scalar * 0.5 - 2.0).collect();
        let mut got = vec![0.0; 60];
        let mut expect = vec![0.0; 60];
        let stats = pool::PoolStats::new();
        pool::with_stats(&stats, || pool::with_threads(8, || spmv(&s, &x, &mut got)));
        seq::spmv(&s, &x, &mut expect);
        assert_eq!(got, expect, "guarded spmv must be exactly the sequential kernel");
        assert_eq!(stats.submissions(), 0, "tiny spmv must not dispatch to the pool");
    }

    #[test]
    fn spmv_above_the_work_floor_still_parallelizes() {
        // The floor is a flops proxy (total nnz), not a row count: a CSR
        // whose nnz clears MIN_PARALLEL_LEN must still submit pool work.
        let d = Matrix::from_fn(512, 24, |i, j| ((i * 3 + j) % 11) as Scalar - 5.0);
        let s = CsrMatrix::from_dense(&d);
        assert!(s.nnz() >= MIN_PARALLEL_LEN);
        let x: Vec<Scalar> = (0..24).map(|i| i as Scalar).collect();
        let mut got = vec![0.0; 512];
        let stats = pool::PoolStats::new();
        pool::with_stats(&stats, || pool::with_threads(4, || spmv(&s, &x, &mut got)));
        assert!(stats.submissions() > 0, "large spmv must still use the pool");
        let mut expect = vec![0.0; 512];
        seq::spmv(&s, &x, &mut expect);
        assert_eq!(got, expect, "row-granular chunking is order-preserving");
    }

    #[test]
    fn tiny_gemm_variants_stay_below_the_flops_floor() {
        // The gemm audit: rows alone cleared the old `len >= 2` gate, so a
        // 16x4 * 4x4 product (256 element-ops) submitted pool tasks. The
        // flops-based floor keeps it sequential even when the Backend-level
        // ViennaCL threshold is disabled (par_unconditional).
        let a = Matrix::from_fn(16, 4, |i, j| ((i + j) % 5) as Scalar - 2.0);
        let b = Matrix::from_fn(4, 4, |i, j| ((i * 3 + j) % 7) as Scalar);
        let stats = pool::PoolStats::new();
        pool::with_stats(&stats, || {
            pool::with_threads(8, || {
                let mut c = Matrix::zeros(16, 4);
                gemm(&a, &b, &mut c);
                let bt = Matrix::from_fn(4, 4, |i, j| b.at(j, i));
                let mut c_nt = Matrix::zeros(16, 4);
                gemm_nt(&a, &bt, &mut c_nt);
                let at = Matrix::from_fn(4, 16, |i, j| a.at(j, i));
                let mut c_tn = Matrix::zeros(16, 4);
                gemm_tn(&at, &b, &mut c_tn);
            })
        });
        assert_eq!(stats.submissions(), 0, "sub-floor gemm variants must stay sequential");
    }

    #[test]
    fn gemm_variants_match_seq_under_forced_width() {
        // 48 * (9 * 13) = 5616 element-ops: above the flops floor, so the
        // parallel path genuinely runs (asserted via stats below).
        pool::with_threads(3, || {
            let a = Matrix::from_fn(48, 9, |i, j| ((i * 5 + j) % 9) as Scalar - 4.0);
            let b = Matrix::from_fn(9, 13, |i, j| ((i + j * 3) % 7) as Scalar - 3.0);
            let mut got = Matrix::zeros(48, 13);
            let mut expect = Matrix::zeros(48, 13);
            let stats = pool::PoolStats::new();
            pool::with_stats(&stats, || gemm(&a, &b, &mut got));
            assert!(stats.submissions() > 0, "above-floor gemm must parallelize");
            seq::gemm(&a, &b, &mut expect);
            assert!(approx_eq_slice(got.as_slice(), expect.as_slice(), 1e-9));

            let bt = Matrix::from_fn(13, 9, |i, j| b.at(j, i));
            let mut got_nt = Matrix::zeros(48, 13);
            gemm_nt(&a, &bt, &mut got_nt);
            assert!(approx_eq_slice(got_nt.as_slice(), expect.as_slice(), 1e-9));

            let at = Matrix::from_fn(9, 48, |i, j| a.at(j, i));
            let mut got_tn = Matrix::zeros(48, 13);
            gemm_tn(&at, &b, &mut got_tn);
            assert!(approx_eq_slice(got_tn.as_slice(), expect.as_slice(), 1e-9));
        });
    }
}

//! EmMark's parameter scoring function — Eqs. 2–4 of the paper.
//!
//! For the `i`-th quantized weight `W_i` in a layer whose input channels
//! have full-precision activation profile `A_f`:
//!
//! * quality score `S_q = |b_j / W_i|` (Eq. 3) — large-magnitude integers
//!   tolerate a `±1` step with the least relative distortion; weights at
//!   the min/max quantization level are "set to 0 before scoring", i.e.
//!   their score diverges and they are never selected (a bump there would
//!   clip or wrap);
//! * robustness score `S_r = |max(A_f) / (A_f_i − min(A_f))|` (Eq. 4) —
//!   salient channels (large activation) score low, so watermarks land
//!   where an adversary cannot perturb without wrecking the model;
//! * combined `S = α·S_q + β·S_r` (Eq. 2); *smaller is better*.
//!
//! # Kernel layout
//!
//! Both entry points ([`score_layer`] and [`layer_pool`]) run the same
//! chunked, branch-free kernel over the contiguous `i8` grid
//! ([`QuantizedLinear::q_values`]), restructured for the
//! autovectorizer (DESIGN.md §11):
//!
//! * **row slicing** — the grid is walked one input channel (row) at a
//!   time, so the per-channel robustness term `β·S_r[channel]` is
//!   hoisted out of the inner loop (the scalar path re-derived
//!   `channel = f / out` with an integer division *per cell*). Outlier
//!   rows and the excluded minimum-activation channel skip the kernel
//!   entirely;
//! * **exclusion as a mask** — the Eq. 3 quality term, its divide, and
//!   the clamped/zero validity test all collapse into a per-layer
//!   256-entry table (`quality_lut`: invalid byte patterns map to
//!   `∞`, and `∞` survives the row-term add), while the sorted
//!   `excluded` runs are spliced into the score buffer after the
//!   arithmetic — the hot loop is one indexed load and one add per
//!   cell, with no data-dependent branches;
//! * **chunked folds** — scores land in a fixed stack buffer
//!   (`CHUNK` cells) whose count/min folds vectorize; the bounded
//!   heap of [`layer_pool`] is only touched when a chunk's minimum
//!   beats the current pool threshold, which stops happening almost
//!   entirely once the pool warms up.
//!
//! The pre-kernel scalar implementations live on in [`mod@reference`]: the
//! `scoring_kernels` bench gates the kernels ≥3x over them, and the
//! equivalence proptests (`tests/scoring_kernel_equivalence.rs`) pin
//! bit-identical scores and pool selections across all five
//! quantization schemes.

use crate::telemetry::{self, Telemetry};
use emmark_quant::QuantizedLinear;

/// Scoring coefficients `(α, β)` of Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreCoefficients {
    /// Weight of the quality-preservation score `S_q`.
    pub alpha: f64,
    /// Weight of the robustness score `S_r`.
    pub beta: f64,
}

impl Default for ScoreCoefficients {
    /// The paper's default `(0.5, 0.5)`.
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
        }
    }
}

impl ScoreCoefficients {
    /// Validates that both coefficients are non-negative and not both
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.alpha < 0.0 || self.beta < 0.0 {
            return Err("coefficients must be non-negative".into());
        }
        if self.alpha == 0.0 && self.beta == 0.0 {
            return Err("at least one coefficient must be positive".into());
        }
        Ok(())
    }
}

/// Cells per kernel chunk: scores are computed into a fixed stack
/// buffer of this many lanes, then folded (count + min) before the
/// pool heap is consulted.
const CHUNK: usize = 64;

/// The per-layer quality table: entry `b` holds `α/|q|` for the `i8`
/// whose bit pattern is `b` when `0 < |q| < qmax`, and `∞` otherwise
/// (clamped levels, the wrapped two's-complement minimum, and zero
/// weights). A quantized cell admits only 256 values, so the whole
/// Eq. 3 term — divide, validity test, and all — collapses into one
/// indexed load; `∞ + row_term = ∞`, so exclusion survives the add.
///
/// Entries are computed with the same `α / |q|` the scalar reference
/// performs per cell, keeping scores bit-identical. With `α = 0` valid
/// entries are `0/|q| = 0`: the ablation semantics (zero coefficient
/// disables the term, exclusions still apply) need no special case.
fn quality_lut(alpha: f64, qmax: f64) -> [f64; 256] {
    let mut lut = [f64::INFINITY; 256];
    for (b, entry) in lut.iter_mut().enumerate() {
        let a = ((b as u8 as i8) as i32).unsigned_abs() as f64;
        if a > 0.0 && a < qmax {
            *entry = alpha / a;
        }
    }
    lut
}

/// The scoring kernel for one slice of a row: one table load plus one
/// add per cell, no branches, no per-cell divide. `row_term` is the
/// hoisted `β·S_r[channel]` of the row this slice belongs to.
#[inline]
fn score_cells(q_row: &[i8], lut: &[f64; 256], row_term: f64, out: &mut [f64]) {
    debug_assert_eq!(q_row.len(), out.len());
    for (o, &qv) in out.iter_mut().zip(q_row) {
        *o = lut[qv as u8 as usize] + row_term;
    }
}

/// Per-cell scores for one quantized layer; `f64::INFINITY` marks cells
/// excluded from watermarking (min/max level, zero weights, LLM.int8()
/// outlier rows).
///
/// Runs the chunked row kernel (module docs) straight into the output
/// vector; bit-identical to [`reference::score_layer`].
///
/// # Panics
///
/// Panics if `act_mean.len() != layer.in_features()`.
pub fn score_layer(
    layer: &QuantizedLinear,
    act_mean: &[f32],
    coeffs: &ScoreCoefficients,
) -> Vec<f64> {
    assert_eq!(
        act_mean.len(),
        layer.in_features(),
        "activation profile does not match layer input width"
    );
    let row_terms = robustness_row_terms(act_mean, coeffs.beta);
    let out = layer.out_features();
    let lut = quality_lut(coeffs.alpha, layer.qmax() as f64);
    let mut scores = vec![f64::INFINITY; layer.len()];
    let mut outliers = layer.outlier_rows().iter().peekable();
    for (r, &row_term) in row_terms.iter().enumerate() {
        if outliers.next_if(|&&o| o == r).is_some() {
            continue; // outlier row: inert integer storage, stays ∞
        }
        if !row_term.is_finite() {
            continue; // excluded minimum-activation channel, stays ∞
        }
        score_cells(
            layer.q_row(r),
            &lut,
            row_term,
            &mut scores[r * out..(r + 1) * out],
        );
    }
    scores
}

/// Eq. 4 per input channel: `|max(A_f) / (A_f_i − min(A_f))|`, with the
/// minimum-activation channel excluded (division by zero ⇒ `∞`).
pub fn robustness_scores(act_mean: &[f32]) -> Vec<f64> {
    robustness_row_terms(act_mean, 1.0)
}

/// The per-channel robustness term the kernels index once per row:
/// `β·S_r` (Eq. 4 pre-multiplied by the coefficient), computed with a
/// single fused min/max pass over `act_mean`. With `β = 0` the whole
/// vector is zero (the term is disabled; `0·∞` never poisons a score),
/// matching the coefficient-ablation semantics of Eq. 2.
pub fn robustness_row_terms(act_mean: &[f32], beta: f64) -> Vec<f64> {
    if beta == 0.0 {
        return vec![0.0; act_mean.len()];
    }
    let (max, min) = act_mean
        .iter()
        .fold((f32::NEG_INFINITY, f32::INFINITY), |(max, min), &a| {
            (max.max(a), min.min(a))
        });
    let (max, min) = (max as f64, min as f64);
    act_mean
        .iter()
        .map(|&a| {
            let denom = a as f64 - min;
            if denom == 0.0 {
                f64::INFINITY
            } else {
                beta * (max / denom).abs()
            }
        })
        .collect()
}

/// The candidate pool: flat indices of the `pool_size` best-scored
/// (smallest) cells, ties broken by index for determinism. Excluded
/// (infinite-score) cells never enter the pool.
///
/// # Errors
///
/// Returns [`PoolError`] if fewer than `pool_size` finite-scored cells
/// exist.
pub fn candidate_pool(scores: &[f64], pool_size: usize) -> Result<Vec<usize>, PoolError> {
    let mut indexed: Vec<(f64, usize)> = scores
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_finite())
        .map(|(i, &s)| (s, i))
        .collect();
    if indexed.len() < pool_size {
        return Err(PoolError {
            needed: pool_size,
            available: indexed.len(),
        });
    }
    // total_cmp orders the finite scores that reach this point exactly
    // like partial_cmp did, with no panic path for the optimizer.
    indexed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    indexed.truncate(pool_size);
    Ok(indexed.into_iter().map(|(_, i)| i).collect())
}

/// A `(score, index)` pair with the total order the candidate pool
/// sorts by: ascending score, ties broken by ascending index. Scores in
/// the pool are always finite and non-negative, so [`f64::total_cmp`]
/// coincides with the numeric order (and leaves no panic path in the
/// comparator).
#[derive(Debug, Clone, Copy)]
struct Scored(f64, usize);

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Scores one layer and keeps its candidate pool in a single streaming
/// pass: the chunked Eq. 2–4 kernel (module docs) over the row-sliced
/// grid, with `excluded` cells score-excluded (the rule the fingerprint
/// layer uses to keep device bits off the ownership watermark's cells),
/// while a bounded max-heap retains the `pool_size` best seen so far.
/// The heap is consulted only when a chunk's minimum score beats the
/// pool's current worst — after warm-up almost every chunk is disposed
/// of by the vectorized fold alone. Resident memory is
/// O(pool_size + in_features), never O(cells).
///
/// `excluded` must be sorted ascending (the fingerprint layer holds its
/// exclusions sorted; passing the slice through avoids the copy + sort
/// per layer the scalar path paid). Debug builds assert sortedness.
///
/// The result is identical to scoring everything and calling
/// [`candidate_pool`] (same scores, same `(score, index)` tie-break),
/// and bit-identical to the scalar [`reference::layer_pool`]; the
/// module tests and `tests/scoring_kernel_equivalence.rs` pin both.
///
/// This is the per-layer unit of work every location-reproduction path
/// shares — ownership insertion, fingerprint pooling, and the fleet
/// caches all reduce to it, so scoring happens in exactly one place.
///
/// # Errors
///
/// Returns [`PoolError`] if fewer than `pool_size` finite-scored cells
/// remain after exclusion.
///
/// # Panics
///
/// Panics if `act_mean.len() != layer.in_features()`.
pub fn layer_pool(
    layer: &QuantizedLinear,
    act_mean: &[f32],
    coeffs: &ScoreCoefficients,
    pool_size: usize,
    excluded: &[usize],
) -> Result<Vec<usize>, PoolError> {
    assert_eq!(
        act_mean.len(),
        layer.in_features(),
        "activation profile does not match layer input width"
    );
    debug_assert!(
        excluded.windows(2).all(|w| w[0] <= w[1]),
        "excluded cells must be sorted ascending"
    );
    let row_terms = robustness_row_terms(act_mean, coeffs.beta);
    let out = layer.out_features();
    let lut = quality_lut(coeffs.alpha, layer.qmax() as f64);
    // The `pool_size` smallest (score, index) pairs seen so far; the
    // heap top is the current worst. `threshold` mirrors the top score
    // once the heap is full — a cell can enter only with a strictly
    // smaller score (an equal score loses the index tie-break, because
    // the grid is walked in ascending index order).
    // `pool_size` may come from an untrusted vault: reserve what the layer holds.
    let mut heap: std::collections::BinaryHeap<Scored> =
        std::collections::BinaryHeap::with_capacity(pool_size.min(layer.len()) + 1);
    let mut threshold = f64::INFINITY;
    let mut available = 0usize;
    let mut excl = excluded;
    let mut outliers = layer.outlier_rows().iter().peekable();
    let mut buf = [0.0f64; CHUNK];
    // Telemetry rides on plain register accumulators so the hot loop
    // stays branch-free; they flush (and the span records) only when
    // telemetry is enabled — the disabled cost is one atomic load.
    let span = telemetry::Span::enter(&telemetry::SCORING_POOL_NS);
    let mut chunks = 0u64;
    let mut chunks_skipped = 0u64;
    let mut heap_consults = 0u64;
    for (r, &row_term) in row_terms.iter().enumerate() {
        let row_start = r * out;
        let row_end = row_start + out;
        // Rows with no scorable cells skip the kernel entirely; their
        // exclusion entries are consumed so the run pointer stays in
        // step with the walk.
        if outliers.next_if(|&&o| o == r).is_some() || !row_term.is_finite() {
            excl = &excl[excl.iter().take_while(|&&e| e < row_end).count()..];
            continue;
        }
        let row = layer.q_row(r);
        let (row_excl, rest) = excl.split_at(excl.iter().take_while(|&&e| e < row_end).count());
        excl = rest;
        for (ci, chunk) in row.chunks(CHUNK).enumerate() {
            let base = row_start + ci * CHUNK;
            let buf = &mut buf[..chunk.len()];
            score_cells(chunk, &lut, row_term, buf);
            // Splice the row's sorted exclusion run into the mask.
            for &e in row_excl {
                if e >= base && e < base + buf.len() {
                    buf[e - base] = f64::INFINITY;
                }
            }
            let mut chunk_min = f64::INFINITY;
            let mut finite = 0usize;
            for &s in buf.iter() {
                finite += (s < f64::INFINITY) as usize;
                chunk_min = chunk_min.min(s);
            }
            available += finite;
            chunks += 1;
            if pool_size == 0 || chunk_min >= threshold {
                chunks_skipped += 1;
                continue;
            }
            for (i, &s) in buf.iter().enumerate() {
                if s >= threshold {
                    continue;
                }
                heap_consults += 1;
                let candidate = Scored(s, base + i);
                if heap.len() == pool_size {
                    heap.pop();
                }
                heap.push(candidate);
                if heap.len() == pool_size {
                    threshold = heap.peek().expect("non-empty heap").0;
                }
            }
        }
    }
    if Telemetry::enabled() {
        telemetry::SCORING_CELLS.add(layer.len() as u64);
        telemetry::SCORING_CHUNKS.add(chunks);
        telemetry::SCORING_CHUNKS_SKIPPED.add(chunks_skipped);
        telemetry::SCORING_HEAP_CONSULTS.add(heap_consults);
    }
    drop(span);
    if available < pool_size {
        return Err(PoolError {
            needed: pool_size,
            available,
        });
    }
    let mut kept = heap.into_vec();
    kept.sort_unstable();
    Ok(kept.into_iter().map(|Scored(_, f)| f).collect())
}

/// The pre-kernel scalar implementations of Eqs. 2–4, kept as the
/// measured baseline and the equivalence oracle.
///
/// These are the per-cell, branch-heavy loops the chunked kernels
/// replaced: the `scoring_kernels` bench gates [`layer_pool`] ≥3x over
/// [`reference::layer_pool`], and the proptests in
/// `tests/scoring_kernel_equivalence.rs` pin bit-identical scores and
/// pool selections between the two across all five quantization
/// schemes. Unlike the kernel entry point, [`reference::layer_pool`]
/// accepts `excluded` in any order (it copies and sorts, as the scalar
/// path always did).
pub mod reference {
    use super::{PoolError, ScoreCoefficients, Scored};
    use emmark_quant::QuantizedLinear;

    /// Scalar per-cell scoring — the pre-kernel [`super::score_layer`].
    ///
    /// # Panics
    ///
    /// Panics if `act_mean.len() != layer.in_features()`.
    pub fn score_layer(
        layer: &QuantizedLinear,
        act_mean: &[f32],
        coeffs: &ScoreCoefficients,
    ) -> Vec<f64> {
        assert_eq!(
            act_mean.len(),
            layer.in_features(),
            "activation profile does not match layer input width"
        );
        let s_r = super::robustness_scores(act_mean);
        let out = layer.out_features();
        (0..layer.len())
            .map(|f| {
                if layer.is_clamped_flat(f) || layer.is_outlier_flat(f) {
                    return f64::INFINITY;
                }
                let q = layer.q_at_flat(f);
                if q == 0 {
                    // |b / 0| diverges: zero weights flip sign under ±1.
                    return f64::INFINITY;
                }
                let channel = f / out;
                // A zero coefficient disables its term entirely
                // (otherwise 0 · ∞ from the excluded minimum-activation
                // channel would poison the score with NaN).
                let term_q = if coeffs.alpha == 0.0 {
                    0.0
                } else {
                    coeffs.alpha / (q as f64).abs()
                };
                let term_r = if coeffs.beta == 0.0 {
                    0.0
                } else {
                    coeffs.beta * s_r[channel]
                };
                term_q + term_r
            })
            .collect()
    }

    /// Scalar streaming pool — the pre-kernel [`super::layer_pool`].
    /// `excluded` may arrive in any order.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError`] if fewer than `pool_size` finite-scored
    /// cells remain after exclusion.
    ///
    /// # Panics
    ///
    /// Panics if `act_mean.len() != layer.in_features()`.
    pub fn layer_pool(
        layer: &QuantizedLinear,
        act_mean: &[f32],
        coeffs: &ScoreCoefficients,
        pool_size: usize,
        excluded: &[usize],
    ) -> Result<Vec<usize>, PoolError> {
        assert_eq!(
            act_mean.len(),
            layer.in_features(),
            "activation profile does not match layer input width"
        );
        let s_r = super::robustness_scores(act_mean);
        let mut excluded_sorted = excluded.to_vec();
        excluded_sorted.sort_unstable();
        let out = layer.out_features();
        let mut heap: std::collections::BinaryHeap<Scored> =
            std::collections::BinaryHeap::with_capacity(pool_size.min(layer.len()) + 1);
        let mut available = 0usize;
        for f in 0..layer.len() {
            if layer.is_clamped_flat(f) || layer.is_outlier_flat(f) {
                continue;
            }
            let q = layer.q_at_flat(f);
            if q == 0 {
                continue;
            }
            if excluded_sorted.binary_search(&f).is_ok() {
                continue;
            }
            let channel = f / out;
            let term_q = if coeffs.alpha == 0.0 {
                0.0
            } else {
                coeffs.alpha / (q as f64).abs()
            };
            let term_r = if coeffs.beta == 0.0 {
                0.0
            } else {
                coeffs.beta * s_r[channel]
            };
            let score = term_q + term_r;
            if !score.is_finite() {
                continue;
            }
            available += 1;
            if pool_size == 0 {
                continue;
            }
            let candidate = Scored(score, f);
            if heap.len() < pool_size {
                heap.push(candidate);
            } else if candidate < *heap.peek().expect("non-empty heap") {
                heap.pop();
                heap.push(candidate);
            }
        }
        if available < pool_size {
            return Err(PoolError {
                needed: pool_size,
                available,
            });
        }
        let mut kept = heap.into_vec();
        kept.sort_unstable();
        Ok(kept.into_iter().map(|Scored(_, f)| f).collect())
    }
}

/// Not enough watermarkable cells in a layer to fill the candidate pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Requested pool size.
    pub needed: usize,
    /// Finite-scored cells available.
    pub available: usize,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "candidate pool needs {} cells but only {} are watermarkable",
            self.needed, self.available
        )
    }
}

impl std::error::Error for PoolError {}

#[cfg(test)]
mod tests {
    use super::*;
    use emmark_quant::{ActQuant, Granularity};

    fn layer_with(q: Vec<i8>, in_f: usize, out_f: usize) -> QuantizedLinear {
        QuantizedLinear::new(
            q,
            in_f,
            out_f,
            8,
            Granularity::PerTensor,
            vec![1.0],
            None,
            None,
            ActQuant::None,
        )
    }

    #[test]
    fn robustness_prefers_salient_channels() {
        let s = robustness_scores(&[1.0, 2.0, 10.0]);
        // Channel 2 (most salient) has the smallest score; channel 0
        // (the minimum) is excluded.
        assert_eq!(s[0], f64::INFINITY);
        assert!(s[2] < s[1]);
        // Exact values: max=10, min=1; s1 = 10/1, s2 = 10/9.
        assert!((s[1] - 10.0).abs() < 1e-12);
        assert!((s[2] - 10.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn row_terms_premultiply_beta_and_disable_at_zero() {
        let act = [1.0f32, 2.0, 10.0];
        let s = robustness_scores(&act);
        let half = robustness_row_terms(&act, 0.5);
        for (a, b) in s.iter().zip(&half) {
            assert_eq!(0.5 * a, *b, "row terms must be beta-premultiplied");
        }
        assert_eq!(
            robustness_row_terms(&act, 0.0),
            vec![0.0; 3],
            "beta = 0 disables the term without 0 * inf poisoning"
        );
    }

    #[test]
    fn quality_score_prefers_large_magnitudes() {
        // One channel (so S_r is constant-infinite except...); use two
        // channels to keep S_r finite on channel 1.
        let layer = layer_with(vec![1, 2, 100, -100], 2, 2);
        let coeffs = ScoreCoefficients {
            alpha: 1.0,
            beta: 0.0,
        };
        let s = score_layer(&layer, &[1.0, 2.0], &coeffs);
        assert!(s[2] < s[0], "larger |q| must score lower");
        assert_eq!(s[2], s[3], "sign does not matter");
    }

    #[test]
    fn clamped_zero_and_outlier_cells_are_excluded() {
        let mut layer = layer_with(vec![127, 0, -127, 5, 6, 7], 3, 2);
        layer.set_outliers(vec![2], emmark_tensor::Matrix::from_rows(&[&[1.0, 2.0]]));
        let s = score_layer(&layer, &[1.0, 2.0, 3.0], &ScoreCoefficients::default());
        assert_eq!(s[0], f64::INFINITY, "max level excluded");
        assert_eq!(s[1], f64::INFINITY, "zero weight excluded");
        assert_eq!(s[2], f64::INFINITY, "min level excluded");
        assert_eq!(s[4], f64::INFINITY, "outlier row excluded");
        assert_eq!(s[5], f64::INFINITY, "outlier row excluded");
        assert!(s[3].is_finite());
    }

    #[test]
    fn combined_score_trades_off_terms() {
        // Cell A: huge |q| in a weak channel. Cell B: small |q| in the
        // most salient channel. α-heavy scoring picks A, β-heavy picks B.
        let layer = layer_with(vec![100, 0, 0, 2], 2, 2);
        let act = [1.0f32, 50.0];
        let alpha_heavy = score_layer(
            &layer,
            &act,
            &ScoreCoefficients {
                alpha: 1.0,
                beta: 0.0,
            },
        );
        assert!(alpha_heavy[0] < alpha_heavy[3]);
        let beta_heavy = score_layer(
            &layer,
            &act,
            &ScoreCoefficients {
                alpha: 0.0,
                beta: 1.0,
            },
        );
        assert!(beta_heavy[3] < beta_heavy[0]);
    }

    #[test]
    fn kernel_scores_match_the_scalar_reference_bitwise() {
        // Clamped cells, the wrapped minimum, zeros, both signs, and an
        // outlier row, across every coefficient regime.
        let mut layer = layer_with(vec![127, -127, 0, 5, -5, 1, 126, 2, 3, -1, 4, 6], 4, 3);
        layer.set_outliers(
            vec![3],
            emmark_tensor::Matrix::from_rows(&[&[1.0, 2.0, 3.0]]),
        );
        let act = [0.5f32, 0.5, 2.0, 8.0];
        for coeffs in [
            ScoreCoefficients::default(),
            ScoreCoefficients {
                alpha: 1.0,
                beta: 0.0,
            },
            ScoreCoefficients {
                alpha: 0.0,
                beta: 1.0,
            },
            ScoreCoefficients {
                alpha: 0.25,
                beta: 2.0,
            },
        ] {
            let kernel = score_layer(&layer, &act, &coeffs);
            let scalar = reference::score_layer(&layer, &act, &coeffs);
            for (f, (a, b)) in kernel.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "cell {f} diverged under {coeffs:?}: kernel {a}, scalar {b}"
                );
            }
        }
    }

    #[test]
    fn candidate_pool_is_sorted_deterministic_and_excludes_infinite() {
        let scores = vec![0.5, f64::INFINITY, 0.1, 0.5, 0.2];
        let pool = candidate_pool(&scores, 3).expect("enough candidates");
        assert_eq!(pool, vec![2, 4, 0]); // ties (0.5) broken by index
        let pool4 = candidate_pool(&scores, 4).expect("enough candidates");
        assert_eq!(pool4, vec![2, 4, 0, 3]);
        let err = candidate_pool(&scores, 5).expect_err("only 4 finite");
        assert_eq!(
            err,
            PoolError {
                needed: 5,
                available: 4
            }
        );
        assert!(err.to_string().contains("5"));
    }

    #[test]
    fn layer_pool_matches_score_then_pool_and_honors_exclusions() {
        let layer = layer_with(vec![3, 4, 5, 6, 7, 8], 3, 2);
        let act = [1.0f32, 2.0, 3.0];
        let coeffs = ScoreCoefficients::default();
        let direct = {
            let scores = score_layer(&layer, &act, &coeffs);
            candidate_pool(&scores, 3).expect("pool")
        };
        let fused = layer_pool(&layer, &act, &coeffs, 3, &[]).expect("pool");
        assert_eq!(direct, fused);
        // Excluding a pooled cell must evict it, never shrink the pool.
        let without = layer_pool(&layer, &act, &coeffs, 3, &[fused[0]]).expect("pool");
        assert_eq!(without.len(), 3);
        assert!(!without.contains(&fused[0]));
        // Exclusions count against availability.
        let err = layer_pool(&layer, &act, &coeffs, 4, &[2, 3, 4, 5]).expect_err("short");
        assert!(err.available < err.needed);
    }

    #[test]
    fn layer_pool_matches_the_scalar_reference_with_exclusions() {
        let mut layer = layer_with(
            vec![
                127, -127, 0, 5, -5, 1, 126, 2, 3, -1, 4, 6, 7, -8, 9, 10, 11, -12, 13, 14,
            ],
            5,
            4,
        );
        layer.set_outliers(
            vec![2],
            emmark_tensor::Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]),
        );
        let act = [0.5f32, 1.5, 2.0, 8.0, 3.0];
        let coeffs = ScoreCoefficients::default();
        // Exclusions straddling chunk/row boundaries, including cells
        // that are already excluded structurally.
        let excluded = vec![0usize, 3, 7, 12, 19];
        for pool_size in [0usize, 1, 3, 6] {
            let kernel = layer_pool(&layer, &act, &coeffs, pool_size, &excluded);
            let scalar = reference::layer_pool(&layer, &act, &coeffs, pool_size, &excluded);
            assert_eq!(kernel, scalar, "pool_size {pool_size}");
        }
        // Shortage accounting agrees too.
        assert_eq!(
            layer_pool(&layer, &act, &coeffs, 64, &excluded),
            reference::layer_pool(&layer, &act, &coeffs, 64, &excluded),
        );
    }

    #[test]
    fn coefficient_validation() {
        assert!(ScoreCoefficients::default().validate().is_ok());
        assert!(ScoreCoefficients {
            alpha: -0.1,
            beta: 1.0
        }
        .validate()
        .is_err());
        assert!(ScoreCoefficients {
            alpha: 0.0,
            beta: 0.0
        }
        .validate()
        .is_err());
        assert!(ScoreCoefficients {
            alpha: 0.0,
            beta: 1.0
        }
        .validate()
        .is_ok());
    }
}

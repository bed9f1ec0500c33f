//! Run reports and step-size grid search.

use sgd_linalg::Scalar;

use crate::config::DeviceKind;
use crate::convergence::{ConvergenceSummary, LossTrace};
use crate::metrics::RunMetrics;

/// Why an optimizer run's epoch loop ended.
///
/// Before this taxonomy existed every runner silently `break`ed on a
/// non-finite loss, making a diverged run indistinguishable from a
/// converged short one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Reached the configured convergence target.
    Converged,
    /// Ran out of epochs, wall-clock/simulated seconds, or plateaued
    /// before reaching a target (or had no target at all).
    BudgetExhausted,
    /// The loss went non-finite (or exploded past the supervisor's
    /// explosion limit) after `epoch` completed epochs.
    Diverged {
        /// 1-based epoch at which divergence was detected.
        epoch: usize,
    },
    /// An injected fault made further progress impossible (e.g. a dead
    /// worker stalling a synchronous barrier) at `epoch`.
    FaultAborted {
        /// 1-based epoch at which the run aborted.
        epoch: usize,
    },
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Diverged`].
    pub fn is_diverged(&self) -> bool {
        matches!(self, RunOutcome::Diverged { .. })
    }

    /// Human-readable tag for tables and logs.
    pub fn label(&self) -> String {
        match self {
            RunOutcome::Converged => "converged".into(),
            RunOutcome::BudgetExhausted => "budget-exhausted".into(),
            RunOutcome::Diverged { epoch } => format!("diverged@{epoch}"),
            RunOutcome::FaultAborted { epoch } => format!("fault-aborted@{epoch}"),
        }
    }

    /// Classifies a legacy epoch loop that tracked only "diverged at" and
    /// "reached target" flags (used by the external-framework
    /// comparators, which do not run under the supervisor).
    pub fn classify(diverged_at: Option<usize>, converged: bool) -> RunOutcome {
        match diverged_at {
            Some(epoch) => RunOutcome::Diverged { epoch },
            None if converged => RunOutcome::Converged,
            None => RunOutcome::BudgetExhausted,
        }
    }
}

/// The outcome of one optimizer run: everything needed to fill one cell
/// block of the paper's Tables II/III.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Configuration label, e.g. `LR sync gpu`.
    pub label: String,
    /// Device the run executed on.
    pub device: DeviceKind,
    /// Step size used.
    pub step_size: f64,
    /// Loss trajectory (time excludes loss evaluation; GPU time is
    /// simulated kernel time).
    pub trace: LossTrace,
    /// Seconds spent in optimization (sum of epoch times).
    pub opt_seconds: f64,
    /// `true` when the run hit its time budget before reaching the 1 %
    /// threshold (reported as `∞` in the tables).
    pub timed_out: bool,
    /// Per-epoch hardware and staleness counters (see
    /// [`crate::EpochMetrics`]).
    pub metrics: RunMetrics,
    /// Why the epoch loop ended.
    pub outcome: RunOutcome,
    /// Best finite-loss model the supervisor checkpointed; `None` when no
    /// epoch improved on the initial model, and always for the framework
    /// comparators, which predate the supervisor.
    pub best_model: Option<Vec<Scalar>>,
}

impl RunReport {
    /// Hardware efficiency: average seconds per epoch. `NaN` when the run
    /// completed no epochs (an empty trace has no meaningful rate).
    pub fn time_per_epoch(&self) -> f64 {
        let epochs = self.trace.epochs();
        if epochs == 0 {
            f64::NAN
        } else {
            self.opt_seconds / epochs as f64
        }
    }

    /// Convergence summary against a reference optimum.
    pub fn summarize(&self, optimum: f64) -> ConvergenceSummary {
        self.trace.summarize(optimum)
    }

    /// Best loss this run reached.
    pub fn best_loss(&self) -> f64 {
        self.trace.best_loss().unwrap_or(f64::INFINITY)
    }

    /// Total model updates lost to (or serialized by) intra-warp
    /// conflicts; tracked exactly by the GPU asynchronous kernels, `None`
    /// for every other configuration.
    pub fn update_conflicts(&self) -> Option<u64> {
        self.metrics.update_conflicts
    }

    /// `true` when the run ended in [`RunOutcome::Diverged`].
    pub fn diverged(&self) -> bool {
        self.outcome.is_diverged()
    }
}

/// The paper's step-size grid: powers of ten from `1e-6` to `1e2`.
pub fn step_size_grid() -> Vec<f64> {
    (-6..=2).map(|e| 10f64.powi(e)).collect()
}

/// Halvings of α a diverged grid cell is retried at before the cell is
/// written off.
const GRID_BACKOFF_RETRIES: usize = 2;

/// Halvings of the smallest grid α the rescue pass tries when *every*
/// cell diverged. `2^-40` of the smallest α drives the update toward a
/// no-op, whose loss stays at the finite initial value, so the rescue
/// essentially always finds a non-diverged report.
const GRID_RESCUE_HALVINGS: usize = 40;

/// Reruns a diverged cell at halved step sizes, up to
/// [`GRID_BACKOFF_RETRIES`] times.
fn run_with_backoff(alpha: f64, run: &mut impl FnMut(f64) -> RunReport) -> RunReport {
    let mut rep = run(alpha);
    let mut a = alpha;
    for _ in 0..GRID_BACKOFF_RETRIES {
        if !rep.diverged() {
            break;
        }
        a *= 0.5;
        rep = run(a);
    }
    rep
}

/// Runs `run` at every step size in `grid` and returns the report with the
/// fastest time to 1 % above `optimum`; when no step size converges, the
/// non-diverged report with the lowest final loss is returned (it carries
/// `timed_out`/`∞` semantics for the tables).
///
/// Diverged cells never win: a cell whose run ends in
/// [`RunOutcome::Diverged`] is retried at halved α (step-size backoff) and
/// excluded from the comparison if it still diverges. If *every* cell
/// diverges even after backoff, a rescue pass keeps halving the smallest
/// grid α until a run survives; only if that also fails (pathological
/// tasks whose loss is non-finite at the initial model) is a diverged
/// report returned.
pub fn grid_search(optimum: f64, grid: &[f64], mut run: impl FnMut(f64) -> RunReport) -> RunReport {
    assert!(!grid.is_empty(), "empty step-size grid");
    let mut best: Option<(Option<f64>, f64, RunReport)> = None;
    let mut diverged_fallback: Option<RunReport> = None;
    let mut min_alpha = f64::INFINITY;
    for &alpha in grid {
        min_alpha = min_alpha.min(alpha);
        let rep = run_with_backoff(alpha, &mut run);
        if rep.diverged() {
            if diverged_fallback.is_none() {
                diverged_fallback = Some(rep);
            }
            continue;
        }
        let t = rep.summarize(optimum).time_to_1pct();
        let loss = rep.best_loss();
        let better = match &best {
            None => true,
            Some((bt, bloss, _)) => match (t, bt) {
                (Some(a), Some(b)) => a < *b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => loss < *bloss,
            },
        };
        if better {
            best = Some((t, loss, rep));
        }
    }
    if let Some((_, _, rep)) = best {
        return rep;
    }
    let mut alpha = min_alpha;
    for _ in 0..GRID_RESCUE_HALVINGS {
        alpha *= 0.5;
        let rep = run(alpha);
        if !rep.diverged() {
            return rep;
        }
    }
    // analyzer: allow(panic-freedom) -- the non-empty-grid assert at the top guarantees at least one report was produced
    diverged_fallback.expect("non-empty grid produced at least one report")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(alpha: f64, times_losses: &[(f64, f64)]) -> RunReport {
        let mut trace = LossTrace::new();
        for &(t, l) in times_losses {
            trace.push(t, l);
        }
        RunReport {
            label: "test".into(),
            device: DeviceKind::CpuSeq,
            step_size: alpha,
            opt_seconds: times_losses.last().map(|&(t, _)| t).unwrap_or(0.0),
            trace,
            timed_out: false,
            metrics: RunMetrics::default(),
            outcome: RunOutcome::BudgetExhausted,
            best_model: None,
        }
    }

    fn diverged(alpha: f64, times_losses: &[(f64, f64)]) -> RunReport {
        let epoch = times_losses.len().saturating_sub(1);
        RunReport { outcome: RunOutcome::Diverged { epoch }, ..report(alpha, times_losses) }
    }

    #[test]
    fn time_per_epoch_averages() {
        let r = report(0.1, &[(0.0, 1.0), (2.0, 0.5), (4.0, 0.2)]);
        assert!((r.time_per_epoch() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_per_epoch_of_empty_trace_is_nan() {
        // Regression: this used to report 0.0 s/epoch — an "infinitely
        // fast" run — which silently corrupted speedup ratios.
        assert!(report(0.1, &[]).time_per_epoch().is_nan());
        assert!(report(0.1, &[(0.0, 1.0)]).time_per_epoch().is_nan(), "no completed epoch");
    }

    #[test]
    fn update_conflicts_reads_metrics_aggregate() {
        let mut r = report(0.1, &[(0.0, 1.0), (1.0, 0.5)]);
        assert_eq!(r.update_conflicts(), None);
        r.metrics.update_conflicts = Some(11);
        assert_eq!(r.update_conflicts(), Some(11));
    }

    #[test]
    fn grid_is_powers_of_ten() {
        let g = step_size_grid();
        assert_eq!(g.len(), 9);
        assert!((g[0] - 1e-6).abs() < 1e-18);
        assert!((g[8] - 1e2).abs() < 1e-9);
    }

    #[test]
    fn grid_search_prefers_fastest_convergence() {
        // optimum 1.0 -> 1 % threshold at 1.01.
        let best = grid_search(1.0, &[0.1, 1.0, 10.0], |alpha| {
            if alpha == 1.0 {
                report(alpha, &[(0.0, 2.0), (1.0, 1.005)]) // converges at t=1
            } else if alpha == 10.0 {
                report(alpha, &[(0.0, 2.0), (0.5, 1.009)]) // converges at t=0.5
            } else {
                report(alpha, &[(0.0, 2.0), (1.0, 1.5)]) // never converges
            }
        });
        assert_eq!(best.step_size, 10.0);
    }

    #[test]
    fn grid_search_falls_back_to_lowest_loss() {
        let best = grid_search(0.0, &[0.1, 1.0], |alpha| {
            report(alpha, &[(0.0, 2.0), (1.0, if alpha == 1.0 { 0.5 } else { 0.9 })])
        });
        assert_eq!(best.step_size, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty step-size grid")]
    fn empty_grid_rejected() {
        let _ = grid_search(0.0, &[], |a| report(a, &[(0.0, 1.0)]));
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(RunOutcome::Converged.label(), "converged");
        assert_eq!(RunOutcome::Diverged { epoch: 3 }.label(), "diverged@3");
        assert_eq!(RunOutcome::FaultAborted { epoch: 2 }.label(), "fault-aborted@2");
        assert!(RunOutcome::Diverged { epoch: 1 }.is_diverged());
        assert!(!RunOutcome::BudgetExhausted.is_diverged());
    }

    #[test]
    fn classify_maps_legacy_flags() {
        assert_eq!(RunOutcome::classify(Some(4), false), RunOutcome::Diverged { epoch: 4 });
        assert_eq!(RunOutcome::classify(None, true), RunOutcome::Converged);
        assert_eq!(RunOutcome::classify(None, false), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn grid_search_never_selects_a_diverged_cell() {
        // The diverged cell has a (bogus) low intermediate loss AND a fast
        // time-to-threshold — the old comparison would have picked it.
        let best = grid_search(1.0, &[0.1, 10.0], |alpha| {
            if alpha >= 10.0 * 0.5f64.powi(GRID_BACKOFF_RETRIES as i32) {
                diverged(alpha, &[(0.0, 2.0), (0.1, 1.001), (0.2, f64::INFINITY)])
            } else {
                report(alpha, &[(0.0, 2.0), (1.0, 1.5)])
            }
        });
        assert_eq!(best.step_size, 0.1);
        assert!(!best.diverged());
    }

    #[test]
    fn grid_search_backoff_rescues_a_diverged_cell_at_halved_alpha() {
        // α = 4 diverges; one halving (α = 2) converges — faster than the
        // stable α = 0.1 cell, so the backoff result must win the grid.
        let best = grid_search(1.0, &[0.1, 4.0], |alpha| {
            if alpha >= 4.0 {
                diverged(alpha, &[(0.0, 2.0), (0.1, f64::NAN)])
            } else if alpha >= 2.0 {
                report(alpha, &[(0.0, 2.0), (0.5, 1.005)])
            } else {
                report(alpha, &[(0.0, 2.0), (3.0, 1.005)])
            }
        });
        assert_eq!(best.step_size, 2.0);
        assert_eq!(best.outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn grid_search_rescue_halves_below_the_grid_when_everything_diverges() {
        let mut calls = 0usize;
        // Backoff halves each cell only GRID_BACKOFF_RETRIES times, so with
        // everything above 0.1 diverging (0.5 → 0.25 → 0.125 all diverge)
        // only the rescue pass can reach a surviving α.
        let best = grid_search(0.0, &[0.5, 1.0], |alpha| {
            calls += 1;
            if alpha > 0.1 {
                diverged(alpha, &[(0.0, 2.0), (0.1, f64::INFINITY)])
            } else {
                report(alpha, &[(0.0, 2.0), (1.0, 1.9)])
            }
        });
        assert!(best.step_size <= 0.1, "rescued at α = {}", best.step_size);
        assert!(!best.diverged());
        assert!(calls > 2, "backoff and rescue reran the closure");
    }
}

"""Bootstrap statistics (Section 4.3).

The paper's procedure, reproduced step by step:

1. Per block, 30 simulated runtimes.
2. Bootstrap: "From the 30 sample runtimes, we randomly draw 30
   samples, with replacement, in order to generate a second sample
   mean.  This process is repeated until we have 100 sample means for
   the block."
3. "These 100 sample mean runtimes are scaled by the profiled
   execution frequency ... The sample means for each block are summed
   giving 100 sample runtimes for the entire program."
4. "the 100 sample means from the balanced scheduler are paired with
   an equal number from the traditional scheduler, and the calculation
   is performed.  After sorting, a 95% confidence interval is directly
   extracted."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .program import ProgramRuns

#: "until we have 100 sample means for the block" (Section 4.3).
DEFAULT_BOOTSTRAP = 100


def bootstrap_means(
    samples: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = DEFAULT_BOOTSTRAP,
) -> np.ndarray:
    """``n_boot`` resampled means of ``samples`` (with replacement)."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    indices = rng.integers(0, n, size=(n_boot, n))
    return samples[indices].mean(axis=1)


def program_bootstrap_runtimes(
    runs: ProgramRuns,
    rng: np.random.Generator,
    n_boot: int = DEFAULT_BOOTSTRAP,
) -> np.ndarray:
    """100 bootstrap program runtimes: per-block bootstrap means,
    frequency-scaled and summed across blocks."""
    total = np.zeros(n_boot)
    for sample in runs.blocks:
        means = bootstrap_means(sample.cycles.astype(float), rng, n_boot)
        total += sample.frequency * means
    return total


@dataclass(frozen=True)
class ImprovementResult:
    """Percentage improvement of balanced over traditional, with CI."""

    mean: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return f"{self.mean:+.1f}% [{self.ci_low:+.1f}, {self.ci_high:+.1f}]"

    @property
    def significant(self) -> bool:
        """True when the 95% CI excludes zero."""
        return self.ci_low > 0 or self.ci_high < 0


def percentage_improvement(
    traditional: np.ndarray, balanced: np.ndarray
) -> ImprovementResult:
    """Paired percentage improvement with a direct 95% CI.

    Positive values mean balanced scheduling is faster (smaller
    runtime), matching the sign convention of Table 2.
    """
    if traditional.shape != balanced.shape:
        raise ValueError("paired series must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        improvements = 100.0 * (traditional - balanced) / traditional
    improvements = np.sort(improvements)
    n = len(improvements)
    low_index = max(int(np.floor(0.025 * n)), 0)
    high_index = min(int(np.ceil(0.975 * n)) - 1, n - 1)
    return ImprovementResult(
        mean=float(improvements.mean()),
        ci_low=float(improvements[low_index]),
        ci_high=float(improvements[high_index]),
    )


def compare_runs(
    traditional: ProgramRuns,
    balanced: ProgramRuns,
    rng: np.random.Generator,
    n_boot: int = DEFAULT_BOOTSTRAP,
) -> ImprovementResult:
    """End-to-end paper comparison of two scheduler's program runs."""
    t_boot = program_bootstrap_runtimes(traditional, rng, n_boot)
    b_boot = program_bootstrap_runtimes(balanced, rng, n_boot)
    return percentage_improvement(t_boot, b_boot)

"""Monte Carlo estimators and exact small-n oracles.

Every estimator derives one seed per trial from its master seed, so results
are identical no matter how trials are scheduled.  Trials run one after
another in the calling thread: they are pure Python, so a thread pool only
adds overhead under the interpreter lock.

The deficiency-zero check short-circuits whenever the network's spanning
forest has more than n edges: deficiency zero needs the forest vectors to be
independent, and more than n vectors in Q^n never are.  The forest search
stops at n + 1 edges, so a dense draw costs neither a rank computation nor a
search of its whole graph.  The rule covers the old bound of 2n complexes:
every complex has degree at least 1, so #components <= #complexes / 2.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import isfinite, sqrt
from typing import Callable

from .complexes import index_to_complex, universe_size
from .network import Reaction, ReactionNetwork
from .rng import derive_seed
from .sampler import (
    ErTrialConfig,
    count_isolated,
    sample_er_network,
    sample_k_paired,
    sample_sparse_sign_matrix,
    is_columns_independent,
    unrank_edge,
)

_Z95 = 1.96  # 95% normal quantile for the Wilson interval


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    At 0 or trials successes the corresponding endpoint is exactly the
    boundary by algebra; pinning it avoids one-ulp float drift that would
    put the point estimate outside the interval.
    """
    if trials <= 0:
        raise ValueError("Wilson interval needs at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return low, high


@dataclass(frozen=True)
class EstimateRow:
    """One Monte Carlo result with enough provenance to reproduce it.

    For conditional estimators, successes counts hits among the
    conditioning_count qualifying trials; estimate is None when no trial
    qualified (undefined, deliberately not 0).
    """

    n: int
    p: float | None
    trials: int
    successes: int
    estimate: float | None
    ci_low: float | None
    ci_high: float | None
    wall_time_ms: float
    conditioning_count: int | None = None
    k: int | None = None

    def to_dict(self) -> dict:
        """The fields, less conditioning_count and k when they are None."""
        out = asdict(self)
        for optional in ("conditioning_count", "k"):
            if out[optional] is None:
                del out[optional]
        return out


@dataclass(frozen=True)
class SweepSpec:
    """A threshold sweep: p = min(1, c * n**-beta) over a grid of n."""

    n_grid: tuple[int, ...]
    c: float
    beta: float
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must be a non-empty list of species counts >= 1")
        if not (isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class IsolatedTailSpec:
    """Isolated-vertex tail experiment at p = (2n + alpha) / (N(N-1))."""

    n: int
    alpha: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"species count must be >= 1, got {self.n}")
        if not isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        ErTrialConfig(self.n, self.p, self.seed)  # refuses an oversized draw

    @property
    def p(self) -> float:
        """The edge probability, clamped at 1; alpha must keep it positive."""
        size = universe_size(self.n)
        p_raw = (2 * self.n + self.alpha) / (size * (size - 1))
        if p_raw <= 0.0:
            raise ValueError(
                f"alpha={self.alpha} drives the edge probability to {p_raw}; it must stay positive"
            )
        return min(1.0, p_raw)


def _map_trials(master_seed: int, trials: int, trial: Callable[[int], object]) -> list:
    """trial(seed) for each derived per-trial seed, in trial-index order."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [trial(derive_seed(master_seed, i)) for i in range(trials)]


def deficiency_is_zero(net: ReactionNetwork) -> bool:
    """Deficiency-zero check with the forest-size short-circuit."""
    if net.forest_size(limit=net.n) > net.n:
        return False
    return net.deficiency().deficiency == 0


def _finish(
    n: int,
    p: float | None,
    trials: int,
    successes: int,
    started: float,
    conditioning_count: int | None = None,
    k: int | None = None,
) -> EstimateRow:
    denom = trials if conditioning_count is None else conditioning_count
    if denom > 0:
        estimate = successes / denom
        ci_low, ci_high = wilson_interval(successes, denom)
    else:
        estimate = ci_low = ci_high = None
    return EstimateRow(
        n=n,
        p=p,
        trials=trials,
        successes=successes,
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
        conditioning_count=conditioning_count,
        k=k,
    )


def _estimate(
    n: int, p: float | None, master_seed: int, trials: int,
    trial: Callable[[int], bool], k: int | None = None,
) -> EstimateRow:
    """The fraction of the trials for which trial(seed) holds, timed."""
    started = time.perf_counter()
    successes = sum(_map_trials(master_seed, trials, trial))
    return _finish(n, p, trials, successes, started, k=k)


def estimate_def_zero_prob(cfg: ErTrialConfig, trials: int) -> EstimateRow:
    """Fraction of Erdos-Renyi draws with deficiency zero."""

    def trial(seed: int) -> bool:
        return deficiency_is_zero(sample_er_network(ErTrialConfig(cfg.n, cfg.p, seed)))

    return _estimate(cfg.n, cfg.p, cfg.seed, trials, trial)


@lru_cache(maxsize=None)
def _def_zero_counts(n: int) -> tuple[int, ...]:
    # counts[e] = number of e-edge graphs over the n-species universe whose
    # network has deficiency zero; one pass over all 2^M graphs.
    size = universe_size(n)
    total_pairs = size * (size - 1) // 2
    pair_reactions = []
    for t in range(total_pairs):
        u, v = unrank_edge(t)
        cu, cv = index_to_complex(n, u), index_to_complex(n, v)
        pair_reactions.append((Reaction(cu, cv), Reaction(cv, cu)))
    counts = [0] * (total_pairs + 1)
    for mask in range(1 << total_pairs):
        reactions = []
        for t in range(total_pairs):
            if mask >> t & 1:
                reactions.extend(pair_reactions[t])
        net = ReactionNetwork(n, frozenset(reactions))
        if deficiency_is_zero(net):
            counts[mask.bit_count()] += 1
    return tuple(counts)


def exact_def_zero_prob_small(n: int, p: float) -> float:
    """Exact deficiency-zero probability by enumerating every graph.

    Only n in {1, 2} is supported (8 and 32768 graphs); beyond that the
    2^(N(N-1)/2) enumeration is out of reach.
    """
    if n not in (1, 2):
        raise ValueError(f"exact enumeration supports n in {{1, 2}}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p must be in [0, 1], got {p}")
    counts = _def_zero_counts(n)
    total_pairs = len(counts) - 1
    return sum(
        c * p**e * (1 - p) ** (total_pairs - e)
        for e, c in enumerate(counts)
        if c
    )


def sweep_threshold(spec: SweepSpec) -> list[EstimateRow]:
    """One deficiency-zero estimate per grid point, rows ordered by n.

    Each row's seed is derived from (master_seed, n), so subsetting or
    reordering the grid reproduces identical rows.  Every row's configuration
    is checked before the first trial runs.
    """
    configs = []
    for n in sorted(set(spec.n_grid)):
        p = min(1.0, spec.c * float(n) ** (-spec.beta))
        configs.append(ErTrialConfig(n, p, derive_seed(spec.master_seed, n)))
    return [estimate_def_zero_prob(cfg, spec.trials) for cfg in configs]


def estimate_isolated_tail(spec: IsolatedTailSpec) -> EstimateRow:
    """Estimates P(isolated count >= N - 2n) at p = spec.p."""
    p = spec.p
    threshold = universe_size(spec.n) - 2 * spec.n

    def trial(seed: int) -> bool:
        net = sample_er_network(ErTrialConfig(spec.n, p, seed))
        return count_isolated(net) >= threshold

    return _estimate(spec.n, p, spec.seed, spec.trials, trial)


def _all_reactions_touch_four_species(net: ReactionNetwork) -> bool:
    return all(len(r.support_delta()) == 4 for r in net.reactions)


def estimate_four_species_given_paired(
    n: int, k: int, trials: int, seed: int
) -> EstimateRow:
    """Fraction of uniform k-paired draws in which every reaction vector
    has exactly four non-zero entries."""
    if n < 1:
        raise ValueError(f"species count must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")

    def trial(s: int) -> bool:
        return _all_reactions_touch_four_species(sample_k_paired(n, k, s))

    return _estimate(n, None, seed, trials, trial, k=k)


def estimate_matrix_independence(n: int, k: int, trials: int, seed: int) -> EstimateRow:
    """Fraction of sampled four-sparse sign matrices with independent columns."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")

    def trial(s: int) -> bool:
        return is_columns_independent(sample_sparse_sign_matrix(n, k, s))

    return _estimate(n, None, seed, trials, trial, k=k)


def estimate_paired_given_def_zero(cfg: ErTrialConfig, trials: int) -> EstimateRow:
    """Among non-empty deficiency-zero draws, the fraction that are paired.

    The conditioning count is reported so callers can judge significance;
    with zero qualifying draws the estimate is undefined (None), not 0.
    """
    started = time.perf_counter()

    def trial(seed: int) -> tuple[int, int]:
        net = sample_er_network(ErTrialConfig(cfg.n, cfg.p, seed))
        if not net.reactions or not deficiency_is_zero(net):
            return 0, 0
        return 1, 1 if net.is_paired()[0] else 0

    outcomes = _map_trials(cfg.seed, trials, trial)
    conditioning = sum(a for a, _ in outcomes)
    successes = sum(b for _, b in outcomes)
    return _finish(
        cfg.n, cfg.p, trials, successes, started, conditioning_count=conditioning
    )

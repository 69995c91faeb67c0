"""Monte Carlo estimators and exact small-n oracles.

Every estimator is a trial closure run by _estimate, which derives one seed
per trial from the master seed, so results are identical no matter how
trials are scheduled.  A trial returns True or False, or None for a draw
that does not qualify (paired given deficiency zero only).  Trials run one
after another in the calling thread: they are pure Python, so a thread pool
only adds overhead under the interpreter lock.

The exact small-n oracle grows the deficiency-zero graphs from the empty
one instead of testing all 2^M graphs.

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

from .complexes import universe_size, vertex_pair_count
from .network import ReactionNetwork
from .rng import derive_seed
from .sampler import (
    ErTrialConfig,
    check_species_count,
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


@dataclass(frozen=True, kw_only=True)
class EstimateRow:
    """One Monte Carlo result with enough provenance to reproduce it.

    The fields are in CSV column order.  For conditional estimators,
    successes counts hits among the conditioning_count qualifying trials;
    estimate is None when no trial qualified (undefined, deliberately not 0).
    """

    n: int
    k: int | None = None
    p: float | None
    trials: int
    successes: int
    estimate: float | None
    ci_low: float | None
    ci_high: float | None
    conditioning_count: int | None = None
    wall_time_ms: float

    def to_dict(self) -> dict:
        """The fields in column order, less k and conditioning_count when
        they are None."""
        out = asdict(self)
        for optional in ("k", "conditioning_count"):
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
        if not self.n_grid:
            raise ValueError("n_grid must be a non-empty list of species counts >= 1")
        for n in self.n_grid:  # before any p = c * n**-beta is computed
            check_species_count(n)
        if not (isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class IsolatedTailSpec:
    """Isolated-vertex tail experiment at p = (2n + alpha) / (N(N-1)); an
    alpha of None stands for alpha = n."""

    n: int
    alpha: float | None
    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_species_count(self.n)  # before float(n) or p is computed
        if self.alpha is None:
            object.__setattr__(self, "alpha", float(self.n))
        if not isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        ErTrialConfig(self.n, self.p, self.seed)  # refuses an oversized draw

    @property
    def p(self) -> float:
        """The edge probability, clamped at 1; alpha must keep it positive."""
        p_raw = (2 * self.n + self.alpha) / (2 * vertex_pair_count(self.n))
        if p_raw <= 0.0:
            raise ValueError(
                f"alpha={self.alpha} drives the edge probability to {p_raw}; it must stay positive"
            )
        return min(1.0, p_raw)


def deficiency_is_zero(net: ReactionNetwork) -> bool:
    """Deficiency-zero check with the forest-size short-circuit."""
    if net.forest_size(limit=net.n) > net.n:
        return False
    return net.deficiency().deficiency == 0


def _estimate(
    n: int, p: float | None, master_seed: int, trials: int,
    trial: Callable[[int], bool | None], k: int | None = None, conditional: bool = False,
) -> EstimateRow:
    """The fraction of True among the trial outcomes that are not None, timed;
    a conditional row reports how many there were as conditioning_count."""
    started = time.perf_counter()
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    outcomes = [trial(derive_seed(master_seed, i)) for i in range(trials)]
    qualifying = [o for o in outcomes if o is not None]
    successes = sum(qualifying)
    if qualifying:
        estimate = successes / len(qualifying)
        ci_low, ci_high = wilson_interval(successes, len(qualifying))
    else:
        estimate = ci_low = ci_high = None
    return EstimateRow(
        n=n,
        k=k,
        p=p,
        trials=trials,
        successes=successes,
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        conditioning_count=len(qualifying) if conditional else None,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )


def estimate_def_zero_prob(cfg: ErTrialConfig, trials: int) -> EstimateRow:
    """Fraction of Erdos-Renyi draws with deficiency zero."""

    def trial(seed: int) -> bool:
        return deficiency_is_zero(sample_er_network(ErTrialConfig(cfg.n, cfg.p, seed)))

    return _estimate(cfg.n, cfg.p, cfg.seed, trials, trial)


@lru_cache(maxsize=None)
def _def_zero_counts(n: int) -> tuple[int, ...]:
    # counts[e] = number of e-edge graphs over the n-species universe whose
    # network has deficiency zero.  Adding a reaction never lowers the
    # deficiency, so such a graph less its highest-ranked edge has deficiency
    # zero too: growing the deficiency-zero graphs from the empty one by
    # edges of higher rank only meets each of them exactly once.
    total_pairs = vertex_pair_count(n)
    pair_reactions = [
        ReactionNetwork.from_edge_list(n, [unrank_edge(t)]).reactions
        for t in range(total_pairs)
    ]
    counts = [0] * (total_pairs + 1)
    grow = [(0, frozenset())]  # (lowest rank still to add, reactions)
    while grow:
        first, reactions = grow.pop()
        counts[len(reactions) // 2] += 1
        for t in range(first, total_pairs):
            grown = reactions | pair_reactions[t]
            if deficiency_is_zero(ReactionNetwork(n, grown)):
                grow.append((t + 1, grown))
    return tuple(counts)


def exact_def_zero_prob_small(n: int, p: float) -> float:
    """Exact deficiency-zero probability from the deficiency-zero graphs,
    counted by edges.

    Only n in {1, 2} is supported (4 of 8 and 120 of 32768 graphs qualify).
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


def estimate_four_species_given_paired(
    n: int, k: int, trials: int, seed: int
) -> EstimateRow:
    """Fraction of uniform k-paired draws in which every reaction vector
    has exactly four non-zero entries."""
    check_species_count(n, drawn=False)

    def trial(s: int) -> bool:
        net = sample_k_paired(n, k, s)
        return all(len(r.support_delta()) == 4 for r in net.reactions)

    return _estimate(n, None, seed, trials, trial, k=k)


def estimate_matrix_independence(n: int, k: int, trials: int, seed: int) -> EstimateRow:
    """Fraction of sampled four-sparse sign matrices with independent columns."""

    def trial(s: int) -> bool:
        return is_columns_independent(sample_sparse_sign_matrix(n, k, s))

    return _estimate(n, None, seed, trials, trial, k=k)


def estimate_paired_given_def_zero(cfg: ErTrialConfig, trials: int) -> EstimateRow:
    """Among non-empty deficiency-zero draws, the fraction that are paired.

    The conditioning count is reported so callers can judge significance;
    with zero qualifying draws the estimate is undefined (None), not 0.
    """

    def trial(seed: int) -> bool | None:
        net = sample_er_network(ErTrialConfig(cfg.n, cfg.p, seed))
        if not net.reactions or not deficiency_is_zero(net):
            return None
        return net.is_paired()[0]

    return _estimate(cfg.n, cfg.p, cfg.seed, trials, trial, conditional=True)

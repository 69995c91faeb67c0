"""Order statistics shared by the run and the trace."""

from __future__ import annotations

import statistics


def tail(values) -> float:
    """The value at the highest percentile that leaves at least ten samples
    beyond it.  Under forty samples that percentile is no tail, and the
    median stands in for it."""
    s = sorted(values)
    if len(s) < 40:
        return statistics.median(s)
    return s[len(s) - 11]

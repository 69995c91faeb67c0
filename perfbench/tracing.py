"""In-memory span tracing around the program's public functions.

``install`` replaces each traced function at the name its callers look it up
by (a module global, or a class attribute for methods) with a wrapper that
records one span: name, start, end, parent span and trial id.  Spans stay in
compact arrays until ``write`` dumps them as JSON.  ``layer_metrics`` turns
them into the per-layer figures; a layer's self time is its span's duration
minus the durations of its direct children.

The tracer assumes one thread, which holds while DEFZERO_THREADS is unset.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array

from stats import tail


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        # Two counts per span, filled by the wrapper (edges, shape, sizes).
        self.a = array("d")
        self.b = array("d")
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_trial(self) -> None:
        self._trial = self._trials
        self._trials += 1

    def end_trial(self) -> None:
        self._trial = -1

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial)
        self.a.append(0.0)
        self.b.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "trial": self.trial.tolist(),
            }, fh)


def _wrap(tracer: Tracer, fn, name: str, counts=None, begins=False, ends=False,
          listify=False):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if listify:  # rank_of_columns may get a one-shot iterable; count it
            args = (list(args[0]),) + args[1:]
        if begins:
            tracer.begin_trial()
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if counts is not None:
            tracer.a[i], tracer.b[i] = counts(args, out)
        if ends:
            tracer.end_trial()
        return out

    return wrapper


def install(tracer: Tracer):
    """Wrap the public functions of every layer at the names the workloads'
    calls look them up by; returns an undo function."""
    from defzero import cli, exactrank, experiments, network, sampler
    from defzero.network import ReactionNetwork

    undo = []

    def patch(owner, attr, name, **opts):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(tracer, original.__func__, name, **opts))
        else:
            wrapped = _wrap(tracer, original, name, **opts)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    rank_shape = lambda args, out: (len(args[0]), args[1])  # noqa: E731
    patch(cli, "main", "cli.main")
    patch(cli, "sweep_threshold", "experiments.sweep_threshold")
    patch(cli, "parse_network", "netparse.parse_network", begins=True)
    patch(cli, "to_reaction_network", "netparse.to_reaction_network")
    patch(experiments, "derive_seed", "rng.derive_seed")
    patch(experiments, "estimate_def_zero_prob", "experiments.estimate_def_zero_prob")
    patch(experiments, "sample_er_network", "sampler.sample_er_network", begins=True)
    patch(experiments, "deficiency_is_zero", "experiments.deficiency_is_zero",
          counts=lambda args, out: (len(args[0].vertices), 0.0), ends=True)
    patch(sampler, "generator", "rng.generator")
    patch(sampler, "sample_edge_ranks", "sampler.sample_edge_ranks",
          counts=lambda args, out: (len(out), 0.0))
    patch(network, "rank_of_columns", "exactrank.rank_of_columns", counts=rank_shape, listify=True)
    patch(ReactionNetwork, "from_edge_list", "network.from_edge_list")
    patch(ReactionNetwork, "connected_components", "network.connected_components",
          counts=lambda args, out: (len(out), 0.0))
    patch(ReactionNetwork, "deficiency", "network.deficiency",
          counts=lambda args, out: (out.num_complexes, out.num_components))
    patch(exactrank, "rank_mod_prime", "exactrank.rank_mod_prime")
    patch(exactrank, "bareiss_rank", "exactrank.bareiss_rank")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans, normalised per network decided (a
    sweep trial or an analysed file) unless the name says per call."""
    n = len(t.name)
    names = [t.names[k] for k in t.name]
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    kids: list[set[str]] = [set() for _ in range(n)]
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
            kids[p].add(names[i])

    spans: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        spans.setdefault(name, []).append(i)

    def idx(name):
        return spans.get(name, [])

    def total(*which):
        return sum(dur[i] for name in which for i in idx(name))

    def self_total(name):
        return sum(dur[i] - child[i] for i in idx(name))

    def per(x, base):
        return x / base if base else 0.0

    trials = idx("sampler.sample_er_network")
    networks = len(trials) or len(idx("netparse.parse_network"))
    per_trial: dict[int, float] = {}
    for name in ("sampler.sample_er_network", "experiments.deficiency_is_zero"):
        for i in idx(name):
            per_trial[t.trial[i]] = per_trial.get(t.trial[i], 0.0) + dur[i]
    trial_ms = [v * 1e3 for v in per_trial.values()]
    decisions = idx("experiments.deficiency_is_zero")
    sizes = decisions if decisions else idx("network.deficiency")
    ranks = idx("exactrank.rank_of_columns")
    comps = idx("network.connected_components")
    certified = sum(
        1 for i in ranks
        if "exactrank.rank_mod_prime" in kids[i] and "exactrank.bareiss_rank" not in kids[i]
    )
    mains = idx("cli.main")
    return {
        "rng.seed_us": per(total("rng.derive_seed", "rng.generator"), networks) * 1e6,
        "sampler.sample_ms": per(total("sampler.sample_edge_ranks"), networks) * 1e3,
        "sampler.edges": per(sum(t.a[i] for i in idx("sampler.sample_edge_ranks")), networks),
        "network.build_ms": per(total("network.from_edge_list", "netparse.to_reaction_network"), networks) * 1e3,
        "network.components_ms": per(total("network.connected_components"), networks) * 1e3,
        "network.deficiency_self_ms": per(self_total("network.deficiency"), networks) * 1e3,
        "network.complexes": per(sum(t.a[i] for i in sizes), len(sizes)),
        "network.components": per(sum(t.a[i] for i in comps), len(comps)),
        "exactrank.calls": per(len(ranks), networks),
        "exactrank.us_per_call": per(total("exactrank.rank_of_columns"), len(ranks)) * 1e6,
        "exactrank.rank_self_ms": per(self_total("exactrank.rank_of_columns"), networks) * 1e3,
        "exactrank.modp_ms": per(total("exactrank.rank_mod_prime"), networks) * 1e3,
        "exactrank.bareiss_ms": per(total("exactrank.bareiss_rank"), networks) * 1e3,
        "exactrank.bareiss_calls": per(len(idx("exactrank.bareiss_rank")), networks),
        "exactrank.modp_certified_ratio": per(certified, len(ranks)),
        "exactrank.cols_per_call": per(sum(t.a[i] for i in ranks), len(ranks)),
        "exactrank.rows_per_call": per(sum(t.b[i] for i in ranks), len(ranks)),
        "experiments.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "experiments.trial_ms_tail": tail(trial_ms) if trial_ms else 0.0,
        "experiments.shortcircuit_ratio": per(
            sum(1 for i in decisions if "network.deficiency" not in kids[i]), len(decisions)),
        "netparse.parse_ms": per(total("netparse.parse_network"), len(idx("netparse.parse_network"))) * 1e3,
        "cli.overhead_ms": per(self_total("cli.main"), len(mains)) * 1e3,
    }

"""The benchmark's workloads: which CLI requests a run makes, and their inputs.

A run repeats whole rounds until its time is up.  Round r of a workload is a
fixed list of requests whose seeds come from the run's --seed, the workload
and r, so the same seed always gives the same requests.  A request is a plain
dict (it travels between processes as JSON):

    {"kind": "sweep", "grid": [n, ...], "c": c, "beta": beta, "trials": t, "seed": s}
    {"kind": "analyze", "n": n, "c": c, "seed": s, "path": relative .crn path}
"""

from __future__ import annotations

import os

import oracle

NAMES = ("window", "dense", "report")
_TAG = {name: i + 1 for i, name in enumerate(NAMES)}

# window, p = c * n**-3.  Every c=4 trial reaches the rank kernel and the
# prime field certifies it.  The c=8 small grid mixes trials the 2n rule
# decides with exact fallbacks.  A c=8, n=640 trial costs 0.02 s when the 2n
# rule decides it, 1.6 s when the prime field certifies it and about 4 s when
# it needs the exact fallback, which is where most of that row's time goes.
# A free draw of the three or four such trials a run has room for would swing
# its time by a third, so each round takes one trial of the last kind, picked
# from the seeded stream.  The fallback's time grows steeply with the edge
# count (about 3.7 s at 626 edges, 5 s at 641), so the pick also keeps the
# count within WINDOW_EDGE_SLACK of its mean, about 646.
WINDOW_C4 = (4.0, (160, 640, 1280), 1)
WINDOW_C8 = (8.0, (40, 160), 25)
WINDOW_C8_LARGE = 640
WINDOW_EDGE_SLACK = 4
# dense: (c, beta, grid, trials per call, calls per round).  One call takes
# about 0.16 s.  A round of twelve lasts about two seconds, so a round's
# latency averages over the host's sub-second speed swings instead of
# landing on one of them.
DENSE = (1.0, 2.5, (160, 320, 640), 3, 12)

# report: (n, c, files per round).  The 12 files at n=40 put the median
# request in the (40, 16) class; the 3 files at (320, 16) keep at least ten
# requests of the slowest class beyond the tail percentile once a run has 4
# rounds.
REPORT_MIX = ((40, 8, 4), (40, 16, 8), (160, 8, 2), (160, 16, 2), (320, 8, 1), (320, 16, 3))
IRREVERSIBLE_SHARE = 0.5  # of the sampled edges, split evenly between directions
TERNARY_SHARE = 0.05  # of the edges, whose product becomes a three-molecule complex

# The smallest request at each workload's largest n, with a fixed seed so that
# set-up time measures the same work in every run.
SETUP_SEED = 1


def sweep(grid, c: float, beta: float, trials: int, seed: int) -> dict:
    return {"kind": "sweep", "grid": list(grid), "c": c, "beta": beta,
            "trials": trials, "seed": seed}


def analyze(n: int, c: float, seed: int, workdir: str) -> dict:
    path = os.path.join(workdir, f"n{n}-c{c:g}-{seed:016x}.crn")
    return {"kind": "analyze", "n": n, "c": c, "seed": seed, "path": path}


def argv(op: dict) -> list[str]:
    if op["kind"] == "analyze":
        return ["analyze", op["path"], "--format", "json"]
    return ["sweep", "--n-grid", ",".join(map(str, op["grid"])),
            "--c", repr(op["c"]), "--beta", repr(op["beta"]),
            "--trials", str(op["trials"]), "--seed", str(op["seed"]), "--format", "json"]


def networks(op: dict) -> int:
    """Networks one request decides: trials over its grid, or one file."""
    return 1 if op["kind"] == "analyze" else op["trials"] * len(op["grid"])


def _seed(run_seed: int, workload: str, *words: int) -> int:
    # 63 bits, so every value is a valid --seed on any platform.
    return oracle.derive_seed(run_seed, _TAG[workload], *words) >> 1


def _exact_fallback_seed(run_seed: int, r: int) -> int:
    """First master seed in round r's stream whose c=8, n=640 trial has an
    edge count near its mean, reaches the rank kernel (at most 2n complexes)
    and is deficient."""
    n = WINDOW_C8_LARGE
    p = oracle.sweep_p(WINDOW_C8[0], 3.0, n)
    size = oracle.universe_size(n)
    mean_edges = p * size * (size - 1) / 2
    k = 0
    while True:
        master = _seed(run_seed, "window", r, 2, k)
        (trial_seed,) = oracle.trial_seeds(master, n, 1)
        if abs(oracle.edge_count(n, p, trial_seed) - mean_edges) <= WINDOW_EDGE_SLACK:
            complexes, forest = oracle.trial_forest(n, p, trial_seed)
            if complexes <= 2 * n and not oracle.forest_independent(n, forest):
                return master
        k += 1


def round_ops(workload: str, run_seed: int, r: int, workdir: str) -> list[dict]:
    """The requests of round r."""
    if workload == "window":
        c4, grid4, t4 = WINDOW_C4
        c8, grid8, t8 = WINDOW_C8
        return [
            sweep(grid4, c4, 3.0, t4, _seed(run_seed, workload, r, 0)),
            sweep(grid8, c8, 3.0, t8, _seed(run_seed, workload, r, 1)),
            sweep((WINDOW_C8_LARGE,), c8, 3.0, 1, _exact_fallback_seed(run_seed, r)),
        ]
    if workload == "dense":
        c, beta, grid, trials, calls = DENSE
        return [sweep(grid, c, beta, trials, _seed(run_seed, workload, r, k))
                for k in range(calls)]
    ops = []
    for n, c, count in REPORT_MIX:
        for i in range(count):
            ops.append(analyze(n, c, _seed(run_seed, workload, r, n, int(c), i), workdir))
    return ops


def setup_op(workload: str, workdir: str) -> dict:
    if workload == "window":
        return sweep((1280,), 4.0, 3.0, 1, SETUP_SEED)
    if workload == "report":
        return analyze(320, 8.0, SETUP_SEED, workdir)
    c, beta, grid, _, _ = DENSE
    return sweep((max(grid),), c, beta, 1, SETUP_SEED)


# ------------------------------------------------------------ report files

def crn_reactions(n: int, c: float, seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """(source, product, reversible) triples of one generated file network.

    The edges are an Erdos-Renyi draw at p = c * n**-3 over the binary
    universe.  Half of them become irreversible, and a few get a product of
    molecularity three, which files allow and the sampler never makes."""
    p = oracle.sweep_p(c, 3.0, n)
    rng = oracle.generator(oracle.derive_seed(seed, 1))
    out = []
    for t in sorted(oracle.sample_edge_ranks(n, p, oracle.derive_seed(seed, 0))):
        u, v = oracle.unrank_pair(t)
        src, dst = oracle.complex_species(n, u), oracle.complex_species(n, v)
        if rng.random() < TERNARY_SHARE:
            dst = tuple(sorted(int(s) for s in rng.integers(1, n + 1, size=3)))
        roll = rng.random()
        if roll < IRREVERSIBLE_SHARE / 2:
            out.append((src, dst, False))
        elif roll < IRREVERSIBLE_SHARE:
            out.append((dst, src, False))
        else:
            out.append((src, dst, True))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _render(species: tuple[int, ...]) -> str:
    if not species:
        return "0"
    terms = []
    for s in sorted(set(species)):
        k = species.count(s)
        terms.append(f"S{s}" if k == 1 else f"{k} S{s}")
    return " + ".join(terms)


def crn_text(reactions) -> str:
    lines = [f"{_render(src)} {'<->' if rev else '->'} {_render(dst)}" for src, dst, rev in reactions]
    return "\n".join(lines) + "\n"


def write_file(op: dict) -> None:
    with open(op["path"], "w", encoding="utf-8") as fh:
        fh.write(crn_text(crn_reactions(op["n"], op["c"], op["seed"])))

"""Deficiency oracle, written without any of the program's network or rank code.

The oracle mirrors only the frozen interfaces the program documents: the
SplitMix64 seed fold and Philox keying (``rng.py``), the Binomial-then-Floyd
edge draw and its colex pair unranking (``sampler.py``) and the complex index
order (``complexes.py``).  Everything after the draw is its own:

* complexes are multisets of species, vectors are sparse ``{species: count}``
  dicts, components come from a local union-find;
* deficiency rests on the spanning-forest identity: every reaction vector of
  a component is a sum of its spanning-tree edge vectors, so
  ``deficiency = |forest| - rank(forest vectors)`` and each component has
  ``delta_j = (m_j - 1) - rank(its forest vectors)``;
* rank is exact.  Vectors that own a species no other live vector touches are
  independent of the rest and are peeled off.  The remaining core is
  eliminated over GF(2**31 - 1).  A prime-field rank that reaches the shape
  bound certifies the rational rank.  A short one is certified by exact
  rational kernel vectors, rebuilt from the modular kernel by rational
  reconstruction and checked in integer arithmetic; if that fails the core is
  eliminated fraction-free.
"""

from __future__ import annotations

import bisect
import math
import os
import re
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
PRIME = 2_147_483_647  # 2**31 - 1: products of two residues fit in int64
_RECON_BOUND = math.isqrt(PRIME // 2)


# ------------------------------------------------------------------ seeding

def _splitmix64(z: int) -> int:
    z = (z + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *words: int) -> int:
    h = _splitmix64(master & MASK64)
    for w in words:
        h = _splitmix64(h ^ ((w * GAMMA) & MASK64))
    return h


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


# ------------------------------------------------------- complexes and edges

def universe_size(n: int) -> int:
    return (n + 1) * (n + 2) // 2


_PAIR_STARTS: dict[int, list[int]] = {}


def complex_species(n: int, idx: int) -> tuple[int, ...]:
    """Species multiset of the complex at idx: 0 is empty, 1..n are unary,
    then the pairs (a, b), a <= b, in lexicographic order."""
    if idx == 0:
        return ()
    if idx <= n:
        return (idx,)
    starts = _PAIR_STARTS.get(n)
    if starts is None:
        # Pairs with first species a occupy n - a + 1 consecutive slots.
        starts, total = [], 0
        for a in range(1, n + 1):
            starts.append(total)
            total += n - a + 1
        _PAIR_STARTS[n] = starts
    t = idx - n - 1
    a = bisect.bisect_right(starts, t)
    return (a, a + t - starts[a - 1])


def sample_edge_ranks(n: int, p: float, seed: int) -> set[int]:
    """The program's edge draw: Binomial edge count, then Floyd's algorithm."""
    size = universe_size(n)
    total = size * (size - 1) // 2
    if p == 0.0:
        return set()
    if p == 1.0:
        return set(range(total))
    rng = generator(seed)
    count = int(rng.binomial(total, p))
    chosen: set[int] = set()
    for j in range(total - count, total):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return chosen


def edge_count(n: int, p: float, seed: int) -> int:
    """The Binomial edge count that opens the draw, without the draw itself."""
    size = universe_size(n)
    return int(generator(seed).binomial(size * (size - 1) // 2, p))


def unrank_pair(t: int) -> tuple[int, int]:
    j = (1 + math.isqrt(8 * t + 1)) // 2
    return t - j * (j - 1) // 2, j


def sweep_p(c: float, beta: float, n: int) -> float:
    return min(1.0, c * float(n) ** (-beta))


def trial_seeds(master: int, n: int, trials: int) -> list[int]:
    row = derive_seed(master, n)
    return [derive_seed(row, i) for i in range(trials)]


# -------------------------------------------------------------- exact rank

def _difference(src: tuple[int, ...], dst: tuple[int, ...]) -> dict[int, int]:
    vec: dict[int, int] = {}
    for s in dst:
        vec[s] = vec.get(s, 0) + 1
    for s in src:
        vec[s] = vec.get(s, 0) - 1
    return {s: x for s, x in vec.items() if x}


def _peel(vectors: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Remove, one at a time, vectors that own a species no other live vector
    touches; each is independent of everything left.  Returns the count
    removed and the core."""
    touching: dict[int, set[int]] = {}
    for i, v in enumerate(vectors):
        for s in v:
            touching.setdefault(s, set()).add(i)
    live = [bool(v) for v in vectors]
    stack = [s for s, owners in touching.items() if len(owners) == 1]
    peeled = 0
    while stack:
        owners = touching[stack.pop()]
        if len(owners) != 1:
            continue
        i = owners.pop()
        live[i] = False
        peeled += 1
        for s in vectors[i]:
            others = touching[s]
            others.discard(i)
            if len(others) == 1:
                stack.append(s)
    return peeled, [v for v, keep in zip(vectors, live) if keep]


def _echelon_mod_p(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(PRIME) with unit pivots; returns the matrix
    (modified in place) and the pivot columns."""
    n_rows, n_cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(mat[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            mat[[r, i]] = mat[[i, r]]
        inv = pow(int(mat[r, c]), PRIME - 2, PRIME)
        mat[r] = (mat[r] * inv) % PRIME
        below = r + 1 + np.flatnonzero(mat[r + 1:, c])
        if below.size:
            f = mat[below, c]
            mat[below] = (mat[below] - (f[:, None] * mat[r]) % PRIME) % PRIME
        pivots.append(c)
        r += 1
    return mat, pivots


def _kernel_mod_p(ech: np.ndarray, pivots: list[int], n_cols: int) -> np.ndarray:
    """Kernel basis of an echelon matrix: one column per free variable, with
    that variable 1 and the other free variables 0."""
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    x = np.zeros((n_cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        x[f, k] = 1
    for i in range(len(pivots) - 1, -1, -1):
        s = ((ech[i][:, None] * x) % PRIME).sum(axis=0) % PRIME
        x[pivots[i]] = (-s) % PRIME
    return x


def _rational(a: int) -> tuple[int, int] | None:
    """num/den == a mod PRIME with |num|, den <= sqrt(PRIME/2), if one exists."""
    r0, r1, t0, t1 = PRIME, a, 0, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > _RECON_BOUND:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified_kernel(core: list[dict[int, int]], x: np.ndarray) -> bool:
    """Whether every modular kernel column lifts to an integer vector that the
    core columns annihilate exactly."""
    for k in range(x.shape[1]):
        fracs = []
        for a in x[:, k].tolist():
            q = _rational(a)
            if q is None:
                return False
            fracs.append(q)
        scale = math.lcm(*(den for _, den in fracs))
        total: dict[int, int] = {}
        for (num, den), vec in zip(fracs, core):
            if num:
                w = num * (scale // den)
                for s, v in vec.items():
                    total[s] = total.get(s, 0) + w * v
        if any(total.values()):
            return False
    return True


def _fraction_free_rank(core: list[dict[int, int]]) -> int:
    species = sorted({s for v in core for s in v})
    pos = {s: i for i, s in enumerate(species)}
    rows = [[0] * len(core) for _ in species]
    for j, v in enumerate(core):
        for s, x in v.items():
            rows[pos[s]][j] = x
    rank, prev = 0, 1
    for col in range(len(core)):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top, piv = rows[rank], rows[rank][col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            factor = row[col]
            rows[r] = [(piv * a - factor * b) // prev for a, b in zip(row, top)]
        prev = piv
        rank += 1
    return rank


@dataclass
class RankStats:
    """How the oracle reached its answers, for the run record."""

    calls: int = 0
    certified_by_prime: int = 0
    certified_by_kernel: int = 0
    fraction_free: int = 0


STATS = RankStats()


def exact_rank(vectors: list[dict[int, int]]) -> int:
    """Rank over the rationals of sparse integer vectors."""
    STATS.calls += 1
    peeled, core = _peel(vectors)
    if not core:
        return peeled
    species = sorted({s for v in core for s in v})
    pos = {s: i for i, s in enumerate(species)}
    mat = np.zeros((len(species), len(core)), dtype=np.int64)
    for j, v in enumerate(core):
        for s, x in v.items():
            mat[pos[s], j] = x % PRIME
    ech, pivots = _echelon_mod_p(mat)
    rank_p = len(pivots)
    if rank_p == min(mat.shape):
        STATS.certified_by_prime += 1
        return peeled + rank_p
    x = _kernel_mod_p(ech[:rank_p], pivots, len(core))
    if _certified_kernel(core, x):
        STATS.certified_by_kernel += 1
        return peeled + rank_p
    STATS.fraction_free += 1
    return peeled + _fraction_free_rank(core)


# --------------------------------------------------------------- deficiency

@dataclass(frozen=True)
class Report:
    """The oracle's answer for one network; components as a sorted multiset."""

    num_complexes: int
    num_components: int
    rank: int
    deficiency: int
    components: tuple[tuple[int, int, int], ...]  # (size, rank, deficiency)
    is_paired: bool


def _forest(edges, limit: int | None = None) -> tuple[dict, list[tuple]]:
    """Union-find over the edge endpoints.  Returns each vertex's root and
    the spanning-forest edges.  With a limit it stops as soon as the forest
    has more than limit edges, leaving both results partial."""
    parent: dict = {}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    forest = []
    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append((u, v))
            if limit is not None and len(forest) > limit:
                break
    return {v: find(v) for v in parent}, forest


def report(edges) -> Report:
    """Deficiency report of the network whose reactions join the given pairs
    of complexes (species tuples).  Direction does not matter."""
    edges = [(tuple(sorted(u)), tuple(sorted(v))) for u, v in edges]
    roots, forest = _forest(edges)
    sizes: dict = {}
    for r in roots.values():
        sizes[r] = sizes.get(r, 0) + 1
    per_comp: dict = {r: [] for r in sizes}
    vectors = []
    for u, v in forest:
        vec = _difference(u, v)
        vectors.append(vec)
        per_comp[roots[u]].append(vec)
    comps = []
    for r, size in sizes.items():
        vecs = per_comp[r]
        rk = len(vecs) if len(vecs) == 1 else exact_rank(vecs)
        comps.append((size, rk, size - 1 - rk))
    rank = exact_rank(vectors)
    return Report(
        num_complexes=len(roots),
        num_components=len(sizes),
        rank=rank,
        deficiency=len(roots) - len(sizes) - rank,
        components=tuple(sorted(comps)),
        is_paired=all(size == 2 for size, _, _ in comps),
    )


def trial_forest(n: int, p: float, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Complex count and spanning-forest edges (complex index pairs) of one
    Erdos-Renyi trial."""
    roots, forest = _forest(unrank_pair(t) for t in sample_edge_ranks(n, p, seed))
    return len(roots), forest


def forest_independent(n: int, forest: list[tuple[int, int]]) -> bool:
    """Deficiency zero: the forest vectors are linearly independent.  More
    than n vectors in Q^n never are."""
    if len(forest) > n:
        return False
    vectors = [_difference(complex_species(n, u), complex_species(n, v)) for u, v in forest]
    return exact_rank(vectors) == len(vectors)


def trial_def_zero(n: int, p: float, seed: int) -> bool:
    # n + 1 forest edges already decide a trial; dense trials have thousands.
    edges = (unrank_pair(t) for t in sample_edge_ranks(n, p, seed))
    return forest_independent(n, _forest(edges, limit=n)[1])


def sweep_successes(n: int, c: float, beta: float, trials: int, master: int) -> int:
    """Deficiency-zero count of one sweep row, over the row's own trial seeds."""
    p = sweep_p(c, beta, n)
    return sum(trial_def_zero(n, p, s) for s in trial_seeds(master, n, trials))


# ------------------------------------------------------------- .crn reading

_TERM = re.compile(r"^(?:(\d+)\s*)?([A-Za-z][A-Za-z0-9_]*)$")


def _parse_complex(text: str, ids: dict[str, int]) -> tuple[int, ...]:
    text = text.strip()
    if text == "0":
        return ()
    out: list[int] = []
    for term in text.split("+"):
        m = _TERM.match(term.strip())
        if m is None:
            raise ValueError(f"not a complex term: {term!r}")
        sid = ids.setdefault(m.group(2), len(ids) + 1)
        out.extend([sid] * int(m.group(1) or 1))
    return tuple(sorted(out))


def read_crn(text: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reaction pairs of a .crn file; enough of the grammar for the oracle's
    own inputs and for the fixtures it checks itself against."""
    ids: dict[str, int] = {}
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        arrow = "<->" if "<->" in line else "->"
        left, right = line.split(arrow)
        edges.append((_parse_complex(left, ids), _parse_complex(right, ids)))
    return edges


# Expected (complexes, components, rank, deficiency) of the repository's
# fixture networks, worked out by hand.
FIXTURES = {
    "enzyme_kinetics.crn": (6, 2, 4, 0),
    "three_paired.crn": (6, 3, 3, 0),
    "deficiency_one.crn": (5, 2, 2, 1),
}


def self_check(data_dir) -> list[str]:
    """Problems found checking the oracle against the fixture files."""
    problems = []
    for name, want in FIXTURES.items():
        with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
            rep = report(read_crn(fh.read()))
        got = (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency)
        if got != want:
            problems.append(f"{name}: oracle gives {got}, expected {want}")
    return problems

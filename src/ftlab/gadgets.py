"""Abstract gadget layer: extended gadgets over shared error-recovery
segments, iid fault sampling, the backward truncation sweep with good/bad
classification, and level-1 / level-k failure probabilities.

A gadget graph is a topologically ordered list of gadgets; each gadget owns
some locations outright and may emit error-recovery (ER) segments consumed
by later gadgets. An extended gadget spans its incoming ER segments, its own
locations, and its outgoing ER segments, so neighbours overlap on the shared
segment; truncation resolves every overlap into a partition. The graph
stores its locations once, as a table of parts: one id set per own block
and per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

MC_BUDGET = 10**9


class BudgetExceededError(ValueError):
    """Monte Carlo leaf-draw budget exceeded."""


@dataclass(frozen=True)
class Gadget:
    """Own-location count plus outgoing ER segments (count, successor id)."""

    own_locations: int
    er_out: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.own_locations < 1:
            raise ValueError("gadget needs at least one own location")
        object.__setattr__(
            self, "er_out", tuple((int(c), int(to)) for c, to in self.er_out)
        )


@dataclass(frozen=True)
class GadgetGraph:
    """Topologically ordered gadgets with globally numbered locations.

    Location ids are assigned 1..N in gadget order: each gadget's own
    locations first, then its outgoing segments in listed order. Every
    segment belongs to exactly two gadgets by construction (its emitter and
    its consumer), which is the only sharing shape supported.

    The locations split into parts: part i < n_gadgets is gadget i's own
    block, part n_gadgets + s is segment s. The tables derived once per
    graph (part id sets, each segment's consumer, per-gadget in/out
    segments and extents, and a location -> part index whose entry 0 is
    unused) turn every lookup of the sweep into an index.
    """

    gadgets: tuple[Gadget, ...]
    _parts: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _succ: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _in: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _extent: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _part_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gadgets = tuple(self.gadgets)
        if not gadgets:
            raise ValueError("graph needs at least one gadget")
        object.__setattr__(self, "gadgets", gadgets)
        n = len(gadgets)
        own: list[range] = []
        segs: list[range] = []
        succ: list[int] = []
        seg_in: list[list[int]] = [[] for _ in range(n)]
        seg_out: list[list[int]] = [[] for _ in range(n)]
        next_id = 1
        for i, g in enumerate(gadgets):
            own.append(range(next_id, next_id + g.own_locations))
            next_id += g.own_locations
            for count, to in g.er_out:
                if not 0 <= to < n:
                    raise ValueError(f"gadget {i} links to unknown gadget {to}")
                if count < 1:
                    raise ValueError("segment must contain at least one location")
                if to <= i:
                    raise ValueError(f"segment must point forward in time, got {i} -> {to}")
                seg_in[to].append(len(succ))
                seg_out[i].append(len(succ))
                succ.append(to)
                segs.append(range(next_id, next_id + count))
                next_id += count
        parts = tuple(map(frozenset, own + segs))
        part_of = np.zeros(next_id, dtype=np.intp)
        for p, ids in enumerate(parts):
            part_of[list(ids)] = p
        part_of.flags.writeable = False
        extent = tuple(
            tuple(sorted(parts[i].union(*(parts[n + s] for s in seg_in[i] + seg_out[i]))))
            for i in range(n)
        )
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_succ", tuple(succ))
        object.__setattr__(self, "_in", tuple(map(tuple, seg_in)))
        object.__setattr__(self, "_out", tuple(map(tuple, seg_out)))
        object.__setattr__(self, "_extent", extent)
        object.__setattr__(self, "_part_of", part_of)

    @property
    def n_gadgets(self) -> int:
        return len(self.gadgets)

    @property
    def total_locations(self) -> int:
        return len(self._part_of) - 1

    def extent(self, gadget: int) -> tuple[int, ...]:
        """Full extended-gadget extent: in-segments + own + out-segments."""
        return self._extent[gadget]


@dataclass(frozen=True)
class FaultConfig:
    """The faulty location ids, given as any iterable of ints and stored
    as a frozenset."""

    faulty: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faulty", frozenset(int(i) for i in self.faulty))


@dataclass(frozen=True)
class Classification:
    """Per-gadget status plus the truncated location sets (a partition)."""

    statuses: tuple[str, ...]
    truncated: tuple[frozenset[int], ...]

    @property
    def any_bad(self) -> bool:
        return "bad" in self.statuses


def sample_fault_config(g: GadgetGraph, eps: float, seed) -> FaultConfig:
    """Mark each physical location faulty independently with probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    rng = np.random.default_rng(seed)
    hits = rng.random(g.total_locations) < eps
    return FaultConfig((np.nonzero(hits)[0] + 1).tolist())


def truncate_and_classify(g: GadgetGraph, f: FaultConfig, t: int) -> Classification:
    """Backward truncation sweep and good/bad classification.

    Sweeping from the latest gadget to the earliest, a gadget is bad when its
    truncated extent (incoming segments + own locations + outgoing segments
    not claimed by an already-bad successor) holds more than t faults. Each
    shared segment ends up owned by its successor when the successor is bad,
    else by its predecessor, so the truncated sets partition all locations;
    good gadgets only ever shed locations, so they stay good.

    The faults are counted once per part (own block or segment) through the
    graph's location -> part index; the sweep then adds part counts, and
    each truncated set is the union of the graph's precomputed part sets.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    total = g.total_locations
    if f.faulty and not (min(f.faulty) >= 1 and max(f.faulty) <= total):
        unknown = sorted(i for i in f.faulty if not 1 <= i <= total)
        raise ValueError(f"fault ids outside 1..{total}: {unknown}")
    n = g.n_gadgets
    succ, parts = g._succ, g._parts
    faulty = np.fromiter(f.faulty, dtype=np.intp, count=len(f.faulty))
    counts = np.bincount(g._part_of[faulty], minlength=len(parts)).tolist()
    bad = [False] * n
    for i in reversed(range(n)):
        c = counts[i]
        for s in g._in[i]:
            c += counts[n + s]
        for s in g._out[i]:
            if not bad[succ[s]]:
                c += counts[n + s]
        bad[i] = c > t
    truncated = []
    for i in range(n):
        chosen = [parts[i]]
        if bad[i]:
            chosen.extend(parts[n + s] for s in g._in[i])
        chosen.extend(parts[n + s] for s in g._out[i] if not bad[succ[s]])
        truncated.append(frozenset().union(*chosen))
    if sum(map(len, truncated)) != total or len(frozenset().union(*truncated)) != total:
        raise AssertionError("truncated sets failed to partition the locations")
    statuses = tuple("bad" if b else "good" for b in bad)
    return Classification(statuses, tuple(truncated))


def level1_failure_exact(L0: int, t: int, eps: float) -> float:
    """Exact binomial tail P[Bin(L0, eps) > t], summed in log space."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    if not 0 <= t < L0:
        raise ValueError(f"need 0 <= t < L0, got t={t}, L0={L0}")
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return 1.0
    log_terms = [
        math.lgamma(L0 + 1)
        - math.lgamma(i + 1)
        - math.lgamma(L0 - i + 1)
        + i * math.log(eps)
        + (L0 - i) * math.log1p(-eps)
        for i in range(t + 1, L0 + 1)
    ]
    top = max(log_terms)
    return min(1.0, math.exp(top) * math.fsum(math.exp(lt - top) for lt in log_terms))


def level1_failure_mc(
    L0: int, t: int, eps: float, samples: int, seed
) -> tuple[float, float]:
    """Sampled fraction of gadgets with > t of L0 iid faults, plus its
    binomial standard error."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        m = min(samples - done, 1_000_000)
        hits += int(np.count_nonzero(rng.binomial(L0, eps, size=m) > t))
        done += m
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)


class LevelEstimate(NamedTuple):
    level: int
    probability: float
    stderr: float
    trials: int


def _reduce_chunk(
    m: int, levels: int, L0: int, t: int, eps: float, rng: np.random.Generator
) -> list[int]:
    fail = rng.binomial(L0, eps, size=(m, L0 ** (levels - 1))) > t
    counts = [int(fail.sum())]
    for _ in range(levels - 1):
        fail = fail.reshape(m, -1, L0).sum(axis=2) > t
        counts.append(int(fail.sum()))
    return counts


def level_reduce_mc(
    levels: int,
    L0: int,
    t: int,
    eps: float,
    samples: int,
    seed,
    workers: int = 1,
) -> tuple[LevelEstimate, ...]:
    """Hierarchical failure sampler over `levels` rounds of concatenation.

    Each sample covers L0^levels iid Bernoulli(eps) leaves and folds upward:
    a node fails when more than t of its L0 children fail. A level-1 block
    fails exactly when Binomial(L0, eps) > t, so each sample draws its
    L0^(levels-1) level-1 blocks as binomials, not its leaves one by one:
    the same distribution from L0x fewer draws. Nodes on one level sit over
    disjoint leaf sets, so all trials at a level are independent and carry
    an exact binomial standard error. Work is split into fixed-size chunks
    (sized and budgeted in leaves) with chunk-indexed RNG streams, so
    results do not depend on the worker count.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= t < L0:
        raise ValueError(f"need 0 <= t < L0, got t={t}, L0={L0}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    leaves_per_sample = L0**levels
    if samples * leaves_per_sample > MC_BUDGET:
        raise BudgetExceededError(
            f"{samples} samples x {leaves_per_sample} leaves exceeds the "
            f"{MC_BUDGET} leaf budget; use the exact iterated map instead"
        )
    chunk = max(1, min(samples, (1 << 22) // leaves_per_sample or 1))
    tasks = [
        (idx, min(chunk, samples - idx * chunk))
        for idx in range((samples + chunk - 1) // chunk)
    ]

    def run(task: tuple[int, int]) -> list[int]:
        idx, m = task
        return _reduce_chunk(m, levels, L0, t, eps, np.random.default_rng([seed, idx]))

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run, tasks))
    else:
        per_chunk = [run(task) for task in tasks]
    totals = [sum(c[l] for c in per_chunk) for l in range(levels)]
    out = []
    for l in range(1, levels + 1):
        trials = samples * L0 ** (levels - l)
        p = totals[l - 1] / trials
        out.append(LevelEstimate(l, p, math.sqrt(p * (1.0 - p) / trials), trials))
    return tuple(out)


def iterate_failure_map(levels: int, L0: int, t: int, eps: float) -> tuple[float, ...]:
    """Exact per-level failure probabilities p_l = P[Bin(L0, p_{l-1}) > t]."""
    out = []
    p = eps
    for _ in range(levels):
        p = level1_failure_exact(L0, t, p)
        out.append(p)
    return tuple(out)


def gadget_graph_from_json(obj: Mapping) -> tuple[GadgetGraph, int]:
    """Build a graph from {"gadgets": [{"own_locations", "er_out"}], "t"}.

    "er_out" may be one {"count", "to"} object or a list of them; "to" is
    the 0-based index of the consuming gadget.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("gadget graph config must be an object")
    raw = obj.get("gadgets")
    if not isinstance(raw, Sequence) or not raw:
        raise ValueError("config needs a nonempty gadgets list")
    gadgets = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise ValueError(f"gadgets[{i}] must be an object")
        er_raw = entry.get("er_out", [])
        if isinstance(er_raw, Mapping):
            er_raw = [er_raw]
        er = tuple((int(e["count"]), int(e["to"])) for e in er_raw)
        gadgets.append(Gadget(int(entry["own_locations"]), er))
    t = int(obj.get("t", 1))
    if t < 0:
        raise ValueError("t must be >= 0")
    return GadgetGraph(tuple(gadgets)), t

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

The truncation sweep gives each part one owner, a gadget, and a
classification keeps only the statuses and those owners: a gadget's
truncated set, the union of the parts it owns, is built when it is first
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

MC_BUDGET = 10**9
_EXP_UNDERFLOW = 746.0  # math.exp(x) is 0.0 for every x < -745.2
GRAPH_LOCATION_CAP = 10**6  # most locations a gadget graph may number


class BudgetExceededError(ValueError):
    """Monte Carlo leaf-draw budget or gadget-graph size cap exceeded."""


def _check_budget(samples: int, L0: int, probes: int = 1, levels: int = 1) -> None:
    """Refuse, before any draw, a run of more than MC_BUDGET leaves over all its
    probes, at L0^levels leaves a sample, or of MC_BUDGET.bit_length() levels or
    more: over budget at any L0 > 1, and a pass per level even at L0 = 1."""
    deep = levels >= MC_BUDGET.bit_length()  # L0^levels is left unbuilt
    runs = f"{probes} probes x " if probes > 1 else ""
    leaves = f"{L0}^{levels}" if deep else L0**levels
    over = f"{runs}{samples} samples x {leaves} leaves exceeds the {MC_BUDGET} leaf budget"
    if deep:
        why = over if L0 > 1 else "each level is one more pass over the samples"
        raise BudgetExceededError(f"levels {levels} is over the cap of {MC_BUDGET.bit_length() - 1}: {why}")
    if probes * samples * L0**levels > MC_BUDGET:
        raise BudgetExceededError(f"{over}; use the exact iterated map instead")


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
    graph (part id sets, each segment's emitter and consumer, per-gadget
    in/out segments, a location -> part index whose entry 0 is unused, and
    the gadget of each part-in-extent incidence) turn every lookup of the
    sweep into an index; none changes after construction.
    """

    gadgets: tuple[Gadget, ...]
    _parts: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _pred: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _succ: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _in: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _part_of: np.ndarray = field(init=False, repr=False, compare=False)
    # every part's emitter (a block's own gadget), then every segment's consumer
    _extent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gadgets = tuple(self.gadgets)
        if not gadgets:
            raise ValueError("graph needs at least one gadget")
        object.__setattr__(self, "gadgets", gadgets)
        n = len(gadgets)
        own: list[range] = []
        segs: list[range] = []
        pred: list[int] = []
        succ: list[int] = []
        seg_in: list[list[int]] = [[] for _ in range(n)]
        seg_out: list[list[int]] = [[] for _ in range(n)]
        layout, sizes = [0], [1]  # part ids in location order; entry 0 is unused
        next_id = 1
        for i, g in enumerate(gadgets):
            own.append(range(next_id, next_id + g.own_locations))
            layout.append(i)
            sizes.append(g.own_locations)
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
                layout.append(n + len(succ))
                sizes.append(count)
                pred.append(i)
                succ.append(to)
                segs.append(range(next_id, next_id + count))
                next_id += count
        if next_id - 1 > GRAPH_LOCATION_CAP:
            raise BudgetExceededError(
                f"gadget graph has {next_id - 1} locations, over the {GRAPH_LOCATION_CAP} cap"
            )
        parts = tuple(map(frozenset, own + segs))
        part_of = np.repeat(np.array(layout, dtype=np.intp), sizes)
        part_of.flags.writeable = False
        extent = np.array([*range(n), *pred, *succ], dtype=np.intp)
        extent.flags.writeable = False
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_pred", tuple(pred))
        object.__setattr__(self, "_succ", tuple(succ))
        object.__setattr__(self, "_in", tuple(map(tuple, seg_in)))
        object.__setattr__(self, "_out", tuple(map(tuple, seg_out)))
        object.__setattr__(self, "_part_of", part_of)
        object.__setattr__(self, "_extent", extent)

    @property
    def n_gadgets(self) -> int:
        return len(self.gadgets)

    @property
    def total_locations(self) -> int:
        return len(self._part_of) - 1


@dataclass(frozen=True)
class FaultConfig:
    """The faulty location ids, given as any iterable of ints and stored
    as a frozenset."""

    faulty: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faulty", frozenset(map(int, self.faulty)))


@dataclass(frozen=True)
class Classification:
    """Per-gadget status plus the gadget owning each part of the graph's part
    table, which `parts` shares. `truncated`, the union of the parts each
    gadget owns, is built and checked to partition the locations on first
    read."""

    statuses: tuple[str, ...]
    owner: tuple[int, ...]
    parts: tuple[frozenset[int], ...] = field(repr=False)

    @property
    def any_bad(self) -> bool:
        return "bad" in self.statuses

    @cached_property
    def truncated(self) -> tuple[frozenset[int], ...]:
        owned: list[list[frozenset[int]]] = [[] for _ in self.statuses]
        for part, i in zip(self.parts, self.owner):
            owned[i].append(part)
        truncated = tuple(frozenset().union(*sets) for sets in owned)
        total = sum(map(len, self.parts))
        if sum(map(len, truncated)) != total or len(frozenset().union(*truncated)) != total:
            raise AssertionError("truncated sets failed to partition the locations")
        return truncated


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
    part gets one owner: a gadget owns its own block, and each shared
    segment is owned by its successor when the successor is bad, else by its
    predecessor, so the truncated sets partition all locations; good gadgets
    only ever shed locations, so they stay good.

    The sweep visits only the candidates, the gadgets whose full extent (own
    block plus every incoming and outgoing segment) holds more than t
    faults: any other gadget is good whatever its successors are. The
    faults are counted once per part through the graph's location -> part
    index, and the full extents in one weighted bincount over the part-in-
    extent incidences. It builds no set: the classification holds the owners
    and builds the truncated sets when they are read.
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
    counts = np.bincount(g._part_of[faulty], minlength=len(parts))
    full = np.bincount(g._extent, np.concatenate((counts, counts[n:])), n)
    candidates = np.nonzero(full > t)[0][::-1].tolist()
    counts = counts.tolist()
    statuses = ["good"] * n
    # a segment goes to its emitter unless its successor is bad
    owner = [*range(n), *g._pred]
    for i in candidates:
        c = counts[i]
        for s in g._in[i]:
            c += counts[n + s]
        for s in g._out[i]:
            if statuses[succ[s]] == "good":
                c += counts[n + s]
        if c > t:
            statuses[i] = "bad"
            for s in g._in[i]:
                owner[n + s] = i
    return Classification(tuple(statuses), tuple(owner), parts)


def level1_failure_exact(L0: int, t: int, eps: float) -> float:
    """Exact binomial tail P[Bin(L0, eps) > t], summed in log space.

    The terms are summed from the mode outward, and each side stops at the
    first term whose ratio to the largest, exp(log term - top), underflows
    to 0; every term further out is smaller, so it is 0 in the full sum too.
    The result is then the sum of all L0 - t terms bit for bit, at a cost
    that grows with the tail's spread, not with L0.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    if not 0 <= t < L0:
        raise ValueError(f"need 0 <= t < L0, got t={t}, L0={L0}")
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return 1.0
    lgamma_L0, log_fail, log_ok = math.lgamma(L0 + 1), math.log(eps), math.log1p(-eps)
    mode = min(max(int((L0 + 1) * eps), t + 1), L0)
    log_terms: list[float] = []
    top = -math.inf
    for side in (range(mode, L0 + 1), range(mode - 1, t, -1)):
        for i in side:
            lt = (lgamma_L0 - math.lgamma(i + 1) - math.lgamma(L0 - i + 1)
                  + i * log_fail + (L0 - i) * log_ok)
            if lt < top - _EXP_UNDERFLOW:
                break
            log_terms.append(lt)
            top = max(top, lt)
    return min(1.0, math.exp(top) * math.fsum(math.exp(lt - top) for lt in log_terms))


def level1_failure_mc(
    L0: int, t: int, eps: float, samples: int, seed
) -> tuple[float, float]:
    """Sampled fraction of gadgets with > t of L0 iid faults, plus its
    binomial standard error; samples x L0 counts against MC_BUDGET."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    _check_budget(samples, L0)
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


def _failing_blocks(n: int, p1: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted ids in [0, n) of blocks failing iid with probability p1: sums of geometric gaps."""
    found = [np.full(1, -1)]
    size = min(n + 1, int(n * p1 + 4 * math.sqrt(n * p1)) + 16)
    while p1 and found[-1][-1] < n - 1:
        # a gap clipped at n + 1 still leaves the chunk, and a saturated one cannot overflow
        found.append(found[-1][-1] + np.cumsum(np.minimum(rng.geometric(p1, size), n + 1)))
    ids = np.concatenate(found)[1:]
    return ids[: np.searchsorted(ids, n)]


def _reduce_chunk(ids: np.ndarray, levels: int, L0: int, t: int) -> list[int]:
    """Per-level failure counts folded up from the sorted failing level-1 ids: siblings
    are adjacent, so a parent fails when the id t places later has the same parent."""
    counts = [ids.size]
    for _ in range(levels - 1):
        parent = ids // L0
        hit = parent[t:][parent[t:] == parent[: -t or None]]
        ids = hit[np.diff(hit, prepend=-1) != 0]  # a parent's repeats are adjacent
        counts.append(ids.size)
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
    fails exactly when Binomial(L0, eps) > t, with probability p1 =
    level1_failure_exact(L0, t, eps), so each sample's L0^(levels-1) level-1
    blocks are iid Bernoulli(p1) trials. Only the failing ones are drawn, as
    sorted ids, and each level folds the ids below it: the cost is
    O(failing blocks). Nodes on one level sit over disjoint leaf sets, so
    all trials at a level are independent and carry an exact binomial
    standard error. Chunks hold about 2^17 expected failing blocks (the
    budget still counts leaves) and draw from chunk-indexed RNG streams.
    `workers` sizes a thread pool of min(workers, chunks) threads, and a run
    of one chunk stays in the calling thread; results never depend on it.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= t < L0:
        raise ValueError(f"need 0 <= t < L0, got t={t}, L0={L0}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"fault probability out of range: {eps}")
    _check_budget(samples, L0, levels=levels)
    p1 = level1_failure_exact(L0, t, eps)
    blocks = L0 ** (levels - 1)
    chunk = max(1, int(min(samples, (1 << 17) / (blocks * p1)))) if p1 else samples
    tasks = [
        (idx, min(chunk, samples - idx * chunk))
        for idx in range((samples + chunk - 1) // chunk)
    ]

    def run(task: tuple[int, int]) -> list[int]:
        idx, m = task
        rng = np.random.default_rng([seed, idx])
        return _reduce_chunk(_failing_blocks(m * blocks, p1, rng), levels, L0, t)

    workers = min(workers, len(tasks))
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

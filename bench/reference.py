"""Reference computations for the benchmark's output checks.

Everything here is written from the input formats and the documented
meaning of each quantity, with numpy and the standard library only. It
imports nothing from ftlab, so a defect in the package cannot hide itself
by also breaking the reference. The dense-matrix code paths of ftlab are
replaced by local tensor contractions, which keeps every reference cheap at
the benchmark's sizes.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = (SX + SZ) / math.sqrt(2.0)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2.0),
}


# -- input formats --------------------------------------------------------------


def from_pairs(pairs) -> np.ndarray:
    """Flat list of [re, im] pairs to a complex vector."""
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def to_pairs(arr: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).reshape(-1)]


def square_from_pairs(pairs) -> np.ndarray:
    flat = from_pairs(pairs)
    side = math.isqrt(flat.size)
    return flat.reshape(side, side)


def gate_matrix(name: str) -> np.ndarray:
    fixed = {"H": HAD, "X": SX, "Z": SZ, "CNOT": CNOT}
    if name in fixed:
        return fixed[name]
    if name.startswith("Rz(") and name.endswith(")"):
        theta = float(name[3:-1])
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    raise ValueError(f"reference knows no gate {name!r}")


def noise_kraus(spec: dict) -> list[np.ndarray]:
    """Kraus operators of a single-qubit zoo noise spec."""
    kind = spec["kind"]
    if kind == "depolarizing":
        p = spec["p"]
        return [math.sqrt(1 - p) * np.eye(2, dtype=complex)] + [
            math.sqrt(p / 3) * s for s in (SX, SY, SZ)
        ]
    if kind == "amplitude_damping":
        g = 1.0 - math.exp(-spec["t0"] / spec["t1"])
        return [
            np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
            np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex),
        ]
    if kind == "control_rotation":
        th = spec["delta_theta"]
        return [np.diag([np.exp(1j * th), np.exp(-1j * th)])]
    raise ValueError(f"reference knows no noise kind {kind!r}")


# -- local tensor kernels ----------------------------------------------------------


def apply_left(x: np.ndarray, op: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract a 2^k x 2^k operator into the given qubit axes of a tensor."""
    k = len(axes)
    t = op.reshape((2,) * (2 * k))
    y = np.tensordot(t, x, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(y, list(range(k)), axes)


def apply_channel(rho: np.ndarray, kraus, support, n: int) -> np.ndarray:
    """sum_K K rho K^dag on `support` of an n-qubit (2,)*2n density tensor."""
    rows = list(support)
    cols = [n + q for q in support]
    out = np.zeros_like(rho)
    for k in kraus:
        out += apply_left(apply_left(rho, k, rows), k.conj(), cols)
    return out


def prep_kraus(state: np.ndarray) -> list[np.ndarray]:
    """Reset-to-`state` channel: Kraus |s><k| for each basis state k."""
    return [np.outer(state, np.eye(2)[k]) for k in range(2)]


# -- circuits ------------------------------------------------------------------------


def location_ops(loc: dict) -> list[np.ndarray]:
    if loc["kind"] == "prep":
        return prep_kraus(STATES[loc["state"]])
    if loc["kind"] == "gate":
        return [gate_matrix(loc["gate"])]
    if loc["kind"] == "identity":
        return []
    raise ValueError(f"reference knows no location kind {loc['kind']!r}")


def initial_rho(n: int) -> np.ndarray:
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    return rho


def walk(circuit: dict, noise: dict | None, fault_at=(), ideal_before: int = 0):
    """Density tensor after the circuit.

    noise maps location index (str) to a zoo spec with a "support" list.
    Locations in `fault_at` get N - I instead of N; locations with index
    <= ideal_before stay noiseless (the earliest-fault convention).
    """
    n = circuit["n_system"]
    rho = initial_rho(n)
    for pos, loc in enumerate(circuit["locations"]):
        index = pos + 1
        ops = location_ops(loc)
        if ops:
            rho = apply_channel(rho, ops, loc["support"], n)
        spec = (noise or {}).get(str(index))
        if index in fault_at:
            noisy = apply_channel(rho, noise_kraus(spec), spec["support"], n) if spec else rho
            rho = noisy - rho
        elif spec is not None and index > ideal_before:
            rho = apply_channel(rho, noise_kraus(spec), spec["support"], n)
    return rho


def as_matrix(rho: np.ndarray, n: int) -> np.ndarray:
    return rho.reshape(2**n, 2**n)


def z_distribution(rho: np.ndarray, n: int) -> np.ndarray:
    """Probabilities of all-qubit Z read-out, qubit 0 most significant."""
    return np.clip(np.real(np.diagonal(as_matrix(rho, n))), 0.0, None)


def accuracy_delta(circuit: dict, noise: dict) -> float:
    n = circuit["n_system"]
    ideal = z_distribution(walk(circuit, None), n)
    noisy = z_distribution(walk(circuit, noise), n)
    return float(np.sum(np.abs(noisy - ideal)))


def env_distribution(circuit: dict, env: dict) -> np.ndarray:
    """System Z read-out after joint pure-state evolution with couplings."""
    n_sys = circuit["n_system"]
    n_tot = n_sys + env["n_env"]
    psi = np.zeros((2,) * n_tot, dtype=complex)
    psi[(0,) * n_tot] = 1.0
    for pos, loc in enumerate(circuit["locations"]):
        if loc["kind"] == "prep":
            a, b = STATES[loc["state"]]
            psi = apply_left(psi, np.array([[a, -b.conjugate()], [b, a.conjugate()]]), loc["support"])
        elif loc["kind"] == "gate":
            psi = apply_left(psi, gate_matrix(loc["gate"]), loc["support"])
        coupling = env["couplings"].get(str(pos + 1))
        if coupling is not None:
            psi = apply_left(psi, square_from_pairs(coupling["unitary"]), coupling["support"])
    probs = np.abs(psi.reshape(2**n_sys, -1)) ** 2
    return probs.sum(axis=1)


def env_accuracy_delta(circuit: dict, env: dict) -> float:
    n = circuit["n_system"]
    ideal = z_distribution(walk(circuit, None), n)
    return float(np.sum(np.abs(env_distribution(circuit, env) - ideal)))


def trace_norm_hermitian(m: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


# -- diamond distance ----------------------------------------------------------------


def diamond_upper(kraus_a, kraus_b) -> float:
    """Certified upper end: largest eigenvalue of Tr_out |J(A - B)|, at most 2."""
    d = kraus_a[0].shape[0]
    j = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus_a)
    j = j - sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus_b)
    w, u = np.linalg.eigh(j)
    abs_j = (u * np.abs(w)) @ u.conj().T
    reduced = np.einsum("ijik->jk", abs_j.reshape(d, d, d, d))
    return min(2.0, float(np.max(np.linalg.eigvalsh(reduced))))


def _output_gap(kraus_a, kraus_b, psis: np.ndarray) -> np.ndarray:
    """||((A - B) x I)(|psi><psi|)||_1 for a stack of inputs psi (d*d vectors)."""
    d = kraus_a[0].shape[0]
    mats = psis.reshape(-1, d, d)
    out = np.zeros((len(psis), d * d, d * d), dtype=complex)
    for sign, ks in ((1.0, kraus_a), (-1.0, kraus_b)):
        for k in ks:
            v = np.einsum("ij,sjk->sik", k, mats).reshape(len(psis), -1)
            out += sign * np.einsum("si,sj->sij", v, v.conj())
    return np.sum(np.abs(np.linalg.eigvalsh(out)), axis=1)


def diamond_lower_max_entangled(kraus_a, kraus_b) -> float:
    d = kraus_a[0].shape[0]
    psi = np.eye(d, dtype=complex).reshape(1, -1) / math.sqrt(d)
    return float(_output_gap(kraus_a, kraus_b, psi)[0])


def diamond_lower_qubit(kraus_a, kraus_b, seed: int = 0) -> float:
    """Lower end for single-qubit channels by search over all pure inputs.

    Every two-qubit input is (V x W)(cos a|00> + sin a|11>) and W does not
    change the objective, so a grid over a and V = Rz(phi) Ry(theta),
    refined by a shrinking random search, covers the whole input set. Any
    input gives a valid lower bound; the search only makes it tight.
    """

    def states(params: np.ndarray) -> np.ndarray:
        a, th, ph = params.T
        c, s = np.cos(th / 2), np.sin(th / 2)
        e = np.exp(1j * ph)
        # columns of V = Rz(ph) Ry(th) applied to the Schmidt vectors
        v00, v10 = c, e * s
        v01, v11 = -s + 0j, e * c
        ca, sa = np.cos(a), np.sin(a)
        return np.stack([ca * v00, sa * v01, ca * v10, sa * v11], axis=1)

    axes = np.meshgrid(
        np.linspace(0, math.pi / 2, 25), np.linspace(0, math.pi, 25),
        np.linspace(0, 2 * math.pi, 24, endpoint=False), indexing="ij",
    )
    grid = np.stack([a.reshape(-1) for a in axes], axis=1)
    vals = _output_gap(kraus_a, kraus_b, states(grid))
    best_x, best = grid[int(np.argmax(vals))], float(np.max(vals))
    rng = np.random.default_rng(seed)
    scale = 0.2
    while scale > 1e-9:
        cand = best_x + scale * rng.normal(size=(64, 3))
        v = _output_gap(kraus_a, kraus_b, states(cand))
        i = int(np.argmax(v))
        if v[i] > best:
            best_x, best = cand[i], float(v[i])
        else:
            scale *= 0.5
    return best


def qubit_interval(kraus_a, kraus_b) -> tuple[float, float]:
    return diamond_lower_qubit(kraus_a, kraus_b), diamond_upper(kraus_a, kraus_b)


# -- strength evaluators -------------------------------------------------------------


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def strength_local_hamiltonian(terms: list[dict], t0: float) -> float:
    """Generator contract: all terms of one label share one ordered support."""
    groups: dict = {}
    for term in terms:
        op = square_from_pairs(term["op"])
        groups[term["label"]] = groups.get(term["label"], 0) + op
    return t0 * max(opnorm(m) for m in groups.values())


def strength_long_range(terms: list[dict], t0: float, c: float) -> float:
    row: dict[int, float] = {}
    for term in terms:
        nrm = opnorm(square_from_pairs(term["op"]))
        for j in term["label"]:
            row[j] = row.get(j, 0.0) + nrm
    return math.sqrt(c * t0 * max(row.values()))


def strength_gaussian(grid: dict, c: float) -> float:
    arr = np.asarray(grid["delta_abs"], dtype=float)
    cells = sorted({i for r in grid["gate_regions"] for i in r})
    vol2 = grid["cell_volume"] ** 2
    worst = max(
        float(arr[np.ix_(list(r), range(arr.shape[1]), cells, range(arr.shape[3]))].sum())
        for r in grid["gate_regions"]
    )
    return math.sqrt(c * worst * vol2)


def strength_unitary_couplings(unitaries) -> float:
    return max(opnorm(u - np.eye(u.shape[0])) for u in unitaries)


# -- gadgets and level reduction --------------------------------------------------------


class GraphRef:
    """Location ids of a gadget-graph config, numbered as the format states:
    1..N in gadget order, each gadget's own locations then its outgoing
    segments in listed order."""

    def __init__(self, graph: dict):
        self.t = graph["t"]
        self.own: list[list[int]] = []
        self.segs: list[tuple[int, int, list[int]]] = []  # (pred, succ, ids)
        nxt = 1
        for i, g in enumerate(graph["gadgets"]):
            self.own.append(list(range(nxt, nxt + g["own_locations"])))
            nxt += g["own_locations"]
            for e in g.get("er_out", []):
                self.segs.append((i, e["to"], list(range(nxt, nxt + e["count"]))))
                nxt += e["count"]
        self.total = nxt - 1
        self.n = len(self.own)

    def classify(self, faults: np.ndarray) -> np.ndarray:
        """Bad flags (samples x gadgets) for a (samples x N+1) fault matrix."""
        own = np.stack([faults[:, ids].sum(axis=1) for ids in self.own], axis=1)
        seg = [faults[:, ids].sum(axis=1) for _, _, ids in self.segs]
        bad = np.zeros((faults.shape[0], self.n), dtype=bool)
        for i in reversed(range(self.n)):
            count = own[:, i].copy()
            for s, (pred, succ, _) in enumerate(self.segs):
                if succ == i:
                    count += seg[s]
                elif pred == i:
                    count += np.where(bad[:, succ], 0, seg[s])
            bad[:, i] = count > self.t
        return bad

    def truncated(self, bad_row: np.ndarray) -> list[list[int]]:
        sets = [set(ids) for ids in self.own]
        for pred, succ, ids in self.segs:
            sets[succ if bad_row[succ] else pred].update(ids)
        return [sorted(s) for s in sets]

    def fault_matrix(self, fault_sets) -> np.ndarray:
        m = np.zeros((len(fault_sets), self.total + 1), dtype=np.int64)
        for row, faults in enumerate(fault_sets):
            m[row, list(faults)] = 1
        return m

    def any_bad_probability(self, eps: float, samples: int, seed, chunk: int = 10_000) -> float:
        rng = np.random.default_rng(seed)
        bad = 0
        for start in range(0, samples, chunk):
            hits = rng.random((min(chunk, samples - start), self.total + 1)) < eps
            hits[:, 0] = False
            bad += int(self.classify(hits).any(axis=1).sum())
        return bad / samples


def binom_tail(n: int, p: float, t: int) -> float:
    """P[Bin(n, p) > t], summed term by term over the upper tail."""
    return math.fsum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(t + 1, n + 1))


def failure_map(levels: int, L0: int, t: int, eps: float) -> list[float]:
    out, p = [], eps
    for _ in range(levels):
        p = binom_tail(L0, p, t)
        out.append(p)
    return out


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


# Two-sided tail mass of a 4 sigma normal deviation.
FOUR_SIGMA_TAIL = math.erfc(4 / math.sqrt(2))


def hits_consistent(k: int, n: int, p: float) -> bool:
    """Whether k hits in n Bernoulli(p) trials lie within 4 sigma of n*p.

    "Within 4 sigma" is read on the exact binomial tail: the count passes
    unless the tail beyond it carries less mass than a 4 sigma normal
    deviation. For large counts this is the usual |k - np| <= 4 sigma; for
    expected counts far below one it does not fail a single hit, which a
    normal approximation would.
    """
    if p <= 0.0 or p >= 1.0:
        return k == (0 if p <= 0.0 else n)
    mean = n * p
    if k == round(mean):
        return True
    step = 1 if k > mean else -1
    tail, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        tail += term
        if tail >= FOUR_SIGMA_TAIL / 2:
            return True
        if term < 1e-30 * max(tail, 1e-300):
            break
        j += step
    return tail >= FOUR_SIGMA_TAIL / 2


# -- threshold arithmetic ---------------------------------------------------------------


def threshold_eps0(L0: int, t: int, xi: float) -> float:
    return (xi * math.comb(L0, t + 1)) ** (-1.0 / t)


def strength_at_level(eps: float, k: int, L0: int, t: int, xi: float) -> float:
    for _ in range(k):
        eps = xi * math.comb(L0, t + 1) * eps ** (t + 1)
    return eps


def required_level(L: int, delta0: float, eps: float, L0: int, t: int, xi: float) -> int:
    for k in range(65):
        if (math.e - 1) * L * strength_at_level(eps, k, L0, t, xi) <= delta0:
            return k
    raise ValueError("target not reached within 64 levels")


def pseudothreshold(L0: int, t: int) -> float:
    """Crossing of P[Bin(L0, eps) > t] with eps on (0, 0.5), by bisection."""
    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if binom_tail(L0, mid, t) > mid:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def pseudothreshold_sigma(L0: int, t: int, samples: int) -> float:
    """Standard deviation of an MC crossing: the tail's sampling error at the
    crossing divided by the slope of tail(eps) - eps there."""
    x = pseudothreshold(L0, t)
    tail = binom_tail(L0, x, t)
    slope = L0 * math.comb(L0 - 1, t) * x**t * (1 - x) ** (L0 - 1 - t)
    return math.sqrt(tail * (1 - tail) / samples) / abs(slope - 1.0)

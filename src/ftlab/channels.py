"""Completely positive trace-preserving maps in Kraus form.

A channel is one read-only (K, d, d) complex128 stack of Kraus operators,
its subsystem dims and an explicit `support`: the ambient subsystem labels
its Kraus factors refer to. Composition and embedding work over the union
of supports, so single-qubit noise can be slotted into multi-qubit states
without manual kron bookkeeping; every consumer reads the stack directly.
Every other operator is a plain complex128 array: `apply_channel` takes a
density matrix with its subsystem dims, `choi_matrix` and
`stinespring_dilation` return arrays, and a noise spec, a Hamiltonian term
or a coupling stores its operator as a read-only array.

The diamond-norm distance is reported as a certified interval. The lower
end comes from restarted projected-gradient ascent over bipartite pure
states (reference copy of the input space, which is enough to attain the
maximum); the upper end is the spectral bound on the partial trace of the
absolute Choi difference, clipped at 2, computed in one place,
`_diamond_upper_from_delta`. Exact SDP evaluation is out of scope by design.

The ascent works on the Kraus stacks of both channels concatenated into one
(K, d, d) array with a +1/-1 sign per operator, and on a batch of starts at
once; each start keeps its own step size and stopping state, and an objective
call costs it a reduced QR and an eigh of side min(K, d^2), not d^2. The
maximally entangled start runs first, then the Haar-random starts in batches
sized by `_ASCENT_CHUNK_BYTES`. The search returns once the interval is closed,
lower >= upper*(1 - tol), checked after the first start and after each batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .matcore import (
    VALIDATION_ATOL,
    SubsystemDims,
    apply_local,
    embed_operator,
    is_density,
    is_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    qubit_dims,
    read_only,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Channel type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Channel:
    """Kraus stack {K_i} with sum K_i^dag K_i = I (within 1e-10).

    `kraus` is one read-only (K, d, d) complex128 array with d = dims.total;
    `support` lists the ambient subsystem labels the Kraus factors act on,
    in the factor order of `dims`.
    """

    kraus: np.ndarray
    dims: SubsystemDims
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = SubsystemDims(self.dims)
        ks = read_only(self.kraus)
        d = dims.total
        if ks.ndim != 3 or ks.shape[1:] != (d, d) or not len(ks):
            raise ValueError(f"Kraus stack must have shape (K >= 1, {d}, {d}), got {ks.shape}")
        support = tuple(int(s) for s in self.support)
        if len(support) != len(dims):
            raise ValueError(
                f"support length {len(support)} does not match factor count {len(dims)}"
            )
        if len(set(support)) != len(support):
            raise ValueError(f"support has duplicates: {support}")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "support", support)
        acc = np.einsum("kab,kac->bc", ks.conj(), ks)
        if np.max(np.abs(acc - np.eye(d))) > VALIDATION_ATOL:
            raise ValueError("Kraus operators are not trace preserving")

    @property
    def dim(self) -> int:
        return self.dims.total

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_kraus(
        cls,
        ops: Sequence[np.ndarray] | np.ndarray,
        dims: SubsystemDims | Sequence[int] | None = None,
        support: Sequence[int] | None = None,
    ) -> "Channel":
        """Channel from a list of Kraus arrays or one stack.

        Without `dims`, the operators are one factor of their side (a 1 x 1
        operator acts on the scalar space).
        """
        if not len(ops):
            raise ValueError("need at least one Kraus operator")
        if dims is None:
            side = len(ops[0])
            dims = (side,) if side > 1 else ()
        if support is None:
            support = tuple(range(len(dims)))
        return cls(ops, dims, support)

    @classmethod
    def unitary(
        cls,
        u: np.ndarray,
        dims: SubsystemDims | Sequence[int] | None = None,
        support: Sequence[int] | None = None,
    ) -> "Channel":
        """One Kraus operator; trace preservation makes it unitary."""
        return cls.from_kraus([u], dims, support)

    @classmethod
    def identity(
        cls,
        dims: SubsystemDims | Sequence[int],
        support: Sequence[int] | None = None,
    ) -> "Channel":
        dims = SubsystemDims(dims)
        return cls.from_kraus([np.eye(dims.total)], dims, support)

    def is_identity(self, atol: float = 1e-12) -> bool:
        j = choi_matrix(self)
        return bool(np.max(np.abs(j - choi_matrix(Channel.identity(self.dims)))) <= atol)


# ---------------------------------------------------------------------------
# Application, composition, embedding
# ---------------------------------------------------------------------------


def _check_fits(ch: Channel, dims: SubsystemDims) -> None:
    """The channel's support, read as positions in dims, matches its factors."""
    for pos, s in enumerate(ch.support):
        if not 0 <= s < len(dims):
            raise ValueError(f"channel support index {s} out of range for {dims.dims}")
        if dims[s] != ch.dims[pos]:
            raise ValueError(
                f"subsystem {s} has dim {dims[s]}, channel factor expects {ch.dims[pos]}"
            )


def apply_channel(
    ch: Channel, rho: np.ndarray, dims: SubsystemDims | Sequence[int]
) -> np.ndarray:
    """sum_i K_i rho K_i^dag, each K_i acting on the channel's support in
    rho's space, whose subsystems have dimensions `dims`."""
    if not is_density(rho):
        raise ValueError("input is not a density matrix")
    dims = SubsystemDims(dims)
    _check_fits(ch, dims)
    return apply_local(rho, ch.kraus, ch.support, dims)


def _kraus_on(ch: Channel, labels: tuple[int, ...], dims: SubsystemDims) -> np.ndarray:
    """Kraus stack embedded into `dims`, whose subsystems carry `labels`."""
    positions = tuple(labels.index(s) for s in ch.support)
    if positions == tuple(range(len(dims))):
        return ch.kraus
    return np.stack([embed_operator(k, positions, dims) for k in ch.kraus])


def compose_channels(later: Channel, earlier: Channel) -> Channel:
    """Channel applying `earlier` first, then `later`.

    Supports may differ; both are embedded into the union of their ambient
    labels. The Kraus set of the composite is the full pairwise product, and
    trace preservation is re-verified on construction.
    """
    local: dict[int, int] = {}
    for ch in (later, earlier):
        for s, d in zip(ch.support, ch.dims):
            if local.setdefault(s, d) != d:
                raise ValueError(f"channels disagree on dim of subsystem {s}")
    labels = tuple(sorted(local))
    dims = SubsystemDims(tuple(local[s] for s in labels))
    ka = _kraus_on(later, labels, dims)
    kb = _kraus_on(earlier, labels, dims)
    prods = ka[:, None] @ kb[None]
    return Channel(prods.reshape(-1, dims.total, dims.total), dims, labels)


def embed_channel(ch: Channel, total: SubsystemDims | Sequence[int]) -> Channel:
    """Extend the channel with identity factors to act on the full space."""
    total = SubsystemDims(total)
    _check_fits(ch, total)
    labels = tuple(range(len(total)))
    return Channel(_kraus_on(ch, labels, total), total, labels)


# ---------------------------------------------------------------------------
# Choi matrix and diamond distance
# ---------------------------------------------------------------------------


def choi_matrix(ch: Channel) -> np.ndarray:
    """Choi operator: the channel applied to one half of the unnormalized
    maximally entangled state. Output factors first, reference copy second,
    so its subsystem dims are ch.dims twice. Trace equals the input
    dimension; tracing out the output factors gives the identity on the
    reference copy.
    """
    d = ch.dim
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ch.kraus:
        v = k.reshape(-1)  # (K ⊗ I) applied to sum_i |i>|i>
        j += np.outer(v, v.conj())
    return j


class DiamondInterval(NamedTuple):
    lower: float
    upper: float


def _diamond_upper_from_delta(delta_j: np.ndarray) -> float:
    """Certified upper bound: largest eigenvalue of Tr_out |dJ|, capped at 2.

    `delta_j` is a Choi difference on (output ⊗ reference), side d^2.
    """
    d = math.isqrt(len(delta_j))
    w, u = np.linalg.eigh(delta_j)
    abs_j = (u * np.abs(w)) @ u.conj().T
    reduced = np.einsum(abs_j.reshape(d, d, d, d), [0, 1, 0, 2], [1, 2])
    bound = float(np.max(np.linalg.eigvalsh(reduced)))
    return min(2.0, max(0.0, bound))


# Random-start batch budget in bytes of one (starts, d^2, d^2) complex array; per start
# the ascent holds (d^2, K) and min(K, d^2)-sided arrays, not the d^2 x d^2 operator.
_ASCENT_CHUNK_BYTES = 64 << 20


def _objective(kraus, signs, psi):
    """Trace norms of ((A - B) ⊗ I)(|psi><psi|) for a batch of starts.

    `kraus` stacks the Kraus operators of A and B as (K, d, d) with `signs`
    +1 for A and -1 for B; `psi` is (R, d^2). With V = [vec(K_k psi)] = Q R by
    reduced QR, the values are sum |w| for (w, Y) = eigh(R diag(signs) R^dag);
    also returns S V = Q Y sign(w) Y^dag R, S the sign operator, as (R, d^2, K).
    """
    n, d, _ = kraus.shape
    v = (kraus.reshape(n * d, d) @ psi.reshape(-1, d, d)).reshape(-1, n, d * d)
    q, r = np.linalg.qr(v.transpose(0, 2, 1))
    w, y = np.linalg.eigh((r * signs) @ r.conj().transpose(0, 2, 1))
    sv = q @ ((y * np.sign(w)[:, None, :]) @ (y.conj().transpose(0, 2, 1) @ r))
    return np.abs(w).sum(axis=1), sv


def _ascend(kraus, signs, psi, tol, max_iter=400):
    """Projected-gradient ascent from each row of `psi` (R, d^2); final values (R,).

    Every start keeps its own step size and stops on its own, so each row
    follows the trajectory it would follow alone; it carries S V per start.
    """
    n, d, _ = kraus.shape
    # Heisenberg lift: sum_k s_k K_k^dag X_k as one (d, K*d) @ (K*d, d) product
    lift = (kraus.conj() * signs[:, None, None]).transpose(2, 0, 1).reshape(d, n * d)
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    f, sv = _objective(kraus, signs, psi)
    step = np.ones(len(psi))
    active = np.ones(len(psi), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        # gradient direction: H_S psi with H_S the Heisenberg lift of the sign
        g = (lift @ sv[idx].transpose(0, 2, 1).reshape(-1, n * d, d)).reshape(-1, d * d)
        p = psi[idx]
        r = g - (p.conj()[:, None, :] @ g[:, :, None])[:, :, 0] * p
        flat = np.linalg.norm(r, axis=1) <= 1e-13 * np.maximum(1.0, f[idx])
        active[idx[flat]] = False
        idx, r = idx[~flat], r[~flat]
        while idx.size:
            cand = psi[idx] + step[idx, None] * r
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            f2, sv2 = _objective(kraus, signs, cand)
            up = f2 > f[idx]
            acc = idx[up]
            gain = f2[up] - f[acc]
            psi[acc], f[acc], sv[acc] = cand[up], f2[up], sv2[up]
            step[acc] = np.minimum(step[acc] * 2.0, 64.0)
            active[acc[gain <= tol * np.maximum(f[acc], 1e-30)]] = False
            idx, r = idx[~up], r[~up]
            step[idx] *= 0.5
            spent = step[idx] < 1e-12
            active[idx[spent]] = False
            idx, r = idx[~spent], r[~spent]
    return f


def _haar_start(seed: int, i: int, d: int) -> np.ndarray:
    rng = np.random.default_rng([seed, i])
    return rng.normal(size=d * d) + 1j * rng.normal(size=d * d)


def diamond_distance(
    a: Channel,
    b: Channel,
    restarts: int = 32,
    tol: float = 1e-10,
    seed: int = 0,
) -> DiamondInterval:
    """Certified interval for the diamond-norm distance between two channels.

    Parameters
    ----------
    a, b : Channel
        Same dims required.
    restarts : int
        Most ascent starts to run. The first start is the maximally
        entangled state (already optimal for Pauli-mixture and
        unitary-rotation channels); the rest are Haar-random bipartite pure
        states seeded `[seed, i]`, run in batches of
        `_ASCENT_CHUNK_BYTES // (16 d^4)` starts.
    tol : float
        Relative-improvement stopping threshold for the ascent, in (0, 1).
        The search also returns as soon as the interval is closed,
        `lower >= upper * (1 - tol)`, checked after the first start and
        after each batch, so a closed interval costs one ascent.
    seed : int
        Seeds the random restarts; fixed seed makes the result reproducible.

    Returns
    -------
    DiamondInterval
        (lower, upper) with lower <= true distance <= upper.
    """
    if a.dims != b.dims:
        raise ValueError("channels must share dims")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    d = a.dim
    delta_j = choi_matrix(a) - choi_matrix(b)
    upper = _diamond_upper_from_delta(delta_j)
    if upper <= 1e-14:
        return DiamondInterval(0.0, 0.0)
    kraus = np.concatenate([a.kraus, b.kraus])
    signs = np.repeat([1.0, -1.0], [len(a.kraus), len(b.kraus)])
    closed = upper * (1.0 - tol)
    entangled = np.eye(d, dtype=np.complex128).reshape(1, -1) / math.sqrt(d)
    best = float(_ascend(kraus, signs, entangled, tol)[0])
    chunk = max(1, _ASCENT_CHUNK_BYTES // (16 * d**4))
    for first in range(1, restarts, chunk):
        if best >= closed:
            break
        starts = np.stack(
            [_haar_start(seed, i, d) for i in range(first, min(first + chunk, restarts))]
        )
        best = max(best, float(np.max(_ascend(kraus, signs, starts, tol))))
    return DiamondInterval(min(best, upper), upper)


# ---------------------------------------------------------------------------
# Noise zoo
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Parameter record for the built-in single-location noise models;
    `e_op` is stored as a read-only complex128 array."""

    kind: str
    delta_theta: float | None = None
    t0: float | None = None
    t1: float | None = None
    p: float | None = None
    e_op: np.ndarray | None = None

    KINDS = ("control_rotation", "amplitude_damping", "probabilistic", "depolarizing")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.e_op is not None:
            object.__setattr__(self, "e_op", read_only(self.e_op))
        if self.kind == "control_rotation":
            if self.delta_theta is None:
                raise ValueError("control_rotation needs delta_theta")
        elif self.kind == "amplitude_damping":
            if self.t0 is None or self.t1 is None:
                raise ValueError("amplitude_damping needs t0 and t1")
            if self.t0 < 0 or self.t1 <= 0:
                raise ValueError("need t0 >= 0 and t1 > 0")
        elif self.kind == "probabilistic":
            if self.p is None or self.e_op is None:
                raise ValueError("probabilistic needs p and e_op")
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"p out of range: {self.p}")
            if not is_unitary(self.e_op):
                raise ValueError("e_op must satisfy E^dag E = I")
        elif self.kind == "depolarizing":
            if self.p is None:
                raise ValueError("depolarizing needs p")
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"p out of range: {self.p}")

    @classmethod
    def control_rotation(cls, delta_theta: float) -> "NoiseSpec":
        return cls("control_rotation", delta_theta=float(delta_theta))

    @classmethod
    def amplitude_damping(cls, t0: float, t1: float) -> "NoiseSpec":
        return cls("amplitude_damping", t0=float(t0), t1=float(t1))

    @classmethod
    def probabilistic(cls, p: float, e_op: np.ndarray) -> "NoiseSpec":
        return cls("probabilistic", p=float(p), e_op=e_op)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseSpec":
        return cls("depolarizing", p=float(p))

    @property
    def gamma(self) -> float:
        """Decay weight 1 - exp(-t0/T1) of the amplitude-damping model."""
        if self.kind != "amplitude_damping":
            raise ValueError("gamma is defined for amplitude_damping only")
        return 1.0 - math.exp(-self.t0 / self.t1)


def make_noise_channel(spec: NoiseSpec, support: Sequence[int] | None = None) -> Channel:
    """Instantiate a noise model from the zoo as a Channel."""
    if spec.kind == "control_rotation":
        th = spec.delta_theta
        u = np.diag([np.exp(1j * th), np.exp(-1j * th)])  # exp(i th Z)
        return Channel.unitary(u, (2,), support)
    if spec.kind == "amplitude_damping":
        g = spec.gamma
        m0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]])
        m1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])
        return Channel.from_kraus([m0, m1], (2,), support)
    if spec.kind == "probabilistic":
        e = spec.e_op
        ks = [math.sqrt(1.0 - spec.p) * np.eye(len(e)), math.sqrt(spec.p) * e]
        k = len(e).bit_length() - 1  # a 2^k-sided e_op acts on k qubits
        return Channel.from_kraus(ks, qubit_dims(k) if len(e) == 2**k else None, support)
    if spec.kind == "depolarizing":
        p = spec.p
        ks = [
            math.sqrt(1.0 - p) * np.eye(2),
            math.sqrt(p / 3.0) * SIGMA_X,
            math.sqrt(p / 3.0) * SIGMA_Y,
            math.sqrt(p / 3.0) * SIGMA_Z,
        ]
        return Channel.from_kraus(ks, (2,), support)
    raise ValueError(f"unknown noise kind {spec.kind!r}")


def stinespring_dilation(ch: Channel) -> tuple[np.ndarray, int]:
    """Unitary dilation on (system ⊗ environment), environment appended last.

    The environment dimension equals the Kraus count; starting it in |0> and
    tracing it out after the unitary reproduces the channel. For a single
    Kraus operator the channel is unitary already and the environment is
    trivial (dimension 1).
    """
    k = len(ch.kraus)
    d = ch.dim
    if k == 1:
        return ch.kraus[0], 1
    # joint index (s, e) -> s * k + e
    iso = ch.kraus.transpose(1, 0, 2).reshape(d * k, d)
    q, _ = np.linalg.qr(iso, mode="complete")
    u = np.zeros((d * k, d * k), dtype=np.complex128)
    u[:, 0::k] = iso  # columns for env state |0>
    rest = iter(range(d, d * k))
    for col in range(d * k):
        if col % k != 0:
            u[:, col] = q[:, next(rest)]
    if not is_unitary(u, 1e-9):
        raise AssertionError("dilation completion failed to be unitary")
    return u, k


# ---------------------------------------------------------------------------
# Noise-strength evaluators
# ---------------------------------------------------------------------------


def strength_markovian(noisy: Channel, ideal: Channel) -> float:
    """Certified noise strength of a noisy location against its ideal.

    The spectral upper bound on the diamond distance between the two
    channels, which must share dims and support. It equals the strength of
    the noise factor noisy ∘ ideal^-1 against the identity when the ideal is
    unitary: composing with a unitary on the input conjugates the Choi
    difference by a unitary on the reference factor, which keeps the
    spectrum of Tr_out |dJ|.

    Returns the certified upper end of the diamond interval, so every
    downstream inequality of the form delta <= L * eps stays valid.
    """
    if noisy.dims != ideal.dims or noisy.support != ideal.support:
        raise ValueError("channels must share dims and support")
    return _diamond_upper_from_delta(choi_matrix(noisy) - choi_matrix(ideal))


@dataclass(frozen=True, eq=False)
class HamiltonianTerm:
    """One interaction term: Hermitian operator on the qubits `support`,
    tagged by the circuit location (int) or unordered location pair (tuple)
    it belongs to. `op` is stored as a read-only complex128 array of side
    2^len(support).
    """

    support: tuple[int, ...]
    op: np.ndarray
    label: int | tuple[int, int]

    def __post_init__(self) -> None:
        support = tuple(int(s) for s in self.support)
        if len(set(support)) != len(support):
            raise ValueError(f"support has duplicates: {support}")
        op = read_only(self.op)
        d = qubit_dims(len(support)).total
        if op.shape != (d, d):
            raise ValueError(f"matrix side {len(op)} does not match dims total {d}")
        if not is_hermitian(op):
            raise ValueError("Hamiltonian term must be Hermitian")
        label = self.label
        if isinstance(label, (tuple, list)):
            label = tuple(int(x) for x in label)
            if len(label) != 2 or label[0] == label[1]:
                raise ValueError(f"pair label must name two distinct locations: {label}")
            label = (min(label), max(label))
        else:
            label = int(label)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "label", label)


def _grouped_norm(terms: Sequence[HamiltonianTerm]) -> float:
    """Operator norm of the sum of the terms, embedded on their union support."""
    labels = sorted({s for t in terms for s in t.support})
    dims = qubit_dims(len(labels))
    acc = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for t in terms:
        positions = tuple(labels.index(s) for s in t.support)
        acc += embed_operator(t.op, positions, dims)
    return operator_norm(acc)


def strength_local_hamiltonian(terms: Sequence[HamiltonianTerm], t0: float) -> float:
    """t0 times the largest per-location norm of the summed coupling terms.

    Terms sharing a location label are summed (on the union of their
    supports) before taking the norm.
    """
    if not terms:
        raise ValueError("no Hamiltonian terms given")
    if t0 < 0:
        raise ValueError("t0 must be >= 0")
    groups: dict[int, list[HamiltonianTerm]] = {}
    for t in terms:
        if not isinstance(t.label, int):
            raise ValueError("per-location strength needs integer labels")
        groups.setdefault(t.label, []).append(t)
    return t0 * max(_grouped_norm(g) for g in groups.values())


class LongRangeStrength(float):
    """Float with a flag for the validity condition eps^2 <= e."""

    within_validity: bool

    def __new__(cls, value: float) -> "LongRangeStrength":
        obj = super().__new__(cls, value)
        obj.within_validity = value * value <= math.e
        return obj


def strength_long_range(
    terms: Sequence[HamiltonianTerm],
    t0: float,
    c: float = 2.0 * math.e,
) -> LongRangeStrength:
    """Pairwise static coupling strength sqrt(c * t0 * max_j sum_k ||H_jk||).

    Every term must carry an unordered pair label; the inner sum for qubit j
    runs over all pairs containing j. The returned value flags whether the
    regime condition eps^2 <= e holds (`within_validity`).
    """
    if not terms:
        raise ValueError("no Hamiltonian terms given")
    if t0 < 0 or c <= 0:
        raise ValueError("need t0 >= 0 and c > 0")
    row: dict[int, float] = {}
    for t in terms:
        if not isinstance(t.label, tuple):
            raise ValueError("long-range strength needs pair labels")
        nrm = operator_norm(t.op)
        for j in t.label:
            row[j] = row.get(j, 0.0) + nrm
    return LongRangeStrength(math.sqrt(c * t0 * max(row.values())))


@dataclass(eq=False)
class CorrelationGrid:
    """Discretized absolute two-point correlation of a Gaussian environment.

    `delta_abs[p, m1, q, m2]` samples |Delta| between grid cell p with Pauli
    index m1 and cell q with Pauli index m2; `cell_volume` is the measure of
    one (position, time) cell; `gate_regions[j]` lists the cells making up
    the spacetime region of gate j.
    """

    delta_abs: np.ndarray
    cell_volume: float
    gate_regions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.delta_abs, dtype=float)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[2] or arr.shape[1] != arr.shape[3]:
            raise ValueError(
                f"delta_abs must have shape (cells, paulis, cells, paulis), got {arr.shape}"
            )
        if np.any(arr < 0):
            raise ValueError("delta_abs entries must be nonnegative")
        if self.cell_volume <= 0:
            raise ValueError("cell_volume must be positive")
        regions = tuple(tuple(int(i) for i in r) for r in self.gate_regions)
        if not regions or any(not r for r in regions):
            raise ValueError("need at least one nonempty gate region")
        n_cells = arr.shape[0]
        for r in regions:
            for i in r:
                if not 0 <= i < n_cells:
                    raise ValueError(f"cell index {i} out of range")
        arr = arr.copy()
        arr.flags.writeable = False
        self.delta_abs = arr
        self.cell_volume = float(self.cell_volume)
        self.gate_regions = regions


def strength_gaussian(grid: CorrelationGrid, c: float = 2.0 * math.e) -> float:
    """Riemann-sum Gaussian noise strength on the user-supplied grid.

    eps_j^2 = c * sum over cells of region j and all cells of all regions of
    |Delta| * cell_volume^2, summed over both Pauli indices; the result is
    the square root of the largest eps_j^2.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    all_cells = sorted({i for r in grid.gate_regions for i in r})
    vol2 = grid.cell_volume**2
    # restrict the second cell axis once, then slice per region
    sub = grid.delta_abs[:, :, all_cells, :]
    worst = 0.0
    for region in grid.gate_regions:
        total = float(np.sum(sub[list(region)])) * vol2
        worst = max(worst, c * total)
    return math.sqrt(worst)


def strength_unitary_couplings(couplings: Iterable[np.ndarray]) -> float:
    """max ||N - I||_inf over joint system-environment coupling unitaries.

    This is the trivial-interaction-picture upper bound on the
    non-Markovian strength; the untracked minimization over interaction
    pictures can only make it smaller.
    """
    worst = 0.0
    seen = False
    for n in couplings:
        seen = True
        worst = max(worst, operator_norm(n - np.eye(len(n))))
    if not seen:
        raise ValueError("no couplings given")
    return worst


# -- JSON interchange ---------------------------------------------------------


def noise_spec_to_json(spec: NoiseSpec) -> dict:
    out: dict = {"kind": spec.kind}
    for name in ("delta_theta", "t0", "t1", "p"):
        val = getattr(spec, name)
        if val is not None:
            out[name] = val
    if spec.e_op is not None:
        out["e_op"] = matrix_to_json(spec.e_op)
    return out


def noise_spec_from_json(obj: Mapping) -> NoiseSpec:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ValueError("noise spec must be an object with a 'kind' tag")
    kind = obj["kind"]
    if kind == "control_rotation":
        return NoiseSpec.control_rotation(obj["delta_theta"])
    if kind == "amplitude_damping":
        return NoiseSpec.amplitude_damping(obj["t0"], obj["t1"])
    if kind == "probabilistic":
        return NoiseSpec.probabilistic(obj["p"], matrix_from_json(obj["e_op"]))
    if kind == "depolarizing":
        return NoiseSpec.depolarizing(obj["p"])
    raise ValueError(f"unknown noise kind {kind!r}")


def noise_map_from_json(obj: Mapping) -> dict[int, Channel]:
    """Per-location noise: {location index: noise spec + optional support}."""
    if not isinstance(obj, Mapping):
        raise ValueError("noise map must be an object keyed by location index")
    out: dict[int, Channel] = {}
    for key, entry in obj.items():
        out[int(key)] = make_noise_channel(noise_spec_from_json(entry), entry.get("support"))
    return out


def hamiltonian_terms_from_json(obj: Sequence) -> list[HamiltonianTerm]:
    """Terms as [{support, op, label}]; label an int or a two-int list."""
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise ValueError("expected a list of Hamiltonian terms")
    return [
        HamiltonianTerm(entry["support"], matrix_from_json(entry["op"]), entry["label"])
        for entry in obj
    ]


def correlation_grid_from_json(obj: Mapping) -> CorrelationGrid:
    """Grid as {delta_abs: nested 4-d array, cell_volume, gate_regions}."""
    if not isinstance(obj, Mapping):
        raise ValueError("correlation grid must be an object")
    return CorrelationGrid(
        delta_abs=np.asarray(obj["delta_abs"], dtype=float),
        cell_volume=float(obj["cell_volume"]),
        gate_regions=tuple(tuple(int(i) for i in r) for r in obj["gate_regions"]),
    )

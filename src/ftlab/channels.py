"""Completely positive trace-preserving maps in Kraus form.

A channel is one read-only (K, d, d) complex128 stack of Kraus operators,
its subsystem dims and an explicit `support`: the ambient subsystem labels
its Kraus factors refer to. Composition works over the union of the two
supports, so single-qubit noise composes with a multi-qubit gate without
manual kron bookkeeping; every consumer reads the stack directly.
Every other operator is a plain complex128 array: `choi_matrix` returns
one, and a noise spec, a Hamiltonian term or a coupling stores its operator
as a read-only array. The noise zoo is one table, `NOISE_KINDS`: each kind
maps to the `NoiseSpec` fields it takes and to a function of the spec that
returns its Kraus operators.

The diamond-norm distance is reported as a certified interval. The lower
end comes from restarted projected-gradient ascent over bipartite pure
states (reference copy of the input space, which is enough to attain the
maximum). Every upper end, each Markovian strength included, is one
feasible point sigma = R^-2 of Watrous's dual SDP, checked by an eigenvalue
test and rounded outward in one batched function, `_dual_bound`: R = I, and,
while the interval is open, the roots of a certificate built from the
ascent's own optimum. Exact SDP evaluation is out of scope by design.

The ascent works on the Kraus stacks of both channels concatenated into one
(K, d, d) array with a +1/-1 sign per operator, and on a batch of starts at
once; each start keeps its own step size and stopping state, and an objective
call costs it a reduced QR and an eigh of side min(K, d^2), not d^2. The
maximally entangled start runs first, then the Haar-random starts in batches
sized by `_ASCENT_CHUNK_BYTES`. The starts then count one by one: a start that
beats the best value while the interval is open is polished by fixed-point
steps (`_polish`) and certified, and the search returns once the interval is
closed, lower >= top*(1 - ASCENT_TOL), top the upper end before rounding.
A pair whose sigma = I bound, or whose first start's certificate, meets the
first start costs one ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .matcore import (
    VALIDATION_ATOL,
    checked_dims,
    embed_operator,
    is_hermitian,
    is_unitary,
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

    `kraus` is one read-only (K, d, d) complex128 array, d the product of
    the factor dimensions `dims`; `support` lists the ambient subsystem
    labels the Kraus factors act on, in the factor order of `dims`.
    """

    kraus: np.ndarray
    dims: tuple[int, ...]
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = checked_dims(self.dims)
        ks = read_only(self.kraus)
        d = math.prod(dims)
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
        if not np.max(np.abs(acc - np.eye(d))) <= VALIDATION_ATOL:  # NaN fails too
            raise ValueError("Kraus operators are not trace preserving")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_kraus(
        cls,
        ops: Sequence[np.ndarray] | np.ndarray,
        dims: Sequence[int] | None = None,
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
        dims: Sequence[int] | None = None,
        support: Sequence[int] | None = None,
    ) -> "Channel":
        """One Kraus operator; trace preservation makes it unitary."""
        return cls.from_kraus([u], dims, support)

    @classmethod
    def identity(
        cls,
        dims: Sequence[int],
        support: Sequence[int] | None = None,
    ) -> "Channel":
        dims = checked_dims(dims)
        return cls.from_kraus([np.eye(math.prod(dims))], dims, support)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _kraus_on(ch: Channel, labels: tuple[int, ...]) -> np.ndarray:
    """Kraus stack on the subsystems `labels`: as it is when it acts on all
    of them in that order, else embedded into the qubits `labels`."""
    positions = tuple(labels.index(s) for s in ch.support)
    if positions == tuple(range(len(labels))):
        return ch.kraus
    return np.stack([embed_operator(k, positions, len(labels)) for k in ch.kraus])


def compose_channels(later: Channel, earlier: Channel) -> Channel:
    """Channel applying `earlier` first, then `later`.

    Supports may differ; both are then embedded into the qubits of the union
    of their ambient labels (a channel on other factors composes only with
    one on its own support, in its order). The Kraus set of the composite
    is the full pairwise product, and trace preservation is re-verified on
    construction.
    """
    local: dict[int, int] = {}
    for ch in (later, earlier):
        for s, d in zip(ch.support, ch.dims):
            if local.setdefault(s, d) != d:
                raise ValueError(f"channels disagree on dim of subsystem {s}")
    labels = tuple(sorted(local))
    dims = checked_dims(local[s] for s in labels)
    d = math.prod(dims)
    prods = _kraus_on(later, labels)[:, None] @ _kraus_on(earlier, labels)[None]
    return Channel(prods.reshape(-1, d, d), dims, labels)


# ---------------------------------------------------------------------------
# Choi matrix and diamond distance
# ---------------------------------------------------------------------------


def choi_matrix(ch: Channel) -> np.ndarray:
    """Choi operator: the channel applied to one half of the unnormalized
    maximally entangled state. Output factors first, reference copy second,
    so its subsystem dims are ch.dims twice. Trace equals the input
    dimension; tracing out the output factors gives the identity on the
    reference copy. A Choi matrix over DIM_CAP is refused before it is built.
    """
    checked_dims(ch.dims * 2)
    v = ch.kraus.reshape(len(ch.kraus), -1)  # row k: (K_k ⊗ I) applied to sum_i |i>|i>
    return v.T @ v.conj()


class DiamondInterval(NamedTuple):
    lower: float
    upper: float


# Batch budget in bytes of one (B, d^2, d^2) complex array: B random starts of the
# ascent, which per start holds (d^2, K) and min(K, d^2)-sided arrays, not the
# d^2 x d^2 operator, or B Choi differences of `noise_strengths`.
_ASCENT_CHUNK_BYTES = 64 << 20

# Relative-improvement stopping threshold of the ascent; the interval counts as
# closed once lower >= top * (1 - ASCENT_TOL), top the upper end before rounding,
# since the rounding margin exceeds ASCENT_TOL * top at small distances.
ASCENT_TOL = 1e-10

# Fixed-point steps of `_polish`, and the regularisations eps of the certificate's
# sigma = (rho + eps I)^-1; the smallest bound over them wins.
_POLISH_STEPS = 4
_CERT_EPS = np.array([1e-4, 1e-6, 1e-8, 1e-10])
# Roundoff margin of `_dual_bound`: c in c d^3 u (||Y||_F + 2d), u the unit roundoff.
_CERT_MARGIN = 4.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _dual_bound(delta_j, roots=None):
    """Certified upper bounds on the diamond distance from feasible points
    of Watrous's dual SDP, and the same bounds before their rounding.

    `delta_j` is a (B, d^2, d^2) stack of Choi differences dJ on (output ⊗
    reference), or one (1, d^2, d^2) difference that all B roots share;
    `roots` is a pair (R, R^-1) of (B, d, d) stacks of positive roots on the
    reference factor, or None for R = I. With M = (I⊗R) dJ (I⊗R) and
    Y = (I⊗R^-1) |M| (I⊗R^-1), Y ± dJ = (I⊗R^-1)(|M| ± M)(I⊗R^-1) ⪰ 0, so
    top = lambda_max(Tr_out Y) bounds the diamond distance (the dual point
    sigma = R^-2; R = I gives Y = |dJ|). The bound is rounded outward:
    eta = max(0, -lambda_min(Y ∓ dJ)) makes Y + eta I feasible, adding d eta,
    and the margin c d^3 u (||Y||_F + 2d), u the unit roundoff, covers the
    error of those eigenvalues and of dJ itself, a difference of two Choi
    matrices of norm at most d each. Returns (top, bound), two (B,) arrays;
    the bound is capped at 2, and is exactly 0 where dJ is exactly zero.
    """
    d = math.isqrt(delta_j.shape[-1])
    m = delta_j
    if roots is not None:  # I ⊗ R and I ⊗ R^-1 for each R of the stack, (B, d^2, d^2) each
        eye = np.eye(d)[:, None, :, None]
        root, root_inv = ((eye * r[:, None, :, None, :]).reshape(-1, d * d, d * d) for r in roots)
        m = root @ delta_j @ root
    w, v = np.linalg.eigh(m)
    y = (v * np.abs(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    if roots is not None:
        y = root_inv @ y @ root_inv
    y = 0.5 * (y + y.conj().swapaxes(1, 2))
    eta = np.maximum(0.0, -np.linalg.eigvalsh(np.stack([y - delta_j, y + delta_j]))[..., 0].min(0))
    reduced = np.einsum(y.reshape(-1, d, d, d, d), [4, 0, 1, 0, 2], [4, 1, 2])  # Tr_out Y
    top = np.linalg.eigvalsh(reduced)[:, -1]
    margin = _CERT_MARGIN * d**3 * _UNIT_ROUNDOFF * (np.linalg.norm(y, axis=(1, 2)) + 2 * d)
    bound = np.minimum(2.0, top + d * eta + margin)
    return top, np.where(np.any(delta_j != 0, axis=(1, 2)), bound, 0.0)


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


def _ascend(kraus, signs, psi, max_iter=400):
    """Projected-gradient ascent from each row of `psi` (R, d^2); returns the
    final values (R,) and the final unit states (R, d^2).

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
            active[acc[gain <= ASCENT_TOL * np.maximum(f[acc], 1e-30)]] = False
            idx, r = idx[~up], r[~up]
            step[idx] *= 0.5
            spent = step[idx] < 1e-12
            active[idx[spent]] = False
            idx, r = idx[~spent], r[~spent]
    return f, psi


def _polish(kraus, signs, psi, f):
    """One start `psi` (d^2,) of value `f`, raised by fixed-point steps.

    With S the sign operator of X(psi) = ((A - B) ⊗ I)(|psi><psi|), each step
    moves psi to the top eigenvector of H_S = sum_k s_k (K_k ⊗ I)^dag S (K_k ⊗ I).
    <phi|H_S|phi> = Tr S X(phi) is at most ||X(phi)||_1 for every phi and
    equals f at psi, so no step lowers the value; a step that does not raise
    it ends the polish. Returns the final (psi, value).
    """
    n, d, _ = kraus.shape
    lift = np.kron(kraus, np.eye(d))  # K_k ⊗ I on (input ⊗ reference), (K, d^2, d^2)
    signed = (lift * signs[:, None, None]).reshape(n * d * d, d * d).conj().T
    for _ in range(_POLISH_STEPS):
        v = lift @ psi
        w, u = np.linalg.eigh((v.T * signs) @ v.conj())
        # X has rank at most K: eigenvalues at roundoff size are its null space, sign 0
        sign = np.sign(w) * (np.abs(w) > d * d * _UNIT_ROUNDOFF * np.max(np.abs(w)))
        s = (u * sign) @ u.conj().T
        h = signed @ (s @ lift).reshape(n * d * d, d * d)
        cand = np.linalg.eigh(h)[1][:, -1]
        f2 = float(_objective(kraus, signs, cand[None])[0][0])
        if not f2 > f:
            break
        psi, f = cand, f2
    return psi, f


def _cert_roots(psi):
    """Roots (R, R^-1) of the certificate on the start `psi`, one per eps of
    `_CERT_EPS`: with T = Psi^T (Psi the d x d input x reference array of
    psi), the output is X(psi) = (I⊗T) dJ (I⊗T^dag), rho = T^dag T is psi's
    reduced state transposed onto dJ's reference factor, and R =
    (rho + eps I)^1/2. The dual point sigma = (rho + eps I)^-1 is tight as
    eps -> 0 when psi is optimal with full-rank rho.
    """
    d = math.isqrt(len(psi))
    t = psi.reshape(d, d).T
    w, u = np.linalg.eigh(t.conj().T @ t)
    root = np.sqrt(np.maximum(w, 0.0) + _CERT_EPS[:, None])[:, None, :]
    return (u * root) @ u.conj().T, (u / root) @ u.conj().T


def _haar_start(seed: int, i: int, d: int) -> np.ndarray:
    rng = np.random.default_rng([seed, i])
    return rng.normal(size=d * d) + 1j * rng.normal(size=d * d)


def diamond_distance(
    a: Channel,
    b: Channel,
    restarts: int = 32,
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
        `_ASCENT_CHUNK_BYTES // (16 d^4)` starts. The upper end starts as
        the sigma = I bound. While the interval is open, each start that
        beats the best value so far, the first one included, is polished
        (`_polish`: no step lowers its value) and certified: the dual points
        sigma = (rho + eps I)^-1 from its reduced state rho (`_cert_roots`)
        go to `_dual_bound` as one stack, and the upper end becomes the
        smallest rounded bound. The search returns as soon as the interval
        is closed, `lower >= top * (1 - ASCENT_TOL)`, top the smallest bound
        before rounding, checked before each start counts, so an interval
        that the first start closes costs one ascent; the starts count in
        order, so the result does not depend on the batch size.
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
    d = a.dim
    delta_j = (choi_matrix(a) - choi_matrix(b))[None]
    top, upper = (float(x[0]) for x in _dual_bound(delta_j))
    if upper == 0.0:  # the Choi matrices are equal
        return DiamondInterval(0.0, 0.0)
    kraus = np.concatenate([a.kraus, b.kraus])
    signs = np.repeat([1.0, -1.0], [len(a.kraus), len(b.kraus)])
    entangled = np.eye(d, dtype=np.complex128).reshape(1, -1) / math.sqrt(d)
    chunk = max(1, _ASCENT_CHUNK_BYTES // (16 * d**4))
    best = -math.inf

    def is_open() -> bool:
        return best < top * (1.0 - ASCENT_TOL)

    def batches():  # the entangled start alone, then the Haar starts in chunks
        yield entangled
        for first in range(1, restarts, chunk):
            last = min(first + chunk, restarts)
            yield np.stack([_haar_start(seed, i, d) for i in range(first, last)])

    for starts in batches():
        f, psi = _ascend(kraus, signs, starts)
        # the starts count one by one, so the result does not depend on the batch size
        for value, start in zip(f, psi):
            if value > best and is_open():
                best = float(value)
                if is_open():
                    start, best = _polish(kraus, signs, start, best)
                    tops, bounds = _dual_bound(delta_j, _cert_roots(start))
                    top, upper = min(top, float(tops.min())), min(upper, float(bounds.min()))
        if not is_open():  # before the next batch's starts are drawn
            break
    return DiamondInterval(min(best, upper), upper)


# ---------------------------------------------------------------------------
# Noise zoo
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Parameter record for the noise models of `NOISE_KINDS`; `e_op` is
    stored as a read-only complex128 array."""

    kind: str
    delta_theta: float | None = None
    t0: float | None = None
    t1: float | None = None
    p: float | None = None
    e_op: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.e_op is not None:
            object.__setattr__(self, "e_op", read_only(self.e_op))
        fields = NOISE_KINDS[self.kind][0]
        if any(getattr(self, f) is None for f in fields):
            raise ValueError(f"{self.kind} needs {' and '.join(fields)}")
        if "t0" in fields and (self.t0 < 0 or self.t1 <= 0):
            raise ValueError("need t0 >= 0 and t1 > 0")
        if "p" in fields and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p out of range: {self.p}")
        if "e_op" in fields and not is_unitary(self.e_op):
            raise ValueError("e_op must satisfy E^dag E = I")

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


def _damping(g: float) -> list[np.ndarray]:
    return [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]]),
            np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])]


NOISE_KINDS = {  # kind: (the NoiseSpec fields it takes, its Kraus operators from a spec)
    "control_rotation": (  # exp(i th Z)
        ("delta_theta",),
        lambda s: [np.diag([np.exp(1j * s.delta_theta), np.exp(-1j * s.delta_theta)])],
    ),
    "amplitude_damping": (("t0", "t1"), lambda s: _damping(s.gamma)),
    "probabilistic": (
        ("p", "e_op"),
        lambda s: [math.sqrt(1.0 - s.p) * np.eye(len(s.e_op)), math.sqrt(s.p) * s.e_op],
    ),
    "depolarizing": (
        ("p",),
        lambda s: [math.sqrt(1.0 - s.p) * np.eye(2)]
        + [math.sqrt(s.p / 3.0) * m for m in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
    ),
}


def make_noise_channel(spec: NoiseSpec, support: Sequence[int] | None = None) -> Channel:
    """Instantiate a noise model of `NOISE_KINDS` as a Channel: on qubit
    factors when its side is a power of two, as one factor otherwise."""
    ks = NOISE_KINDS[spec.kind][1](spec)
    k = len(ks[0]).bit_length() - 1  # a 2^k-sided operator acts on k qubits
    return Channel.from_kraus(ks, qubit_dims(k) if len(ks[0]) == 2**k else None, support)


# ---------------------------------------------------------------------------
# Noise-strength evaluators
# ---------------------------------------------------------------------------


def strength_markovian(noisy: Channel, ideal: Channel) -> float:
    """Certified noise strength of a noisy location against its ideal.

    The sigma = I bound of `_dual_bound`, rounded outward, on the diamond
    distance of the two channels, which must share dims and support. Up to
    its rounding it equals the strength of the noise factor noisy ∘ ideal^-1
    against the identity when the ideal is unitary: composing with a unitary
    on the input conjugates the Choi difference by a unitary on the
    reference factor, which keeps the spectrum of Tr_out |dJ|.

    Returns the certified upper end of the diamond interval, so every
    downstream inequality of the form delta <= L * eps stays valid.
    """
    if noisy.dims != ideal.dims or noisy.support != ideal.support:
        raise ValueError("channels must share dims and support")
    return float(_dual_bound((choi_matrix(noisy) - choi_matrix(ideal))[None])[1][0])


def noise_strengths(noise: Sequence[Channel]) -> list[float]:
    """Certified strength of each noise channel against the identity on its
    factors, `strength_markovian(ch, Channel.identity(ch.dims, ch.support))`
    bit for bit.

    The Choi matrix vec(I)vec(I)^dag of the identity is built once per
    dimension, and the differences of one dimension share one batched bound,
    in stacks of at most `_ASCENT_CHUNK_BYTES`.
    """
    out = [0.0] * len(noise)
    by_dim: dict[int, list[int]] = {}
    for i, ch in enumerate(noise):
        by_dim.setdefault(ch.dim, []).append(i)
    for d, members in by_dim.items():
        checked_dims(noise[members[0]].dims * 2)  # refused before the identity's Choi is built
        vec_eye = np.eye(d, dtype=np.complex128).reshape(1, -1)
        ideal = vec_eye.T @ vec_eye  # as `choi_matrix` builds it for the identity
        chunk = max(1, _ASCENT_CHUNK_BYTES // (16 * d**4))
        for first in range(0, len(members), chunk):
            part = members[first : first + chunk]
            deltas = np.stack([choi_matrix(noise[i]) for i in part]) - ideal
            for i, bound in zip(part, _dual_bound(deltas)[1]):
                out[i] = float(bound)
    return out


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
        d = math.prod(qubit_dims(len(support)))
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
    d = math.prod(qubit_dims(len(labels)))
    acc = np.zeros((d, d), dtype=np.complex128)
    for t in terms:
        positions = tuple(labels.index(s) for s in t.support)
        acc += embed_operator(t.op, positions, len(labels))
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
        if not np.all(arr >= 0):  # NaN fails too
            raise ValueError("delta_abs entries must be nonnegative")
        if not self.cell_volume > 0:
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

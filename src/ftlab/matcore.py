"""Dense complex linear algebra over explicit tensor-factor structure.

Everything downstream (channels, circuit simulation, fault-path sums) works
with operators on a tensor product of small subsystems. This module pins the
conventions once: an operator is a plain row-major complex128 ndarray, its
per-subsystem dimensions travel as a `SubsystemDims` passed to the functions
that need them (`partial_trace`, `apply_local`, `embed_operator`), and a hard
cap on the total dimension keeps a desk-scale run from silently allocating
gigabytes. Local operators act on states and density matrices through
`apply_local`, which contracts only the axes they touch (a Kraus stack, or
for a matrix its `superoperator`); `embed_operator` builds the full-space
matrix where one is really needed. A measurement read-out is a plain
float64 array of outcome probabilities.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Total Hilbert-space dimension cap (12 qubits).
DIM_CAP = 2**12

# Tolerances used by validation predicates. VALIDATION_ATOL is the one
# tolerance of the 1e-10 checks: unit trace, unitarity, trace preservation,
# projectors, normalized states and read-out probabilities that sum to 1.
HERMITIAN_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-12
VALIDATION_ATOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a requested object would exceed DIM_CAP."""


# ---------------------------------------------------------------------------
# Subsystem bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemDims:
    """Ordered local dimensions of a tensor-product space.

    An empty tuple is the scalar space (total dimension 1); it shows up as
    the result of tracing out every subsystem.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 2 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {self.dims}")
        if self.total > DIM_CAP:
            raise DimensionCapError(
                f"total dimension {self.total} exceeds cap {DIM_CAP}"
            )

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def restrict(self, keep: Iterable[int]) -> "SubsystemDims":
        """Dims of the subsystems in `keep`, original order preserved."""
        kept = sorted(set(int(i) for i in keep))
        for i in kept:
            if not 0 <= i < len(self.dims):
                raise ValueError(f"subsystem index {i} out of range for {self.dims}")
        return SubsystemDims(tuple(self.dims[i] for i in kept))


def qubit_dims(n: int) -> SubsystemDims:
    """n qubit factors."""
    if n < 0:
        raise ValueError("qubit count must be >= 0")
    return SubsystemDims((2,) * n)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def read_only(x) -> np.ndarray:
    """A read-only complex128 copy of `x`: how value types store operators."""
    arr = np.array(x, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def is_hermitian(x: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.max(np.abs(x - x.conj().T)) <= atol)


def is_density(x: np.ndarray) -> bool:
    """Hermitian within 1e-12, eigenvalues >= -1e-12, trace 1 within 1e-10."""
    if not is_hermitian(x):
        return False
    if abs(np.trace(x) - 1.0) > VALIDATION_ATOL:
        return False
    return bool(np.min(np.linalg.eigvalsh(x)) >= PSD_EIG_FLOOR)


def is_unitary(x: np.ndarray, atol: float = VALIDATION_ATOL) -> bool:
    g = x.conj().T @ x
    return bool(np.max(np.abs(g - np.eye(len(g)))) <= atol)


def partial_trace(
    x: np.ndarray, keep: Iterable[int], dims: SubsystemDims | Sequence[int]
) -> np.ndarray:
    """Trace out every subsystem of `x`, factored as `dims`, not listed in `keep`.

    The result's factors appear in their original order regardless of the
    order of `keep`. Keeping everything returns `x` reshaped, not a copy;
    keeping nothing yields the 1x1 matrix holding the full trace.
    """
    dims = SubsystemDims(dims)
    n = len(dims)
    kept = sorted(set(int(i) for i in keep))
    side = dims.restrict(kept).total  # rejects an index out of range
    kept_set = set(kept)
    t = np.asarray(x, dtype=np.complex128).reshape(dims.dims * 2)
    row_labels = list(range(n))
    col_labels = [i if i not in kept_set else n + i for i in range(n)]
    out_labels = kept + [n + i for i in kept]
    reduced = np.einsum(t, row_labels + col_labels, out_labels)
    return reduced.reshape(side, side)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values via Hermitian eigendecomposition.

    Hermitian inputs (the usual case: densities, differences of densities)
    use |eig(M)| directly; squaring through M^dag M would cost half the
    available precision near zero.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if is_hermitian(arr):
        return np.sort(np.abs(np.linalg.eigvalsh(arr)))[::-1]
    w = np.linalg.eigvalsh(arr.conj().T @ arr)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(m)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    sv = singular_values(m)
    return float(sv[0]) if sv.size else 0.0


def kolmogorov_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of |p - q| over two outcome-probability arrays of the same shape,
    rounded once by `math.fsum`, so no summation order can move it."""
    if np.shape(p) != np.shape(q):
        raise ValueError(f"outcome arrays differ in shape: {np.shape(p)} vs {np.shape(q)}")
    return math.fsum(np.abs(np.subtract(p, q)))


def _local_setup(op: np.ndarray, support: Sequence[int], dims: SubsystemDims | Sequence[int]):
    """Validated (op as complex128, support, all dims, support dims) for a
    local operator (or a stack of them) factoring over `support`."""
    dims = SubsystemDims(dims)
    support = tuple(int(i) for i in support)
    if len(set(support)) != len(support):
        raise ValueError(f"support has duplicates: {support}")
    for i in support:
        if not 0 <= i < len(dims):
            raise ValueError(f"support index {i} out of range for {dims.dims}")
    op = np.asarray(op, dtype=np.complex128)
    sup_dims = tuple(dims[i] for i in support)
    d_sup = math.prod(sup_dims)
    if op.shape[-2:] != (d_sup, d_sup):
        raise ValueError(
            f"operator shape {op.shape[-2:]} does not match support dims {d_sup}"
        )
    return op, support, dims.dims, sup_dims


def _contract(op: np.ndarray, t: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract the input half of `op`'s axes with the `axes` of `t`; the
    outputs take the place of the contracted axes."""
    k = len(axes)
    out = np.tensordot(op, t, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes)


def embed_operator(
    op: np.ndarray,
    support: Sequence[int],
    total_dims: SubsystemDims | Sequence[int],
) -> np.ndarray:
    """Place `op`, acting on the ordered subsystems `support`, into the full
    space, identity elsewhere.

    `support` lists which global subsystems the rows/cols of `op` refer to,
    in op's own factor order. Duplicate indices are rejected.
    """
    op, support, dims, sup_dims = _local_setup(op, support, total_dims)
    d = math.prod(dims)
    eye = np.eye(d, dtype=np.complex128).reshape(dims * 2)
    full = _contract(op.reshape(sup_dims * 2), eye, list(support))
    return np.ascontiguousarray(full.reshape(d, d))


def superoperator(ks: np.ndarray) -> np.ndarray:
    """The map x -> sum_k K_k x K_k^dag of a (K, d, d) Kraus stack, as a
    (d, d, d, d) array with axes (out_row, out_col, in_row, in_col)."""
    ks = np.asarray(ks, dtype=np.complex128)
    return np.einsum("kab,kcd->acbd", ks, ks.conj())


def apply_local(
    x: np.ndarray,
    ops: Sequence[np.ndarray],
    support: Sequence[int],
    dims: SubsystemDims | Sequence[int],
) -> np.ndarray:
    """sum_k K_k x K_k^dag with every K_k acting on the subsystems `support`.

    Axis convention: `x` has side prod(dims) and is viewed with one axis per
    subsystem in `dims` order, row-major (subsystem 0 most significant),
    row axes first, then column axes. Each K_k factors over `support` in
    the order listed, as in `embed_operator`: support (2, 0) makes
    subsystem 2 the most significant factor of K_k. Only the support axes
    are contracted, so a matrix costs O(d^2 d_sup^2), not O(d^3).

    A 1-D `x` is a state vector and takes the left action only,
    sum_k K_k x. For a matrix `x`, `ops` may instead be any linear map on
    the support as a (d_sup, d_sup, d_sup, d_sup) array, laid out as
    `superoperator` returns it. `dims` may be any subsystem dimensions, not
    just qubits. The result has the shape of `x`.
    """
    ks, support, dims, sup_dims = _local_setup(ops, support, dims)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape != (math.prod(dims),) * x.ndim:
        raise ValueError(f"shape {x.shape} is neither a vector nor a matrix on {dims}")
    if ks.ndim == 4 and x.ndim == 1:
        raise ValueError("a superoperator acts on a matrix, not a state vector")
    if x.ndim == 1:
        op, axes = ks.sum(axis=0), list(support)
    else:
        op = ks if ks.ndim == 4 else superoperator(ks)
        axes = list(support) + [len(dims) + i for i in support]
    op = op.reshape(sup_dims * (2 * x.ndim))
    return _contract(op, x.reshape(dims * x.ndim), axes).reshape(x.shape)


# -- JSON interchange ---------------------------------------------------------
# Complex arrays travel as flat row-major lists of [re, im] pairs.


def complex_pairs(a: np.ndarray) -> np.ndarray:
    """Row-major `(size, 2)` float64 array of `[re, im]` rows: the JSON form as an array."""
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return complex_pairs(v).tolist()


def vector_from_json(obj) -> np.ndarray:
    """Complex128 vector from a list of `[re, im]` pairs of finite JSON numbers.

    The pairs are read in bulk. A string, null or nested entry, a pair of
    another length, a non-finite entry or an int beyond float range is
    refused; bools read as 0 and 1.
    """
    try:
        if set(map(len, obj)) - {2}:
            raise ValueError("a pair must have two entries")
        # array("d") takes ints, floats and bools only, so a string or null is refused
        flat = np.frombuffer(array("d", chain.from_iterable(obj)), np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected a list of [re, im] pairs: {exc}") from None
    if not np.isfinite(flat).all():
        raise ValueError("expected a list of [re, im] pairs of finite numbers")
    return flat


def matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return complex_pairs(m).tolist()


def matrix_from_json(obj) -> np.ndarray:
    """Square complex128 matrix; an empty one or a side over DIM_CAP is refused."""
    flat = vector_from_json(obj)
    side = math.isqrt(flat.size)
    if side * side != flat.size:
        raise ValueError(f"{flat.size} entries do not fill a square matrix")
    if side != 1:
        SubsystemDims((side,))  # as one factor: refuses side 0 and a side over DIM_CAP
    return flat.reshape(side, side)

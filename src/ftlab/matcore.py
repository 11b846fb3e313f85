"""Dense complex linear algebra on qubit registers.

Everything downstream (channels, circuit simulation, fault-path sums) works
with operators on a register of qubits. This module pins the conventions
once: an operator is a plain row-major complex128 ndarray of side 2^n, and
the kernels (`partial_trace`, `apply_local`) read n from the array's last
axis, while `embed_operator` takes it as an argument. A hard cap on the
total dimension keeps a desk-scale run from silently allocating gigabytes:
`qubit_dims` refuses an over-cap register, `checked_dims` an over-cap tuple
of factor dimensions (a `Channel`'s) and, through it, `superoperator`
refuses a map whose d^2 side exceeds the cap. `apply_local` contracts
only the axes a local map touches: one operator maps a stack of kets, a
Kraus stack or a superoperator a stack of matrices. Each call is one
permuted matmul (`_matmul_on_axes`): a transpose bringing the touched axes
first, one `np.dot` with the map as a matrix, and a transpose back.
`embed_operator` builds the full-space matrix where one is really needed,
by the same matmul on the identity.
A measurement read-out is a plain float64 array of outcome probabilities.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Total Hilbert-space dimension cap (12 qubits).
DIM_CAP = 2**12

# Tolerances used by validation predicates. VALIDATION_ATOL is the one
# tolerance of the 1e-10 checks: unit trace, unitarity, trace preservation,
# projectors, normalized states and read-out probabilities that sum to 1.
HERMITIAN_ATOL = 1e-12
VALIDATION_ATOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a requested object would exceed DIM_CAP."""


# ---------------------------------------------------------------------------
# Dimension checks
# ---------------------------------------------------------------------------


def checked_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """`dims` as a tuple of subsystem dimensions, each >= 2, whose product is
    at most DIM_CAP. The empty tuple is the scalar space."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
    if math.prod(dims) > DIM_CAP:
        raise DimensionCapError(f"total dimension {math.prod(dims)} exceeds cap {DIM_CAP}")
    return dims


def qubit_dims(n: int) -> tuple[int, ...]:
    """n qubit factors; an over-cap n is refused before any factor is built."""
    if n < 0:
        raise ValueError("qubit count must be >= 0")
    if n >= DIM_CAP.bit_length():
        total = 2**n if n < 64 else f"2^{n}"  # a huge 2^n is not spelled out
        raise DimensionCapError(f"total dimension {total} exceeds cap {DIM_CAP}")
    return (2,) * n


def _qubit_count(x: np.ndarray) -> int:
    """n for an array whose last axis has side 2^n; any other side is refused."""
    side = x.shape[-1]
    n = side.bit_length() - 1
    if side != 2**n:
        raise ValueError(f"side {side} is not a power of two")
    return n


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def read_only(x) -> np.ndarray:
    """A read-only complex128 copy of `x`: how value types store operators."""
    arr = np.array(x, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def is_hermitian(x: np.ndarray) -> bool:
    return bool(np.max(np.abs(x - x.conj().T)) <= HERMITIAN_ATOL)


def is_unitary(x: np.ndarray) -> bool:
    g = x.conj().T @ x
    return bool(np.max(np.abs(g - np.eye(len(g)))) <= VALIDATION_ATOL)


def partial_trace(x: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit of the matrix `x` not listed in `keep`.

    The result's qubits appear in their original order regardless of the
    order of `keep`. Keeping everything returns `x` reshaped, not a copy;
    keeping nothing yields the 1x1 matrix holding the full trace.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = _qubit_count(x)
    if x.shape != (2**n, 2**n):
        raise ValueError(f"shape {x.shape} is not a square matrix")
    kept = sorted(set(int(i) for i in keep))
    for i in kept:
        if not 0 <= i < n:
            raise ValueError(f"qubit index {i} out of range for {n} qubits")
    kept_set = set(kept)
    row_labels = list(range(n))
    col_labels = [i if i not in kept_set else n + i for i in range(n)]
    out_labels = kept + [n + i for i in kept]
    reduced = np.einsum(x.reshape((2,) * (2 * n)), row_labels + col_labels, out_labels)
    return reduced.reshape(2 ** len(kept), 2 ** len(kept))


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values via Hermitian eigendecomposition.

    Hermitian inputs (the usual case: densities, differences of densities)
    use |eig(M)| directly; squaring through M^dag M would cost half the
    available precision near zero. Only M[S, S] (S: nonzero rows or columns) is
    decomposed, then zero-padded to length d; exact, as M is 0 off S x S.
    """
    arr = np.asarray(m, dtype=np.complex128)
    s = np.flatnonzero(arr.any(axis=0) | arr.any(axis=1))
    if s.size < len(arr):
        w = singular_values(arr[np.ix_(s, s)]) if s.size else np.zeros(0)
        return np.pad(w, (0, len(arr) - s.size))
    del s  # a dense input then peaks no higher than without the support check
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


def _local_setup(op: np.ndarray, support: Sequence[int], n: int):
    """Validated (op as complex128, support) for a local operator (or a
    stack of them) on the qubits `support` of an n-qubit register."""
    support = tuple(int(i) for i in support)
    if len(set(support)) != len(support):
        raise ValueError(f"support has duplicates: {support}")
    for i in support:
        if not 0 <= i < n:
            raise ValueError(f"support index {i} out of range for {n} qubits")
    op = np.asarray(op, dtype=np.complex128)
    d_sup = 2 ** len(support)
    if op.shape[-2:] != (d_sup, d_sup):
        raise ValueError(f"operator shape {op.shape[-2:]} does not match support side {d_sup}")
    return op, support


def _matmul_on_axes(op: np.ndarray, t: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """The (2^k, 2^k) matrix `op` applied to the k side-2 `axes` of t, the
    first of them most significant; the outputs take their place.

    One transpose brings `axes` first, in the order `tensordot` would build,
    one `np.dot` maps the (2^k, rest) view, and one transpose by the inverse
    permutation puts the axes back.
    """
    order = [*axes, *(a for a in range(t.ndim) if a not in axes)]
    inverse = sorted(range(t.ndim), key=order.__getitem__)
    moved = t.transpose(order)
    out = np.dot(op, moved.reshape(len(op), -1))
    return out.reshape(moved.shape).transpose(inverse)


def embed_operator(op: np.ndarray, support: Sequence[int], n: int) -> np.ndarray:
    """Place `op`, acting on the ordered qubits `support`, into the space of
    n qubits, identity elsewhere.

    `support` lists which qubits the rows/cols of `op` refer to, in op's
    own factor order. Duplicate indices are rejected.
    """
    qubit_dims(n)  # an over-cap register is refused before its identity is built
    op, support = _local_setup(op, support, n)
    eye = np.eye(2**n, dtype=np.complex128).reshape((2,) * (2 * n))
    full = _matmul_on_axes(op, eye, support)
    return np.ascontiguousarray(full.reshape(2**n, 2**n))


def superoperator(ks: np.ndarray) -> np.ndarray:
    """The map x -> sum_k K_k x K_k^dag of a (K, d, d) Kraus stack, as a
    (d, d, d, d) array with axes (out_row, out_col, in_row, in_col). A map
    whose d^2 exceeds DIM_CAP is refused before it is built."""
    ks = np.asarray(ks, dtype=np.complex128)
    d = ks.shape[-1]
    checked_dims((d, d) if d > 1 else ())
    return np.einsum("kab,kcd->acbd", ks, ks.conj())


def apply_local(x: np.ndarray, ops: np.ndarray, support: Sequence[int]) -> np.ndarray:
    """`ops` acting on the qubits `support` of every state of the stack `x`.

    `ops` is read by its shape. One operator K, (d_sup, d_sup), maps every
    ket of x, shape (..., 2^n), to K x. A Kraus stack, (K, d_sup, d_sup),
    maps every matrix of x, shape (..., 2^n, 2^n), to sum_k K_k x K_k^dag;
    any linear map on the support, as a (d_sup, d_sup, d_sup, d_sup) array
    laid out as `superoperator` returns it, maps them too. Any other pairing
    of shapes is refused. The result has the shape of `x`.

    Axis convention: n is read from x's last axis, and a state is viewed
    with one axis per qubit, row-major (qubit 0 most significant), a
    matrix's row axes before its column axes. K factors over `support` in
    the order listed, as in `embed_operator`: support (2, 0) makes qubit 2
    the most significant factor. Only the support axes are contracted, so
    a matrix costs O(d^2 d_sup^2), not O(d^3): one permuted matmul, the map
    as a (d_sup^m, d_sup^m) matrix times x's support axes as rows.
    """
    x = np.asarray(x, dtype=np.complex128)
    ops = np.asarray(ops, dtype=np.complex128)
    m = 1 if ops.ndim == 2 else 2  # axes per state: a ket's one, a matrix's two
    if not 2 <= ops.ndim <= 4 or x.ndim < m or x.shape[-m:] != x.shape[-1:] * m:
        raise ValueError(f"operators of shape {ops.shape} do not act on shape {x.shape}")
    n = _qubit_count(x)
    op, support = _local_setup(ops, support, n)
    if op.ndim == 3:
        op = superoperator(op)
    lead = x.shape[:-m]
    axes = [len(lead) + i + n * j for j in range(m) for i in support]
    op = op.reshape(2 ** len(axes), 2 ** len(axes))
    return _matmul_on_axes(op, x.reshape(lead + (2,) * (n * m)), axes).reshape(x.shape)

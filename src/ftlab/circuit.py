"""Step-structured qubit circuits and their simulators.

A circuit is a flat list of locations (state preparations, gates,
projective measurements, and explicit identity/storage slots) tagged with
time steps, plus its read-out: the tuple of qubits measured in Z at the
end. Each location carries its operation as one local Kraus stack on its
support. Every state evolves in one walker, ``_walk(c, after, env)``, which
applies each location's stack with ``matcore.apply_local`` and then the
entry of the table ``after`` for that location, its noise as data: nothing
in ``simulate_ideal``, the channel N in ``simulate_noisy``, the fault
insertion N - I on the chosen locations in ``faultpaths.zeta_subset`` /
``zeta_earliest``, and a coupling to explicit environment qubits, a
one-operator ``Channel``, in ``simulate_with_environment``, which walks a
joint system-environment pure state for noise that independent
per-location channels cannot describe; ``_noise_terms`` builds every table.
Classical control is handled in the walker, once for all four callers: a
measurement that a later gate is conditioned on splits the walk into one
outcome record per outcome, a conditioned gate acts only on the records
with its outcome, and the records are joined once no gate reads that
outcome. A record holds a density matrix, and joining sums them, or in the
environment run a ket stack, one array whose rows psi stand for the sum of
|psi><psi|: a ket has no non-selective sum, so an unread measurement's
nonzero parts, like a prep's, become rows, and joining concatenates them.

The walk is lazy: its state spans only the active qubits, those some
location other than a prep has touched, and every other qubit is a small
pending block (a prep's state, or |0>) tensored in by one broadcast
product (``_tensor``) when a location first needs it, so a GHZ chain grows
the state by one qubit per CNOT. The walk returns its state on all qubits,
in global qubit order. A read-out walk (``accuracy_delta_exact``'s) instead
retires each qubit after its last location, so its state is only as wide
as its live qubits.

Operators are plain complex128 arrays on the qubits of a location's
support; the simulators return the final density matrix on the
``n_system`` qubits, and the read-out from ``_readout``: the diagonal of
that matrix reduced onto the measured qubits, without a copy, as a float64
array whose index i is the outcome whose bits, in ``final_measure`` order
with the first qubit most significant, spell i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .matcore import (
    VALIDATION_ATOL,
    apply_local,
    is_unitary,
    partial_trace,
    qubit_dims,
    read_only,
)
from .channels import SIGMA_X, SIGMA_Y, SIGMA_Z, Channel, strength_unitary_couplings

HADAMARD = (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)
KET_PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)

Z_PROJECTORS = (
    np.array([[1, 0], [0, 0]], dtype=np.complex128),
    np.array([[0, 0], [0, 1]], dtype=np.complex128),
)

# Input bytes per apply_local call when the ket walk splits a stack's rows into
# their measurement parts; apply_local's temporaries are about twice its input.
_SPLIT_CHUNK_BYTES = 8 << 20


def rz(theta: float) -> np.ndarray:
    """Z rotation diag(e^{-i theta/2}, e^{+i theta/2})."""
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


FIXED_GATES: dict[str, np.ndarray] = {
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
    "H": HADAMARD,
    "CNOT": CNOT,
}


# ---------------------------------------------------------------------------
# Locations and circuits
# ---------------------------------------------------------------------------


def _support(support: int | Sequence[int]) -> tuple[int, ...]:
    return (support,) if isinstance(support, int) else tuple(support)


@dataclass(frozen=True, eq=False)
class Location:
    """One operation slot: (index, step, kind, support) plus one local
    Kraus stack `ops`, a read-only (K, d, d) complex128 array with
    d = 2^len(support). kind is one of "prep" (psi as a (1, d, 1) column;
    the walker resets the support to |psi><psi|), "gate" ([U], optionally
    conditioned on an earlier measurement outcome), "measure" (the
    projectors), "identity" (explicit storage slot, an empty stack).
    condition = (measure location index, outcome position). A stack of the
    wrong size is kept as given, for validate_circuit to report.
    """

    index: int
    step: int
    kind: str
    support: tuple[int, ...]
    ops: np.ndarray
    condition: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("prep", "gate", "measure", "identity"):
            raise ValueError(f"unknown location kind {self.kind!r}")
        support = tuple(int(q) for q in self.support)
        if len(set(support)) != len(support) or not support:
            raise ValueError(f"support must be nonempty and duplicate-free: {support}")
        object.__setattr__(self, "support", support)
        ops = read_only(self.ops)
        object.__setattr__(self, "ops", ops)
        if self.kind == "prep" and abs(np.linalg.norm(ops[0][:, 0]) - 1.0) > VALIDATION_ATOL:
            raise ValueError("prep state must be normalized")
        if self.condition is not None:
            condition = tuple(int(x) for x in self.condition)
            if len(condition) != 2:
                raise ValueError(f"condition must be [measure index, outcome], got {condition}")
            object.__setattr__(self, "condition", condition)

    # -- constructors --------------------------------------------------------

    @classmethod
    def prep(cls, index: int, step: int, support: int | Sequence[int], state) -> "Location":
        column = np.asarray(state, dtype=np.complex128).reshape(1, -1, 1)
        return cls(index, step, "prep", _support(support), column)

    @classmethod
    def gate_on(
        cls,
        index: int,
        step: int,
        support: int | Sequence[int],
        u: np.ndarray,
        condition: tuple[int, int] | None = None,
    ) -> "Location":
        return cls(index, step, "gate", _support(support), [u], condition)

    @classmethod
    def measure(
        cls,
        index: int,
        step: int,
        support: int | Sequence[int],
        projectors: Sequence[np.ndarray] | None = None,
    ) -> "Location":
        sup = _support(support)
        if projectors is None:
            if len(sup) != 1:
                raise ValueError("default Z projectors are single-qubit")
            projectors = Z_PROJECTORS
        if len({np.shape(p) for p in projectors}) > 1:  # ragged: validate_circuit reports it
            projectors = np.empty((len(projectors), 0, 0))
        return cls(index, step, "measure", sup, projectors)

    @classmethod
    def wait(cls, index: int, step: int, support: int | Sequence[int]) -> "Location":
        return cls(index, step, "identity", _support(support), np.empty((0, 0, 0)))


@dataclass(frozen=True)
class Circuit:
    """Ordered locations on n_system qubits plus the final read-out: the
    qubits measured in Z, the first one the most significant outcome bit."""

    n_system: int
    locations: tuple[Location, ...]
    final_measure: tuple[int, ...]

    def __post_init__(self) -> None:
        qubit_dims(max(self.n_system, 0))  # refuse an over-cap circuit before its read-out
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "final_measure", tuple(int(q) for q in self.final_measure))
        problems = validate_circuit(self)
        if problems:
            raise ValueError("invalid circuit: " + "; ".join(problems))

    @property
    def size(self) -> int:
        return len(self.locations)

    def location(self, index: int) -> Location:
        return self.locations[index - 1]

    @classmethod
    def sequential(
        cls,
        n_system: int,
        ops: Sequence[Location],
        final_measure: Sequence[int] | None = None,
    ) -> "Circuit":
        """Re-number the given locations 1..L with one location per step;
        the read-out defaults to every qubit."""
        locs = [replace(loc, index=pos, step=pos) for pos, loc in enumerate(ops, 1)]
        read_out = range(n_system) if final_measure is None else final_measure
        return cls(n_system, tuple(locs), read_out)


def validate_circuit(c: Circuit) -> list[str]:
    """Collect contract violations; empty list means the circuit is valid."""
    out: list[str] = []
    if c.n_system < 1:
        out.append("n_system must be >= 1")
        return out
    n = c.n_system
    locs = c.locations
    for pos, loc in enumerate(locs):
        if loc.index != pos + 1:
            out.append(f"location at position {pos} has index {loc.index}, want {pos + 1}")
    steps = [loc.step for loc in locs]
    if any(s < 1 for s in steps):
        out.append("steps must be >= 1")
    if any(b < a for a, b in zip(steps, steps[1:])):
        out.append("locations must be ordered by step")
    used: dict[int, set[int]] = {}
    measure_arity: dict[int, int] = {}
    for loc in locs:
        if any(not 0 <= q < n for q in loc.support):
            out.append(f"location {loc.index}: support {loc.support} out of range")
            continue
        busy = used.setdefault(loc.step, set())
        if busy & set(loc.support):
            out.append(f"location {loc.index}: step {loc.step} reuses a busy qubit")
        busy |= set(loc.support)
        d = 2 ** len(loc.support)
        bad_shape = loc.ops.ndim != 3 or loc.ops.shape[1:] != (d, d)
        if loc.kind == "prep" and loc.ops.shape != (1, d, 1):
            out.append(f"location {loc.index}: prep state has wrong dimension")
        elif loc.kind == "gate" and (bad_shape or len(loc.ops) != 1):
            out.append(f"location {loc.index}: gate has wrong dimension")
        elif loc.kind == "gate" and not is_unitary(loc.ops[0]):
            out.append(f"location {loc.index}: gate is not unitary")
        elif loc.kind == "measure" and not len(loc.ops):
            out.append(f"location {loc.index}: measurement needs projectors")
        elif loc.kind == "measure" and bad_shape:
            out.append(f"location {loc.index}: projector dimension mismatch")
        elif loc.kind == "measure":
            herm = np.max(np.abs(loc.ops - loc.ops.conj().transpose(0, 2, 1))) <= VALIDATION_ATOL
            if not herm:
                out.append(f"location {loc.index}: projectors must be Hermitian")
            if np.max(np.abs(loc.ops.sum(axis=0) - np.eye(d))) > VALIDATION_ATOL:
                out.append(f"location {loc.index}: projectors do not sum to I")
            elif herm and np.max(np.abs(loc.ops @ loc.ops - loc.ops)) > VALIDATION_ATOL:
                out.append(f"location {loc.index}: projectors must satisfy P P = P")
            measure_arity[loc.index] = len(loc.ops)
        if loc.condition is not None and loc.kind != "gate":
            out.append(f"location {loc.index}: only gates may be conditioned")
    by_index = {loc.index: loc for loc in locs}
    for loc in locs:
        if loc.condition is None or loc.kind != "gate":
            continue
        ref, outcome = loc.condition
        src = by_index.get(ref)
        if src is None or src.kind != "measure":
            out.append(f"location {loc.index}: condition references non-measurement {ref}")
        elif src.step >= loc.step:
            out.append(f"location {loc.index}: condition references a later step")
        elif not 0 <= outcome < measure_arity.get(ref, 0):
            out.append(f"location {loc.index}: condition outcome {outcome} out of range")
    seen_q: set[int] = set()
    for q in c.final_measure:
        if not 0 <= q < n:
            out.append(f"final measurement qubit {q} out of range")
            continue
        if q in seen_q:
            out.append(f"final measurement repeats qubit {q}")
        seen_q.add(q)
    return out


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _walk(
    c: Circuit,
    after: Mapping[int, tuple[Sequence[int], np.ndarray]],
    env: np.ndarray | None = None,
    readout: bool = False,
) -> list[np.ndarray]:
    """Evolve |0...0><0...0| on c's qubits through `c`, or with `env` the
    ket |0...0> (x) env, env an environment's initial state on the qubits
    numbered after c's, held as a ket stack: the rows psi of one array,
    standing for the sum of |psi><psi|.

    The walk holds one state per record of the outcomes that gates read.
    Each state is lazy. It spans only the active qubits, those a location
    other than a prep has touched (the environment from the start), in the
    shared axis order `active`. Every other qubit sits in a pending block:
    a factor (a matrix, or with `env` a ket) on the qubits of one prep as
    listed, |0> for an untouched qubit. A location tensors each block
    meeting its support into every state (`_tensor`), appending its qubits
    to `active`, and applies its Kraus stack (to a ket stack, its one
    operator) with `apply_local` on the support's positions in `active`. A
    prep on S instead traces its active qubits out of every state (a ket
    stack's rows split into their parts <k|x, k inner), activates a block S
    covers only in part, and makes S one block holding psi = ops[0, :, 0],
    weighted by the trace (norm) of the blocks it drops: the channel
    sum_k |psi><k| . |k><psi|.

    A measurement is the non-selective sum_a P_a x P_a unless a later gate
    is conditioned on it, in which case the walk keeps one record per
    outcome, P_a x P_a; a conditioned gate skips the records with another
    outcome, and an identity slot changes nothing. A ket has no
    non-selective sum: a stack's rows split into their parts P_a x, a inner.
    After a prep or a measurement all-zero rows drop, and a record left with
    none. Once the last gate conditioned on a measurement has acted, the
    records that differ only in its outcome are joined (`_merge`), so the
    walk ends with one; a stack with more rows than the active dimension is
    refactored at once. Then, where `after` maps the location's index to
    (support, ops), every state takes that map, or the one pending block
    holding its support does: a Kraus stack (a noise channel, a coupling
    [U]) or a superoperator (a fault insertion). At the end the remaining
    blocks are activated in ascending qubit order and every state is
    permuted to global qubit order, system qubits first; their sum is the
    evolved state.

    With `readout` (density matrices only) a qubit retires after its last
    location, or the last gate reading its measurements if later, and that
    location's `after` entry; an untouched qubit at the end. A read-out
    qubit keeps its diagonal as a leading stack axis of every state, any
    other is traced out. Each state is then its read-out diagonal, in
    `_readout`'s order.
    """
    n = c.n_system
    vector = env is not None
    pending = {(q,): KET0 if vector else Z_PROJECTORS[0] for q in range(n)}
    x = env[None] if vector else np.ones((1,) * (3 if readout else 2), dtype=np.complex128)
    active = list(range(n, n + x.shape[-1].bit_length() - 1))
    branches: list[tuple[dict[int, int], np.ndarray]] = [({}, x)]
    retired: list[int] = []  # read-out qubits in stack-axis order

    def act(x, ops, pos):
        return apply_local(x, ops[0] if vector else ops, pos)

    def split(x, ops, pos):  # a ket stack's rows as their parts P_a x, a inner
        rows, d = x.shape
        parts = np.empty((rows, len(ops), d), dtype=np.complex128)
        step = max(1, _SPLIT_CHUNK_BYTES // (d * x.itemsize))
        for r in range(0, rows, step):
            for a, p in enumerate(ops):
                parts[r : r + step, a] = act(x[r : r + step], p[None], pos)
        return parts.reshape(-1, d)

    def place(blocks) -> None:
        nonlocal branches
        for block in blocks:
            f = pending.pop(block)
            branches = [(rec, _tensor(x, f)) for rec, x in branches]
            active.extend(block)

    def positions(support):
        place([b for b in sorted(pending) if not set(b).isdisjoint(support)])
        return [active.index(q) for q in support]

    def retire(q) -> None:
        nonlocal branches
        pos = positions([q])
        read = pos if q in c.final_measure else []
        branches = [(rec, _trace_out(x, pos, read)) for rec, x in branches]
        retired.extend([q] if read else [])
        active.remove(q)

    readers = _last_readers(c)
    last = {}  # qubit -> the location after which it retires
    for loc in c.locations if readout else ():
        for q in (*loc.support, *after.get(loc.index, ((),))[0]):
            last[q] = loc.index
    for m, i in readers.items() if readout else ():
        last.update((q, max(last[q], i)) for q in c.location(m).support)
    for loc in c.locations:
        if loc.kind == "prep":
            sup = set(loc.support)
            place([b for b in sorted(pending) if sup & set(b) and not set(b) <= sup])
            dropped = [pending.pop(b) for b in sorted(pending) if set(b) <= sup]
            gone = [active.index(q) for q in loc.support if q in active]
            k = len(active)
            if gone and vector:
                axes, lead = [1 + g for g in gone], range(1, len(gone) + 1)
                branches = [(rec, np.moveaxis(x.reshape((-1,) + (2,) * k), axes, lead)
                             .reshape(-1, 2 ** (k - len(gone)))) for rec, x in branches]
            elif gone:
                branches = [(rec, _trace_out(x, gone)) for rec, x in branches]
            active[:] = [q for q in active if q not in sup]
            scale = math.prod(np.trace(f) if f.ndim == 2 else np.linalg.norm(f) for f in dropped)
            psi = loc.ops[0, :, 0]
            pending[loc.support] = scale * (psi if vector else np.outer(psi, psi.conj()))
        elif loc.kind in ("gate", "measure"):
            pos = positions(loc.support)
            if loc.index in readers:
                branches = [({**rec, loc.index: a}, act(x, p[None], pos))
                            for rec, x in branches for a, p in enumerate(loc.ops)]
            elif vector and loc.kind == "measure":
                branches = [(rec, split(x, loc.ops, pos)) for rec, x in branches]
            else:
                cond = loc.condition
                branches = [(rec, x if cond and rec.get(cond[0]) != cond[1]
                             else act(x, loc.ops, pos)) for rec, x in branches]
        if vector and loc.kind in ("prep", "measure"):  # drop all-zero rows, and empty records
            branches = [(rec, x[x.any(axis=1)]) for rec, x in branches if x.any()]
        tall = vector and any(len(x) > x.shape[1] for _, x in branches)
        if loc.index in readers.values() or tall:
            branches = _merge(branches, {m for m, i in readers.items() if i <= loc.index}, vector)
        if loc.index in after:
            support, ops = after[loc.index]
            block = next((b for b in pending if set(support) <= set(b)), None)
            if block:
                pending[block] = act(pending[block], ops, [block.index(q) for q in support])
            else:
                pos = positions(support)
                branches = [(rec, act(x, ops, pos)) for rec, x in branches]
        for q in [q for q, i in last.items() if i == loc.index]:
            retire(q)
    if readout:
        for q in sorted(set(range(n)) - last.keys()):
            retire(q)
        perm = [retired.index(q) for q in c.final_measure]
        return [x.reshape((2,) * len(perm)).transpose(perm).reshape(-1) for _, x in branches]
    positions(range(n))
    if active != sorted(active):
        perm = [active.index(q) for q in sorted(active)]
        shape = (-1,) + (2,) * len(perm) if vector else (2,) * (2 * len(perm))
        axes = [0, *(1 + p for p in perm)] if vector else perm + [len(perm) + p for p in perm]
        branches = [(rec, x.reshape(shape).transpose(axes).reshape(x.shape))
                    for rec, x in branches]
    return [x for _, x in branches]


def _tensor(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x (x) f for a stack x of kets and a ket f, or of matrices and a
    matrix f: one broadcast product of each entry of x with each of f, the
    products `np.kron` forms, without its reshaping of both operands."""
    if f.ndim == 1:
        return (x[..., :, None] * f).reshape(x.shape[:-1] + (-1,))
    y = x[..., :, None, :, None] * f[:, None, :]
    return y.reshape(x.shape[:-2] + (x.shape[-1] * len(f),) * 2)


def _merge(branches: list[tuple[dict, np.ndarray]], closed: set[int], vector: bool) -> list:
    """Group the branches by their outcomes of the measurements not in
    `closed`. A group of matrices becomes their sum, a group of ket stacks
    one stack of their rows; past 2^k rows on k qubits, the nonzero rows of
    conj(R), R from the QR of its conj, hold the same sum of |psi><psi|."""
    groups: dict[tuple, list[np.ndarray]] = {}
    for rec, y in branches:
        groups.setdefault(tuple((m, a) for m, a in rec.items() if m not in closed), []).append(y)
    out = []
    for key, ys in groups.items():
        y = np.concatenate(ys) if vector else sum(ys)
        if vector and len(y) > y.shape[1]:
            y = np.linalg.qr(y.conj(), mode="r").conj()
            y = y[y.any(axis=1)]
        out.append((dict(key), y))
    return out


def _trace_out(x: np.ndarray, gone: Sequence[int], read: Sequence[int] = ()) -> np.ndarray:
    """Trace the qubits at positions `gone` out of the matrix, or the stack
    of matrices, x; those also in `read` keep their diagonal instead, as
    new stack axes after x's, flattened into one."""
    k = x.shape[-1].bit_length() - 1
    lead = list(range(2 * k, 2 * k + x.ndim - 2))
    cols = [p if p in gone else k + p for p in range(k)]
    kept = [p for p in range(k) if p not in gone]
    out = lead + [p for p in gone if p in read] + kept + [k + p for p in kept]
    y = np.einsum(x.reshape(x.shape[:-2] + (2,) * (2 * k)), lead + list(range(k)) + cols, out)
    return y.reshape((-1,) * (x.ndim - 2) + (2 ** len(kept),) * 2)


def _last_readers(c: Circuit) -> dict[int, int]:
    """Each measurement some gate of `c` is conditioned on -> the last such gate."""
    return {loc.condition[0]: loc.index for loc in c.locations if loc.condition is not None}


def _noise_terms(c: Circuit, noise: Mapping[int, Channel], n: int = 0) -> dict[int, tuple]:
    """The `_walk` table applying noise[i] after location i: {i: (support, kraus)}.

    Every key must name a location of `c`, and every channel must act on
    qubits inside its location's support or, for a walk on n > c.n_system
    qubits, on the environment qubits c.n_system..n-1.
    """
    env = set(range(c.n_system, n))
    for idx, ch in noise.items():
        if not 1 <= idx <= c.size:
            raise ValueError(f"noise references unknown location {idx}")
        if set(ch.dims) != {2}:
            raise ValueError(f"noise on location {idx} has factor dims {ch.dims}, not qubits")
        loc = c.location(idx)
        if not set(ch.support) <= set(loc.support) | env:
            where = f"support {loc.support}" + (f" plus qubits {min(env)}..{n - 1}" if env else "")
            raise ValueError(f"noise on location {idx} acts on {ch.support}, outside its {where}")
    return {idx: (ch.support, ch.kraus) for idx, ch in noise.items()}


def _readout(c: Circuit, rho: np.ndarray) -> np.ndarray:
    """Z read-out probabilities in the module docstring's order: the diagonal of
    rho reduced onto the read-out qubits, or the 1-D diagonal a read-out walk
    returns, round-off below 0 clamped; empty is [1.0]."""
    qubits = c.final_measure
    if not qubits:
        return np.ones(1)
    if rho.ndim == 2:
        perm = [sorted(qubits).index(q) for q in qubits]  # partial_trace sorts its axes
        diag = np.diagonal(partial_trace(rho, qubits)).reshape((2,) * len(qubits))
        rho = diag.transpose(perm).reshape(-1)
    probs = np.maximum(rho.real, 0.0)
    total = math.fsum(probs)
    if not (probs.max() <= 1.0 + 1e-12 and abs(total - 1.0) <= VALIDATION_ATOL):
        raise ValueError(f"read-out probabilities out of range: max {probs.max()}, sum {total}")
    return probs


def simulate_ideal(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Final density matrix (before read-out) and read-out probabilities."""
    rho = sum(_walk(c, {}))
    return rho, _readout(c, rho)


def simulate_noisy(
    c: Circuit, noise: Mapping[int, Channel]
) -> tuple[np.ndarray, np.ndarray]:
    """Like simulate_ideal with a noise channel applied after each location.

    `noise` maps location indices to channels whose support must stay inside
    the location's support; missing indices mean noiseless locations.
    """
    rho = sum(_walk(c, _noise_terms(c, noise)))
    return rho, _readout(c, rho)


# ---------------------------------------------------------------------------
# Joint system-environment evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """Shared environment of n_env qubits, numbered after a circuit's
    system qubits: its initial pure state and, keyed by location index,
    the coupling applied after that location, a one-operator Channel (a
    unitary) on qubit factors with global qubit indices."""

    n_env: int
    initial: np.ndarray
    couplings: Mapping[int, Channel]

    def __post_init__(self) -> None:
        if self.n_env < 1:
            raise ValueError("n_env must be >= 1")
        vec = read_only(self.initial).reshape(-1)
        if vec.size != 2**self.n_env:
            raise ValueError("environment state dimension mismatch")
        if abs(np.linalg.norm(vec) - 1.0) > VALIDATION_ATOL:
            raise ValueError("environment state must be normalized")
        object.__setattr__(self, "initial", vec)
        object.__setattr__(self, "couplings", dict(self.couplings))
        for idx, ch in self.couplings.items():
            if len(ch.kraus) != 1 or set(ch.dims) != {2}:
                raise ValueError(f"coupling at location {idx} must be one unitary on qubits")


def environment_strength(env: EnvironmentSpec) -> float:
    """Noise strength max_j ||N_j - I||_inf over the declared couplings."""
    if not env.couplings:
        return 0.0
    return strength_unitary_couplings(ch.kraus[0] for ch in env.couplings.values())


def simulate_with_environment(
    c: Circuit, env: EnvironmentSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Joint pure-state evolution with per-location coupling unitaries.

    The couplings must pass `_noise_terms` on the joint qubits (a known
    location, acting inside its support plus the environment), checked
    before any evolution. `_walk` then evolves |0...0> (x) env.initial
    through that table as a ket stack, one row per nonzero part P_a |psi>
    of each measurement and <k|psi of a prep on active qubits, so a
    measured qubit may be coupled, reused or re-prepared. The reduced
    system state is the sum over rows of Tr_env |psi><psi|. Returns the
    reduced system density matrix and the read-out probabilities.
    """
    n_sys = c.n_system
    qubit_dims(n_sys + env.n_env)  # an over-cap joint space is refused before any work
    after = _noise_terms(c, env.couplings, n_sys + env.n_env)
    (x,) = _walk(c, after, env.initial)
    # each row as a 2^n_sys x 2^n_env matrix, side by side: one product sums Tr_env over the rows
    x = x.reshape(len(x), 2**n_sys, -1).swapaxes(0, 1).reshape(2**n_sys, -1)
    rho_sys = x @ x.conj().T
    return rho_sys, _readout(c, rho_sys)

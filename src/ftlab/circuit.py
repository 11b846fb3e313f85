"""Step-structured qubit circuits and their simulators.

A circuit is a flat list of locations (state preparations, gates,
projective measurements, and explicit identity/storage slots) tagged with
time steps, plus its read-out: the tuple of qubits measured in Z at the
end. Each location carries its operation as one local Kraus stack on its
support. Every state evolves in one walker, ``_walk(c, after, x)``, which
applies each location's stack with ``matcore.apply_local`` and then the
entry of the table ``after`` for that location, its noise as data: nothing
in ``simulate_ideal``, the channel N in ``simulate_noisy``, the fault
insertion N - I on the chosen locations in ``faultpaths.zeta_subset`` /
``zeta_earliest``, and a unitary coupling to explicit environment qubits in
``simulate_with_environment``, which walks a joint system-environment pure
state for noise that independent per-location channels cannot describe.
Classical control is handled in the walker, once for all four callers: a
measurement that a later gate is conditioned on splits the walk into one
branch per outcome, a conditioned gate acts only on the branches with its
outcome, and each caller sums the branch states it gets back (the
environment run sums their partial traces over the environment).

Operators are plain complex128 arrays on the qubits of a location's
support; the simulators return the final density matrix, an array with
subsystem dims ``c.dims``, and the read-out from ``_readout``: the diagonal
of that matrix reduced onto the measured qubits, without a copy, as a
float64 array whose index i is the outcome whose bits, in ``final_measure``
order with the first qubit most significant, spell i.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .matcore import (
    VALIDATION_ATOL,
    SubsystemDims,
    apply_local,
    is_unitary,
    matrix_from_json,
    partial_trace,
    qubit_dims,
    read_only,
    vector_from_json,
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
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "final_measure", tuple(int(q) for q in self.final_measure))
        problems = validate_circuit(self)
        if problems:
            raise ValueError("invalid circuit: " + "; ".join(problems))

    @property
    def size(self) -> int:
        return len(self.locations)

    @property
    def dims(self) -> SubsystemDims:
        return qubit_dims(self.n_system)

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
            if not np.max(np.abs(loc.ops - loc.ops.conj().transpose(0, 2, 1))) <= VALIDATION_ATOL:
                out.append(f"location {loc.index}: projectors must be Hermitian")
            if np.max(np.abs(loc.ops.sum(axis=0) - np.eye(d))) > VALIDATION_ATOL:
                out.append(f"location {loc.index}: projectors do not sum to I")
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
    x: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Evolve `x`, by default |0...0><0...0| on c's qubits, through `c`.

    Each location applies its Kraus stack, and a prep resets its support
    to |psi><psi| with psi = ops[0, :, 0] (`_reset`). A measurement is the
    non-selective sum_a P_a x P_a unless a later gate is conditioned on it,
    in which case the walk keeps one branch per outcome, P_a x P_a; a
    conditioned gate skips the branches with another outcome, and an
    identity slot changes nothing. Then, where `after` maps the location's
    index to (support, ops), every branch takes `apply_local(x, ops,
    support)`: a Kraus stack (a noise channel, a coupling [U]) or a
    superoperator (a fault insertion). Returns the branch states, whose
    sum is the evolved `x`.

    `x` may instead be a state vector on c's qubits followed by others (an
    environment); its size gives the dims. A prep then puts psi on its
    qubits, which must still be |0...0>, a branch is P_a x, and a
    measurement no gate is conditioned on is left to the caller.
    """
    if x is None:
        x = np.zeros((c.dims.total,) * 2, dtype=np.complex128)
        x[0, 0] = 1.0
    n = len(x).bit_length() - 1
    dims = qubit_dims(n)
    referenced = _referenced(c)
    branches: list[tuple[dict[int, int], np.ndarray]] = [({}, x)]
    for loc in c.locations:
        if loc.kind == "measure" and loc.index in referenced:
            branches = [
                ({**rec, loc.index: a}, apply_local(x, loc.ops[a:a + 1], loc.support, dims))
                for rec, x in branches
                for a in range(len(loc.ops))
            ]
        elif loc.kind == "prep":
            psi = loc.ops[0, :, 0]
            branches = [(rec, _reset(x, loc.support, psi, n)) for rec, x in branches]
        elif loc.kind == "gate" or (loc.kind == "measure" and x.ndim == 2):
            cond = loc.condition
            branches = [
                (rec, x if cond and rec.get(cond[0]) != cond[1]
                 else apply_local(x, loc.ops, loc.support, dims))
                for rec, x in branches
            ]
        if loc.index in after:
            support, ops = after[loc.index]
            branches = [(rec, apply_local(x, ops, support, dims)) for rec, x in branches]
    return [x for _, x in branches]


def _referenced(c: Circuit) -> set[int]:
    """Indices of the measurements that some gate of `c` is conditioned on."""
    return {loc.condition[0] for loc in c.locations if loc.condition is not None}


def _reset(x: np.ndarray, support: Sequence[int], psi: np.ndarray, n: int) -> np.ndarray:
    """The prep channel sum_k |psi><k| x |k><psi| on the qubits `support` of
    the n-qubit matrix x, psi factored over them as listed, at O(d^2) cost.
    On a state vector x whose qubits `support` are still |0...0>, it puts
    psi there, (|psi><0...0| (x) I) x, without forming that operator."""
    rest = [q for q in range(n) if q not in support]
    if x.ndim == 1:
        y = x.reshape((2,) * n)[tuple(0 if q in support else slice(None) for q in range(n))]
    else:
        y = partial_trace(x, rest, qubit_dims(n)).reshape((2,) * 2 * len(rest))
    p = psi if x.ndim == 1 else np.outer(psi, psi.conj())
    y_axes = [q + side * n for side in range(x.ndim) for q in rest]
    p_axes = [q + side * n for side in range(x.ndim) for q in support]
    p = p.reshape((2,) * len(p_axes))
    return np.einsum(y, y_axes, p, p_axes, range(x.ndim * n)).reshape(x.shape)


def _noise_terms(c: Circuit, noise: Mapping[int, Channel]) -> dict[int, tuple]:
    """The `_walk` table applying noise[i] after location i: {i: (support, kraus)}.

    Every key must name a location of `c`, and every channel must act inside
    its location's support.
    """
    for idx, ch in noise.items():
        if not 1 <= idx <= c.size:
            raise ValueError(f"noise references unknown location {idx}")
        loc = c.location(idx)
        if not set(ch.support) <= set(loc.support):
            raise ValueError(
                f"noise on location {idx} acts on {ch.support}, outside its "
                f"support {loc.support}"
            )
    return {idx: (ch.support, ch.kraus) for idx, ch in noise.items()}


def _readout(c: Circuit, rho: np.ndarray) -> np.ndarray:
    """Z read-out probabilities in the module docstring's order: the diagonal of
    rho reduced onto the read-out qubits, round-off below 0 clamped; empty is [1.0]."""
    qubits = c.final_measure
    if not qubits:
        return np.ones(1)
    perm = [sorted(qubits).index(q) for q in qubits]  # partial_trace sorts its axes
    diag = np.diagonal(partial_trace(rho, qubits, c.dims)).real
    probs = np.maximum(diag.reshape((2,) * len(qubits)).transpose(perm).reshape(-1), 0.0)
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
class EnvCoupling:
    """Unitary fault operator on (part of) a location's support plus
    environment qubits; indices are global (environment block appended
    after the system block). `unitary` is stored as a read-only complex128
    array of side 2^len(support)."""

    support: tuple[int, ...]
    unitary: np.ndarray

    def __post_init__(self) -> None:
        support = tuple(int(q) for q in self.support)
        if len(set(support)) != len(support) or not support:
            raise ValueError("coupling support must be nonempty and duplicate-free")
        object.__setattr__(self, "support", support)
        u = read_only(self.unitary)
        object.__setattr__(self, "unitary", u)
        if u.shape != (2 ** len(support),) * 2:
            raise ValueError("coupling unitary dimension mismatch")
        if not is_unitary(u):
            raise ValueError("coupling must be unitary")


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """Shared environment: qubit count, initial pure state, per-location
    coupling unitaries keyed by location index."""

    n_env: int
    initial: np.ndarray
    couplings: Mapping[int, EnvCoupling]

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


def environment_strength(env: EnvironmentSpec) -> float:
    """Noise strength max_j ||N_j - I||_inf over the declared couplings."""
    if not env.couplings:
        return 0.0
    return strength_unitary_couplings(c.unitary for c in env.couplings.values())


def simulate_with_environment(
    c: Circuit, env: EnvironmentSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Joint pure-state evolution with per-location coupling unitaries.

    Requirements, checked in one pass before any evolution: a prep must be
    the first operation touching its qubits, so it acts on |0...0>; a
    measurement must be uncoupled, and terminal on its qubits unless a gate
    is conditioned on it; a coupling must act inside its location's support
    plus the environment. `_walk` then evolves |0...0> (x) env.initial with
    each coupling [U] applied after its location, one branch P_a |psi> per
    outcome a of a measurement that gates are conditioned on. The reduced
    system state is the sum over branches of Tr_env |psi_b><psi_b|; the
    other measurements are deferred and applied to it as non-selective
    projections. Returns the reduced system density matrix and the
    read-out probabilities.
    """
    n_sys = c.n_system
    qubit_dims(n_sys + env.n_env)  # an over-cap joint space is refused before any work
    referenced = _referenced(c)
    touched: set[int] = set()
    deferred: list[Location] = []
    for loc in c.locations:
        stale = [m.index for m in deferred if set(m.support) & set(loc.support)]
        if stale:
            raise ValueError(f"measurement at location {stale[0]} must be terminal on its qubits")
        if loc.kind == "prep" and touched & set(loc.support):
            raise ValueError(
                f"prep at location {loc.index} is not the first operation on its qubits"
            )
        if loc.kind == "measure":
            if loc.index in env.couplings:
                raise ValueError("measurements must be ideal (no coupling)")
            if loc.index not in referenced:
                deferred.append(loc)
        touched |= set(loc.support)
        coupling = env.couplings.get(loc.index)
        allowed = set(loc.support) | set(range(n_sys, n_sys + env.n_env))
        if coupling is not None and not set(coupling.support) <= allowed:
            raise ValueError(
                f"coupling at location {loc.index} acts on {coupling.support}, "
                f"outside support plus environment"
            )
    x = np.kron(np.eye(1, 2**n_sys, dtype=np.complex128)[0], env.initial)
    after = {i: (cp.support, cp.unitary[None]) for i, cp in env.couplings.items()}
    # the branches side by side, so one product sums Tr_env over them
    m = np.hstack([psi.reshape(2**n_sys, -1) for psi in _walk(c, after, x)])
    rho_sys = m @ m.conj().T
    for loc in deferred:
        rho_sys = apply_local(rho_sys, loc.ops, loc.support, c.dims)
    return rho_sys, _readout(c, rho_sys)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_NAMED_STATES = {"0": KET0, "1": KET1, "+": KET_PLUS}
_RZ_PATTERN = re.compile(r"^Rz\(([^)]+)\)$")


def gate_from_json(obj) -> np.ndarray:
    """A named generator (X, Y, Z, H, CNOT, Rz(theta)) or a dense matrix."""
    if isinstance(obj, str):
        if obj in FIXED_GATES:
            return FIXED_GATES[obj]
        m = _RZ_PATTERN.match(obj)
        if m:
            return rz(float(m.group(1)))
        raise ValueError(f"unknown gate name {obj!r}")
    return matrix_from_json(obj)


def _state_from_json(obj) -> np.ndarray:
    if isinstance(obj, str):
        try:
            return _NAMED_STATES[obj]
        except KeyError:
            raise ValueError(f"unknown state name {obj!r}") from None
    return vector_from_json(obj)


def circuit_from_json(obj: Mapping) -> Circuit:
    """Build a circuit from {n_system, locations: [...], final_measure?}.

    Locations are listed in time order and numbered 1..L; each entry gives
    kind and support plus a payload ("state" for preps, "gate" for gates,
    "projectors" for non-default measurements) and optionally an explicit
    "step" and a "condition": [measure index, outcome position].
    final_measure is a list of qubits to read out in Z; omitted means all.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("circuit config must be an object")
    n_system = int(obj["n_system"])
    locs = []
    for pos, entry in enumerate(obj.get("locations", [])):
        if not isinstance(entry, Mapping):
            raise ValueError(f"locations[{pos}] must be an object")
        index = pos + 1
        step = int(entry.get("step", index))
        kind = entry["kind"]
        support = tuple(int(q) for q in entry["support"])
        if kind == "prep":
            loc = Location.prep(index, step, support, _state_from_json(entry["state"]))
        elif kind == "gate":
            loc = Location.gate_on(index, step, support, gate_from_json(entry["gate"]))
        elif kind == "measure":
            projs = entry.get("projectors")
            if projs is not None:
                projs = [matrix_from_json(p) for p in projs]
            loc = Location.measure(index, step, support, projs)
        elif kind == "identity":
            loc = Location.wait(index, step, support)
        else:
            raise ValueError(f"unknown location kind {kind!r}")
        locs.append(replace(loc, condition=entry.get("condition")))
    fm = obj.get("final_measure")
    return Circuit(n_system, tuple(locs), range(n_system) if fm is None else fm)


def environment_spec_from_json(obj: Mapping) -> EnvironmentSpec:
    """Environment as {n_env, initial?, couplings: {loc: {support, unitary}}}.

    The initial state defaults to |0...0>; coupling supports use global
    indices with the environment block appended after the system block.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("environment spec must be an object")
    n_env = int(obj["n_env"])
    initial = obj.get("initial")
    if initial is None:
        vec = np.zeros(2**n_env, dtype=np.complex128)
        vec[0] = 1.0
    else:
        vec = vector_from_json(initial)
    raw = obj.get("couplings", {})
    if not isinstance(raw, Mapping):
        raise ValueError("environment couplings must be an object")
    couplings = {}
    for key, entry in raw.items():
        couplings[int(key)] = EnvCoupling(
            support=tuple(int(q) for q in entry["support"]),
            unitary=matrix_from_json(entry["unitary"]),
        )
    return EnvironmentSpec(n_env, vec, couplings)

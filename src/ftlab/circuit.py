"""Step-structured qubit circuits and their simulators.

A circuit is a flat list of locations (state preparations, gates,
projective measurements, and explicit identity/storage slots) tagged with
time steps, plus its read-out: the tuple of qubits measured in Z at the
end, in label order. Each location carries its operation as one local
Kraus stack on its support. All density-matrix evaluation runs through one
walker, ``_walk(c, hook)``, which applies each location's stack with
``matcore.apply_local`` and then calls ``hook(loc, x)`` for that location's
noise part: nothing in ``simulate_ideal``, the channel N in
``simulate_noisy``, and the fault insertion N - I on the chosen locations
in ``faultpaths.zeta_subset`` / ``zeta_earliest``.

``simulate_with_environment`` instead evolves a joint system-environment
pure state with per-location unitary couplings, for noise that independent
per-location channels cannot describe; it steps the vector with the same
kernel.

Operators are plain complex128 arrays on the qubits of a location's
support; the simulators return the final density matrix as an array whose
subsystem dims are ``c.dims``. Every simulator reads out through
``_readout``: the diagonal of the final density matrix reduced onto the
measured qubits, permuted into label order, without copying the matrix.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .matcore import (
    Distribution,
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

GATE_ATOL = 1e-10
PROJ_ATOL = 1e-10

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
    d = 2^len(support). kind is one of "prep" ([|psi><0...0|], from which
    the walker builds the reset set |psi><k|), "gate" ([U], optionally
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
        if self.kind == "prep" and abs(np.linalg.norm(ops[0][:, 0]) - 1.0) > 1e-10:
            raise ValueError("prep state must be normalized")
        if self.condition is not None:
            condition = tuple(int(x) for x in self.condition)
            if len(condition) != 2:
                raise ValueError(f"condition must be [measure index, outcome], got {condition}")
            object.__setattr__(self, "condition", condition)

    # -- constructors --------------------------------------------------------

    @classmethod
    def prep(cls, index: int, step: int, support: int | Sequence[int], state) -> "Location":
        sup = _support(support)
        vec = np.asarray(state, dtype=np.complex128).reshape(-1)
        # |psi><0...0|, with an over-cap support refused first; a state of the
        # wrong size stays one column, for validate_circuit to reject
        cols = qubit_dims(len(sup)).total if vec.size == 2 ** len(sup) else 1
        load = np.zeros((1, vec.size, cols), dtype=np.complex128)
        load[0, :, 0] = vec
        return cls(index, step, "prep", sup, load)

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
    qubits measured in Z, in the order their outcomes appear in labels."""

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
        if loc.kind == "prep" and bad_shape:
            out.append(f"location {loc.index}: prep state has wrong dimension")
        elif loc.kind == "gate" and (bad_shape or len(loc.ops) != 1):
            out.append(f"location {loc.index}: gate has wrong dimension")
        elif loc.kind == "gate" and not is_unitary(loc.ops[0], GATE_ATOL):
            out.append(f"location {loc.index}: gate is not unitary")
        elif loc.kind == "measure" and not len(loc.ops):
            out.append(f"location {loc.index}: measurement needs projectors")
        elif loc.kind == "measure" and bad_shape:
            out.append(f"location {loc.index}: projector dimension mismatch")
        elif loc.kind == "measure":
            if not np.max(np.abs(loc.ops - loc.ops.conj().transpose(0, 2, 1))) <= 1e-10:
                out.append(f"location {loc.index}: projectors must be Hermitian")
            if np.max(np.abs(loc.ops.sum(axis=0) - np.eye(d))) > PROJ_ATOL:
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


def _walk(c: Circuit, hook: Callable[[Location, np.ndarray], np.ndarray]) -> np.ndarray:
    """Evolve |0...0><0...0| through every location of `c`.

    Each location applies its Kraus stack, and a prep its reset set
    |psi><k| built from ops[0] = |psi><0...0|. A measurement is the
    non-selective sum_a P_a x P_a unless a later gate is conditioned on it,
    in which case the walk keeps one branch per outcome; a conditioned gate
    skips the branches with another outcome, and an identity slot changes
    nothing. After each location, `hook(loc, x)` returns the branch state
    with that location's noise part applied. Returns the sum over branches.
    """
    dims = c.dims
    rho0 = np.zeros((dims.total, dims.total), dtype=np.complex128)
    rho0[0, 0] = 1.0
    referenced = {loc.condition[0] for loc in c.locations if loc.condition is not None}
    branches: list[tuple[dict[int, int], np.ndarray]] = [({}, rho0)]
    for loc in c.locations:
        if loc.kind == "measure" and loc.index in referenced:
            branches = [
                ({**rec, loc.index: a}, apply_local(x, loc.ops[a:a + 1], loc.support, dims))
                for rec, x in branches
                for a in range(len(loc.ops))
            ]
        elif loc.kind != "identity":
            ops, cond = loc.ops, loc.condition
            if loc.kind == "prep":
                ops = [np.outer(ops[0][:, 0], row) for row in np.eye(len(ops[0]))]
            branches = [
                (rec, x if cond and rec.get(cond[0]) != cond[1]
                 else apply_local(x, ops, loc.support, dims))
                for rec, x in branches
            ]
        branches = [(rec, hook(loc, x)) for rec, x in branches]
    return sum(x for _, x in branches)


def _noisy_hook(
    c: Circuit, noise: Mapping[int, Channel]
) -> Callable[[Location, np.ndarray], np.ndarray]:
    """Hook applying noise[loc.index] after each location (none if absent).

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

    def hook(loc: Location, x: np.ndarray) -> np.ndarray:
        ch = noise.get(loc.index)
        if ch is None:
            return x
        return apply_local(x, ch.kraus, ch.support, c.dims)

    return hook


def _readout(c: Circuit, rho: np.ndarray) -> Distribution:
    """Z outcome probabilities of the read-out qubits: the diagonal of rho
    reduced onto them, with axes permuted into final_measure order. Every
    outcome is kept, negative round-off clamped to 0."""
    qubits = c.final_measure
    if not qubits:
        return Distribution({"": 1.0})
    m = len(qubits)
    perm = [sorted(qubits).index(q) for q in qubits]  # partial_trace sorts its axes
    diag = np.diagonal(partial_trace(rho, qubits, c.dims)).real
    diag = diag.reshape((2,) * m).transpose(perm).reshape(-1)
    probs = zip(itertools.product("01", repeat=m), diag)
    return Distribution({"".join(a): max(0.0, float(p)) for a, p in probs})


def simulate_ideal(c: Circuit) -> tuple[np.ndarray, Distribution]:
    """Final density matrix (before read-out) and read-out distribution."""
    rho = _walk(c, lambda loc, x: x)
    return rho, _readout(c, rho)


def simulate_noisy(
    c: Circuit, noise: Mapping[int, Channel]
) -> tuple[np.ndarray, Distribution]:
    """Like simulate_ideal with a noise channel applied after each location.

    `noise` maps location indices to channels whose support must stay inside
    the location's support; missing indices mean noiseless locations.
    """
    rho = _walk(c, _noisy_hook(c, noise))
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
        if not is_unitary(u, GATE_ATOL):
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
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
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
) -> tuple[np.ndarray, Distribution]:
    """Joint pure-state evolution with per-location coupling unitaries.

    Requirements checked here: no conditioned gates (rewrite first), preps
    must be the first operation touching their qubits (so they act on
    |0...0> and apply as |psi><0...0|), measurements must be
    terminal on their qubit, uncoupled, and are applied as deferred
    non-selective projections on the reduced system state. Returns the
    reduced system density matrix and the read-out distribution.
    """
    n_sys = c.n_system
    n_tot = n_sys + env.n_env
    dims = qubit_dims(n_tot)
    env_range = set(range(n_sys, n_tot))
    last_touch: dict[int, int] = {}
    for loc in c.locations:
        if loc.condition is not None:
            raise ValueError("conditioned gates unsupported here; rewrite them first")
        for q in loc.support:
            last_touch[q] = loc.index
    sys0 = np.zeros(2**n_sys, dtype=np.complex128)
    sys0[0] = 1.0
    psi = np.kron(sys0, env.initial)
    touched: set[int] = set()
    deferred: list[Location] = []
    for loc in c.locations:
        if loc.kind == "prep" and touched & set(loc.support):
            raise ValueError(
                f"prep at location {loc.index} is not the first operation "
                "on its qubits"
            )
        if loc.kind in ("prep", "gate"):  # a prep loads |psi><0...0|, a gate is [U]
            psi = apply_local(psi, loc.ops, loc.support, dims)
        elif loc.kind == "measure":
            if loc.index in env.couplings:
                raise ValueError("measurements must be ideal (no coupling)")
            if any(last_touch[q] != loc.index for q in loc.support):
                raise ValueError(
                    f"measurement at location {loc.index} must be terminal on "
                    "its qubits"
                )
            deferred.append(loc)
        touched |= set(loc.support)
        coupling = env.couplings.get(loc.index)
        if coupling is not None:
            allowed = set(loc.support) | env_range
            if not set(coupling.support) <= allowed:
                raise ValueError(
                    f"coupling at location {loc.index} acts on {coupling.support}, "
                    f"outside support plus environment"
                )
            psi = apply_local(psi, [coupling.unitary], coupling.support, dims)
    m = psi.reshape(2**n_sys, 2**env.n_env)
    rho_sys = m @ m.conj().T
    for loc in deferred:
        rho_sys = apply_local(rho_sys, loc.ops, loc.support, c.dims)
    return rho_sys, _readout(c, rho_sys)


# ---------------------------------------------------------------------------
# Conditioned-gate rewrite
# ---------------------------------------------------------------------------


def _rank_one_basis(projectors: np.ndarray) -> np.ndarray:
    """The basis vectors b_i of rank-one projectors |b_i><b_i|, one per row."""
    w, v = np.linalg.eigh(projectors)
    if np.any(np.abs(w[:, -1] - 1.0) > 1e-9) or np.any(np.abs(w[:, :-1]) > 1e-9):
        raise ValueError("conditioning requires rank-one basis projectors")
    return v[:, :, -1]


def rewrite_conditioned_gates(c: Circuit) -> Circuit:
    """Eliminate classical conditioning by a unitary rewrite.

    Each single-qubit measurement that feeds conditions becomes: a basis
    change to the computational basis at the original slot, controlled
    unitaries in place of the conditioned gates, and a terminal Z
    measurement of the control qubit right after the last dependent gate.
    The read-out distribution is unchanged. Circuits without conditions are
    returned as-is.
    """
    dependents: dict[int, list[int]] = {}
    for loc in c.locations:
        if loc.condition is not None:
            dependents.setdefault(loc.condition[0], []).append(loc.index)
    if not dependents:
        return c
    by_index = {loc.index: loc for loc in c.locations}
    last_dep = {ref: max(deps) for ref, deps in dependents.items()}
    for ref, deps in dependents.items():
        src = by_index[ref]
        if len(src.support) != 1:
            raise ValueError("multi-qubit-controlled conditions are unsupported")
        m = src.support[0]
        for loc in c.locations:
            if src.index < loc.index <= last_dep[ref] and loc.index not in deps:
                if m in loc.support:
                    raise ValueError(
                        f"qubit {m} is used at location {loc.index} before its "
                        "conditioned gates resolve"
                    )
        for dep in deps:
            g = by_index[dep]
            if m in g.support:
                raise ValueError("conditioned gate may not act on the control qubit")
    new_ops: list[Location] = []
    for loc in c.locations:
        if loc.index in dependents:
            m = loc.support[0]
            v = _rank_one_basis(loc.ops).conj()  # maps b_i -> |i>
            new_ops.append(Location.gate_on(0, 0, m, v))
            continue
        if loc.condition is not None:
            ref, want = loc.condition
            m = by_index[ref].support[0]
            proj = np.zeros((2, 2), dtype=np.complex128)
            proj[want, want] = 1.0
            ctrl = np.kron(proj, loc.ops[0]) + np.kron(np.eye(2) - proj, np.eye(len(loc.ops[0])))
            new_ops.append(Location.gate_on(0, 0, (m,) + loc.support, ctrl))
            if loc.index == last_dep[ref]:
                new_ops.append(Location.measure(0, 0, m))
            continue
        new_ops.append(loc)
    return Circuit.sequential(c.n_system, new_ops, c.final_measure)


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
            locs.append(Location.prep(index, step, support, _state_from_json(entry["state"])))
        elif kind == "gate":
            gate = gate_from_json(entry["gate"])
            locs.append(Location.gate_on(index, step, support, gate, entry.get("condition")))
        elif kind == "measure":
            projs = entry.get("projectors")
            if projs is not None:
                projs = [matrix_from_json(p) for p in projs]
            locs.append(Location.measure(index, step, support, projs))
        elif kind == "identity":
            locs.append(Location.wait(index, step, support))
        else:
            raise ValueError(f"unknown location kind {kind!r}")
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

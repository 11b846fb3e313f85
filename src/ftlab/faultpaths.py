"""Fault-path expansion machinery.

Writing each noisy location as ideal-plus-fault, N = I + F, turns the noisy
circuit into a signed sum over fault subsets. This module materializes the
subset terms (as their action on the circuit's initial state), the
earliest-fault grouping whose terms telescope exactly to
rho_noisy - rho_ideal, the closed-form accuracy bounds, and the signed
inclusion-exclusion coefficients together with an exhaustive lattice
verifier for the counting identities behind them. Each term is one linear
`circuit._walk`, so circuits with conditioned gates expand exactly too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .matcore import kolmogorov_distance, superoperator
from .channels import Channel
from .circuit import (
    Circuit,
    EnvironmentSpec,
    _noise_terms,
    _readout,
    _walk,
    simulate_with_environment,
)

LATTICE_CAP = 12  # largest L0 that verify_ie_identity enumerates


class ExhaustiveCapError(ValueError):
    """Request exceeds the exhaustive-enumeration caps."""


def _fault_walk(
    c: Circuit, noise: Mapping[int, Channel], chosen: set[int], keep: Iterable[int]
) -> np.ndarray:
    """Walk `c` with the fault insertion N - I, one superoperator on the
    channel's support, after each `chosen` location, and the channel N after
    each other location in `keep`. A chosen location without noise makes
    the term exactly zero."""
    terms = _noise_terms(c, noise)
    if not chosen <= terms.keys():
        return np.zeros((2**c.n_system,) * 2, dtype=np.complex128)
    after = {i: terms[i] for i in keep if i in terms}
    for i in chosen:
        support, kraus = terms[i]
        d = kraus.shape[-1]
        after[i] = (support, superoperator(kraus) - np.eye(d * d).reshape((d,) * 4))
    return sum(_walk(c, after))


def zeta_subset(
    c: Circuit,
    noise: Mapping[int, Channel],
    subset: Iterable[int],
    complement: str = "noisy",
) -> np.ndarray:
    """Fault-path sum with fault insertions N - I exactly on `subset`.

    complement="noisy" applies the full noisy operation at every other
    location (the inclusion-exclusion building block); complement="ideal"
    leaves the rest ideal, which isolates the fault paths whose faulty set
    is exactly `subset`. The result is the term applied to the circuit's
    initial state; it is generally not a density matrix.
    """
    if complement not in ("noisy", "ideal"):
        raise ValueError(f"unknown complement convention {complement!r}")
    chosen = {int(i) for i in subset}
    if not chosen:
        raise ValueError("subset must be nonempty")
    if not chosen <= set(range(1, c.size + 1)):
        raise ValueError(f"subset {sorted(chosen)} outside 1..{c.size}")
    return _fault_walk(c, noise, chosen, range(1, c.size + 1) if complement == "noisy" else ())


def zeta_earliest(c: Circuit, noise: Mapping[int, Channel], r: int) -> np.ndarray:
    """Group of all fault paths whose earliest fault sits at location r.

    Ideal before r, a fault insertion N - I at r, the full noisy operation
    after r. Summed over r = 1..L this telescopes exactly to
    rho_noisy - rho_ideal.
    """
    if not 1 <= r <= c.size:
        raise ValueError(f"location index {r} outside 1..{c.size}")
    return _fault_walk(c, noise, {r}, range(r + 1, c.size + 1))


def accuracy_delta_exact(
    c: Circuit,
    noise: Mapping[int, Channel] | EnvironmentSpec,
) -> float:
    """Kolmogorov distance between noisy and ideal read-out distributions.
    The ideal and channel-noise walks are read-out walks, each qubit leaving
    the state after its last location; the environment run is a full one."""
    ideal = _readout(c, sum(_walk(c, {}, readout=True)))
    if isinstance(noise, EnvironmentSpec):
        noisy = simulate_with_environment(c, noise)[1]
    else:
        noisy = _readout(c, sum(_walk(c, _noise_terms(c, noise), readout=True)))
    return kolmogorov_distance(noisy, ideal)


BOUND_FACTORS = {"linear": 1.0, "non_markovian": 2.0}


def accuracy_bound(L: int, eps: float, variant: str = "linear") -> float:
    """Closed-form accuracy bound for an L-location circuit.

    linear: L*eps, eps the largest Markovian location strength.
    non_markovian: 2*L*eps with eps the joint-unitary coupling strength.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if variant not in BOUND_FACTORS:
        raise ValueError(f"unknown variant {variant!r}; choose from {tuple(BOUND_FACTORS)}")
    return BOUND_FACTORS[variant] * L * eps


def ie_coefficient(s: int, t: int) -> int:
    """Signed multiplicity correction (-1)^(s-t-1) * C(s-1, t).

    With these weights, summing the size-s subset terms over s > t counts
    every fault pattern with more than t faults exactly once.
    """
    s, t = int(s), int(t)
    if t < 0 or s <= t:
        raise ValueError(f"need s >= t+1 >= 1, got s={s}, t={t}")
    return (-1) ** (s - t - 1) * math.comb(s - 1, t)


@dataclass(frozen=True)
class IEVerdict:
    ok: bool
    counterexample: tuple[int, ...] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _popcounts(n_bits: int) -> np.ndarray:
    masks = np.arange(1 << n_bits, dtype=np.uint32)
    counts = np.zeros_like(masks)
    for b in range(n_bits):
        counts += (masks >> b) & 1
    return counts.astype(np.int64)


def _subset_sums(a: np.ndarray, n_bits: int) -> np.ndarray:
    """In place: a[p] <- sum of a[c] over every subset mask c of p.

    The subset-sum (zeta) transform, one pass per bit: pass i adds each
    entry without bit i into its partner with bit i set.
    """
    for i in range(n_bits):
        v = a.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    return a


def verify_ie_identity(L0: int, t: int) -> IEVerdict:
    """Exhaustively check both subset-counting identities on {1..L0}.

    For every fault pattern P: (a) the signed sum of ie_coefficient(s, t)
    over all subsets of P with s > t elements is 1 if |P| > t else 0, and
    (b) the alternating-sign weights (-1)^(s-1) over all nonempty subsets
    sum to 1 for every nonempty P. Returns the first offending pattern.

    Both multiplicity vectors come from the subset-sum transform of the
    per-subset weights: O(L0 * 2^L0) integer adds on two 2^L0 arrays.
    """
    if L0 < 1 or L0 > LATTICE_CAP:
        raise ExhaustiveCapError(f"lattice verification capped at L0 <= {LATTICE_CAP}")
    if not 0 <= t < L0:
        raise ValueError(f"need 0 <= t < L0, got t={t}")
    sizes = _popcounts(L0)
    coeff_ie = np.zeros(1 << L0, dtype=np.int64)
    for s in range(t + 1, L0 + 1):
        coeff_ie[sizes == s] = ie_coefficient(s, t)
    # (-1)^(s-1): +1 for odd subset sizes, -1 for even, 0 for the empty set
    coeff_alt = np.where(sizes >= 1, np.where(sizes % 2 == 1, 1, -1), 0).astype(np.int64)
    mult_ie = _subset_sums(coeff_ie, L0)
    mult_alt = _subset_sums(coeff_alt, L0)
    want_ie = (sizes > t).astype(np.int64)
    want_alt = (sizes > 0).astype(np.int64)
    for mult, want, tag in ((mult_ie, want_ie, "threshold"), (mult_alt, want_alt, "alternating")):
        bad = np.nonzero(mult != want)[0]
        if bad.size:
            p = int(bad[0])
            pattern = tuple(i + 1 for i in range(L0) if (p >> i) & 1)
            return IEVerdict(
                False,
                pattern,
                f"{tag} identity gives multiplicity {int(mult[p])}, "
                f"expected {int(want[p])}",
            )
    return IEVerdict(True)

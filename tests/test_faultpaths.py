import itertools
import math

import numpy as np
import pytest

from ftlab.channels import (
    SIGMA_X,
    NoiseSpec,
    make_noise_channel,
    strength_markovian,
    Channel,
)
from ftlab.circuit import (
    KET0,
    KET_PLUS,
    Circuit,
    EnvCoupling,
    EnvironmentSpec,
    Location,
    environment_strength,
    simulate_ideal,
    simulate_noisy,
)
from ftlab import faultpaths
from ftlab.faultpaths import (
    ExhaustiveCapError,
    accuracy_bound,
    accuracy_delta_exact,
    ie_coefficient,
    verify_ie_identity,
    zeta_earliest,
    zeta_subset,
)
from ftlab.matcore import qubit_dims, trace_norm


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_instance(rng, n_loc, n_qubits=1):
    """A prep-then-unitaries circuit with probabilistic noise per location."""
    ops = [Location.prep(0, 0, q, KET_PLUS if q == 0 else KET0) for q in range(n_qubits)]
    while len(ops) < n_loc:
        q = int(rng.integers(n_qubits))
        ops.append(Location.gate_on(0, 0, q, haar_unitary(rng, 2)))
    c = Circuit.sequential(n_qubits, ops)
    noise = {}
    for loc in c.locations:
        p = float(rng.uniform(0.01, 0.1))
        q = loc.support[0]
        noise[loc.index] = make_noise_channel(
            NoiseSpec.probabilistic(p, haar_unitary(rng, 2)), support=(q,)
        )
    return c, noise


def instance_strength(c, noise):
    eps = 0.0
    for ch in noise.values():
        ident = Channel.identity(qubit_dims(1), ch.support)
        eps = max(eps, strength_markovian(ch, ident))
    return eps


def test_zeta_subset_identity_noise_is_zero():
    c = Circuit.sequential(1, [Location.prep(0, 0, 0, KET0), Location.wait(0, 0, 0)])
    noise = {
        1: Channel.identity(qubit_dims(1), (0,)),
        2: Channel.identity(qubit_dims(1), (0,)),
    }
    for complement in ("noisy", "ideal"):
        z = zeta_subset(c, noise, {1}, complement=complement)
        np.testing.assert_allclose(z, 0.0, atol=1e-14)


def test_zeta_subset_single_location_strength():
    p = 0.13
    c = Circuit.sequential(1, [Location.prep(0, 0, 0, KET0)])
    noise = {1: make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))}
    z = zeta_subset(c, noise, {1})
    assert trace_norm(z) == pytest.approx(2 * p, abs=1e-12)
    eps = instance_strength(c, noise)
    assert trace_norm(z) <= eps + 1e-12


def test_zeta_subset_norm_bounded_by_strength_power():
    rng = np.random.default_rng(41)
    c, noise = random_instance(rng, 5)
    eps = instance_strength(c, noise)
    for r in (1, 2, 3):
        for subset in itertools.combinations(range(1, c.size + 1), r):
            z = zeta_subset(c, noise, set(subset))
            assert trace_norm(z) <= eps**r + 1e-10


def test_zeta_subset_signed_reconstruction_both_conventions():
    rng = np.random.default_rng(42)
    for n_loc, n_qubits in ((3, 1), (4, 2)):
        c, noise = random_instance(rng, n_loc, n_qubits)
        rho_i, _ = simulate_ideal(c)
        rho_n, _ = simulate_noisy(c, noise)
        diff = rho_n - rho_i

        locs = range(1, c.size + 1)
        total = np.zeros_like(diff)
        for r in range(1, c.size + 1):
            for subset in itertools.combinations(locs, r):
                sign = (-1) ** (r + 1)
                total = total + sign * zeta_subset(c, noise, set(subset))
        np.testing.assert_allclose(total, diff, atol=1e-9)

        total = np.zeros_like(diff)
        for r in range(1, c.size + 1):
            for subset in itertools.combinations(locs, r):
                total = total + zeta_subset(c, noise, set(subset), complement="ideal")
        np.testing.assert_allclose(total, diff, atol=1e-9)


def test_zeta_earliest_identity_noise():
    c = Circuit.sequential(1, [Location.prep(0, 0, 0, KET0), Location.wait(0, 0, 0)])
    noise = {
        1: Channel.identity(qubit_dims(1), (0,)),
        2: Channel.identity(qubit_dims(1), (0,)),
    }
    for r in (1, 2):
        np.testing.assert_allclose(zeta_earliest(c, noise, r), 0.0, atol=1e-14)


def test_zeta_earliest_telescopes():
    rng = np.random.default_rng(43)
    for n_loc in (2, 4, 5):
        c, noise = random_instance(rng, n_loc)
        rho_i, _ = simulate_ideal(c)
        rho_n, _ = simulate_noisy(c, noise)
        total = sum(zeta_earliest(c, noise, r) for r in range(1, n_loc + 1))
        np.testing.assert_allclose(total, rho_n - rho_i, atol=1e-10)


def test_zeta_earliest_norm_bounded_by_strength():
    rng = np.random.default_rng(44)
    c, noise = random_instance(rng, 4)
    eps = instance_strength(c, noise)
    for r in range(1, 5):
        assert trace_norm(zeta_earliest(c, noise, r)) <= eps + 1e-10
    with pytest.raises(ValueError):
        zeta_earliest(c, noise, 0)
    with pytest.raises(ValueError):
        zeta_earliest(c, noise, 5)


def test_accuracy_delta_exact_examples():
    c = Circuit.sequential(1, [Location.prep(0, 0, 0, KET0)])
    assert accuracy_delta_exact(c, {}) == pytest.approx(0.0, abs=1e-12)

    p = 0.12
    noise = {1: make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))}
    assert accuracy_delta_exact(c, noise) == pytest.approx(2 * p, abs=1e-12)


def test_accuracy_delta_bounded_by_zeta_norm_and_linear_bound():
    rng = np.random.default_rng(45)
    for _ in range(4):
        c, noise = random_instance(rng, 4)
        delta = accuracy_delta_exact(c, noise)
        rho_i, _ = simulate_ideal(c)
        rho_n, _ = simulate_noisy(c, noise)
        assert delta <= trace_norm(rho_n - rho_i) + 1e-10
        eps = instance_strength(c, noise)
        assert delta <= accuracy_bound(c.size, eps, "linear") + 1e-12


def test_accuracy_delta_environment_instance():
    theta = 0.04
    zz = np.kron(np.diag([1.0, -1.0]), SIGMA_X)
    n = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zz
    ops = [
        Location.prep(0, 0, 0, KET_PLUS),
        Location.wait(0, 0, 0),
        Location.wait(0, 0, 0),
    ]
    c = Circuit.sequential(1, ops, (0,))
    env = EnvironmentSpec(1, KET0, {i: EnvCoupling((0, 1), n) for i in (1, 2, 3)})
    delta = accuracy_delta_exact(c, env)
    eps = environment_strength(env)
    assert delta <= accuracy_bound(c.size, eps, "non_markovian") + 1e-12


def test_accuracy_bound_variants():
    for variant in ("linear", "e_minus_1", "non_markovian", "encoded"):
        assert accuracy_bound(10, 0.0, variant) == 0.0
    assert accuracy_bound(10, 0.01, "linear") == pytest.approx(0.1, abs=1e-15)
    assert accuracy_bound(10, 0.01, "e_minus_1") == pytest.approx(
        (math.e - 1) * 0.1, rel=1e-12
    )
    assert accuracy_bound(10, 0.01, "non_markovian") == pytest.approx(0.2, abs=1e-15)
    assert accuracy_bound(10, 0.01, "encoded") == pytest.approx(
        (math.e - 1) * 0.1, rel=1e-12
    )
    with pytest.raises(ValueError):
        accuracy_bound(10, 0.2, "e_minus_1")  # needs eps <= 1/L
    with pytest.raises(ValueError):
        accuracy_bound(10, 0.01, "quadratic")
    with pytest.raises(ValueError):
        accuracy_bound(10, -0.01, "linear")


def test_ie_coefficient_examples():
    assert ie_coefficient(1, 0) == 1
    assert ie_coefficient(2, 1) == 1
    assert ie_coefficient(3, 1) == -2
    assert ie_coefficient(4, 1) == 3
    for t in range(4):
        assert ie_coefficient(t + 1, t) == 1
    with pytest.raises(ValueError):
        ie_coefficient(1, 1)
    with pytest.raises(ValueError):
        ie_coefficient(0, 0)


def test_ie_coefficient_matches_triangular_solve():
    # require that every pattern with f > t faults is counted exactly once:
    # sum_{s=t+1..f} c_s * C(f, s) = 1 pins the coefficients recursively
    for t in range(4):
        c: dict[int, int] = {}
        for f in range(t + 1, 11):
            acc = sum(c[s] * math.comb(f, s) for s in range(t + 1, f))
            c[f] = 1 - acc
        for s in range(t + 1, 11):
            assert ie_coefficient(s, t) == c[s], (s, t)


def test_verify_ie_identity_small_cases():
    for l0, t in ((3, 0), (5, 1), (6, 2)):
        verdict = verify_ie_identity(l0, t)
        assert bool(verdict)
        assert verdict.counterexample is None


def test_verify_ie_identity_reports_first_failing_pattern(monkeypatch):
    # one coefficient off by one; the verdict must name the first pattern,
    # in mask order, whose brute-force containment sum misses its target
    L0, t = 6, 1

    def bumped(s, t_):
        return ie_coefficient(s, t_) + (s == 4)

    def brute(p):
        size = lambda c: bin(c).count("1")
        subsets = [c for c in range(1 << L0) if c & ~p == 0 and size(c) > t]
        return sum(bumped(size(c), t) for c in subsets), int(size(p) > t)

    monkeypatch.setattr(faultpaths, "ie_coefficient", bumped)
    rows = [(p, *brute(p)) for p in range(1 << L0)]
    p, mult, want = next(row for row in rows if row[1] != row[2])
    verdict = verify_ie_identity(L0, t)
    assert not verdict.ok
    assert verdict.counterexample == tuple(i + 1 for i in range(L0) if p >> i & 1)
    assert verdict.detail == f"threshold identity gives multiplicity {mult}, expected {want}"


def test_verify_ie_identity_caps_and_preconditions():
    with pytest.raises(ExhaustiveCapError):
        verify_ie_identity(13, 1)
    with pytest.raises(ValueError):
        verify_ie_identity(4, 4)  # t must stay below L0


def test_zeta_caps():
    ops = [Location.prep(0, 0, 0, KET0)] + [Location.wait(0, 0, 0) for _ in range(16)]
    c17 = Circuit.sequential(1, ops)
    noise = {
        i: Channel.identity(qubit_dims(1), (0,)) for i in range(1, 18)
    }
    with pytest.raises(ExhaustiveCapError):
        zeta_subset(c17, noise, {1})
    c5 = Circuit.sequential(1, ops[:5])
    noise5 = {i: noise[i] for i in range(1, 6)}
    # a single call is one composition walk, so any r up to L is fine;
    # identity noise makes every fault insertion vanish
    big = zeta_subset(c5, noise5, {1, 2, 3, 4, 5})
    assert np.allclose(big, 0.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda c, noise: simulate_noisy(c, noise),
        lambda c, noise: accuracy_delta_exact(c, noise),
        lambda c, noise: zeta_subset(c, noise, {1}),
        lambda c, noise: zeta_subset(c, noise, {2}, complement="ideal"),
        lambda c, noise: zeta_earliest(c, noise, 1),
    ],
    ids=["simulate_noisy", "accuracy_delta_exact", "zeta_subset", "zeta_subset_ideal",
         "zeta_earliest"],
)
def test_every_noisy_walk_rejects_unknown_or_nonlocal_noise(evaluate):
    c = Circuit.sequential(2, [Location.prep(0, 0, 0, KET0), Location.prep(0, 0, 1, KET0)])
    dep = NoiseSpec.depolarizing(0.1)
    with pytest.raises(ValueError, match="unknown location"):
        evaluate(c, {99: make_noise_channel(dep, support=(0,))})
    with pytest.raises(ValueError, match="outside its support"):
        evaluate(c, {1: make_noise_channel(dep, support=(1,))})


def conditioned_instance(rng):
    """A measurement of qubit 0 feeding a conditioned X on qubit 1, with
    probabilistic noise on every location."""
    ops = [
        Location.prep(0, 0, 0, KET_PLUS),
        Location.prep(0, 0, 1, KET0),
        Location.gate_on(0, 0, 0, haar_unitary(rng, 2)),
        Location.measure(0, 0, 0),
        Location.gate_on(0, 0, 1, SIGMA_X, condition=(4, 1)),
        Location.gate_on(0, 0, 1, haar_unitary(rng, 2)),
    ]
    c = Circuit.sequential(2, ops)
    noise = {
        loc.index: make_noise_channel(
            NoiseSpec.probabilistic(float(rng.uniform(0.01, 0.1)), haar_unitary(rng, 2)),
            support=loc.support,
        )
        for loc in c.locations
    }
    return c, noise


def test_fault_paths_are_exact_on_conditioned_circuits():
    rng = np.random.default_rng(45)
    locs = range(1, 7)
    for _ in range(3):
        c, noise = conditioned_instance(rng)
        rho_i, _ = simulate_ideal(c)
        rho_n, _ = simulate_noisy(c, noise)
        earliest = sum(zeta_earliest(c, noise, r) for r in locs)
        np.testing.assert_allclose(earliest, rho_n - rho_i, rtol=0, atol=1e-14)
        signed = rho_i
        for k in locs:
            for subset in itertools.combinations(locs, k):
                signed = signed + (-1) ** (k + 1) * zeta_subset(c, noise, set(subset))
        np.testing.assert_allclose(signed, rho_n, rtol=0, atol=1e-14)

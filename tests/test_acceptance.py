"""Acceptance gate: the ten release criteria, one test per criterion.

Each test prints a single CRITERION line so a log scrape shows the verdicts;
the pytest -v listing carries the same pass/fail information per criterion.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ftlab.channels import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    NoiseSpec,
    diamond_distance,
    make_noise_channel,
    strength_markovian,
)
from ftlab.circuit import (
    KET0,
    KET_PLUS,
    Circuit,
    EnvironmentSpec,
    Location,
    environment_strength,
    simulate_ideal,
    simulate_noisy,
)
from ftlab.cli import main
from ftlab.faultpaths import (
    accuracy_delta_exact,
    ie_coefficient,
    verify_ie_identity,
    zeta_earliest,
    zeta_subset,
)
from ftlab.gadgets import (
    FaultConfig,
    Gadget,
    GadgetGraph,
    iterate_failure_map,
    level1_failure_exact,
    level_reduce_mc,
    truncate_and_classify,
)
from ftlab.cli import matrix_to_json
from ftlab.matcore import qubit_dims
from ftlab.threshold import (
    SchemeParams,
    pseudothreshold_mc,
    renormalize_strength,
    required_level,
    strength_at_level,
    threshold_value,
)

PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def verdict(n, desc):
    print(f"CRITERION {n:2d} PASS {desc}")


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zoo_channel(rng, qubit):
    kind = rng.integers(4)
    if kind == 0:
        spec = NoiseSpec.control_rotation(float(rng.uniform(0.0, 0.3)))
    elif kind == 1:
        spec = NoiseSpec.amplitude_damping(float(rng.uniform(0.0, 0.5)), 1.0)
    elif kind == 2:
        spec = NoiseSpec.probabilistic(float(rng.uniform(0.0, 0.3)), haar_unitary(rng, 2))
    else:
        spec = NoiseSpec.depolarizing(float(rng.uniform(0.0, 0.3)))
    return make_noise_channel(spec, support=(qubit,))


def random_markovian_instance(rng, max_qubits=4, max_locations=8):
    n = int(rng.integers(1, max_qubits + 1))
    total = int(rng.integers(n, max_locations + 1))
    ops = [Location.prep(0, 0, q, KET_PLUS if q % 2 == 0 else KET0) for q in range(n)]
    while len(ops) < total:
        if n >= 2 and rng.random() < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(Location.gate_on(0, 0, (int(a), int(b)), haar_unitary(rng, 4)))
        else:
            ops.append(Location.gate_on(0, 0, int(rng.integers(n)), haar_unitary(rng, 2)))
    c = Circuit.sequential(n, ops)
    noise = {}
    for loc in c.locations:
        q = int(rng.choice(loc.support))
        noise[loc.index] = zoo_channel(rng, q)
    return c, noise


def test_criterion_01_markovian_accuracy_bound():
    start = time.monotonic()
    rng = np.random.default_rng(20260801)
    for trial in range(200):
        c, noise = random_markovian_instance(rng)
        eps = 0.0
        for ch in noise.values():
            ident = Channel.identity(ch.dims, ch.support)
            eps = max(eps, strength_markovian(ch, ident))
        delta = accuracy_delta_exact(c, noise)
        assert delta <= c.size * eps + 1e-10, (trial, delta, c.size, eps)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 1 runtime {elapsed:.1f}s"
    verdict(1, "markovian delta <= L*eps on 200 random circuits")


def test_criterion_02_environment_accuracy_bound():
    start = time.monotonic()
    rng = np.random.default_rng(20260802)
    for trial in range(50):
        n_sys = int(rng.integers(1, 4))
        n_env = int(rng.integers(1, 3))
        total = int(rng.integers(max(2, n_sys), 6))
        ops = [Location.prep(0, 0, q, KET_PLUS) for q in range(n_sys)]
        while len(ops) < total:
            ops.append(Location.gate_on(0, 0, int(rng.integers(n_sys)), haar_unitary(rng, 2)))
        c = Circuit.sequential(n_sys, ops)
        init = rng.normal(size=2**n_env) + 1j * rng.normal(size=2**n_env)
        init /= np.linalg.norm(init)
        couplings = {}
        for loc in c.locations:
            if rng.random() < 0.75:
                theta = float(rng.uniform(0.0, 0.1))
                pq = np.kron(PAULIS[rng.integers(3)], PAULIS[rng.integers(3)])
                u = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * pq
                e = n_sys + int(rng.integers(n_env))
                q = int(rng.choice(loc.support))
                couplings[loc.index] = Channel.unitary(u, (2, 2), (q, e))
        env = EnvironmentSpec(n_env, init, couplings)
        delta = accuracy_delta_exact(c, env)
        eps = environment_strength(env)
        assert delta <= 2 * c.size * eps + 1e-10, (trial, delta, c.size, eps)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 2 runtime {elapsed:.1f}s"
    verdict(2, "environment delta <= 2*L*eps on 50 joint-unitary circuits")


def _random_faultpath_instance(rng, n_loc, n_qubits=1):
    ops = [Location.prep(0, 0, q, KET_PLUS if q == 0 else KET0) for q in range(n_qubits)]
    while len(ops) < n_loc:
        ops.append(Location.gate_on(0, 0, int(rng.integers(n_qubits)), haar_unitary(rng, 2)))
    c = Circuit.sequential(n_qubits, ops)
    noise = {
        loc.index: make_noise_channel(
            NoiseSpec.probabilistic(float(rng.uniform(0.02, 0.15)), haar_unitary(rng, 2)),
            support=(loc.support[0],),
        )
        for loc in c.locations
    }
    return c, noise


def test_criterion_03_fault_path_exactness():
    rng = np.random.default_rng(20260803)
    for n_loc, n_qubits in ((2, 1), (3, 2), (4, 1), (5, 1), (5, 2), (4, 2), (3, 1), (2, 2)):
        c, noise = _random_faultpath_instance(rng, n_loc, n_qubits)
        rho_i, _ = simulate_ideal(c)
        rho_n, _ = simulate_noisy(c, noise)
        diff = rho_n - rho_i

        total = sum(zeta_earliest(c, noise, r) for r in range(1, c.size + 1))
        assert np.max(np.abs(total - diff)) <= 1e-10

        signed = np.zeros_like(diff)
        for r in range(1, c.size + 1):
            for subset in itertools.combinations(range(1, c.size + 1), r):
                signed = signed + (-1) ** (r + 1) * zeta_subset(c, noise, set(subset))
        assert np.max(np.abs(signed - diff)) <= 1e-9
    verdict(3, "earliest-fault and signed-subset sums reproduce rho_noisy")


def test_criterion_04_ie_identities():
    for l0 in range(1, 9):
        for t in range(min(3, l0)):
            v = verify_ie_identity(l0, t)
            assert bool(v), (l0, t, v.counterexample)
    for t in range(4):
        coeffs: dict[int, int] = {}
        for f in range(t + 1, 11):
            acc = sum(coeffs[s] * math.comb(f, s) for s in range(t + 1, f))
            coeffs[f] = 1 - acc
        for s in range(t + 1, 11):
            assert ie_coefficient(s, t) == coeffs[s]
    verdict(4, "IE lattice identities and coefficient oracle agree")


def test_criterion_05_truncation_exhaustive():
    graph = GadgetGraph((Gadget(5, ((2, 1),)), Gadget(5)))  # 12 locations
    n = graph.total_locations
    for t in (1, 2):
        min_double = n + 1
        for bits in range(1 << n):
            faults = frozenset(i + 1 for i in range(n) if bits >> i & 1)
            cls = truncate_and_classify(graph, FaultConfig(faults), t)
            # the partition invariant is checked by the first read of cls.truncated
            assert len(cls.truncated) == 2
            if cls.statuses == ("bad", "bad"):
                min_double = min(min_double, len(faults))
        assert min_double == 2 * (t + 1), t
    verdict(5, "partition invariant and double-badness cost 2(t+1) exhaustively")


def test_criterion_06_binomial_bound_grid():
    violations = 0
    for L0 in range(5, 21):
        for t in (1, 2, 3):
            for eps in np.logspace(-3, -1, 9):
                exact = level1_failure_exact(L0, t, float(eps))
                bound = (
                    math.comb(L0, t + 1)
                    * eps ** (t + 1)
                    * math.exp((L0 - t - 1) * eps)
                )
                if exact > bound * (1 + 1e-12):
                    violations += 1
    assert violations == 0
    verdict(6, "binomial tail below xi-bound on the full (L0, t, eps) grid")


def test_criterion_07_level_reduction_matches_exact_map():
    crossing, _ = pseudothreshold_mc(SchemeParams(5, 1), 10**4, 0, mode="exact")
    for eps in (0.005, 0.05, 0.3):
        rows = level_reduce_mc(3, 5, 1, eps, 100_000, seed=20260807)
        exact = iterate_failure_map(3, 5, 1, eps)
        for row, x in zip(rows, exact):
            # 4 sigma under the exact-map variance, robust when zero
            # failures are observed at deep levels
            sigma = math.sqrt(x * (1 - x) / row.trials)
            assert abs(row.probability - x) <= 4 * sigma + 1e-15, (eps, row, x)
        ests = [r.probability for r in rows]
        if eps < crossing:
            assert all(b < a for a, b in zip(exact, exact[1:]))
            for i, (a, b) in enumerate(zip(rows, rows[1:])):
                sd = math.sqrt(
                    a.probability * (1 - a.probability) / a.trials
                    + b.probability * (1 - b.probability) / b.trials
                )
                if exact[i] - exact[i + 1] > 8 * sd and sd > 0:
                    assert b.probability < a.probability
                else:
                    assert b.probability <= a.probability + 4 * sd + 1e-12
        else:
            assert not all(b < a for a, b in zip(ests, ests[1:]))
    verdict(7, "level reduction tracks the exact iterated map at 4 sigma")


def test_criterion_08_threshold_arithmetic():
    p = SchemeParams(100, 1)
    assert threshold_value(p) == pytest.approx(1.0 / (math.e * 4950), rel=1e-12)

    eps0 = threshold_value(p)
    for eps in (eps0 / 4, eps0 / 2, eps0 * 1.1):
        acc = eps
        for k in range(11):
            got = strength_at_level(eps, k, p)
            if math.isinf(acc) or math.isinf(got):
                assert math.isinf(acc) == math.isinf(got)
            else:
                assert got == pytest.approx(acc, rel=1e-9)
            acc = renormalize_strength(acc, p)

    points = 0
    for L in (10**3, 10**4, 10**6, 10**8, 10**9):
        for delta0 in (1e-2, 1e-4, 1e-6, 1e-9):
            for frac in (0.9, 0.5, 0.2, 0.05, 0.01):
                eps = eps0 * frac
                k = required_level(L, delta0, eps, p)
                bound_k = (math.e - 1) * L * strength_at_level(eps, k, p)
                assert bound_k <= delta0 * (1 + 1e-9)
                if k > 0:
                    bound_prev = (math.e - 1) * L * strength_at_level(eps, k - 1, p)
                    assert bound_prev > delta0 * (1 - 1e-9)
                points += 1
    assert points == 100
    verdict(8, "threshold constant, level closed form, and level choice verified")


def test_criterion_09_diamond_interval():
    ident = Channel.identity(qubit_dims(1))
    assert diamond_distance(ident, ident) == (0.0, 0.0)
    for p in (0.02, 0.1, 0.3):
        flip = make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))
        lo, hi = diamond_distance(flip, ident)
        assert lo - 1e-9 <= 2 * p <= hi + 1e-9, (p, lo, hi)
        assert hi - lo <= 1e-4, (p, lo, hi)
    verdict(9, "diamond interval brackets 2p at width <= 1e-4")


def _seeded_configs():
    circuit = {
        "n_system": 1,
        "locations": [
            {"kind": "prep", "support": [0], "state": "0"},
            {"kind": "gate", "support": [0], "gate": "H"},
            {"kind": "gate", "support": [0], "gate": "H"},
        ],
        "final_measure": [0],
    }
    noise = {"2": {"kind": "depolarizing", "p": 0.05}}
    sx = matrix_to_json(SIGMA_X)
    return {
        "strength": {
            "command": "strength",
            "seed": 5,
            "params": {
                "evaluator": "diamond",
                "a": {"kind": "probabilistic", "p": 0.1, "e_op": sx},
                "b": {"kind": "probabilistic", "p": 0.0, "e_op": sx},
                "restarts": 8,
            },
        },
        "accuracy": {
            "command": "accuracy",
            "seed": 5,
            "params": {"circuit": circuit, "noise": noise},
        },
        "faultpaths": {
            "command": "faultpaths",
            "seed": 5,
            "params": {"circuit": circuit, "noise": noise, "mode": "subset", "subset": [2]},
        },
        "truncate": {
            "command": "truncate",
            "seed": 5,
            "params": {
                "graph": {
                    "gadgets": [
                        {"own_locations": 4, "er_out": {"count": 2, "to": 1}},
                        {"own_locations": 4},
                    ],
                    "t": 1,
                },
                "eps": 0.3,
            },
        },
        "levelred": {
            "command": "levelred",
            "seed": 5,
            "params": {"levels": 2, "L0": 5, "t": 1, "eps": 0.05, "samples": 20000},
        },
        "threshold": {
            "command": "threshold",
            "seed": 5,
            "params": {
                "L0": 5,
                "t": 1,
                "pseudothreshold": {"samples": 20000, "mode": "mc"},
            },
        },
    }


def test_criterion_10_determinism(tmp_path):
    for name, payload in _seeded_configs().items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        outputs = []
        for run_idx in range(3):
            out = tmp_path / f"{name}.{run_idx}.json"
            code = main([name, "--config", str(cfg), "--out", str(out)])
            assert code == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name
        for workers in ("1", "8"):
            out = tmp_path / f"{name}.w{workers}.json"
            code = main(
                [name, "--config", str(cfg), "--out", str(out), "--workers", workers]
            )
            assert code == 0, name
            assert out.read_bytes() == outputs[0], (name, workers)
    verdict(10, "all six commands byte-identical across runs and worker counts")

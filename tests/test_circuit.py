import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlab.channels import (
    SIGMA_X,
    SIGMA_Z,
    Channel,
    CorrelationGrid,
    HamiltonianTerm,
    NoiseSpec,
    make_noise_channel,
    strength_markovian,
)
from ftlab.circuit import (
    KET0,
    KET1,
    KET_PLUS,
    Circuit,
    EnvironmentSpec,
    Location,
    _readout,
    _tensor,
    _walk,
    environment_strength,
    rz,
    simulate_ideal,
    simulate_noisy,
    simulate_with_environment,
    validate_circuit,
)
from ftlab.cli import circuit_from_json, environment_spec_from_json, gate_from_json, matrix_to_json
from ftlab.matcore import (
    apply_local,
    embed_operator,
    kolmogorov_distance,
    partial_trace,
    qubit_dims,
    superoperator,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def seq(n, *ops, measure=None):
    return Circuit.sequential(n, list(ops), measure)


def env_coupling(support, u):
    """The coupling unitary `u` on the global qubits `support`, system then environment."""
    return Channel.unitary(u, qubit_dims(len(support)), support)


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_validate_empty_circuit_ok():
    c = Circuit(1, (), (0,))
    assert validate_circuit(c) == []


def test_validate_collects_violations_without_raising():
    # two gates on the same qubit inside one step
    clash = SimpleNamespace(
        n_system=2,
        locations=(
            Location.gate_on(1, 1, 0, HADAMARD),
            Location.gate_on(2, 1, (0, 1), CNOT),
        ),
        final_measure=(),
    )
    problems = validate_circuit(clash)
    assert any("busy" in p for p in problems)

    half = np.diag([0.5, 0.0])
    bad_meas = SimpleNamespace(
        n_system=1,
        locations=(
            Location.measure(1, 1, (0,), (half, np.diag([0.0, 0.5]))),
        ),
        final_measure=(),
    )
    problems = validate_circuit(bad_meas)
    assert any("sum to I" in p for p in problems)

    with pytest.raises(ValueError):
        seq(
            2,
            Location.gate_on(0, 0, 0, np.diag([1.0, 0.5])),  # not unitary
        )


Z = Location.measure

# every validate_circuit message, as the circuit constructor reports it
VALIDATE_MESSAGES = {
    "prep_dim": (
        lambda: seq(1, Location.prep(0, 0, 0, np.ones(4) / 2)),
        "invalid circuit: location 1: prep state has wrong dimension",
    ),
    "gate_dim": (
        lambda: seq(2, Location.gate_on(0, 0, (0, 1), HADAMARD)),
        "invalid circuit: location 1: gate has wrong dimension",
    ),
    "gate_array_dim": (
        lambda: seq(1, Location.gate_on(0, 0, 0, CNOT)),
        "invalid circuit: location 1: gate has wrong dimension",
    ),
    "measure_dim": (
        lambda: seq(1, Z(0, 0, 0, [np.eye(4)])),
        "invalid circuit: location 1: projector dimension mismatch",
    ),
    "measure_ragged": (
        lambda: seq(1, Z(0, 0, 0, [np.eye(4), np.eye(2)])),
        "invalid circuit: location 1: projector dimension mismatch",
    ),
    "gate_not_unitary": (
        lambda: seq(1, Location.gate_on(0, 0, 0, np.diag([1.0, 0.5]))),
        "invalid circuit: location 1: gate is not unitary",
    ),
    "measure_empty": (
        lambda: seq(1, Z(0, 0, 0, [])),
        "invalid circuit: location 1: measurement needs projectors",
    ),
    "measure_not_hermitian": (
        lambda: seq(1, Z(0, 0, 0, [np.array([[1, 1], [0, 0]]), np.array([[0, -1], [0, 1]])])),
        "invalid circuit: location 1: projectors must be Hermitian",
    ),
    "measure_not_identity": (
        lambda: seq(1, Z(0, 0, 0, [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])),
        "invalid circuit: location 1: projectors do not sum to I",
    ),
    "measure_not_projector": (
        lambda: seq(1, Z(0, 0, 0, [np.eye(2) / 2, np.eye(2) / 2])),
        "invalid circuit: location 1: projectors must satisfy P P = P",
    ),
    "condition_on_measure": (
        lambda: seq(1, Z(0, 0, 0), replace(Z(0, 0, 0), condition=(1, 0))),
        "invalid circuit: location 2: only gates may be conditioned",
    ),
    "condition_on_gate": (
        lambda: seq(
            2, Location.gate_on(0, 0, 0, HADAMARD), Location.gate_on(0, 0, 1, HADAMARD, (1, 0))
        ),
        "invalid circuit: location 2: condition references non-measurement 1",
    ),
    "condition_later_step": (
        lambda: Circuit(2, (Z(1, 1, 0), Location.gate_on(2, 1, 1, HADAMARD, (1, 0))), (0, 1)),
        "invalid circuit: location 2: condition references a later step",
    ),
    "condition_outcome_range": (
        lambda: seq(2, Z(0, 0, 0), Location.gate_on(0, 0, 1, HADAMARD, (1, 2))),
        "invalid circuit: location 2: condition outcome 2 out of range",
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_MESSAGES))
def test_validate_messages_word_for_word(case):
    build, message = VALIDATE_MESSAGES[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_location_ops_is_one_read_only_stack():
    rng = np.random.default_rng(5)
    u = haar_unitary(rng, 4)
    gate = Location.gate_on(1, 1, (0, 1), u)
    assert gate.ops.shape == (1, 4, 4) and gate.ops.dtype == np.complex128
    assert not gate.ops.flags.writeable
    with pytest.raises(ValueError):
        gate.ops[0, 0, 0] = 0.0
    projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    meas = Location.measure(1, 1, 0, projs)
    assert meas.ops.shape == (2, 2, 2)
    np.testing.assert_array_equal(meas.ops, np.stack(projs))
    np.testing.assert_array_equal(Location.measure(1, 1, 0).ops, meas.ops)
    assert Location.wait(1, 1, (2, 0)).ops.size == 0
    psi = haar_unitary(rng, 4)[:, 0]
    prep = Location.prep(1, 1, (0, 1), psi)
    assert prep.ops.shape == (1, 4, 1)
    np.testing.assert_array_equal(prep.ops[0, :, 0], psi)
    with pytest.raises(ValueError, match="prep state must be normalized"):
        Location.prep(1, 1, 0, [1.0, 1.0])


def test_array_dataclasses_compare_by_identity_and_hash():
    grid = np.ones((1, 1, 1, 1))
    coupling = Channel.identity((2, 2), (0, 1))
    pairs = [
        (Channel.identity((2,)), Channel.identity((2,))),
        (Location.gate_on(1, 1, 0, HADAMARD), Location.gate_on(1, 1, 0, HADAMARD)),
        (CorrelationGrid(grid, 1.0, ((0,),)), CorrelationGrid(grid, 1.0, ((0,),))),
        (NoiseSpec.probabilistic(0.1, SIGMA_X), NoiseSpec.probabilistic(0.1, SIGMA_X)),
        (HamiltonianTerm((0,), SIGMA_Z, 1), HamiltonianTerm((0,), SIGMA_Z, 1)),
        (EnvironmentSpec(1, KET0, {1: coupling}), EnvironmentSpec(1, KET0, {1: coupling})),
    ]
    for a, b in pairs:
        assert a == a
        assert (a == b) is False
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_operator_fields_are_read_only_copies():
    source = SIGMA_X.copy()
    stored = [
        NoiseSpec.probabilistic(0.1, source).e_op,
        HamiltonianTerm((0,), source, 1).op,
        Channel.unitary(source).kraus[0],
    ]
    source[:] = 0.0
    for op in stored:
        assert op.dtype == np.complex128 and not op.flags.writeable
        np.testing.assert_array_equal(op, SIGMA_X)


def test_simulate_ideal_prep_and_measure():
    c = seq(1, Location.prep(0, 0, 0, KET0), measure=[0])
    _, dist = simulate_ideal(c)
    assert dist[0b0] == pytest.approx(1.0, abs=1e-12)

    c = seq(1, Location.prep(0, 0, 0, KET0), Location.gate_on(0, 0, 0, HADAMARD), measure=[0])
    _, dist = simulate_ideal(c)
    assert dist[0b0] == pytest.approx(0.5, abs=1e-12)
    assert dist[0b1] == pytest.approx(0.5, abs=1e-12)


def test_simulate_ideal_bell_pair():
    c = seq(
        2,
        Location.prep(0, 0, 0, KET0),
        Location.prep(0, 0, 1, KET0),
        Location.gate_on(0, 0, 0, HADAMARD),
        Location.gate_on(0, 0, (0, 1), CNOT),
        measure=[0, 1],
    )
    rho, dist = simulate_ideal(c)
    assert dist[0b00] == pytest.approx(0.5, abs=1e-12)
    assert dist[0b11] == pytest.approx(0.5, abs=1e-12)
    assert dist[0b01] == 0.0 and dist[0b10] == 0.0
    bell = np.zeros(4, dtype=np.complex128)
    bell[[0, 3]] = 1 / math.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(bell, bell.conj()), atol=1e-12)


def test_simulate_ideal_mixes_unreferenced_and_conditioned_measurements():
    # q1 copies the outcome of q0's measurement through a conditioned X;
    # the unreferenced measurement of q2 dephases |+>, so H no longer
    # returns it to |0>
    c = seq(
        3,
        Location.prep(0, 0, 0, KET_PLUS),
        Location.prep(0, 0, 1, KET0),
        Location.prep(0, 0, 2, KET_PLUS),
        Location.measure(0, 0, 0),
        Location.measure(0, 0, 2),
        Location.gate_on(0, 0, 1, SIGMA_X, condition=(4, 1)),
        Location.gate_on(0, 0, 2, HADAMARD),
        measure=[2, 0, 1],
    )
    rho, dist = simulate_ideal(c)
    for i in (0b000, 0b100, 0b011, 0b111):
        assert dist[i] == pytest.approx(0.25, abs=1e-12)
    assert dist.shape == (8,)
    want = np.kron(np.diag([0.5, 0, 0, 0.5]), np.eye(2) / 2)
    np.testing.assert_allclose(rho, want, atol=1e-12)


def test_simulate_noisy_identity_matches_ideal():
    c = seq(
        2,
        Location.prep(0, 0, 0, KET_PLUS),
        Location.prep(0, 0, 1, KET0),
        Location.gate_on(0, 0, (0, 1), CNOT),
    )
    rho_i, dist_i = simulate_ideal(c)
    rho_n, dist_n = simulate_noisy(
        c,
        {
            1: Channel.identity(qubit_dims(1), (0,)),
            2: Channel.identity(qubit_dims(1), (1,)),
        },
    )
    np.testing.assert_allclose(rho_n, rho_i, atol=1e-10)
    assert kolmogorov_distance(dist_n, dist_i) <= 1e-10


def test_simulate_noisy_single_bitflip_location():
    p = 0.17
    c = seq(1, Location.prep(0, 0, 0, KET0), measure=[0])
    flip = make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))
    _, dist = simulate_noisy(c, {1: flip})
    assert dist[0b0] == pytest.approx(1 - p, abs=1e-12)
    assert dist[0b1] == pytest.approx(p, abs=1e-12)


def test_simulate_noisy_depolarizing_within_linear_bound():
    rng = np.random.default_rng(31)
    ident = Channel.identity(qubit_dims(1))
    for n_loc in (2, 5, 8):
        for p in (0.01, 0.05):
            ops = [Location.prep(0, 0, 0, KET_PLUS)]
            for _ in range(n_loc - 1):
                ops.append(Location.gate_on(0, 0, 0, haar_unitary(rng, 2)))
            c = seq(1, *ops, measure=[0])
            dep = make_noise_channel(NoiseSpec.depolarizing(p))
            eps = strength_markovian(dep, ident)
            noise = {i: dep for i in range(1, n_loc + 1)}
            _, dist_n = simulate_noisy(c, noise)
            _, dist_i = simulate_ideal(c)
            delta = kolmogorov_distance(dist_n, dist_i)
            assert delta <= n_loc * eps + 1e-12


def test_simulate_noisy_rejects_nonlocal_noise():
    c = seq(2, Location.prep(0, 0, 0, KET0), Location.prep(0, 0, 1, KET0))
    off_support = make_noise_channel(NoiseSpec.depolarizing(0.1), support=(1,))
    with pytest.raises(ValueError):
        simulate_noisy(c, {1: off_support})
    with pytest.raises(ValueError):
        simulate_noisy(c, {7: make_noise_channel(NoiseSpec.depolarizing(0.1))})


def _dilation_coupling(ch, sys_qubit, env_qubit):
    """Stinespring unitary of a two-Kraus qubit channel on (system, environment):
    its environment-|0> columns are the isometry sum_k K_k ⊗ |k>, and QR
    completes the other columns."""
    assert len(ch.kraus) == 2, "test channels must have two Kraus operators"
    iso = ch.kraus.transpose(1, 0, 2).reshape(4, 2)  # row s * 2 + k
    u = np.empty((4, 4), dtype=np.complex128)
    u[:, 0::2] = iso
    u[:, 1::2] = np.linalg.qr(iso, mode="complete")[0][:, 2:]
    return env_coupling((sys_qubit, env_qubit), u)


def test_markovian_dilation_consistency():
    # fresh environment qubit per location, traced only at the end, must
    # reproduce the channel-based simulation
    c = seq(
        1,
        Location.prep(0, 0, 0, KET_PLUS),
        Location.gate_on(0, 0, 0, HADAMARD),
        Location.wait(0, 0, 0),
        measure=[0],
    )
    chans = {
        1: make_noise_channel(NoiseSpec.probabilistic(0.1, SIGMA_X)),
        2: make_noise_channel(NoiseSpec.amplitude_damping(0.2, 1.0)),
        3: make_noise_channel(NoiseSpec.probabilistic(0.05, SIGMA_Z)),
    }
    rho_n, dist_n = simulate_noisy(c, chans)
    env = EnvironmentSpec(
        3,
        np.eye(8, dtype=np.complex128)[:, 0],
        {idx: _dilation_coupling(ch, 0, idx) for idx, ch in chans.items()},
    )
    rho_e, dist_e = simulate_with_environment(c, env)
    np.testing.assert_allclose(rho_e, rho_n, atol=1e-9)
    assert kolmogorov_distance(dist_e, dist_n) <= 1e-9


def test_environment_identity_couplings_match_ideal():
    c = seq(
        1,
        Location.prep(0, 0, 0, KET0),
        Location.gate_on(0, 0, 0, HADAMARD),
        measure=[0],
    )
    eye4 = np.eye(4, dtype=np.complex128)
    env = EnvironmentSpec(
        1, KET0, {1: env_coupling((0, 1), eye4), 2: env_coupling((0, 1), eye4)}
    )
    assert environment_strength(env) == pytest.approx(0.0, abs=1e-12)
    rho_e, dist_e = simulate_with_environment(c, env)
    rho_i, dist_i = simulate_ideal(c)
    np.testing.assert_allclose(rho_e, rho_i, atol=1e-10)
    assert kolmogorov_distance(dist_e, dist_i) <= 1e-10


def test_environment_coupling_within_double_linear_bound():
    zz = np.kron(SIGMA_Z, SIGMA_X)
    for theta in (0.01, 0.05):
        # exp(-i theta Z (x) X), since (Z (x) X)^2 = I
        n = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zz
        c = seq(
            1,
            Location.prep(0, 0, 0, KET_PLUS),
            Location.gate_on(0, 0, 0, HADAMARD),
            Location.wait(0, 0, 0),
            measure=[0],
        )
        env = EnvironmentSpec(
            1, KET0, {i: env_coupling((0, 1), n) for i in (1, 2, 3)}
        )
        eps = environment_strength(env)
        assert eps == pytest.approx(abs(np.exp(1j * theta) - 1.0), rel=1e-9)
        _, dist_e = simulate_with_environment(c, env)
        _, dist_i = simulate_ideal(c)
        assert kolmogorov_distance(dist_e, dist_i) <= 2 * 3 * eps + 1e-12


def _induced_pauli_z_coupling(theta):
    # exp(-i theta Z (x) Z) on (system qubit, one environment qubit)
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    return np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zz


def _tomography_offdiag(env_initial, theta):
    """Coefficient multiplying |0><1| under the induced two-location map."""
    results = {}
    for name, state in {"0": KET0, "1": KET1, "+": KET_PLUS, "y": np.array([1, 1j]) / math.sqrt(2)}.items():
        c = seq(
            1,
            Location.prep(0, 0, 0, state),
            Location.wait(0, 0, 0),
            Location.wait(0, 0, 0),
            measure=[0],
        )
        n = _induced_pauli_z_coupling(theta)
        env = EnvironmentSpec(
            2,
            env_initial,
            {2: env_coupling((0, 1), n), 3: env_coupling((0, 2), n)},
        )
        rho, _ = simulate_with_environment(c, env)
        results[name] = rho
    phi_01 = (
        results["+"]
        + 1j * results["y"]
        - 0.5 * (1 + 1j) * (results["0"] + results["1"])
    )
    return phi_01[0, 1]


def test_entangled_environment_beats_every_product_fit():
    # two couplings exp(-i pi/8 Z (x) Z) to two env qubits; if the env qubits
    # start entangled (Bell) the phase kicks add coherently and cancel the
    # off-diagonal exactly; any product environment keeps |coefficient| >= 1/2
    theta = math.pi / 8
    bell = np.zeros(4, dtype=np.complex128)
    bell[[0, 3]] = 1 / math.sqrt(2)
    z_entangled = _tomography_offdiag(bell, theta)
    assert abs(z_entangled) <= 1e-9

    # the product family: each env qubit contributes a factor on the chord
    # lam*exp(-2i theta) + (1-lam)*exp(2i theta); scan both factors
    lams = np.linspace(0.0, 1.0, 101)
    chord = lams * np.exp(-2j * theta) + (1 - lams) * np.exp(2j * theta)
    best = np.min(np.abs(chord[:, None] * chord[None, :]))
    assert best >= 0.5 - 1e-12
    # Choi trace distance between the fitted and observed maps is 2|dz|
    assert 2 * np.min(np.abs(chord[:, None] * chord[None, :] - z_entangled)) >= 0.99

    # sanity: a product env state realizes its chord point inside the simulator
    for a in (1.0, 0.6):
        b = math.sqrt(1 - a * a)
        prod = np.kron(np.array([a, b]), np.array([a, b])).astype(np.complex128)
        z_prod = _tomography_offdiag(prod, theta)
        want = (a * a * np.exp(-2j * theta) + b * b * np.exp(2j * theta)) ** 2
        assert z_prod == pytest.approx(want, abs=1e-10)


def _identity_couplings(c, n_env=1):
    """An identity coupling of each non-measurement location's first qubit
    to every environment qubit."""
    return {
        loc.index: env_coupling(
            (loc.support[0], *range(c.n_system, c.n_system + n_env)), np.eye(2 ** (1 + n_env))
        )
        for loc in c.locations
        if loc.kind != "measure"
    }


def test_environment_runs_conditioned_circuits():
    # with identity couplings the environment run equals the ideal walk:
    # a Z measurement feeding X (q1 copies q0), an X-basis measurement
    # feeding a random gate, and a two-qubit measurement with four outcomes
    # feeding X; each measured qubit is reused afterwards
    rng = np.random.default_rng(32)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=np.complex128)
    circuits = [
        seq(
            2,
            Location.prep(0, 0, 0, KET_PLUS),
            Location.prep(0, 0, 1, KET0),
            Location.measure(0, 0, 0),
            Location.gate_on(0, 0, 1, SIGMA_X, condition=(3, 1)),
            Location.gate_on(0, 0, 0, HADAMARD),
        ),
        seq(
            3,
            Location.prep(0, 0, (0, 1), haar_unitary(rng, 4)[:, 0]),
            Location.prep(0, 0, 2, KET0),
            Location.measure(0, 0, (0, 1), np.eye(4)[:, None, :] * np.eye(4)[:, :, None]),
            Location.gate_on(0, 0, 2, SIGMA_X, condition=(3, 2)),
            Location.gate_on(0, 0, (1, 2), CNOT),
            measure=[2, 1],
        ),
    ]
    for _ in range(3):
        circuits.append(
            seq(
                2,
                Location.prep(0, 0, 0, haar_unitary(rng, 2)[:, 0]),
                Location.prep(0, 0, 1, haar_unitary(rng, 2)[:, 0]),
                Location.measure(0, 0, 0, (plus, minus)),
                Location.gate_on(0, 0, 1, haar_unitary(rng, 2), condition=(3, 1)),
                Location.gate_on(0, 0, (1, 0), CNOT),
                measure=[1],
            )
        )
    for c in circuits:
        for n_env in (1, 2):
            env = EnvironmentSpec(n_env, np.eye(2**n_env)[0], _identity_couplings(c, n_env))
            rho_e, dist_e = simulate_with_environment(c, env)
            rho_i, dist_i = simulate_ideal(c)
            np.testing.assert_allclose(rho_e, rho_i, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist_e, dist_i, rtol=0, atol=1e-12)


def test_environment_reuses_an_unread_measured_qubit():
    # q0 is measured and used again, whether or not a gate reads the outcome;
    # both runs equal the ideal walk
    ops = [
        Location.prep(0, 0, 0, KET_PLUS),
        Location.measure(0, 0, 0),
        Location.gate_on(0, 0, 0, HADAMARD),
    ]
    env = EnvironmentSpec(1, KET0, {})
    for c in (seq(1, *ops), seq(1, *ops, Location.gate_on(0, 0, 0, SIGMA_X, condition=(2, 1)))):
        rho, dist = simulate_with_environment(c, env)
        np.testing.assert_allclose(rho, _joint_reference(c, env), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rho, simulate_ideal(c)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, [0.5, 0.5], rtol=0, atol=1e-12)


def test_circuit_json_named_gates():
    cfg = {
        "n_system": 2,
        "locations": [
            {"kind": "prep", "support": [0], "state": "0"},
            {"kind": "prep", "support": [1], "state": "0"},
            {"kind": "gate", "support": [0], "gate": "H"},
            {"kind": "gate", "support": [0, 1], "gate": "CNOT"},
        ],
        "final_measure": [0, 1],
    }
    c = circuit_from_json(cfg)
    _, dist = simulate_ideal(c)
    assert dist[0b00] == pytest.approx(0.5, abs=1e-12)
    assert dist[0b11] == pytest.approx(0.5, abs=1e-12)

    np.testing.assert_allclose(gate_from_json("Rz(0.3)"), rz(0.3))
    np.testing.assert_allclose(
        gate_from_json(matrix_to_json(HADAMARD)), HADAMARD, atol=1e-15
    )
    with pytest.raises(ValueError):
        gate_from_json("SWAP")


def test_environment_spec_json():
    n = _induced_pauli_z_coupling(0.1)
    cfg = {
        "n_env": 1,
        "couplings": {"1": {"support": [0, 1], "unitary": matrix_to_json(n)}},
    }
    env = environment_spec_from_json(cfg)
    assert env.n_env == 1
    np.testing.assert_allclose(env.initial, KET0)
    assert env.couplings[1].support == (0, 1)


Z_PROJECTOR_STACK = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(np.complex128)


def projector_readout(rho, qubits):
    """The former read-out, kept as an oracle: rho reduced onto `qubits`,
    then one Z projector stack contracted per qubit, outcomes indexed with
    the first of `qubits` most significant."""
    if not qubits:
        return np.array([1.0])
    m = len(qubits)
    perm = [sorted(qubits).index(q) for q in qubits]
    t = partial_trace(rho, qubits).reshape((2,) * 2 * m)
    t = t.transpose(perm + [m + p for p in perm])
    for j in range(m):
        # qubit j's row and column lead each half: tr(P rho) = sum P[i, l] rho[l, i]
        t = np.tensordot(t, Z_PROJECTOR_STACK, ([0, m - j], [2, 1]))
    return np.array([max(0.0, float(p.real)) for p in t.reshape(-1)])


def random_noisy_circuit(rng, n, measure):
    """Random preps, one- and two-qubit gates and waits, with zoo noise on
    about half the locations."""
    ops = [Location.prep(0, 0, q, KET_PLUS if rng.random() < 0.5 else KET0) for q in range(n)]
    for _ in range(3 * n):
        r = rng.random()
        if r < 0.4:
            ops.append(Location.gate_on(0, 0, int(rng.integers(n)), haar_unitary(rng, 2)))
        elif r < 0.8 and n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(Location.gate_on(0, 0, (int(a), int(b)), CNOT))
        else:
            ops.append(Location.wait(0, 0, int(rng.integers(n))))
    c = seq(n, *ops, measure=measure)
    specs = [
        NoiseSpec.depolarizing(0.05),
        NoiseSpec.amplitude_damping(0.1, 1.0),
        NoiseSpec.control_rotation(0.03),
    ]
    noise = {}
    for loc in c.locations:
        if rng.random() < 0.5:
            q = loc.support[int(rng.integers(len(loc.support)))]
            noise[loc.index] = make_noise_channel(specs[int(rng.integers(3))], support=(q,))
    return c, noise


def test_readout_matches_projector_contraction_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            subset = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            permuted = [int(q) for q in rng.permutation(subset)]
            for measure in (list(range(n)), [int(q) for q in subset], permuted, []):
                c, noise = random_noisy_circuit(rng, n, measure)
                rho, dist = simulate_noisy(c, noise)
                assert c.final_measure == tuple(measure)
                assert dist.dtype == np.float64
                assert np.array_equal(dist, projector_readout(rho, c.final_measure))


def test_readout_allocates_no_copy_of_rho():
    # a full read-out keeps every qubit: its reduced matrix is rho itself
    n = 8
    c = seq(n, *(Location.gate_on(0, 0, q, HADAMARD) for q in range(n)))
    rho, dist = simulate_ideal(c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert np.array_equal(_readout(c, rho), dist)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < rho.nbytes / 2


def test_empty_readout_is_exactly_certain():
    c = seq(2, Location.prep(0, 0, 0, KET_PLUS), measure=[])
    probs = simulate_ideal(c)[1]
    assert probs.dtype == np.float64 and probs.tolist() == [1.0]
    # no rounding of the noisy trace reaches delta
    c, noise = random_noisy_circuit(np.random.default_rng(5), 3, [])
    assert kolmogorov_distance(simulate_noisy(c, noise)[1], simulate_ideal(c)[1]) == 0.0


def test_readout_rejects_unnormalized_rho():
    c = seq(1, Location.prep(0, 0, 0, KET0), measure=[0])
    rho, _ = simulate_ideal(c)
    with pytest.raises(ValueError, match="out of range: max 2.0, sum 2.0"):
        _readout(c, 2 * rho)
    with pytest.raises(ValueError, match="out of range: max 0.7, sum 1.4"):
        _readout(c, np.diag([0.7, 0.7]).astype(np.complex128))


@given(
    st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)))),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prep_reset_matches_reset_set(n_order, k, seed):
    # the walk's prep is the channel sum_k |psi><k| x |k><psi|, here on any
    # matrix x the walk holds; on a ket v the nonzero rows b of the stack it
    # returns sum, as |b><b|, to it on |v><v|. A wait on every qubit, in a
    # random order, loads x (a superoperator taking |0...0><0...0| to it) or
    # v (an operator taking |0...0> to it) before the prep
    n, order = n_order
    support = tuple(order[: min(k, n)])
    rng = np.random.default_rng(seed)
    d, d_sup = 2**n, 2 ** len(support)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi = rng.normal(size=d_sup) + 1j * rng.normal(size=d_sup)
    psi /= np.linalg.norm(psi)
    resets = [np.outer(psi, row) for row in np.eye(d_sup)]
    load = seq(n, Location.wait(0, 0, order))
    c = seq(n, Location.wait(0, 0, order), Location.prep(0, 0, support, psi))
    sup_op = np.zeros((d,) * 4, dtype=np.complex128)
    sup_op[:, :, 0, 0] = x
    loaded = sum(_walk(load, {1: (order, sup_op)}))
    want = apply_local(loaded, resets, support)
    got = sum(_walk(c, {1: (order, sup_op)}))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    mask = rng.random(d) < 0.6
    mask[rng.integers(d)] = True  # a zero v is no state
    v = (rng.normal(size=d) + 1j * rng.normal(size=d)) * mask
    op = np.zeros((1, d, d), dtype=np.complex128)
    op[0, :, 0] = v
    ((loaded,),) = _walk(load, {1: (order, op)}, KET0)  # one row, v (x) |0> on one environment qubit
    want = apply_local(np.outer(loaded, loaded.conj()), resets, support)
    rows = [b for stack in _walk(c, {1: (order, op)}, KET0) for b in stack]
    assert all(b.shape == loaded.shape and b.any() for b in rows)
    got = sum((np.outer(b, b.conj()) for b in rows), np.zeros((2 * d, 2 * d)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1.0))


def _dense_walk(c, after):
    """The walk's meaning in dense matrices: from |0...0><0...0|, every
    location and `after` entry embedded with `embed_operator` and applied
    by matmul, a prep as sum_k |psi><k| . |k><psi|, and one state per
    outcome record of the measurements gates read, never merged."""
    n = c.n_system
    rho = np.zeros((2**n,) * 2, dtype=np.complex128)
    rho[0, 0] = 1.0
    read = {loc.condition[0] for loc in c.locations if loc.condition}
    states = [({}, rho)]

    def kraus(ks, support):
        es = [embed_operator(k, support, n) for k in ks]
        return lambda x: sum(e @ x @ e.conj().T for e in es)

    def superop(s, support):
        # Y = sum S[a, b, i, j] |a><i| X |j><b|, S laid out as superoperator() returns it
        d = len(s)
        unit = [[embed_operator(np.outer(r, q), support, n) for q in np.eye(d)] for r in np.eye(d)]
        return lambda x: sum(s[a, b, i, j] * unit[a][i] @ x @ unit[j][b]
                             for a, b, i, j in np.ndindex(s.shape))

    for loc in c.locations:
        if loc.kind == "prep":
            psi = loc.ops[0, :, 0]
            f = kraus([np.outer(psi, row) for row in np.eye(len(psi))], loc.support)
            states = [(rec, f(x)) for rec, x in states]
        elif loc.kind == "measure" and loc.index in read:
            states = [({**rec, loc.index: a}, kraus([p], loc.support)(x))
                      for rec, x in states for a, p in enumerate(loc.ops)]
        elif loc.kind in ("gate", "measure"):
            f, cond = kraus(loc.ops, loc.support), loc.condition
            states = [(rec, x if cond and rec[cond[0]] != cond[1] else f(x)) for rec, x in states]
        if loc.index in after:
            support, ops = after[loc.index]
            f = kraus(ops, support) if ops.ndim == 3 else superop(ops, support)
            states = [(rec, f(x)) for rec, x in states]
    return sum(x for _, x in states)


def _lazy_walk_case(rng, n, faults):
    """A random circuit on n qubits and its `after` table: one- and
    two-qubit (entangled) preps, re-preps of used qubits, a one-qubit prep
    right after a two-qubit one on the same qubit, gates, waits, terminal
    and mid-circuit measurements, and a measurement in a random basis read
    by a conditioned gate; each prep and about half the other locations
    followed by a random two-Kraus channel, or with `faults` by that or its
    fault insertion N - I, on some of its qubits in random order. The
    read-out is a random subset in random order."""

    def pick(k):
        return [int(q) for q in rng.choice(n, min(k, n), replace=False)]

    ops = []
    chunks = ["prep", "branch", "partial"] + list(rng.choice(["prep", "gate", "gate", "wait", "measure"], 6))
    for chunk in rng.permutation(chunks):
        if chunk == "prep" or chunk == "partial" and n < 2:
            q = pick(int(rng.integers(1, 3)))
            ops.append(Location.prep(0, 0, q, haar_unitary(rng, 2 ** len(q))[:, 0]))
        elif chunk == "partial":
            q = pick(2)
            ops.append(Location.prep(0, 0, q, haar_unitary(rng, 4)[:, 0]))
            ops.append(Location.prep(0, 0, q[int(rng.integers(2))], haar_unitary(rng, 2)[:, 0]))
        elif chunk == "gate":
            q = pick(int(rng.integers(1, 3)))
            ops.append(Location.gate_on(0, 0, q, haar_unitary(rng, 2 ** len(q))))
        elif chunk == "wait":
            ops.append(Location.wait(0, 0, pick(int(rng.integers(1, 3)))))
        elif chunk == "measure":
            ops.append(Location.measure(0, 0, pick(1)))
        else:
            basis = haar_unitary(rng, 2)
            ops.append(Location.measure(0, 0, pick(1), [np.outer(b, b.conj()) for b in basis.T]))
            ref = len(ops)
            ops.append(Location.gate_on(0, 0, pick(1), haar_unitary(rng, 2)))
            q = pick(int(rng.integers(1, 3)))
            ops.append(Location.gate_on(0, 0, q, haar_unitary(rng, 2 ** len(q)), (ref, int(rng.integers(2)))))
    read_out = pick(int(rng.integers(0, n + 1)))
    c = seq(n, *ops, measure=read_out)
    after = {}
    for loc in c.locations:
        if loc.kind == "prep" or rng.random() < 0.5:
            support = [q for q in loc.support if rng.random() < 0.7] or list(loc.support[:1])
            support = [int(q) for q in rng.permutation(support)]
            d = 2 ** len(support)
            ks = haar_unitary(rng, 2 * d)[:, :d].reshape(2, d, d)
            fault = superoperator(ks) - np.eye(d * d).reshape((d,) * 4)
            after[loc.index] = (tuple(support), fault if faults and rng.random() < 0.5 else ks)
    return c, after


@given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_lazy_walk_matches_dense_walk(n, faults, seed):
    c, after = _lazy_walk_case(np.random.default_rng(seed), n, faults)
    want = _dense_walk(c, after)
    got = sum(_walk(c, after))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    if not faults:  # a state: its read-out, the first qubit most significant
        m = len(c.final_measure)
        probs = [np.trace(embed_operator(np.diag(row), c.final_measure, c.n_system) @ want).real
                 for row in np.eye(2**m)]
        np.testing.assert_allclose(_readout(c, got), probs, rtol=0, atol=1e-14)


@given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_readout_walk_matches_full_walk(n, faults, seed):
    # the read-out walk retires each qubit at its last touch, a read-out
    # qubit as its diagonal: it gives the full walk's reduced diagonal, with
    # fault insertions too, and for a state the same checked read-out
    c, after = _lazy_walk_case(np.random.default_rng(seed), n, faults)
    rho = sum(_walk(c, after))
    got = sum(_walk(c, after, readout=True))
    qubits = c.final_measure
    perm = [sorted(qubits).index(q) for q in qubits]
    want = np.diagonal(partial_trace(rho, qubits)).reshape((2,) * len(qubits)).transpose(perm)
    np.testing.assert_allclose(got, want.reshape(-1), rtol=0, atol=1e-14)
    if not faults:
        np.testing.assert_allclose(_readout(c, got), _readout(c, rho), rtol=0, atol=1e-14)


def test_prep_costs_no_superoperator():
    # the reset set of a 5-qubit prep as one superoperator is 16 MiB
    state = np.full(32, 1 / math.sqrt(32), dtype=np.complex128)
    c = seq(5, Location.prep(0, 0, (3, 1, 4, 0, 2), state))
    tracemalloc.start()
    try:
        rho, dist = simulate_ideal(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_allclose(rho, np.full((32, 32), 1 / 32), atol=1e-15)
    np.testing.assert_allclose(dist, np.full(32, 1 / 32), atol=1e-15)


def test_final_measure_range_and_repeat_checks():
    with pytest.raises(ValueError, match="out of range"):
        seq(2, measure=[2])
    with pytest.raises(ValueError, match="repeats"):
        seq(2, measure=[1, 1])
    assert seq(3).final_measure == (0, 1, 2)
    assert circuit_from_json({"n_system": 2, "final_measure": [1]}).final_measure == (1,)


def test_environment_prep_loads_any_state():
    rng = np.random.default_rng(42)
    for _ in range(3):
        pair = rng.normal(size=4) + 1j * rng.normal(size=4)
        single = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = seq(
            3,
            Location.prep(0, 0, (2, 0), pair / np.linalg.norm(pair)),
            Location.gate_on(0, 0, (0, 2), CNOT),
            Location.prep(0, 0, 1, single / np.linalg.norm(single)),
            Location.gate_on(0, 0, 1, haar_unitary(rng, 2)),
        )
        env = EnvironmentSpec(1, KET_PLUS, {})
        rho_e, dist_e = simulate_with_environment(c, env)
        rho_i, dist_i = simulate_ideal(c)
        np.testing.assert_allclose(rho_e, rho_i, atol=1e-12)
        assert kolmogorov_distance(dist_e, dist_i) <= 1e-12


def test_environment_prep_allocates_no_ket_stack():
    # the branches of an 8-qubit prep are the nonzero rows of the state on
    # its support, here one; a stack of its 2^8 reset operators is 256 MiB
    psi = haar_unitary(np.random.default_rng(8), 256)[:, 0]
    c = seq(8, Location.prep(0, 0, (7, 2, 5, 0, 1, 6, 3, 4), psi))
    tracemalloc.start()
    try:
        rho, dist = simulate_with_environment(c, EnvironmentSpec(1, KET0, {}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    rho_i, dist_i = simulate_ideal(c)
    np.testing.assert_allclose(rho, rho_i, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dist, dist_i, rtol=0, atol=1e-15)


def _dense(op, support, n):
    """`op` on the ordered qubits `support` as a dense n-qubit matrix, by np.kron."""
    rest = [q for q in range(n) if q not in support]
    order = list(support) + rest
    full = np.kron(op, np.eye(2 ** len(rest))).reshape((2,) * 2 * n)
    perm = [order.index(q) for q in range(n)]
    return full.transpose(perm + [n + p for p in perm]).reshape(2**n, 2**n)


def _joint_reference(c, env):
    """The environment run's reduced state from dense joint density matrices,
    one per outcome record of the measurements that gates read: preps as the
    reset channel sum_k |psi><k| . |k><psi|, gates and couplings as
    U . U^dag, a conditioned gate only on the records with its outcome, and
    the other measurements as sum_a P_a . P_a, each where it stands."""
    read = {loc.condition[0] for loc in c.locations if loc.condition}
    n_sys = c.n_system
    n = n_sys + env.n_env
    psi0 = np.kron(np.eye(2**n_sys)[0], env.initial)
    branches = [({}, np.outer(psi0, psi0.conj()))]
    for loc in c.locations:
        if loc.kind == "measure":
            projs = [_dense(p, loc.support, n) for p in loc.ops]
            if loc.index in read:
                branches = [({**rec, loc.index: a}, p @ rho @ p)
                            for rec, rho in branches for a, p in enumerate(projs)]
            else:
                branches = [(rec, sum(p @ rho @ p for p in projs)) for rec, rho in branches]
        elif loc.kind == "prep":
            d = 2 ** len(loc.support)
            kraus = [_dense(np.outer(loc.ops[0, :, 0], row), loc.support, n) for row in np.eye(d)]
            branches = [(rec, sum(k @ rho @ k.conj().T for k in kraus)) for rec, rho in branches]
        elif loc.kind == "gate":
            u = _dense(loc.ops[0], loc.support, n)
            cond = loc.condition
            branches = [(rec, rho if cond and rec[cond[0]] != cond[1] else u @ rho @ u.conj().T)
                        for rec, rho in branches]
        if loc.index in env.couplings:
            cp = env.couplings[loc.index]
            u = _dense(cp.kraus[0], cp.support, n)
            branches = [(rec, u @ rho @ u.conj().T) for rec, rho in branches]
    return partial_trace(sum(rho for _, rho in branches), range(n_sys))


def _random_measure(rng, support):
    """A projective measurement on `support` in a Haar-random basis, its
    basis vectors split into 2..d groups, one projector per group."""
    d = 2 ** len(support)
    basis = haar_unitary(rng, d).T
    groups = np.array_split(basis[rng.permutation(d)], int(rng.integers(2, d + 1)))
    return Location.measure(0, 0, support, [g.T @ g.conj() for g in groups])


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_environment_run_matches_dense_joint_evolution(n_sys, n_env, seed):
    # random preps (on fresh or on used qubits), gates, unread mid-circuit
    # measurements in random bases (some re-prepared at once), one
    # measurement in a random basis feeding a conditioned gate, its qubit
    # reused afterwards, a qubit re-prepared right after a coupling,
    # terminal measurements and couplings on any location, measurements
    # included, against dense joint density matrices, one per outcome
    rng = np.random.default_rng(seed)
    ops = []

    def random_ops(count):
        for _ in range(count):
            k = int(rng.integers(1, min(n_sys, 2) + 1))
            support = [int(q) for q in rng.choice(n_sys, k, replace=False)]
            draw = rng.random()
            if draw < 0.3:
                ops.append(Location.prep(0, 0, support, haar_unitary(rng, 2**k)[:, 0]))
            elif draw < 0.5:
                ops.append(_random_measure(rng, support))
                if rng.random() < 0.5:
                    ops.append(Location.prep(0, 0, support, haar_unitary(rng, 2**k)[:, 0]))
            else:
                ops.append(Location.gate_on(0, 0, support, haar_unitary(rng, 2**k)))

    random_ops(int(rng.integers(1, 4)))
    control = int(rng.integers(n_sys))
    basis = haar_unitary(rng, 2)
    ops.append(Location.measure(0, 0, control, [np.outer(b, b.conj()) for b in basis.T]))
    ref = len(ops)  # the measurement's index
    k = int(rng.integers(1, n_sys + 1))
    support = [int(q) for q in rng.choice(n_sys, k, replace=False)]
    ops.append(Location.gate_on(0, 0, support, haar_unitary(rng, 2**k), (ref, int(rng.integers(2)))))
    ops.append(Location.prep(0, 0, control, haar_unitary(rng, 2)[:, 0]))
    random_ops(int(rng.integers(0, 4)))
    # a gate whose coupling entangles its qubit with the environment, then a re-prep of that qubit
    q = int(rng.integers(n_sys))
    ops.append(Location.gate_on(0, 0, q, haar_unitary(rng, 2)))
    coupled = len(ops)
    ops.append(Location.prep(0, 0, q, haar_unitary(rng, 2)[:, 0]))
    random_ops(int(rng.integers(0, 3)))
    measured = [q for q in range(n_sys) if rng.random() < 0.5]
    ops += [Location.measure(0, 0, q) for q in measured]
    c = seq(n_sys, *ops)
    couplings = {}
    for loc in c.locations:
        if loc.index == coupled:
            support = (*loc.support, *range(n_sys, n_sys + n_env))
            couplings[loc.index] = env_coupling(support, haar_unitary(rng, 2 ** len(support)))
        elif rng.random() < 0.6:
            sys_part = [q for q in loc.support if rng.random() < 0.7]
            env_part = [n_sys + e for e in range(n_env) if not sys_part or rng.random() < 0.6]
            support = tuple(sys_part + env_part)
            couplings[loc.index] = env_coupling(support, haar_unitary(rng, 2 ** len(support)))
    env = EnvironmentSpec(n_env, haar_unitary(rng, 2**n_env)[:, 0], couplings)
    want = _joint_reference(c, env)
    rho, dist = simulate_with_environment(c, env)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, np.diagonal(want).real, rtol=0, atol=1e-12)


def test_environment_reprep_keeps_at_most_d_branches():
    # a qubit re-prepared 12 times, each time after a coupling entangles it
    # with the environment: every prep splits each row in two, and the walk
    # refactors the stack so no more than d = 8 rows remain, not 2^12
    rng = np.random.default_rng(7)
    ops, couplings = [], {}
    for i in range(12):
        ops += [Location.prep(0, 0, 0, haar_unitary(rng, 2)[:, 0]), Location.wait(0, 0, (0, 1))]
        couplings[2 * i + 2] = env_coupling((0, 1, 2), haar_unitary(rng, 8))
    c = seq(2, *ops, Location.gate_on(0, 0, (0, 1), CNOT))
    env = EnvironmentSpec(1, KET0, couplings)
    after = {i: (cp.support, cp.kraus) for i, cp in couplings.items()}
    assert sum(len(stack) for stack in _walk(c, after, KET0)) <= 8
    tracemalloc.start()
    try:
        rho, _ = simulate_with_environment(c, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_allclose(rho, _joint_reference(c, env), rtol=0, atol=1e-12)


def test_environment_couples_an_unread_measurement():
    # a coupling acts after a measurement whether or not a gate reads it:
    # the CNOT copies each outcome into the environment
    ops = [Location.prep(0, 0, 0, KET_PLUS), Location.measure(0, 0, 0)]
    env = EnvironmentSpec(1, KET0, {2: env_coupling((0, 1), CNOT)})
    for c in (seq(1, *ops), seq(1, *ops, Location.gate_on(0, 0, 0, SIGMA_X, condition=(2, 1)))):
        rho, _ = simulate_with_environment(c, env)
        np.testing.assert_allclose(rho, _joint_reference(c, env), rtol=0, atol=1e-12)
    np.testing.assert_allclose(simulate_with_environment(seq(1, *ops), env)[0], np.eye(2) / 2,
                               rtol=0, atol=1e-12)


def test_environment_ancilla_measured_and_reprepared_keeps_at_most_d_branches():
    # an ancilla q0 re-prepared, coupled to the data qubit q1 and the
    # environment, and measured in a random basis, 12 times; every other
    # measurement is coupled too. Each measurement splits every row in two
    # and each prep of the measured ancilla splits them again, yet the walk
    # keeps no more than d = 8 rows, not 4^12
    rng = np.random.default_rng(12)
    ops, couplings = [Location.prep(0, 0, 1, haar_unitary(rng, 2)[:, 0])], {}
    for i in range(12):
        ops += [Location.prep(0, 0, 0, haar_unitary(rng, 2)[:, 0]),
                Location.gate_on(0, 0, (0, 1), CNOT), _random_measure(rng, (0,))]
        couplings[len(ops) - 1] = env_coupling((0, 1, 2), haar_unitary(rng, 8))
        if i % 2:
            couplings[len(ops)] = env_coupling((0, 2), haar_unitary(rng, 4))
    c = seq(2, *ops, Location.gate_on(0, 0, 1, HADAMARD))
    env = EnvironmentSpec(1, haar_unitary(rng, 2)[:, 0], couplings)
    after = {i: (cp.support, cp.kraus) for i, cp in couplings.items()}
    assert sum(len(stack) for stack in _walk(c, after, env.initial)) <= 8
    rho, dist = simulate_with_environment(c, env)
    want = _joint_reference(c, env)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, np.diagonal(want).real, rtol=0, atol=1e-12)


def _near_identity(rng, d, theta=0.05):
    """exp(-i theta H) for a random Hermitian H of unit operator norm."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, v = np.linalg.eigh(z + z.conj().T)
    return (v * np.exp(-1j * theta * w / np.abs(w).max())) @ v.conj().T


def test_environment_terminal_measurements_cost_one_call_per_projector(monkeypatch):
    # a 5+2 GHZ chain, a near-identity coupling after each gate on its
    # support plus both environment qubits, then all 5 system qubits
    # measured: each record keeps its kets as the rows of one stack, so a
    # gate, a coupling and a projector each cost one kernel call, 20 in
    # all, not one per ket (72)
    rng = np.random.default_rng(29)
    n_sys, env_qubits = 5, (5, 6)
    gates = [Location.gate_on(0, 0, 0, HADAMARD)]
    gates += [Location.gate_on(0, 0, (q, q + 1), CNOT) for q in range(n_sys - 1)]
    c = seq(n_sys, *gates, *(Location.measure(0, 0, q) for q in range(n_sys)))
    couplings = {
        loc.index: env_coupling(loc.support + env_qubits, _near_identity(rng, 2 ** (len(loc.support) + 2)))
        for loc in c.locations if loc.kind == "gate"
    }
    env = EnvironmentSpec(2, haar_unitary(rng, 4)[:, 0], couplings)
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_local(*args)

    monkeypatch.setattr("ftlab.circuit.apply_local", counted)
    rho, dist = simulate_with_environment(c, env)
    assert len(calls) <= 20
    want = _joint_reference(c, env)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, np.diagonal(want).real, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_env", [1, 2])
def test_environment_interleaved_reads_split_every_stack(n_env):
    # two read measurements whose readers interleave, with an unread one
    # between them: the records of q0's outcome are split by q2's, every
    # stack is split by q1's unread outcomes, and q0's records are joined
    # while q2's are still open
    rng = np.random.default_rng(31 + n_env)
    c = seq(
        3,
        Location.gate_on(0, 0, (0, 1), haar_unitary(rng, 4)),
        Location.gate_on(0, 0, (1, 2), haar_unitary(rng, 4)),
        Location.measure(0, 0, 0),
        _random_measure(rng, (1,)),
        Location.measure(0, 0, 2),
        Location.gate_on(0, 0, 1, haar_unitary(rng, 2), condition=(3, 1)),
        Location.gate_on(0, 0, (0, 1), haar_unitary(rng, 4), condition=(5, 0)),
        Location.gate_on(0, 0, 2, haar_unitary(rng, 2), condition=(3, 0)),
        Location.gate_on(0, 0, (0, 2), haar_unitary(rng, 4), condition=(5, 1)),
        Location.gate_on(0, 0, (2, 1, 0), haar_unitary(rng, 8)),
    )
    initial = haar_unitary(rng, 2**n_env)[:, 0]
    rho, dist = simulate_with_environment(c, EnvironmentSpec(n_env, initial, _identity_couplings(c, n_env)))
    rho_i, dist_i = simulate_ideal(c)
    np.testing.assert_allclose(rho, rho_i, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, dist_i, rtol=0, atol=1e-12)
    env_qubits = tuple(range(3, 3 + n_env))
    couplings = {loc.index: env_coupling(loc.support + env_qubits,
                                         haar_unitary(rng, 2 ** (len(loc.support) + n_env)))
                 for loc in c.locations}
    env = EnvironmentSpec(n_env, initial, couplings)
    want = _joint_reference(c, env)
    rho, dist = simulate_with_environment(c, env)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, np.diagonal(want).real, rtol=0, atol=1e-12)


def test_environment_refuses_a_coupling_at_an_unknown_location():
    # such a coupling would count towards environment_strength yet never act
    c = seq(1, Location.prep(0, 0, 0, KET0))
    for idx in (0, 2, 99):
        env = EnvironmentSpec(1, KET0, {idx: env_coupling((0, 1), CNOT)})
        with pytest.raises(ValueError, match=f"^noise references unknown location {idx}$"):
            simulate_with_environment(c, env)


def test_environment_coupling_is_one_unitary_inside_support_plus_environment():
    # a coupling is checked like noise, with the environment qubits added to
    # each location's support; a Kraus stack or a scalar is no coupling
    c = seq(2, Location.prep(0, 0, 0, KET0), Location.gate_on(0, 0, 1, SIGMA_X))
    env = EnvironmentSpec(2, np.eye(4)[0], {1: env_coupling((1, 2), CNOT)})
    with pytest.raises(ValueError, match=r"acts on \(1, 2\), outside its support \(0,\) plus qubits 2..3$"):
        simulate_with_environment(c, env)
    for bad in (make_noise_channel(NoiseSpec.depolarizing(0.1)), Channel.identity(())):
        with pytest.raises(ValueError, match="^coupling at location 1 must be one unitary on qubits$"):
            EnvironmentSpec(1, KET0, {1: bad})


def _conditioned_chain(n, m):
    """n qubits in |+>; then m times: measure qubit j, an X on qubit j + 1
    conditioned on outcome 1, and an H on qubit j (j cycling over n)."""
    ops = [Location.prep(0, 0, q, KET_PLUS) for q in range(n)]
    for j in range(m):
        q = j % n
        ops.append(Location.measure(0, 0, q))
        ops.append(Location.gate_on(0, 0, (q + 1) % n, SIGMA_X, condition=(len(ops), 1)))
        ops.append(Location.gate_on(0, 0, q, HADAMARD))
    return seq(n, *ops)


def _branch_sum(c):
    """Sum over every outcome record of the measurements that gates are
    conditioned on, each branch walked to the end on its own."""
    referenced = {loc.condition[0] for loc in c.locations if loc.condition}
    rho = np.zeros((2**c.n_system,) * 2, dtype=np.complex128)
    rho[0, 0] = 1.0
    states = [({}, rho)]
    for loc in c.locations:
        if loc.kind == "measure" and loc.index in referenced:
            states = [({**rec, loc.index: a}, apply_local(x, p[None], loc.support))
                      for rec, x in states for a, p in enumerate(loc.ops)]
        elif loc.kind == "prep":
            d = 2 ** len(loc.support)
            kraus = [np.outer(loc.ops[0, :, 0], row) for row in np.eye(d)]
            states = [(rec, apply_local(x, kraus, loc.support)) for rec, x in states]
        elif loc.kind in ("gate", "measure"):
            cond = loc.condition
            states = [(rec, x if cond and rec[cond[0]] != cond[1]
                       else apply_local(x, loc.ops, loc.support)) for rec, x in states]
    return sum(x for _, x in states)


def test_density_walk_merges_branches_no_gate_reads():
    # the walk sums the two outcomes of each measurement once its
    # conditioned X has acted, so it holds two branches, not 2^m
    c = _conditioned_chain(4, 6)
    assert len(_walk(c, {})) == 1
    np.testing.assert_allclose(simulate_ideal(c)[0], _branch_sum(c), rtol=0, atol=1e-14)
    # two measurements read by back-to-back gates, the first read again later
    c = seq(
        3,
        *(Location.prep(0, 0, q, KET_PLUS) for q in range(3)),
        Location.measure(0, 0, 0),
        Location.measure(0, 0, 1),
        Location.gate_on(0, 0, 2, HADAMARD, condition=(4, 1)),
        Location.gate_on(0, 0, 2, rz(0.7), condition=(5, 1)),
        Location.gate_on(0, 0, 2, HADAMARD, condition=(4, 0)),
        Location.gate_on(0, 0, 1, HADAMARD),
    )
    np.testing.assert_allclose(simulate_ideal(c)[0], _branch_sum(c), rtol=0, atol=1e-14)
    c = _conditioned_chain(7, 8)
    tracemalloc.start()
    try:
        rho, _ = simulate_ideal(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * rho.nbytes  # the 256 unmerged branches alone are 256 rho
    np.testing.assert_allclose(rho, _branch_sum(c), rtol=0, atol=1e-14)


def test_environment_measurement_split_peak():
    # a 9+3 GHZ chain, a Haar coupling after each gate on its support plus
    # all environment qubits, then all 9 system qubits measured: the last
    # split turns 256 kets of 2^12 amplitudes (16 MiB) into 512. Its parts
    # are written into one array, a few rows per kernel call, so the run
    # peaks at the final Tr_env product (68 MiB traced), not at the split
    # (80 MiB when every part was held twice)
    rng = np.random.default_rng(3)
    n_sys, n_env = 9, 3
    gates = [Location.gate_on(0, 0, 0, HADAMARD)]
    gates += [Location.gate_on(0, 0, (q, q + 1), CNOT) for q in range(n_sys - 1)]
    c = seq(n_sys, *gates, *(Location.measure(0, 0, q) for q in range(n_sys)))
    couplings = {}
    for loc in c.locations[: len(gates)]:
        support = (*loc.support, *range(n_sys, n_sys + n_env))
        couplings[loc.index] = env_coupling(support, haar_unitary(rng, 2 ** len(support)))
    env = EnvironmentSpec(n_env, haar_unitary(rng, 2**n_env)[:, 0], couplings)
    tracemalloc.start()
    try:
        rho, dist = simulate_with_environment(c, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * 2**20
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    st.sampled_from(["kets", "matrix", "matrices"]),
    st.integers(0, 5),
    st.integers(1, 2),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_tensor_equals_kron_bit_for_bit(kind, n, k, rows, seed):
    # the walk activates a pending block by one broadcast product: the same
    # entry products np.kron forms, for a ket stack and a ket, a matrix or a
    # read-out walk's stack of matrices and a matrix
    rng = np.random.default_rng(seed)
    shape = {"kets": (rows, 2**n), "matrix": (2**n,) * 2, "matrices": (rows,) + (2**n,) * 2}[kind]
    fshape = (2**k,) * (1 if kind == "kets" else 2)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    f = rng.normal(size=fshape) + 1j * rng.normal(size=fshape)
    assert np.array_equal(_tensor(x, f), np.kron(x, f))

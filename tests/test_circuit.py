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
    stinespring_dilation,
    strength_markovian,
)
from ftlab.circuit import (
    KET0,
    KET1,
    KET_PLUS,
    Circuit,
    EnvCoupling,
    EnvironmentSpec,
    Location,
    _readout,
    _reset,
    circuit_from_json,
    environment_spec_from_json,
    environment_strength,
    gate_from_json,
    rz,
    simulate_ideal,
    simulate_noisy,
    simulate_with_environment,
    validate_circuit,
)
from ftlab.matcore import (
    apply_local,
    kolmogorov_distance,
    matrix_to_json,
    partial_trace,
    qubit_dims,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def seq(n, *ops, measure=None):
    return Circuit.sequential(n, list(ops), measure)


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
    coupling = EnvCoupling((0, 1), np.eye(4))
    pairs = [
        (Channel.identity((2,)), Channel.identity((2,))),
        (Location.gate_on(1, 1, 0, HADAMARD), Location.gate_on(1, 1, 0, HADAMARD)),
        (CorrelationGrid(grid, 1.0, ((0,),)), CorrelationGrid(grid, 1.0, ((0,),))),
        (NoiseSpec.probabilistic(0.1, SIGMA_X), NoiseSpec.probabilistic(0.1, SIGMA_X)),
        (HamiltonianTerm((0,), SIGMA_Z, 1), HamiltonianTerm((0,), SIGMA_Z, 1)),
        (coupling, EnvCoupling((0, 1), np.eye(4))),
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
        EnvCoupling((0,), source).unitary,
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
    u, n_env = stinespring_dilation(ch)
    assert n_env == 2, "test channels must have two Kraus operators"
    return EnvCoupling((sys_qubit, env_qubit), u)


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
        1, KET0, {1: EnvCoupling((0, 1), eye4), 2: EnvCoupling((0, 1), eye4)}
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
            1, KET0, {i: EnvCoupling((0, 1), n) for i in (1, 2, 3)}
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
            {2: EnvCoupling((0, 1), n), 3: EnvCoupling((0, 2), n)},
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
        loc.index: EnvCoupling(
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


def test_environment_refuses_a_reused_unreferenced_measurement():
    # q0's measurement feeds no gate, so it is deferred and must be terminal;
    # reusing a measured qubit is fine when a gate is conditioned on it
    ops = [
        Location.prep(0, 0, 0, KET_PLUS),
        Location.measure(0, 0, 0),
        Location.gate_on(0, 0, 0, HADAMARD),
    ]
    env = EnvironmentSpec(1, KET0, {})
    with pytest.raises(ValueError, match="measurement at location 2 must be terminal"):
        simulate_with_environment(seq(1, *ops), env)
    ops.append(Location.gate_on(0, 0, 0, SIGMA_X, condition=(2, 1)))
    rho, _ = simulate_with_environment(seq(1, *ops), env)
    np.testing.assert_allclose(rho, simulate_ideal(seq(1, *ops))[0], rtol=0, atol=1e-12)


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


def projector_readout(rho, qubits, dims):
    """The former read-out, kept as an oracle: rho reduced onto `qubits`,
    then one Z projector stack contracted per qubit, outcomes indexed with
    the first of `qubits` most significant."""
    if not qubits:
        return np.array([1.0])
    m = len(qubits)
    perm = [sorted(qubits).index(q) for q in qubits]
    t = partial_trace(rho, qubits, dims).reshape((2,) * 2 * m)
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
                assert np.array_equal(dist, projector_readout(rho, c.final_measure, c.dims))


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
    # a prep is the channel sum_k |psi><k| x |k><psi|, here on any x
    n, order = n_order
    support = tuple(order[: min(k, n)])
    rng = np.random.default_rng(seed)
    d, d_sup = 2**n, 2 ** len(support)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi = rng.normal(size=d_sup) + 1j * rng.normal(size=d_sup)
    psi /= np.linalg.norm(psi)
    want = apply_local(x, [np.outer(psi, row) for row in np.eye(d_sup)], support, qubit_dims(n))
    got = _reset(x, support, psi, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


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


def _dense(op, support, n):
    """`op` on the ordered qubits `support` as a dense n-qubit matrix, by np.kron."""
    rest = [q for q in range(n) if q not in support]
    order = list(support) + rest
    full = np.kron(op, np.eye(2 ** len(rest))).reshape((2,) * 2 * n)
    perm = [order.index(q) for q in range(n)]
    return full.transpose(perm + [n + p for p in perm]).reshape(2**n, 2**n)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_environment_run_matches_dense_joint_evolution(n_sys, n_env, seed):
    # random preps (each before any other use of its qubits), gates, one
    # measurement in a random basis feeding a conditioned gate, its qubit
    # reused afterwards, terminal measurements and couplings, against one
    # |psi> per outcome stepped by dense operators
    rng = np.random.default_rng(seed)
    n = n_sys + n_env
    unprepared = [int(q) for q in rng.permutation(n_sys) if rng.random() < 0.7]
    live = [q for q in range(n_sys) if q not in unprepared]
    ops = []

    def random_ops(count):
        for _ in range(count):
            if unprepared and (not live or rng.random() < 0.4):
                k = min(len(unprepared), int(rng.integers(1, 3)))
                support = [unprepared.pop() for _ in range(k)]
                ops.append(Location.prep(0, 0, support, haar_unitary(rng, 2 ** len(support))[:, 0]))
                live.extend(support)
            else:
                ops.append(random_gate())

    def random_gate(condition=None):
        k = min(len(live), int(rng.integers(1, 3)))
        support = [int(q) for q in rng.choice(live, k, replace=False)]
        return Location.gate_on(0, 0, support, haar_unitary(rng, 2**k), condition)

    random_ops(int(rng.integers(1, 4)))
    control = int(rng.choice(live))
    basis = haar_unitary(rng, 2)
    ops.append(Location.measure(0, 0, control, [np.outer(b, b.conj()) for b in basis.T]))
    ref = len(ops)  # the measurement's index
    ops.append(random_gate(condition=(ref, int(rng.integers(2)))))
    ops.append(Location.gate_on(0, 0, control, haar_unitary(rng, 2)))
    random_ops(int(rng.integers(0, 3)))
    measured = [q for q in live if rng.random() < 0.5]
    ops += [Location.measure(0, 0, q) for q in measured]
    c = seq(n_sys, *ops)
    couplings = {}
    for loc in c.locations:
        if loc.kind != "measure" and rng.random() < 0.6:
            sys_part = [q for q in loc.support if rng.random() < 0.7]
            env_part = [n_sys + e for e in range(n_env) if not sys_part or rng.random() < 0.6]
            support = tuple(sys_part + env_part)
            couplings[loc.index] = EnvCoupling(support, haar_unitary(rng, 2 ** len(support)))
    env_state = haar_unitary(rng, 2**n_env)[:, 0]
    env = EnvironmentSpec(n_env, env_state, couplings)

    branches = [(None, np.kron(np.eye(2**n_sys)[0], env_state))]
    for loc in c.locations:
        if loc.index == ref:
            projs = [_dense(p, loc.support, n) for p in loc.ops]
            branches = [(a, p @ psi) for _, psi in branches for a, p in enumerate(projs)]
        elif loc.kind == "prep":
            zero_row = np.eye(2 ** len(loc.support))[0]
            prep = _dense(np.outer(loc.ops[0, :, 0], zero_row), loc.support, n)
            branches = [(a, prep @ psi) for a, psi in branches]
        elif loc.kind == "gate":
            u = _dense(loc.ops[0], loc.support, n)
            outcome = loc.condition[1] if loc.condition else None
            branches = [(a, u @ psi if outcome in (None, a) else psi) for a, psi in branches]
        if loc.index in couplings:
            u = _dense(couplings[loc.index].unitary, couplings[loc.index].support, n)
            branches = [(a, u @ psi) for a, psi in branches]
    want = sum(m @ m.conj().T for m in (psi.reshape(2**n_sys, 2**n_env) for _, psi in branches))
    for q in measured:
        projs = [_dense(np.diag(row), [q], n_sys) for row in np.eye(2)]
        want = sum(p @ want @ p for p in projs)
    rho, dist = simulate_with_environment(c, env)
    np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist, np.diagonal(want).real, rtol=0, atol=1e-12)

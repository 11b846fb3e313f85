import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlab import channels
from ftlab.channels import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    CorrelationGrid,
    HamiltonianTerm,
    NoiseSpec,
    choi_matrix,
    compose_channels,
    diamond_distance,
    make_noise_channel,
    noise_strengths,
    strength_gaussian,
    strength_local_hamiltonian,
    strength_long_range,
    strength_markovian,
    strength_unitary_couplings,
)
from ftlab.cli import (
    correlation_grid_from_json,
    hamiltonian_terms_from_json,
    matrix_to_json,
    noise_map_from_json,
    noise_spec_from_json,
)
from ftlab.matcore import (
    apply_local,
    operator_norm,
    partial_trace,
    qubit_dims,
    trace_norm,
)

BELL = np.zeros(4, dtype=np.complex128)
BELL[[0, 3]] = 1.0 / math.sqrt(2.0)


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng, d, n_kraus=3):
    # random isometry column block -> valid Kraus set
    z = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    q, _ = np.linalg.qr(z)
    return Channel.from_kraus([q[i * d : (i + 1) * d, :] for i in range(n_kraus)], (d,))


def test_channel_requires_trace_preservation():
    with pytest.raises(ValueError):
        Channel.from_kraus([0.5 * np.eye(2)], (2,))
    with pytest.raises(ValueError):
        Channel.from_kraus([], (2,))
    with pytest.raises(ValueError, match="not trace preserving"):
        Channel.from_kraus([np.full((2, 2), np.nan)])


def test_kraus_is_one_read_only_stack():
    g = 1.0 - math.exp(-0.3)
    arrays = [np.diag([1.0, math.sqrt(1.0 - g)]), np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])]
    ch = Channel.from_kraus(arrays, (2,))
    assert isinstance(ch.kraus, np.ndarray)
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == np.complex128
    assert not ch.kraus.flags.writeable
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 0.0
    for same in (Channel.from_kraus(arrays), Channel.from_kraus(np.stack(arrays), (2,))):
        np.testing.assert_array_equal(same.kraus, ch.kraus)
        assert same.dims == ch.dims and same.support == ch.support
    source = np.stack(arrays).astype(np.complex128)
    copied = Channel.from_kraus(source, (2,))
    source[0] = 0.0
    np.testing.assert_array_equal(copied.kraus, ch.kraus)
    u = Channel.unitary(CNOT, (2, 2), (3, 1))
    assert u.kraus.shape == (1, 4, 4) and u.dims == (2, 2) and u.support == (3, 1)


def test_kraus_stack_shape_is_checked():
    dims = qubit_dims(1)
    with pytest.raises(ValueError, match="at least one"):
        Channel.from_kraus([], dims)
    for stack, stack_dims in (
        (np.zeros((0, 2, 2)), dims),  # empty stack
        (np.eye(2), dims),  # one matrix, not a stack
        (np.eye(2)[None], qubit_dims(2)),  # side disagrees with dims
        (np.ones((1, 2, 3)), dims),  # not square
    ):
        with pytest.raises(ValueError, match="shape"):
            Channel(stack, stack_dims, tuple(range(len(stack_dims))))
    with pytest.raises(ValueError):
        Channel.from_kraus([np.eye(2), np.eye(4)], dims)


def apply_channel(ch, rho):
    return apply_local(rho, ch.kraus, ch.support)


def embed_channel(ch, dims):
    """The channel on every subsystem of `dims`: composed with the identity there."""
    return compose_channels(Channel.identity(dims), ch)


def test_apply_channel_examples():
    rho0 = np.diag([1.0, 0.0])
    ident = Channel.identity(qubit_dims(1))
    np.testing.assert_allclose(apply_channel(ident, rho0), rho0)

    flip = make_noise_channel(NoiseSpec.probabilistic(1.0, SIGMA_X))
    np.testing.assert_allclose(
        apply_channel(flip, rho0), np.diag([0.0, 1.0]), atol=1e-12
    )

    ad = make_noise_channel(NoiseSpec.amplitude_damping(0.3, 1.0))
    g = 1.0 - math.exp(-0.3)
    rho1 = np.diag([0.0, 1.0])
    np.testing.assert_allclose(
        apply_channel(ad, rho1), np.diag([g, 1.0 - g]), atol=1e-12
    )


def test_compose_identity_and_double_flip():
    rng = np.random.default_rng(21)
    ch = random_channel(rng, 2)
    ident = Channel.identity(qubit_dims(1))
    np.testing.assert_allclose(
        choi_matrix(compose_channels(ident, ch)), choi_matrix(ch), atol=1e-10
    )
    p = 0.2
    flip = make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))
    twice = compose_channels(flip, flip)
    expect = make_noise_channel(NoiseSpec.probabilistic(2 * p * (1 - p), SIGMA_X))
    np.testing.assert_allclose(
        choi_matrix(twice), choi_matrix(expect), atol=1e-10
    )


def test_embed_channel_acts_locally():
    rng = np.random.default_rng(22)
    ch = make_noise_channel(NoiseSpec.depolarizing(0.4), support=(1,))
    big = embed_channel(ch, qubit_dims(3))
    assert big.support == (0, 1, 2) and big.dims == qubit_dims(3)
    states = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
    states = [v / np.linalg.norm(v) for v in states]
    rho = np.kron(
        np.kron(np.outer(states[0], states[0].conj()), np.outer(states[1], states[1].conj())),
        np.outer(states[2], states[2].conj()),
    )
    out = apply_channel(big, rho)
    np.testing.assert_allclose(
        partial_trace(out, [0]), np.outer(states[0], states[0].conj()), atol=1e-10
    )
    np.testing.assert_allclose(
        partial_trace(out, [2]), np.outer(states[2], states[2].conj()), atol=1e-10
    )
    local = make_noise_channel(NoiseSpec.depolarizing(0.4))
    small = apply_channel(local, np.outer(states[1], states[1].conj()))
    np.testing.assert_allclose(partial_trace(out, [1]), small, atol=1e-10)


def test_embed_commutes_with_compose():
    rng = np.random.default_rng(23)
    a = random_channel(rng, 2)
    b = random_channel(rng, 2)
    total = qubit_dims(2)
    lhs = compose_channels(embed_channel(a, total), embed_channel(b, total))
    rhs = embed_channel(compose_channels(a, b), total)
    np.testing.assert_allclose(choi_matrix(lhs), choi_matrix(rhs), atol=1e-10)


def test_choi_matrix_examples():
    ident = Channel.identity(qubit_dims(1))
    np.testing.assert_allclose(
        choi_matrix(ident), 2.0 * np.outer(BELL, BELL.conj()), atol=1e-12
    )
    # uniform mixture over {I, X, Y, Z} with weight 3/4 on the Paulis
    dep = make_noise_channel(NoiseSpec.depolarizing(0.75))
    np.testing.assert_allclose(choi_matrix(dep), np.eye(4) / 2, atol=1e-12)

    p = 0.3
    prob = make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))
    x_chan = Channel.unitary(SIGMA_X, (2,))
    np.testing.assert_allclose(
        choi_matrix(prob),
        (1 - p) * choi_matrix(ident) + p * choi_matrix(x_chan),
        atol=1e-12,
    )


def test_choi_matrix_is_positive_with_identity_marginal():
    rng = np.random.default_rng(24)
    for _ in range(5):
        ch = random_channel(rng, 3)
        j = choi_matrix(ch)
        assert np.min(np.linalg.eigvalsh(j)) >= -1e-10
        # the qutrit output factor traced out: Tr_out J = I on the reference copy
        np.testing.assert_allclose(
            np.einsum("abac->bc", j.reshape(3, 3, 3, 3)), np.eye(3), atol=1e-10
        )


def test_diamond_distance_identical_channels():
    ch = make_noise_channel(NoiseSpec.depolarizing(0.1))
    assert diamond_distance(ch, ch) == (0.0, 0.0)


def test_diamond_distance_bitflip_and_rotation():
    ident = Channel.identity(qubit_dims(1))
    lo, hi = diamond_distance(make_noise_channel(NoiseSpec.probabilistic(0.1, SIGMA_X)), ident)
    assert lo == pytest.approx(0.2, abs=1e-6)
    assert lo <= hi
    assert hi - lo <= 1e-4

    for theta in (0.02, 0.05, 0.1):
        rot = make_noise_channel(NoiseSpec.control_rotation(theta))
        lo, hi = diamond_distance(rot, ident)
        assert lo == pytest.approx(2.0 * math.sin(theta), abs=1e-6)
        assert hi - lo <= 1e-4


def test_diamond_distance_symmetry_and_triangle():
    rng = np.random.default_rng(25)
    chans = [random_channel(rng, 2) for _ in range(3)]
    ab = diamond_distance(chans[0], chans[1], restarts=8)[0]
    ba = diamond_distance(chans[1], chans[0], restarts=8)[0]
    assert ab == pytest.approx(ba, abs=1e-9)
    bc = diamond_distance(chans[1], chans[2], restarts=8)[0]
    ac_hi = diamond_distance(chans[0], chans[2], restarts=8)[1]
    # upper(a,c) can exceed lower(a,b) + lower(b,c)? no: diamond norm obeys
    # the triangle inequality, and lower <= true <= upper on each pair
    ac_lo = diamond_distance(chans[0], chans[2], restarts=8)[0]
    ab_hi = diamond_distance(chans[0], chans[1], restarts=8)[1]
    bc_hi = diamond_distance(chans[1], chans[2], restarts=8)[1]
    assert ac_lo <= ab_hi + bc_hi + 1e-8
    assert diamond_distance(chans[0], chans[1], restarts=8)[0] <= diamond_distance(
        chans[0], chans[1], restarts=8
    )[1]


CNOT = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]


def noisy_cnot(spec):
    """(N ⊗ N)∘CNOT and CNOT, both on qubits (0, 1)."""
    noise = compose_channels(
        make_noise_channel(spec, support=(1,)), make_noise_channel(spec, support=(0,))
    )
    cnot = Channel.unitary(CNOT, (2, 2), (0, 1))
    return compose_channels(noise, cnot), cnot


def stacked(a, b):
    kraus = np.concatenate([a.kraus, b.kraus])
    return kraus, np.repeat([1.0, -1.0], [len(a.kraus), len(b.kraus)])


def count_objective_rows(monkeypatch):
    """Record the batch size of every objective evaluation."""
    rows = []
    real = channels._objective

    def counted(kraus, signs, psi):
        rows.append(len(psi))
        return real(kraus, signs, psi)

    monkeypatch.setattr(channels, "_objective", counted)
    return rows


def test_objective_matches_per_kraus_loop():
    rng = np.random.default_rng(31)
    cases = [stacked(random_channel(rng, d, 3), random_channel(rng, d, 2)) for d in (2, 4)]
    cases.append(stacked(*noisy_cnot(NoiseSpec.depolarizing(0.05))))  # K = 17 >= d^2 = 16
    u, w = haar_unitary(rng, 4), haar_unitary(rng, 4)
    cases.append(stacked(Channel.unitary(u, (4,)), Channel.unitary(w, (4,))))  # K = 2
    # the same unitary channel as two equal Kraus operators: V has rank 2 < K = 3
    twice_u = Channel.from_kraus(np.stack([u, u]) / np.sqrt(2), (4,))
    cases.append(stacked(twice_u, Channel.unitary(w, (4,))))
    for kraus, signs in cases:
        d = kraus.shape[1]
        psi = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        f, sv = channels._objective(kraus, signs, psi)
        assert sv.shape == (3, d * d, len(kraus))
        for r in range(3):
            mat = psi[r].reshape(d, d)
            outs = [(k @ mat).reshape(-1) for k in kraus]
            delta = sum(sg * np.outer(o, o.conj()) for sg, o in zip(signs, outs))
            assert f[r] == pytest.approx(trace_norm(delta), rel=1e-12)
            # S is the sign of delta, from its full eigendecomposition
            ev, vecs = np.linalg.eigh(delta)
            sign = (vecs * np.sign(ev)) @ vecs.conj().T
            np.testing.assert_allclose(sv[r], sign @ np.stack(outs, axis=1), atol=1e-12)


# Best ascent values over the 32 starts of restarts=32, seed=0 (the maximally
# entangled start, then Haar starts 1..31), as computed with the dense d^2 x d^2
# objective (one eigh of the full output operator per start).
DENSE_ASCENT_LOWER = {
    "ad_qubit": 0.19032516392806298,
    "ad_cnot": 0.659359907795136,
    "random0": 1.9477562358569505,
    "random1": 1.9316898945319627,
    "random2": 1.9784239819534684,
}


def test_ascent_lower_ends_match_dense_objective():
    ad = make_noise_channel(NoiseSpec.amplitude_damping(0.1, 1.0))
    pairs = {
        "ad_qubit": (ad, Channel.identity(qubit_dims(1))),
        "ad_cnot": noisy_cnot(NoiseSpec.amplitude_damping(0.2, 1.0)),
    }
    rng = np.random.default_rng(34)
    for i in range(3):
        pairs[f"random{i}"] = (random_channel(rng, 4, 3), random_channel(rng, 4, 2))
    for name, (a, b) in pairs.items():
        kraus, signs = stacked(a, b)
        d = a.dim
        entangled = np.eye(d, dtype=np.complex128).reshape(1, -1) / math.sqrt(d)
        haar = np.stack([channels._haar_start(0, i, d) for i in range(1, 32)])
        best = max(channels._ascend(kraus, signs, s)[0].max() for s in (entangled, haar))
        assert abs(best - DENSE_ASCENT_LOWER[name]) <= 1e-14, name


def test_ascent_batch_matches_each_start_alone():
    rng = np.random.default_rng(32)
    for d in (2, 4):
        for _ in range(3):
            kraus, signs = stacked(random_channel(rng, d, 3), random_channel(rng, d, 2))
            starts = rng.normal(size=(6, d * d)) + 1j * rng.normal(size=(6, d * d))
            batch, _ = channels._ascend(kraus, signs, starts)
            for r in range(6):
                alone, _ = channels._ascend(kraus, signs, starts[r : r + 1])
                assert batch[r] == pytest.approx(alone[0], rel=1e-12)


def test_diamond_interval_independent_of_chunk_size(monkeypatch):
    rng = np.random.default_rng(33)
    pairs = [(random_channel(rng, 2, 3), random_channel(rng, 2, 2))]
    pairs.append(noisy_cnot(NoiseSpec.amplitude_damping(0.2, 1.0)))
    for a, b in pairs:
        full = diamond_distance(a, b, restarts=10, seed=4)
        for rows in (1, 3):
            monkeypatch.setattr(channels, "_ASCENT_CHUNK_BYTES", rows * 16 * a.dim**4)
            assert diamond_distance(a, b, restarts=10, seed=4) == full
        monkeypatch.undo()


def test_diamond_closed_interval_runs_first_start_only(monkeypatch):
    # the small distances close too: closure compares with the bound before its
    # rounding margin, which exceeds ASCENT_TOL times a distance below about 1e-5
    ident = Channel.identity(qubit_dims(1))
    cases = [
        (make_noise_channel(NoiseSpec.probabilistic(0.1, SIGMA_X)), ident),
        noisy_cnot(NoiseSpec.depolarizing(0.05)),
        (make_noise_channel(NoiseSpec.probabilistic(1e-5, SIGMA_X)), ident),
        (make_noise_channel(NoiseSpec.control_rotation(1e-4)), ident),
    ]
    for a, b in cases:
        rows = count_objective_rows(monkeypatch)
        one = diamond_distance(a, b, restarts=1)
        first = list(rows)
        assert first and set(first) == {1}
        many = diamond_distance(a, b, restarts=32)
        assert rows[len(first) :] == first
        assert many == one
        monkeypatch.undo()


def test_diamond_open_interval_runs_every_restart(monkeypatch):
    rng = np.random.default_rng(34)
    a, b = random_channel(rng, 4, 3), random_channel(rng, 4, 2)
    entangled = diamond_distance(a, b, restarts=1)
    rows = count_objective_rows(monkeypatch)
    lo, hi = diamond_distance(a, b, restarts=32)
    assert 31 in rows
    assert entangled.lower <= lo <= hi <= entangled.upper
    assert lo < hi * (1 - 1e-10)


def sigma_identity_bound(a, b):
    """The rounded R = I member of the dual bound: the sigma = I upper end."""
    return channels._dual_bound((choi_matrix(a) - choi_matrix(b))[None])[1][0]


def test_diamond_certificate_closes_after_first_start(monkeypatch):
    # the sigma = I bound is 3.3 % (AD qubit) and 6.5 % (AD-CNOT) loose; the
    # certificate built on the polished entangled start closes both
    ident = Channel.identity(qubit_dims(1))
    ad = make_noise_channel(NoiseSpec.amplitude_damping(0.1, 1.0))
    for a, b in [(ad, ident), noisy_cnot(NoiseSpec.amplitude_damping(0.2, 1.0))]:
        rows = count_objective_rows(monkeypatch)
        lo, hi = diamond_distance(a, b, restarts=32)
        assert rows and set(rows) == {1}
        assert hi - lo <= 1e-10 * hi
        assert hi < sigma_identity_bound(a, b) * 0.99
        monkeypatch.undo()


def test_diamond_upper_never_under_reports():
    ident = Channel.identity(qubit_dims(1))
    for t0 in np.linspace(0.001, 5.0, 200):
        ad = make_noise_channel(NoiseSpec.amplitude_damping(t0, 1.0))
        assert diamond_distance(ad, ident).upper >= -2.0 * math.expm1(-t0), t0
    # the entangled start is optimal for a bit flip; its certificate is never below 2p
    roots = channels._cert_roots(np.eye(2, dtype=np.complex128).reshape(-1) / math.sqrt(2))
    for p in np.linspace(0.0, 1.0, 401)[1:]:
        flip = make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X))
        delta_j = choi_matrix(flip) - choi_matrix(ident)
        assert channels._dual_bound(delta_j[None], roots)[1].min() >= 2.0 * p, p


def test_upper_ends_never_under_report_on_exact_channels():
    # bit flips at distance 2p and Z rotations exp(i th Z) at 2|sin th|: every
    # strength and diamond upper end is rounded outward, the sigma = I ones included
    rng = np.random.default_rng(0)
    ident = Channel.identity(qubit_dims(1))
    flips = [(NoiseSpec.probabilistic(p, SIGMA_X), 2.0 * p) for p in rng.uniform(0.0, 1.0, 2000)]
    turns = rng.uniform(-math.pi / 2, math.pi / 2, 2000)
    rotations = [(NoiseSpec.control_rotation(th), 2.0 * abs(math.sin(th))) for th in turns]
    for cases in (flips, rotations):
        noise = [make_noise_channel(spec) for spec, _ in cases]
        batched = noise_strengths(noise)
        for ch, (spec, exact), eps in zip(noise, cases, batched):
            assert eps >= exact and strength_markovian(ch, ident) >= exact, spec
            assert diamond_distance(ch, ident).upper >= exact, spec


def test_diamond_tiny_distance_is_not_rounded_to_zero():
    ident = Channel.identity(qubit_dims(1))
    flip = make_noise_channel(NoiseSpec.probabilistic(3e-15, SIGMA_X))
    assert diamond_distance(flip, ident).upper >= 6e-15
    assert strength_markovian(flip, ident) >= 6e-15


def test_diamond_upper_within_sigma_identity_bound_and_above_search():
    rng = np.random.default_rng(35)
    for _ in range(150):
        a = random_channel(rng, 2, int(rng.integers(1, 4)))
        b = random_channel(rng, 2, int(rng.integers(1, 4)))
        lo, hi = diamond_distance(a, b)
        assert lo <= hi <= sigma_identity_bound(a, b)
        assert hi >= diamond_distance(a, b, restarts=64, seed=1).lower


def test_make_noise_channel_examples():
    spec = NoiseSpec.amplitude_damping(0.01, 1.0)
    assert spec.gamma == pytest.approx(0.009950166250831893, rel=1e-12)
    ident = choi_matrix(Channel.identity(qubit_dims(1)))
    for spec in (NoiseSpec.probabilistic(0.0, SIGMA_X), NoiseSpec.control_rotation(0.0)):
        np.testing.assert_allclose(choi_matrix(make_noise_channel(spec)), ident, atol=1e-12)
    with pytest.raises(ValueError):
        NoiseSpec.probabilistic(1.2, SIGMA_X)
    with pytest.raises(ValueError):
        NoiseSpec.probabilistic(0.1, np.diag([1.0, 0.5]))


def test_strength_markovian_examples():
    ident = Channel.identity(qubit_dims(1))
    assert strength_markovian(ident, ident) == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(26)
    u = haar_unitary(rng, 2)
    ideal = Channel.unitary(u, (2,))
    for p in (0.05, 0.2):
        noisy = compose_channels(make_noise_channel(NoiseSpec.probabilistic(p, SIGMA_X)), ideal)
        assert strength_markovian(noisy, ideal) == pytest.approx(2 * p, abs=1e-9)

    for theta in (0.1, 0.01, 0.001):
        rot = make_noise_channel(NoiseSpec.control_rotation(theta))
        eps = strength_markovian(rot, ident)
        assert eps / theta == pytest.approx(2.0, rel=5e-3 if theta < 0.1 else 5e-2)

    meas = Channel.from_kraus(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (2,)
    )  # dephasing: not invertible
    assert strength_markovian(meas, meas) == pytest.approx(0.0, abs=1e-12)


def decomposed_strength(noisy, ideal):
    """Strength of the noise factor noisy ∘ ideal^-1 against the identity."""
    inverse = Channel.unitary(ideal.kraus[0].conj().T, ideal.dims, ideal.support)
    factor = compose_channels(noisy, inverse)
    return strength_markovian(factor, Channel.identity(factor.dims, factor.support))


def test_strength_markovian_matches_noise_factor_strength():
    rng = np.random.default_rng(28)
    for n in (1, 2):
        d = 2**n
        for _ in range(6):
            ideal = Channel.unitary(haar_unitary(rng, d), qubit_dims(n))
            kraus = random_channel(rng, d, 3).kraus
            noisy = Channel.from_kraus(kraus, qubit_dims(n))
            want = decomposed_strength(noisy, ideal)
            assert strength_markovian(noisy, ideal) == pytest.approx(want, rel=1e-14, abs=0)
            ident = Channel.identity(qubit_dims(n))
            assert strength_markovian(noisy, ident) == decomposed_strength(noisy, ident)
    for spec in (
        NoiseSpec.depolarizing(0.03),
        NoiseSpec.amplitude_damping(0.1, 1.0),
        NoiseSpec.control_rotation(0.01),
    ):
        noisy = make_noise_channel(spec, support=(2,))
        ident = Channel.identity(qubit_dims(1), (2,))
        assert strength_markovian(noisy, ident) == decomposed_strength(noisy, ident)


@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(1, 4)), max_size=12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_noise_strengths_equal_strength_markovian_bit_for_bit(shapes, seed):
    # one batched sigma = I bound per dimension, against vec(I)vec(I)^dag built
    # once, gives each channel's own bound: 1- and 2-qubit channels mixed in
    # one call, some near the identity, and the noise zoo
    rng = np.random.default_rng(seed)
    noise = []
    for n, k in shapes:
        ch = random_channel(rng, 2**n, k)
        if rng.random() < 0.3:
            p = 10.0 ** rng.uniform(-8, -1)
            kraus = np.concatenate([[math.sqrt(1 - p) * np.eye(2**n)], math.sqrt(p) * ch.kraus])
            ch = Channel.from_kraus(kraus, (2**n,))
        noise.append(Channel(ch.kraus, qubit_dims(n), rng.permutation(4)[:n]))
    zoo = [
        NoiseSpec.depolarizing(0.03),
        NoiseSpec.amplitude_damping(0.1, 1.0),
        NoiseSpec.control_rotation(0.01),
        NoiseSpec.probabilistic(0.2, SIGMA_Y),
    ]
    noise += [make_noise_channel(spec, support=(q,)) for q, spec in enumerate(zoo)]
    noise.append(make_noise_channel(NoiseSpec.probabilistic(0.1, CNOT), support=(1, 0)))
    order = rng.permutation(len(noise))
    noise = [noise[i] for i in order]
    want = [strength_markovian(ch, Channel.identity(ch.dims, ch.support)) for ch in noise]
    assert noise_strengths(noise) == want
    assert noise_strengths([]) == []


def test_strength_markovian_needs_matching_dims_and_support():
    noisy = make_noise_channel(NoiseSpec.depolarizing(0.1), support=(0,))
    with pytest.raises(ValueError, match="support"):
        strength_markovian(noisy, Channel.identity(qubit_dims(1), (1,)))
    with pytest.raises(ValueError, match="dims"):
        strength_markovian(noisy, Channel.identity(qubit_dims(2), (0, 1)))


def test_strength_markovian_probabilistic_bounded_by_2p():
    rng = np.random.default_rng(27)
    ident = Channel.identity(qubit_dims(1))
    for _ in range(8):
        p = rng.uniform(0.0, 0.5)
        e = haar_unitary(rng, 2)
        noisy = make_noise_channel(NoiseSpec.probabilistic(p, e))
        assert strength_markovian(noisy, ident) <= 2 * p + 1e-10


def test_strength_markovian_amplitude_damping_linear_in_gamma():
    ident = Channel.identity(qubit_dims(1))
    ratios = []
    for g in (1e-2, 1e-3, 1e-4):
        t0 = -math.log1p(-g)
        eps = strength_markovian(make_noise_channel(NoiseSpec.amplitude_damping(t0, 1.0)), ident)
        ratios.append(eps / g)
    assert all(0.1 <= r <= 3.0 for r in ratios)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.05)


def test_strength_local_hamiltonian():
    zero = HamiltonianTerm((0,), np.zeros((2, 2)), 1)
    assert strength_local_hamiltonian([zero], 1.0) == 0.0
    # terms are qubit-only: the side must be 2^len(support)
    with pytest.raises(ValueError, match="matrix side 4 does not match dims total 2"):
        HamiltonianTerm((0,), np.eye(4), 1)

    lam = 0.37
    zx = HamiltonianTerm((0, 1), lam * np.kron(SIGMA_Z, SIGMA_X), 2)
    assert strength_local_hamiltonian([zx], 1.0) == pytest.approx(lam, rel=1e-12)

    rng = np.random.default_rng(29)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = 0.3 * (a + a.conj().T) / operator_norm(a + a.conj().T)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = 0.7 * (b + b.conj().T) / operator_norm(b + b.conj().T)
    terms = [
        HamiltonianTerm((0,), a, 5),
        HamiltonianTerm((0,), b, 5),
    ]
    expect = np.max(np.abs(np.linalg.eigvalsh(a + b)))
    assert strength_local_hamiltonian(terms, 2.0) == pytest.approx(2.0 * expect, rel=1e-10)
    with pytest.raises(ValueError):
        strength_local_hamiltonian([], 1.0)


def test_strength_local_hamiltonian_different_supports_same_label():
    # same gate label, terms on different qubits: embedded on the union
    h0 = HamiltonianTerm((0,), 0.4 * SIGMA_Z, 1)
    h1 = HamiltonianTerm((1,), 0.4 * SIGMA_Z, 1)
    # ||0.4 Z x I + 0.4 I x Z|| = 0.8
    assert strength_local_hamiltonian([h0, h1], 1.0) == pytest.approx(0.8, rel=1e-12)


def test_strength_long_range():
    zero = HamiltonianTerm((0, 1), np.zeros((4, 4)), (0, 1))
    assert float(strength_long_range([zero], 1.0)) == 0.0

    h = 0.05
    single = HamiltonianTerm((0, 1), h * np.kron(SIGMA_X, SIGMA_X), (0, 1))
    val = strength_long_range([single], 1.0)
    assert float(val) == pytest.approx(math.sqrt(2 * math.e * h), rel=1e-12)
    assert val.within_validity

    star = [
        HamiltonianTerm((0, k), 0.01 * np.kron(SIGMA_Z, SIGMA_Z), (0, k))
        for k in range(1, 5)
    ]
    val = strength_long_range(star, 1.0)
    assert float(val) == pytest.approx(0.46632879631942487, rel=1e-12)
    assert float(val) == pytest.approx(math.sqrt(2 * math.e * 0.04), rel=1e-12)
    big = HamiltonianTerm((0, 1), 5.0 * np.kron(SIGMA_X, SIGMA_X), (0, 1))
    assert not strength_long_range([big], 1.0).within_validity


def test_strength_gaussian():
    flat = np.zeros((2, 2, 2, 2))
    grid = CorrelationGrid(flat, 1.0, ((0,), (1,)))
    assert strength_gaussian(grid, c=1.0) == 0.0
    for bad in (-1.0, math.nan):  # a NaN entry once read as strength 0
        with pytest.raises(ValueError, match="nonnegative"):
            CorrelationGrid(np.full((1, 1, 1, 1), bad), 1.0, ((0,),))
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            CorrelationGrid(flat, bad, ((0,), (1,)))

    d0 = 0.42
    one = CorrelationGrid(np.full((1, 1, 1, 1), d0), 1.0, ((0,),))
    assert strength_gaussian(one, c=1.0) == pytest.approx(math.sqrt(d0), rel=1e-12)

    rng = np.random.default_rng(30)
    delta = rng.uniform(0.0, 1.0, size=(4, 2, 4, 2))
    regions = ((0,), (1, 2, 3))
    grid = CorrelationGrid(delta, 0.5, regions)
    cells = sorted({i for r in regions for i in r})
    best = 0.0
    for r in regions:
        total = 0.0
        for p in r:
            for q in cells:
                for m1 in range(2):
                    for m2 in range(2):
                        total += delta[p, m1, q, m2] * 0.25
        best = max(best, total)
    assert strength_gaussian(grid, c=2.0) == pytest.approx(math.sqrt(2.0 * best), rel=1e-10)


def test_strength_monotone_in_coupling_norms():
    base = HamiltonianTerm((0,), 0.2 * SIGMA_X, 1)
    bigger = HamiltonianTerm((0,), 0.5 * SIGMA_X, 1)
    assert strength_local_hamiltonian([bigger], 1.0) >= strength_local_hamiltonian([base], 1.0)
    pair_s = HamiltonianTerm((0, 1), 0.2 * np.kron(SIGMA_X, SIGMA_X), (0, 1))
    pair_b = HamiltonianTerm((0, 1), 0.5 * np.kron(SIGMA_X, SIGMA_X), (0, 1))
    assert float(strength_long_range([pair_b], 1.0)) >= float(strength_long_range([pair_s], 1.0))
    u_s = np.diag([1.0, np.exp(0.1j)])
    u_b = np.diag([1.0, np.exp(0.3j)])
    assert strength_unitary_couplings([u_b]) >= strength_unitary_couplings([u_s])


def test_noise_spec_json_round_trip():
    specs = [
        (NoiseSpec.control_rotation(0.05), {"kind": "control_rotation", "delta_theta": 0.05}),
        (NoiseSpec.amplitude_damping(0.01, 1.0), {"kind": "amplitude_damping", "t0": 0.01, "t1": 1}),
        (
            NoiseSpec.probabilistic(0.1, SIGMA_X),
            {"kind": "probabilistic", "p": 0.1, "e_op": matrix_to_json(SIGMA_X)},
        ),
        (NoiseSpec.depolarizing(0.2), {"kind": "depolarizing", "p": 0.2}),
    ]
    for spec, obj in specs:
        back = noise_spec_from_json(obj)
        np.testing.assert_allclose(
            choi_matrix(make_noise_channel(back)),
            choi_matrix(make_noise_channel(spec)),
            atol=1e-12,
        )
    with pytest.raises(ValueError):
        noise_spec_from_json({"kind": "nonsense"})


def test_noise_map_and_terms_json():
    raw = {
        "1": {"kind": "depolarizing", "p": 0.1, "support": [0]},
        "2": {"kind": "probabilistic", "p": 0.2, "e_op": matrix_to_json(SIGMA_X)},
    }
    noise = noise_map_from_json(raw)
    assert set(noise) == {1, 2}
    assert noise[1].support == (0,)

    terms = hamiltonian_terms_from_json(
        [{"support": [0, 1], "op": matrix_to_json(np.kron(SIGMA_Z, SIGMA_X)), "label": [0, 1]}]
    )
    assert terms[0].label == (0, 1)
    grid = correlation_grid_from_json(
        {"delta_abs": np.zeros((1, 1, 1, 1)).tolist(), "cell_volume": 1.0, "gate_regions": [[0]]}
    )
    assert strength_gaussian(grid) == 0.0

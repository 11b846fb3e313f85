import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlab import matcore
from ftlab.matcore import (
    DIM_CAP,
    DimensionCapError,
    apply_local,
    checked_dims,
    embed_operator,
    is_hermitian,
    is_unitary,
    kolmogorov_distance,
    operator_norm,
    partial_trace,
    qubit_dims,
    singular_values,
    superoperator,
    trace_norm,
)
from ftlab.channels import Channel, choi_matrix
from ftlab.cli import complex_pairs, matrix_from_json, matrix_to_json, vector_from_json

SZ = np.diag([1.0, -1.0]).astype(np.complex128)
BELL = np.zeros((4, 4), dtype=np.complex128)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_partial_trace_bell_and_product():
    np.testing.assert_allclose(partial_trace(BELL, [0]), np.eye(2) / 2, atol=1e-12)

    rng = np.random.default_rng(3)
    v = random_pure(rng, 2)
    rho = np.outer(v, v.conj())
    sigma = np.diag([0.25, 0.75]).astype(np.complex128)
    prod = np.kron(rho, sigma)
    np.testing.assert_allclose(
        partial_trace(prod, [0]), rho * np.trace(sigma), atol=1e-12
    )
    np.testing.assert_allclose(partial_trace(prod, [1]), sigma, atol=1e-12)

    kept = partial_trace(prod, [0, 1])
    np.testing.assert_allclose(kept, prod)


def test_partial_trace_preserves_trace_and_validates_indices():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 8)
    for keep in ([0], [1, 2], [2, 0], []):
        reduced = partial_trace(m, keep)
        assert reduced.shape == (2 ** len(keep),) * 2
        assert abs(np.trace(reduced) - np.trace(m)) <= 1e-10
    # kept qubits stay in their original order, whatever the order of keep
    np.testing.assert_array_equal(partial_trace(m, [2, 0]), partial_trace(m, [0, 2]))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, [3])
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, [-1])


def test_kernels_refuse_a_side_that_is_not_a_power_of_two():
    for side in (0, 3, 6, 12):
        with pytest.raises(ValueError, match=f"side {side} is not a power of two"):
            partial_trace(np.eye(side), [])
        with pytest.raises(ValueError, match=f"side {side} is not a power of two"):
            apply_local(np.ones(side), np.eye(1), ())
        with pytest.raises(ValueError, match=f"side {side} is not a power of two"):
            apply_local(np.eye(side), [np.eye(1)], ())
    with pytest.raises(ValueError, match="not a square matrix"):
        partial_trace(np.ones((2, 4)), [0])


def test_trace_norm_basics():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    v = random_pure(rng, 4)
    rho = np.outer(v, v.conj())
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_pure_state_pair_identity():
    # ||n><n| - |i><i||_1 = 2 sqrt(1 - |<n|i>|^2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_pure(rng, 5)
        b = random_pure(rng, 5)
        lhs = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
        rhs = 2.0 * np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_trace_norm_multiplicative_under_tensor():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 2)
        assert trace_norm(np.kron(a, b)) == pytest.approx(
            trace_norm(a) * trace_norm(b), rel=1e-9
        )


def test_operator_norm():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert operator_norm(h) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(8)
    a = random_matrix(rng, 4)
    herm = a + a.conj().T
    dt = 0.37
    assert operator_norm(-1j * dt * herm) == pytest.approx(
        dt * np.max(np.abs(np.linalg.eigvalsh(herm))), rel=1e-12
    )


def test_singular_values_match_svd():
    # only the nonzero rows and columns are decomposed, so zero them in every way
    rng = np.random.default_rng(9)
    for d in (1, 2, 6, 64):
        for hermitian in (True, False):
            a = random_matrix(rng, d)
            if hermitian:
                a = a + a.conj().T
            for zeros in ("none", "some", "all but one", "all"):
                m = a.copy()
                if zeros == "some":
                    rows = rng.random(d) < 0.5
                    cols = rows if hermitian else rng.random(d) < 0.5
                    m[rows], m[:, cols] = -0.0, 0.0
                elif zeros == "all but one":
                    i, j = rng.integers(d, size=2)
                    m = np.full((d, d), complex(-0.0, 0.0))
                    m[i, i if hermitian else j] = 1.5 if hermitian else 0.5 - 2.0j
                elif zeros == "all":
                    m = np.full((d, d), complex(-0.0, -0.0))
                sv = singular_values(m)
                assert sv.shape == (d,) and np.all(np.diff(sv) <= 0), (d, hermitian, zeros)
                # squaring through M^dag M leaves a rank-deficient M's zeros at about
                # sqrt(eps) * |M|, as the docstring says; every other case keeps 1e-9
                atol = 1e-6 if zeros == "some" and not hermitian else 1e-9
                np.testing.assert_allclose(
                    sv, np.sort(np.linalg.svd(m, compute_uv=False))[::-1], atol=atol
                )
    for z in (np.zeros((5, 5)), np.full((3, 3), -0.0)):
        assert trace_norm(z) == 0.0 and operator_norm(z) == 0.0


def test_kolmogorov_distance():
    p = np.array([0.6, 0.4])
    q = np.array([0.5, 0.5])
    assert kolmogorov_distance(p, p) == 0.0
    assert kolmogorov_distance(p, q) == pytest.approx(0.2)
    assert kolmogorov_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    with pytest.raises(ValueError, match="differ in shape"):
        kolmogorov_distance(np.array([1.0]), np.array([1.0, 0.0]))


def test_kolmogorov_bounded_by_trace_norm():
    # measuring commuting projectors can only lose distinguishability
    rng = np.random.default_rng(10)
    for _ in range(10):
        a, b = (random_matrix(rng, 4) for _ in range(2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        sig = b @ b.conj().T
        sig /= np.trace(sig).real
        p = np.diagonal(rho).real
        q = np.diagonal(sig).real
        assert kolmogorov_distance(p, q) <= trace_norm(rho - sig) + 1e-9


def test_matrix_density_checks():
    assert is_hermitian(SZ) and not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_unitary(SZ) and not is_unitary(np.diag([1.0, 0.5]))


def test_dimension_cap():
    with pytest.raises(DimensionCapError, match="total dimension 8192 exceeds cap 4096"):
        qubit_dims(13)
    assert qubit_dims(12) == (2,) * 12 and 2**12 == DIM_CAP
    with pytest.raises(DimensionCapError, match="total dimension 8192 exceeds cap 4096"):
        checked_dims((2,) * 13)
    assert checked_dims([2, 3, 2]) == (2, 3, 2)


def test_subsystem_dims_shapes():
    # a Channel's factor dims are checked by checked_dims, with its two messages
    with pytest.raises(ValueError, match=r"subsystem dimensions must be >= 2, got \(1, 2\)"):
        Channel(np.eye(2)[None], (1, 2), (0, 1))
    with pytest.raises(DimensionCapError, match="total dimension 8192 exceeds cap 4096"):
        Channel(np.eye(2)[None], (2,) * 13, range(13))


def test_superoperator_and_choi_refuse_a_map_over_the_cap(monkeypatch):
    # a 7-qubit map's d^2 = 16384 exceeds the cap: refused before its 4 GiB array is built
    for build in (superoperator, lambda ks: choi_matrix(Channel.from_kraus(ks))):
        with pytest.raises(DimensionCapError, match="total dimension 16384 exceeds cap 4096"):
            build(np.eye(2**7)[None])
    assert superoperator(np.eye(1)[None]).shape == (1,) * 4
    # at the cap the map is built: a 2-qubit map's d^2 = 16 under a cap of 16
    monkeypatch.setattr(matcore, "DIM_CAP", 16)
    for build in (superoperator, lambda ks: choi_matrix(Channel.from_kraus(ks))):
        assert build(np.eye(4)[None]).size == 256
        with pytest.raises(DimensionCapError, match="total dimension 64 exceeds cap 16"):
            build(np.eye(8)[None])


def test_embed_operator_positions():
    rng = np.random.default_rng(11)
    op = random_matrix(rng, 2)
    full = embed_operator(op, (1,), 3)
    np.testing.assert_allclose(full, np.kron(np.kron(np.eye(2), op), np.eye(2)), atol=1e-12)
    two = random_matrix(rng, 4)
    # support listed in reversed order swaps the factor roles
    swapped = embed_operator(two, (2, 0), 3)
    perm = two.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    np.testing.assert_allclose(swapped, embed_operator(perm, (0, 2), 3), atol=1e-12)
    with pytest.raises(DimensionCapError, match="total dimension 8192 exceeds cap 4096"):
        embed_operator(op, (0,), 13)


def test_embed_operator_matches_vector_action():
    # embedded operator acts like op on the chosen qubit of a product vector
    rng = np.random.default_rng(12)
    op = random_matrix(rng, 2)
    a, b, c = (random_pure(rng, 2) for _ in range(3))
    full = embed_operator(op, (1,), 3)
    lhs = full @ np.kron(a, np.kron(b, c))
    rhs = np.kron(a, np.kron(op @ b, c))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize(
    "dims, support",
    [
        ((2, 2, 2), (1,)),
        ((2, 2, 2), (2, 0)),
        ((2, 2, 2, 2), (3, 1)),
        ((2, 2, 2), (0, 2, 1)),
        ((2, 2, 2, 2), (2, 0)),
        ((2, 2, 2, 2), (0, 3, 2, 1)),
    ],
)
@pytest.mark.parametrize("vector", [False, True])
def test_apply_local_matches_dense_embedding(dims, support, vector):
    rng = np.random.default_rng(14)
    n = len(dims)
    d, d_sup = 2**n, 2 ** len(support)
    if vector:  # one operator on ket stacks with and without leading axes, row by row
        op = random_matrix(rng, d_sup)
        full = embed_operator(op, support, n)
        for lead in ((), (3,), (2, 3)):
            x = rng.normal(size=lead + (d,)) + 1j * rng.normal(size=lead + (d,))
            got = apply_local(x, op, support)
            assert got.shape == x.shape
            for psi, row in zip(x.reshape(-1, d), got.reshape(-1, d)):
                np.testing.assert_allclose(row, full @ psi, atol=1e-12)
        return
    ops = [random_matrix(rng, d_sup) for _ in range(3)]
    full = [embed_operator(k, support, n) for k in ops]
    x = random_matrix(rng, d)
    want = sum(k @ x @ k.conj().T for k in full)
    got = apply_local(x, ops, support)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, atol=1e-12)


@st.composite
def local_actions(draw):
    """(n, support, ops, x): 1-4 qubits, a support in any order, and either
    one operator and a stack of kets with 0-2 leading axes of side 1-3, or a
    Kraus stack of K = 1..4 and a matrix."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    support = tuple(order[: draw(st.integers(1, n))])
    d_sup = 2 ** len(support)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ops_shape = (d_sup, d_sup)
        shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (2**n,)
    else:
        ops_shape = (draw(st.integers(1, 4)), d_sup, d_sup)
        shape = (2**n, 2**n)
    ops = rng.normal(size=ops_shape) + 1j * rng.normal(size=ops_shape)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return n, support, ops, x


@given(local_actions())
@settings(max_examples=60, deadline=None)
def test_apply_local_matches_dense_reference(case):
    n, support, ops, x = case
    got = apply_local(x, ops, support)
    assert got.shape == x.shape
    if ops.ndim == 2:  # each ket of the stack, row by row
        full = embed_operator(ops, support, n)
        want = np.stack([full @ psi for psi in x.reshape(-1, 2**n)]).reshape(x.shape)
    else:
        full = [embed_operator(k, support, n) for k in ops]
        want = sum(f @ x @ f.conj().T for f in full)
        # the stack's superoperator is the same map, contracted the same way
        np.testing.assert_array_equal(apply_local(x, superoperator(ops), support), got)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _contract_reference(op, t, axes):
    """op, a (2^k, 2^k) matrix, on the k side-2 `axes` of t by `tensordot`,
    its output axes then moved into their places by `moveaxis`."""
    k = len(axes)
    out = np.tensordot(op.reshape((2,) * (2 * k)), t, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes)


@st.composite
def kernel_cases(draw):
    """(n, support, ops, x): 1-5 qubits, a support in any order, 0-2 leading
    stack axes of side 1-3, and one of: one operator on a stack of kets, a
    Kraus stack of K = 1..4 or a superoperator on a stack of matrices."""
    kind = draw(st.sampled_from(["ket", "kraus", "superoperator"]))
    n = draw(st.integers(1, 5 if kind == "ket" else 4))
    order = draw(st.permutations(range(n)))
    support = tuple(order[: draw(st.integers(1, min(n, 3 if kind == "ket" else 2)))])
    d_sup, d = 2 ** len(support), 2**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    ops_shape = {"ket": (d_sup,) * 2, "kraus": (draw(st.integers(1, 4)), d_sup, d_sup),
                 "superoperator": (d_sup,) * 4}[kind]
    shape = lead + ((d,) if kind == "ket" else (d, d))
    ops = rng.normal(size=ops_shape) + 1j * rng.normal(size=ops_shape)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return n, support, ops, x


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_apply_local_equals_tensordot_reference_bit_for_bit(case):
    # one transpose, one np.dot and one transpose back are the products and
    # sums tensordot makes, in the same order, so no bit moves
    n, support, ops, x = case
    m = 1 if ops.ndim == 2 else 2
    lead = x.shape[:-m]
    axes = [len(lead) + i + n * j for j in range(m) for i in support]
    op = superoperator(ops) if ops.ndim == 3 else ops
    op = op.reshape(2 ** len(axes), 2 ** len(axes))
    want = _contract_reference(op, x.reshape(lead + (2,) * (n * m)), axes).reshape(x.shape)
    assert np.array_equal(apply_local(x, ops, support), want)
    op = ops.reshape(-1, 2 ** len(support), 2 ** len(support))[0]  # any one operator to embed
    eye = np.eye(2**n, dtype=np.complex128).reshape((2,) * (2 * n))
    want = _contract_reference(op, eye, list(support)).reshape(2**n, 2**n)
    assert np.array_equal(embed_operator(op, support, n), want)


def test_apply_local_rejects_mismatched_shapes():
    x = np.eye(8, dtype=np.complex128)
    with pytest.raises(ValueError):
        apply_local(x, [np.eye(4)], (0,))
    with pytest.raises(ValueError, match="duplicates"):
        apply_local(x, [np.eye(2)], (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        apply_local(x, [np.eye(2)], (3,))
    # one shape rule: one operator maps kets, a Kraus stack or a superoperator
    # maps matrices, and every other pairing is refused
    refused = [
        (np.ones((8, 4)), [np.eye(2)]),  # a Kraus stack on a ket stack
        (np.ones(8), [np.eye(2)]),  # a Kraus stack on one ket
        (np.ones(8), superoperator([np.eye(2)])),  # a superoperator on a ket
        (np.ones(()), np.eye(1)),  # no ket
        (np.ones(8), np.ones(2)),  # a vector is no operator
        (x, np.ones((1, 1, 2, 2, 2))),  # five axes are no map
    ]
    for state, ops in refused:
        msg = f"operators of shape {np.shape(ops)} do not act on shape {state.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            apply_local(state, ops, (0,))


BAD_PAIR_LISTS = {
    "string_entry": [[1.0, 0.0], ["1.5", 0.0]],
    "string_pair": ["ab"],
    "string": "ab",
    "null_entry": [[None, 0.0]],
    "null": None,
    "one_element_pair": [[1.0]],
    "three_element_pair": [[1.0, 0.0, 0.0]],
    "ragged": [[1.0, 0.0], [1.0]],
    "nested_pair": [[[1.0], [0.0]]],
    "mapping_pair": [{"re": 1.0, "im": 0.0}],
    "number": 1.0,
    "nan": [[1.0, 0.0], [math.nan, 0.0]],
    "infinity": [[0.0, math.inf]],
    "minus_infinity": [[-math.inf, 0.0]],
    "huge_int": [[10**400, 0]],
}


@pytest.mark.parametrize("case", sorted(BAD_PAIR_LISTS))
def test_vector_from_json_refuses_bad_pairs(case):
    with pytest.raises(ValueError, match=r"expected a list of \[re, im\] pairs"):
        vector_from_json(BAD_PAIR_LISTS[case])


def test_vector_from_json_reads_numbers_and_bools():
    pairs = [[1, -0.0], [True, False], [-0.0, 2.5], [2**70, -1]]
    v = vector_from_json(pairs)
    expected = np.array([complex(re, im) for re, im in pairs])
    assert v.dtype == np.complex128
    assert v.tobytes() == expected.tobytes()  # bit for bit, signs of zero included
    assert vector_from_json([]).shape == (0,)


def test_json_round_trip(monkeypatch):
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 3)
    again = matrix_from_json(matrix_to_json(m))
    assert again.dtype == np.complex128
    np.testing.assert_array_equal(again, m)
    v = random_pure(rng, 4)
    np.testing.assert_allclose(vector_from_json(complex_pairs(v).tolist()), v)
    with pytest.raises(ValueError, match="square"):
        matrix_from_json([[1.0, 0.0]] * 3)  # 3 entries, not square
    with pytest.raises(ValueError, match=r"must be >= 2, got \(0,\)"):
        matrix_from_json([])  # empty
    monkeypatch.setattr(matcore, "DIM_CAP", 2)
    with pytest.raises(DimensionCapError, match="total dimension 3 exceeds cap 2"):
        matrix_from_json(matrix_to_json(m))

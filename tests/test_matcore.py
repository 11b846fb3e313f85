import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlab import matcore
from ftlab.matcore import (
    DIM_CAP,
    DimensionCapError,
    SubsystemDims,
    apply_local,
    embed_operator,
    is_density,
    is_hermitian,
    is_unitary,
    kolmogorov_distance,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    partial_trace,
    qubit_dims,
    singular_values,
    superoperator,
    trace_norm,
    vector_from_json,
    vector_to_json,
)

SZ = np.diag([1.0, -1.0]).astype(np.complex128)
BELL = np.zeros((4, 4), dtype=np.complex128)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_partial_trace_bell_and_product():
    np.testing.assert_allclose(partial_trace(BELL, [0], qubit_dims(2)), np.eye(2) / 2, atol=1e-12)

    rng = np.random.default_rng(3)
    v = random_pure(rng, 2)
    rho = np.outer(v, v.conj())
    sigma = np.diag([0.25, 0.75]).astype(np.complex128)
    prod = np.kron(rho, sigma)
    np.testing.assert_allclose(
        partial_trace(prod, [0], (2, 2)), rho * np.trace(sigma), atol=1e-12
    )
    np.testing.assert_allclose(partial_trace(prod, [1], (2, 2)), sigma, atol=1e-12)

    kept = partial_trace(prod, [0, 1], (2, 2))
    np.testing.assert_allclose(kept, prod)


def test_partial_trace_preserves_trace_and_validates_indices():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 12)
    dims = SubsystemDims((2, 3, 2))
    for keep in ([0], [1, 2], [0, 2], []):
        reduced = partial_trace(m, keep, dims)
        assert reduced.shape == (dims.restrict(keep).total,) * 2
        assert abs(np.trace(reduced) - np.trace(m)) <= 1e-10
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, [3], dims)


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
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 6)
    np.testing.assert_allclose(
        singular_values(a), np.sort(np.linalg.svd(a, compute_uv=False))[::-1], atol=1e-9
    )


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
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.diag([1.5, -0.5]))
    assert not is_density(np.array([[0.5, 0.3], [0.2, 0.5]]))
    assert not is_density(np.eye(2))  # trace 2
    assert is_hermitian(SZ) and not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_unitary(SZ) and not is_unitary(np.diag([1.0, 0.5]))


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        SubsystemDims((2,) * 13)
    assert SubsystemDims((2,) * 12).total == DIM_CAP


def test_subsystem_dims_shapes():
    d = SubsystemDims((2, 3, 2))
    assert d.total == 12
    assert d.restrict((0, 2)).dims == (2, 2)
    with pytest.raises(ValueError):
        SubsystemDims((1, 2))


def test_embed_operator_positions():
    rng = np.random.default_rng(11)
    op = random_matrix(rng, 2)
    dims = qubit_dims(3)
    full = embed_operator(op, (1,), dims)
    np.testing.assert_allclose(full, np.kron(np.kron(np.eye(2), op), np.eye(2)), atol=1e-12)
    two = random_matrix(rng, 4)
    # support listed in reversed order swaps the factor roles
    swapped = embed_operator(two, (2, 0), dims)
    perm = two.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    np.testing.assert_allclose(swapped, embed_operator(perm, (0, 2), dims), atol=1e-12)


def test_embed_operator_matches_vector_action():
    # embedded operator acts like op on the chosen qubit of a product vector
    rng = np.random.default_rng(12)
    op = random_matrix(rng, 2)
    a, b, c = (random_pure(rng, 2) for _ in range(3))
    full = embed_operator(op, (1,), qubit_dims(3))
    lhs = full @ np.kron(a, np.kron(b, c))
    rhs = np.kron(a, np.kron(op @ b, c))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize(
    "dims, support",
    [
        ((2, 2, 2), (1,)),
        ((2, 2, 2), (2, 0)),
        ((2, 2, 2, 2), (3, 1)),
        ((2, 3, 2), (1,)),
        ((2, 3, 2), (2, 0)),
        ((2, 3, 2), (0, 2, 1)),
    ],
)
@pytest.mark.parametrize("vector", [False, True])
def test_apply_local_matches_dense_embedding(dims, support, vector):
    rng = np.random.default_rng(14)
    d = int(np.prod(dims))
    d_sup = int(np.prod([dims[i] for i in support]))
    ops = [random_matrix(rng, d_sup) for _ in range(3)]
    full = [embed_operator(k, support, dims) for k in ops]
    if vector:
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        want = sum(k @ x for k in full)
    else:
        x = random_matrix(rng, d)
        want = sum(k @ x @ k.conj().T for k in full)
    got = apply_local(x, ops, support, dims)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, atol=1e-12)


@st.composite
def local_actions(draw):
    """(dims, support, Kraus stack, x): 1-4 factors of dimension 2 or 3, a
    support in any order, K = 1..4, x a vector or a matrix."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    support = tuple(order[: draw(st.integers(1, len(dims)))])
    d_sup = int(np.prod([dims[i] for i in support]))
    k = draw(st.integers(1, 4))
    d = int(np.prod(dims))
    shape = (d,) if draw(st.booleans()) else (d, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = rng.normal(size=(k, d_sup, d_sup)) + 1j * rng.normal(size=(k, d_sup, d_sup))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return dims, support, ops, x


@given(local_actions())
@settings(max_examples=60, deadline=None)
def test_apply_local_matches_dense_reference(case):
    dims, support, ops, x = case
    full = [embed_operator(k, support, dims) for k in ops]
    if x.ndim == 1:
        want = sum(f @ x for f in full)
    else:
        want = sum(f @ x @ f.conj().T for f in full)
    got = apply_local(x, ops, support, dims)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    if x.ndim == 2:  # the stack's superoperator is the same map, contracted the same way
        np.testing.assert_array_equal(apply_local(x, superoperator(ops), support, dims), got)


def test_apply_local_rejects_mismatched_shapes():
    x = np.eye(8, dtype=np.complex128)
    with pytest.raises(ValueError):
        apply_local(x, [np.eye(4)], (0,), qubit_dims(3))
    with pytest.raises(ValueError):
        apply_local(x, [np.eye(2)], (0, 0), qubit_dims(3))
    with pytest.raises(ValueError):
        apply_local(np.eye(4), [np.eye(2)], (0,), qubit_dims(3))
    with pytest.raises(ValueError, match="superoperator acts on a matrix"):
        apply_local(np.ones(8), superoperator([np.eye(2)]), (0,), qubit_dims(3))


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
    np.testing.assert_allclose(vector_from_json(vector_to_json(v)), v)
    with pytest.raises(ValueError, match="square"):
        matrix_from_json([[1.0, 0.0]] * 3)  # 3 entries, not square
    with pytest.raises(ValueError, match=r"must be >= 2, got \(0,\)"):
        matrix_from_json([])  # empty
    monkeypatch.setattr(matcore, "DIM_CAP", 2)
    with pytest.raises(DimensionCapError, match="total dimension 3 exceeds cap 2"):
        matrix_from_json(matrix_to_json(m))

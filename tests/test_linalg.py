import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressing_forge import (HermitianProjection, RankDeficientError,
                            SingularError, linalg, max_abs, project_onto_span,
                            solve_linear, star_reduce)
from dressing_forge.linalg import COND_MAX, RANK_TOL_FACTOR


def test_project_coordinate_axis():
    pi = project_onto_span(np.array([1.0, 0.0]))
    assert max_abs(pi.matrix - np.diag([1.0, 0.0])) < 1e-14
    assert pi.rank == 1 and pi.is_real


def test_project_symmetric_rank_one():
    pi = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    assert max_abs(pi.matrix - 0.5 * np.ones((2, 2))) < 1e-14


def test_project_complex_span_against_gram_oracle():
    # hand evaluation of V (V*V)^{-1} V* for V = (1, i)^t: V*V = 2, so
    # pi = [[1, -i], [i, 1]] / 2
    V = np.array([1.0, 1.0j])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    pi = project_onto_span(V)
    assert max_abs(pi.matrix - expected) < 1e-12
    assert not pi.is_real


def test_project_matches_gram_formula_random(rng):
    V = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    pi = project_onto_span(V)
    gram = V @ np.linalg.inv(V.conj().T @ V) @ V.conj().T
    assert max_abs(pi.matrix - gram) < 1e-12


def test_project_rank_deficient():
    V = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])
    with pytest.raises(RankDeficientError):
        project_onto_span(V)


def test_projection_validation_rejects_corrupt_matrix():
    bad = np.array([[0.9, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(RankDeficientError):
        HermitianProjection(bad, 1, True, np.array([[1.0], [0.0]], dtype=complex))


@pytest.mark.parametrize("matrix, rank, real, message", [
    ([[0.9, 0.0], [0.0, 0.0]], 1, True, r"\|pi\^2-pi\|"),
    ([[1.0, 1.0], [0.0, 0.0]], 1, True, r"\|pi-pi\*\|"),
    ([[1.0, 0.0], [0.0, 0.0]], 2, True, "trace"),
    ([[0.5, -0.5j], [0.5j, 0.5]], 1, True, "marked real"),
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.9, 0.0], [0.0, 0.0]]], 1, True, r"\|pi\^2-pi\|"),
], ids=["not-idempotent", "not-hermitian", "wrong-rank", "not-real", "one-bad-in-stack"])
def test_given_projections_are_still_validated(matrix, rank, real, message):
    """A projection built from a given matrix is checked over the whole
    stack, as before; only those project_onto_span builds skip the check."""
    matrix = np.array(matrix, dtype=complex)
    span = np.zeros(matrix.shape[:-1] + (rank,), dtype=complex)
    with pytest.raises(RankDeficientError, match=message):
        HermitianProjection(matrix, rank, real, span)


def _scaled_frobenius(M):
    """Frobenius norm of each matrix of a stack (..., n, k) as r * 2**e, the
    reference formula: each matrix scaled by the power of two 2**-e that
    brings its largest |real or imaginary part| into [1/2, 1), as LAPACK's
    nrm2 scales (Blue, ACM TOMS 4, 1978), so the sum of squares neither
    overflows nor underflows.  Returns (r, e, X), X the real view (..., n,
    2k) of the scaled matrix."""
    X = np.ascontiguousarray(M).view(float)
    _, e = np.frexp(np.abs(X).max(axis=(-2, -1)))
    X = np.ldexp(X, -e[..., None, None])
    return np.sqrt(np.einsum("...ij,...ij->...", X, X)), e, X


def _span_projection_reference(V):
    """project_onto_span as computed through the validating constructor:
    Q = v / |v| (one column, |v| by the scaled formula) or the reduced
    SVD's U, then Q Q*, made Hermitian and snapped to real where its
    imaginary part is below 1e-12."""
    V = np.asarray(V, dtype=complex)
    V = V[:, None] if V.ndim == 1 else V
    if V.shape[-1] == 1:
        r, _, X = _scaled_frobenius(V)
        Q = (X / r[..., None, None]).view(complex)
    else:
        Q = np.linalg.svd(V, full_matrices=False)[0]
    pi = Q @ Q.swapaxes(-1, -2).conj()
    pi = 0.5 * (pi + pi.swapaxes(-1, -2).conj())
    real = np.abs(pi.imag).max(axis=(-2, -1)) < linalg.PROJECTION_TOL
    return HermitianProjection(np.where(real[..., None, None], pi.real, pi), V.shape[-1],
                               bool(real.all()), Q)


@pytest.mark.parametrize("case", ["vector", "real-column", "complex-columns", "stack-1",
                                  "stack-2", "mixed-stack", "near-real", "no-columns"])
def test_built_projections_skip_validation_and_keep_their_values(case, rng, monkeypatch):
    """project_onto_span's projections, certified by their orthonormal Q,
    are not validated again, and keep bit for bit the matrix, rank,
    is_real and span that the same computation gives through the
    validating constructor; they also pass that constructor."""
    V = {
        "vector": rng.normal(size=3) + 1j * rng.normal(size=3),
        "real-column": rng.normal(size=(4, 1)),
        "complex-columns": rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)),
        "stack-1": rng.normal(size=(7, 3, 1)) + 1j * rng.normal(size=(7, 3, 1)),
        "stack-2": rng.normal(size=(5, 4, 2)) + 1j * rng.normal(size=(5, 4, 2)),
        "mixed-stack": np.stack([rng.normal(size=(3, 2)),
                                 rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))]),
        "near-real": rng.normal(size=(3, 1)) + 1e-14j * rng.normal(size=(3, 1)),
        "no-columns": np.zeros((2, 3, 0)),
    }[case]
    want = _span_projection_reference(V) if V.shape[-1] else None
    checks = []
    post_init = HermitianProjection.__post_init__
    monkeypatch.setattr(HermitianProjection, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    got = project_onto_span(V)
    assert checks == []
    if want is not None:
        assert np.array_equal(got.matrix, want.matrix) and got.matrix.dtype == want.matrix.dtype
        assert np.array_equal(got.span, want.span)
        assert (got.rank, got.is_real) == (want.rank, want.is_real)
    HermitianProjection(got.matrix, got.rank, got.is_real, got.span)
    assert got.is_real == (case in ("real-column", "near-real", "no-columns"))


def test_zero_and_identity_projections():
    z = HermitianProjection.zero(3)
    i = HermitianProjection.identity(3)
    assert z.rank == 0 and i.rank == 3
    assert max_abs(z.matrix) == 0.0
    assert max_abs(i.complement) == 0.0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 3))
def test_projection_invariant_under_column_mixing(seed, n, k):
    rng = np.random.default_rng(seed)
    k = min(k, n - 1)
    V = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    M += 3 * np.eye(k)  # keep it invertible
    p1 = project_onto_span(V)
    p2 = project_onto_span(V @ M)
    assert max_abs(p1.matrix - p2.matrix) < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_reflection_is_unitary(seed, n):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
    pi = project_onto_span(V)
    R = np.eye(n) - 2 * pi.matrix
    assert max_abs(R.conj().T @ R - np.eye(n)) < 1e-12


def test_star_reduce_definition():
    assert max_abs(star_reduce(np.eye(2))) == 0.0
    out = star_reduce(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out, np.array([[0.0, 2.0], [3.0, 0.0]]))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_star_reduce_idempotent_and_linear(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert max_abs(star_reduce(star_reduce(a)) - star_reduce(a)) == 0.0
    assert max_abs(star_reduce(2.0 * a + b) - (2.0 * star_reduce(a) + star_reduce(b))) < 1e-12


def test_solve_identity_and_diagonal():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs(solve_linear(np.eye(2), B) - B) < 1e-15
    x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert max_abs(x - np.ones(2)) < 1e-15


def test_solve_residual_oracle(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 4 * np.eye(6)
    B = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    X = solve_linear(A, B)
    assert max_abs(A @ X - B) < 1e-12


def test_solve_singular():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularError):
        solve_linear(A, np.ones(2))


# --- condition and rank thresholds ------------------------------------------

@pytest.mark.parametrize("factor, passes", [(0.99, True), (1.01, False)],
                         ids=["just-below", "just-above"])
def test_solve_condition_threshold(factor, passes):
    # diag(1, eps) has cond_2 = 1/eps and cond_F = sqrt(1 + eps^2) / eps,
    # both within rounding of factor * COND_MAX
    A = np.diag([1.0, 1.0 / (factor * COND_MAX)])
    b = np.array([1.0, 1.0])
    if passes:
        assert np.array_equal(solve_linear(A, b), np.linalg.solve(A.astype(complex), b))
    else:
        with pytest.raises(SingularError, match=r"^matrix condition 1\.010e\+13 exceeds 1\.0e\+13$"):
            solve_linear(A, b)


def test_solve_passes_cond2_below_limit_with_cond_f_above():
    # cond_2 = 0.9 COND_MAX < COND_MAX < cond_F = sqrt(2) 0.9 COND_MAX
    A = np.diag([1.0, 1.0, 1.0 / (0.9 * COND_MAX)])
    b = np.ones(3)
    assert np.array_equal(solve_linear(A, b), np.linalg.solve(A.astype(complex), b))


@pytest.mark.parametrize("A", [
    np.zeros((3, 3)),
    np.stack([np.eye(2), np.array([[2.0, 4.0], [1.0, 2.0]]), 3 * np.eye(2)]),
], ids=["zero", "in-stack"])
def test_solve_exactly_singular_pivot_raises_singular_error(A):
    # LU meets an exactly zero pivot here (as in test_solve_singular); the
    # refusal is still SingularError, with the SVD's message
    with pytest.raises(SingularError, match=r"^matrix condition inf exceeds 1\.0e\+13$"):
        solve_linear(A, np.ones(A.shape[:-1]))


def test_solve_refuses_one_bad_matrix_in_a_stack(rng):
    A = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3)) + 4 * np.eye(3)
    A[4] = np.diag([1.0, 1.0, 1.0 / (2 * COND_MAX)])
    with pytest.raises(SingularError, match=r"^matrix condition 2\.000e\+13 exceeds 1\.0e\+13$"):
        solve_linear(A, np.ones((6, 3)))
    # a matrix that only the SVD passes does not refuse the stack
    A[4] = np.diag([1.0, 1.0, 1.0 / (0.9 * COND_MAX)])
    B = rng.normal(size=(6, 3, 2)) + 0j
    assert np.array_equal(solve_linear(A, B), np.linalg.solve(A, B))


def test_solve_certificate_sends_only_uncertified_matrices_to_svd(rng, monkeypatch):
    svd_shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)) + 4 * np.eye(3)
    solve_linear(A, np.ones((5, 3)))
    assert svd_shapes == []
    A[2] = np.diag([1.0, 1.0, 1.0 / (0.9 * COND_MAX)])
    solve_linear(A, np.ones((5, 3)))
    assert svd_shapes == [(1, 3, 3)]


@pytest.mark.parametrize("factor, passes", [(1.01, True), (0.99, False)],
                         ids=["just-above", "just-below"])
def test_project_rank_threshold_two_columns(factor, passes):
    # sigma_min/sigma_max = factor * RANK_TOL_FACTOR exactly
    V = np.array([[1.0, 0.0], [0.0, factor * RANK_TOL_FACTOR], [0.0, 0.0]])
    if passes:
        pi = project_onto_span(V)
        assert max_abs(pi.matrix - np.diag([1.0, 1.0, 0.0])) < 1e-15
    else:
        with pytest.raises(RankDeficientError, match=r"sigma_min/sigma_max = 9\.90e-11$"):
            project_onto_span(V)


@pytest.mark.parametrize("V", [
    np.zeros(3),
    np.zeros((3, 2)),
    np.stack([np.ones((3, 1)), np.zeros((3, 1))]),
], ids=["column", "two-columns", "in-stack"])
def test_project_zero_span_refused_without_nan(V):
    # the suite turns the 0/0 RuntimeWarning into an error as well
    with pytest.raises(RankDeficientError, match="sigma_min/sigma_max = 0.00e") as info:
        project_onto_span(V)
    assert "nan" not in str(info.value)


# --- scale and shape ---------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-310])
@pytest.mark.parametrize("v", [np.array([1.0, 2.0, 2.0]), np.array([1.0, 2.0j, -2.0])],
                         ids=["real", "complex"])
def test_project_span_at_extreme_scales(scale, v):
    pi = project_onto_span(scale * v)
    unit = v / 3.0
    assert pi.rank == 1
    assert max_abs(pi.matrix - np.outer(unit, unit.conj())) <= 1e-15
    assert max_abs(pi.span[:, 0] * np.vdot(pi.span[:, 0], unit) - unit) <= 1e-15


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_solve_at_extreme_scales(scale):
    b = np.array([1.0, -2.0, 0.5j])
    x = solve_linear(scale * np.eye(3), b)
    assert max_abs(x * scale - b) <= 1e-15 * max_abs(b)
    A = scale * np.array([[2.0, 1.0, 0.0], [0.0, 1.0j, 1.0], [1.0, 0.0, 3.0]])
    assert np.array_equal(solve_linear(A, b), np.linalg.solve(A, b))


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("a_batch, b_batch, k", [
    ((), (), None),        # (n, n) + (n,)
    ((), (), 3),           # (n, n) + (n, k)
    ((5,), (5,), None),    # (P, n, n) + (P, n)
    ((5,), (5,), 3),       # (P, n, n) + (P, n, k)
    ((5,), (), None),      # (P, n, n) + (n,)
    ((0,), (0,), None),    # P = 0
    ((0,), (0,), 3),
], ids=["matrix-vector", "matrix-block", "stack-vectors", "stack-blocks",
        "stack-one-vector", "empty-vectors", "empty-blocks"])
def test_solve_returns_exactly_numpy_solve(rng, n, a_batch, b_batch, k):
    """X is bit for bit the first k columns of np.linalg.solve(A, [B | I]),
    the one solve that also gives A^-1, and agrees with
    np.linalg.solve(A, B) to rounding: a BLAS kernel may compute a column of
    the solution differently by how many columns are solved with it."""
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A = draw(a_batch + (n, n)) + n * np.eye(n)
    B = draw(b_batch + (n,) + (() if k is None else (k,)))
    X = solve_linear(A, B)
    # numpy 2 reads only a 1-D b as a vector; a stack of vectors is solved as
    # a stack of one-column blocks
    block = B[..., None] if k is None else B
    eye = np.broadcast_to(np.eye(n), block.shape[:-1] + (n,))
    exact = np.linalg.solve(A, np.concatenate((block, eye), axis=-1))[..., :block.shape[-1]]
    near = np.linalg.solve(A, block if b_batch else B)
    if k is None:
        exact = exact[..., 0]
        near = near[..., 0] if b_batch else near
    assert X.shape == exact.shape == near.shape and np.array_equal(X, exact)
    assert max_abs(X - near) <= 1e-14 * max_abs(near)


# --- the plain-sum certificates against the scaled reference -----------------

def _conditioned_stack(rng, n, size):
    """``size`` complex n x n matrices U diag(sigma) W* * scale with random
    unitary U, W, 2-norm condition 10**[0, 16] and scale 10**[-300, 300],
    both log-uniform, the largest singular value the scale."""
    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n)))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (d / np.abs(d))[:, None, :]

    cond = 10.0 ** rng.uniform(0, 16, size)
    scale = 10.0 ** rng.uniform(-300, 300, size)
    sigma = cond[:, None] ** -np.sort(rng.uniform(0, 1, (size, n)))
    sigma[:, 0], sigma[:, -1] = 1.0, 1.0 / cond
    return (unitary() * sigma[:, None, :]) @ unitary().conj().swapaxes(-1, -2) * scale[:, None, None]


@settings(deadline=None, max_examples=30, derandomize=True, database=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_solve_certificate_against_the_scaled_formula(seed, n):
    """Matrices at scales 1e-300 to 1e300 and 2-norm conditions 1 to 1e16:
    each passes ``solve_and_invert`` exactly when its SVD condition is at
    most COND_MAX, apart from rounding at the threshold (within 1% of it,
    where sigma_min and the inverse carry relative errors of about
    cond * eps = 1e-3); none that the scaled certificate refuses is
    certified; X is bit for bit the first k columns of
    np.linalg.solve(A, [B | I])."""
    rng = np.random.default_rng(seed)
    A = _conditioned_stack(rng, n, 48)
    B = rng.normal(size=(48, n, 2)) + 1j * rng.normal(size=(48, n, 2))
    BI = np.concatenate((B, np.broadcast_to(np.eye(n), (48, n, n))), axis=-1)
    s = np.linalg.svd(A, compute_uv=False)
    svd_cond = s[:, 0] / s[:, -1]
    XI = np.linalg.solve(A, BI)
    (rA, eA), (rI, eI) = (_scaled_frobenius(m)[:2] for m in (A, XI[..., 2:]))
    scaled_certified = np.ldexp(rA * rI, np.minimum(eA + eI, 64)) <= COND_MAX
    sent, passed = [], []
    require = linalg._require_conditioned
    linalg._require_conditioned = lambda a: sent.append(len(a)) or require(a)
    try:
        for a, b in zip(A, B):
            sent.clear()
            try:
                linalg.solve_and_invert(a[None], b[None])
                passed.append(True)
            except SingularError:
                passed.append(False)
            certified = not sent
            assert not certified or scaled_certified[len(passed) - 1]
    finally:
        linalg._require_conditioned = require
    passed = np.array(passed)
    near = np.abs(svd_cond / COND_MAX - 1) < 1e-2
    assert np.array_equal(passed[~near], (svd_cond <= COND_MAX)[~near])
    # bit for bit, the inf and NaN of an overflowing X among them
    X, _ = linalg.solve_and_invert(A[passed], B[passed])
    assert X.tobytes() == np.linalg.solve(A[passed], BI[passed])[..., :2].tobytes()


def _column_stack(rng, size, n=3):
    """``size`` complex columns of n Gaussian entries times 10**[-300, 300]."""
    scale = 10.0 ** rng.uniform(-300, 300, size)
    return (rng.normal(size=(size, n, 1)) + 1j * rng.normal(size=(size, n, 1))) * scale[:, None, None]


@settings(deadline=None, max_examples=30, derandomize=True, database=None)
@given(st.integers(0, 10 ** 6))
def test_one_column_spans_against_the_scaled_formula(seed):
    """One-column projections whose sum of squares lies in [1e-290, 1e290]
    are bit for bit those of the scaled formula (no entry of these columns
    is small enough for either formula to round a subnormal); every column,
    in range or not, gets a unit basis and the value it gets alone."""
    rng = np.random.default_rng(seed)
    V = _column_stack(rng, 64)
    r, e, _ = _scaled_frobenius(V)
    log_ss = 2 * (np.log10(r) + e * np.log10(2.0))
    inside = (log_ss > -290 + 1e-9) & (log_ss < 290 - 1e-9)
    got = project_onto_span(V)
    want = _span_projection_reference(V[inside])
    assert np.array_equal(got.span[inside], want.span)
    assert np.array_equal(got.matrix[inside], want.matrix)
    assert np.abs(np.linalg.norm(got.span[..., 0], axis=-1) - 1).max() <= 1e-15
    for v, span, matrix in zip(V[~inside], got.span[~inside], got.matrix[~inside]):
        alone = project_onto_span(v)
        assert np.array_equal(alone.span, span) and np.array_equal(alone.matrix, matrix)


@pytest.mark.parametrize("scale", [1e-310, 1e200])
def test_one_column_span_has_unit_norm_out_of_range(scale):
    pi = project_onto_span(scale * np.array([1.0, 2.0j, -2.0]))
    assert abs(np.linalg.norm(pi.span) - 1) <= 1e-15


def test_one_column_stack_mixing_ranges_matches_each_alone(rng):
    """A stack of columns in and out of the normal range: each column's
    projection and basis are the ones it gets on its own."""
    v = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    scales = [1.0, 1e-310, 1e200, 1e-140, 1e150, 3.0]
    V = np.stack([s * v for s in scales])
    got = project_onto_span(V)
    for i, s in enumerate(scales):
        alone = project_onto_span(s * v)
        assert np.array_equal(got.span[i], alone.span)
        assert np.array_equal(got.matrix[i], alone.matrix)

"""Dense complex matrix arithmetic and Hermitian projections.

Everything is a plain complex128 ``numpy.ndarray`` at small fixed dimension
(n = 2..8 at desk scale); there is no sparse or blocked structure.  Matrix
routines accept stacks of shape (..., n, n), one matrix per point of a point
set, and apply their checks to every matrix in the stack.  The checks are
cheap certificates from plain sums of squares: a solve passes every matrix
whose Frobenius condition number ||A||_F ||A^-1||_F, an upper bound on the
2-norm one, is below the limit, and a one-column span one whose norm is in
the normal range.  An SVD decides the rest, over- and underflows among
them.  The one structured value is :class:`HermitianProjection`, which is
validated on every construction from given matrices, because a projection
that silently fails pi^2 = pi or pi = pi* corrupts every downstream
transformation formula; one that :func:`project_onto_span` builds as Q Q*
from an orthonormal Q is certified by Q and not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, RankDeficientError, SingularError

# Scale-free independence threshold for spanning columns.
RANK_TOL_FACTOR = 1e-10
# Hard validation tolerance for projection residuals.
PROJECTION_TOL = 1e-12
# Linear solves refuse above this condition estimate.
COND_MAX = 1e13


def cmat(data) -> np.ndarray:
    """Coerce to a finite complex128 array."""
    a = np.asarray(data, dtype=complex)
    if not np.isfinite(a.view(float)).all():
        raise NonFiniteError("matrix entries must be finite")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over a point set: a (..., n, n), x (..., n)."""
    return (a @ x[..., None])[..., 0]


def max_abs(a) -> float:
    """Entrywise max-norm; the residual norm used everywhere."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _require_square(a: np.ndarray, name: str) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} expects a square matrix, got {a.shape}")


def star_reduce(xi: np.ndarray) -> np.ndarray:
    """Zero the diagonal of a square matrix (of each matrix in a stack),
    keeping off-diagonal entries."""
    xi = np.asarray(xi)
    _require_square(xi, "star_reduce")
    out = xi.copy()
    diag = np.arange(xi.shape[-1])
    out[..., diag, diag] = 0
    return out


def lax_block(M: np.ndarray, axis: int, lam: complex | None = None,
              h: np.ndarray | None = None) -> np.ndarray:
    """The axis commutator [e_aa, M] of each matrix in a stack (..., n, n).

    With ``lam`` and ``h`` (..., n) it is instead the (n+1) x (n+1) Lax
    coefficient along u_axis of the flat connection attached to rotation
    coefficients M = beta and metric coefficients h:
    [[i lam e_aa + [e_aa, beta], h_a e_a], [0, 0]]."""
    M = np.asarray(M)
    n = M.shape[-1]
    size = n if lam is None else n + 1
    out = np.zeros(M.shape[:-2] + (size, size), dtype=complex)
    out[..., axis, :n] += M[..., axis, :]
    out[..., :n, axis] -= M[..., :, axis]
    if lam is not None:
        out[..., axis, axis] += 1j * lam
        out[..., axis, n] = h[..., axis]
    return out


def _sum_squares(X: np.ndarray) -> np.ndarray:
    """sum x_ij^2 of each matrix of a real stack (..., n, k), unscaled."""
    return np.einsum("...ij,...ij->...", X, X)


def _require_conditioned(A: np.ndarray) -> None:
    """Raise :class:`SingularError` when the SVD condition number of any
    matrix of the stack A exceeds ``COND_MAX`` or its sigma_min is 0."""
    s = np.linalg.svd(A, compute_uv=False)
    smin = s[..., -1]
    # a condition beyond the float range, sigma_min = 0 among them, reads inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cond = np.where(smin == 0.0, np.inf, s[..., 0] / smin)
    # an empty stack has nothing to check
    if cond.size and cond.max() > COND_MAX:
        raise SingularError(f"matrix condition {cond.max():.3e} exceeds {COND_MAX:.1e}")


def solve_and_invert(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, A^-1) with A X = B, for a small well-conditioned square A or for
    each matrix of a stack A of shape (..., n, n).  B holds one right-hand
    side vector per matrix (shape (..., n)) or one block (shape (..., n,
    k)).  Both are views into ``np.linalg.solve(A, [B | I])``: X its first
    k columns, and ``np.linalg.solve(A, B)``'s to rounding (a BLAS kernel
    may solve a column differently by how many are solved with it), A^-1
    its last n.

    Raises :class:`SingularError` when the 2-norm condition number of any
    matrix exceeds ``COND_MAX`` (covers exactly singular pivots as well).
    The certificate cond_2 <= cond_F = ||A||_F ||A^-1||_F, each norm from a
    plain sum of squares, passes every matrix whose cond_F is at most
    ``COND_MAX``; a sum that over- or underflows makes cond_F inf or NaN and
    fails it.  A values-only SVD decides every other matrix (and all of them
    when the LU meets an exactly zero pivot).
    """
    A = cmat(A)
    _require_square(A, "solve_linear")
    B = np.asarray(B, dtype=complex)
    vector = B.ndim in (1, A.ndim - 1)
    if vector:
        B = B[..., None]
    n, k = A.shape[-1], B.shape[-1]
    BI = np.empty(B.shape[:-1] + (k + n,), dtype=complex)
    BI[..., :k] = B
    BI[..., k:] = np.eye(n)
    try:
        XI = np.linalg.solve(A, BI)
    except np.linalg.LinAlgError:
        _require_conditioned(A)
        raise
    A_f, inv_f = (np.ascontiguousarray(M).view(float) for M in (A, XI[..., k:]))
    with np.errstate(invalid="ignore"):  # inf * 0 reads NaN and fails
        certified = np.sqrt(_sum_squares(A_f)) * np.sqrt(_sum_squares(inv_f)) <= COND_MAX
    if not certified.all():
        _require_conditioned(A[~certified])
    return XI[..., 0] if vector else XI[..., :k], XI[..., k:]


def solve_linear(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B: the X of :func:`solve_and_invert`, with its checks,
    exactly the first k columns of ``np.linalg.solve(A, [B | I])``.  A copy,
    so that a kept solution does not keep A^-1 alive with it."""
    return np.ascontiguousarray(solve_and_invert(A, B)[0])


@dataclass(frozen=True, eq=False)
class HermitianProjection:
    """An n x n complex matrix pi with pi^2 = pi and pi = pi*, or a stack of
    them of shape (..., n, n) sharing one rank (one projection per point of a
    point set).

    ``span`` holds an orthonormal basis of the image; transported images are
    computed by mapping the span and re-projecting, which is numerically
    stabler than conjugating the matrix itself.  ``is_real`` holds for a
    stack when every matrix in it is real.
    """

    matrix: np.ndarray
    rank: int
    is_real: bool
    span: np.ndarray = field(repr=False)

    def __post_init__(self):
        pi = self.matrix
        n = pi.shape[-1]
        if pi.ndim < 2 or pi.shape[-2] != n:
            raise ValueError("projection matrix must be square")
        idem = max_abs(pi @ pi - pi)
        herm = max_abs(pi - adjoint(pi))
        if idem >= PROJECTION_TOL or herm >= PROJECTION_TOL:
            raise RankDeficientError(
                f"projection validation failed: |pi^2-pi|={idem:.2e}, |pi-pi*|={herm:.2e}"
            )
        if self.is_real and max_abs(pi.imag) >= PROJECTION_TOL:
            raise RankDeficientError(f"projection marked real has |Im pi|={max_abs(pi.imag):.2e}")
        if (np.rint(pi.trace(axis1=-2, axis2=-1).real) != self.rank).any():
            raise RankDeficientError("projection rank disagrees with trace")
        if self.span.shape != pi.shape[:-1] + (self.rank,):
            raise ValueError("span must be n x rank")

    @classmethod
    def _from_basis(cls, matrix, rank: int, is_real: bool, span) -> "HermitianProjection":
        """The projection Q Q* onto the span of an orthonormal Q (``span``),
        without ``__post_init__``'s checks: Q Q* is Hermitian, idempotent
        and of trace ``rank`` to rounding, because Q* Q = I."""
        pi = object.__new__(cls)
        vars(pi).update(matrix=matrix, rank=rank, is_real=is_real, span=span)
        return pi

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    @property
    def complement(self) -> np.ndarray:
        return np.eye(self.n) - self.matrix

    def conjugate(self) -> "HermitianProjection":
        """The projection onto the conjugated image (pi bar)."""
        return HermitianProjection(self.matrix.conj(), self.rank, self.is_real, self.span.conj())

    @staticmethod
    def zero(n: int) -> "HermitianProjection":
        return HermitianProjection(np.zeros((n, n), dtype=complex), 0, True, np.zeros((n, 0), dtype=complex))

    @staticmethod
    def identity(n: int) -> "HermitianProjection":
        return HermitianProjection(np.eye(n, dtype=complex), n, True, np.eye(n, dtype=complex))


def project_onto_span(V: np.ndarray) -> HermitianProjection:
    """Hermitian projection onto the column span of V, i.e. V (V*V)^-1 V*;
    for a stack V of shape (..., n, k), the stack of projections onto the
    column span of each matrix.

    Computed as Q Q* from an orthonormal basis Q of the span, which agrees
    with the Gram form to machine precision and is invariant under
    right-multiplication of V by any invertible matrix.  Raises
    :class:`RankDeficientError` when sigma_min(V) <= RANK_TOL_FACTOR *
    sigma_max(V) for any matrix.  A single column v has sigma_min = sigma_max
    = |v|, so its basis is v / |v| wherever the plain sum |v|^2 lies in
    [1e-290, 1e290]; every other matrix (a zero column, say) takes the left
    singular vectors of a reduced SVD, matrix by matrix, so no result
    depends on its stack.  Each projection whose imaginary part is below
    ``PROJECTION_TOL`` is snapped to real.  Q's orthonormality certifies
    the result, so it skips the stack-wide idempotence, hermiticity and
    trace checks of a given projection.
    """
    V = cmat(V)
    if V.ndim == 1:
        V = V[:, None]
    n, k = V.shape[-2:]
    if k == 0:
        zero = np.zeros(V.shape[:-1] + (n,), dtype=complex)
        return HermitianProjection._from_basis(zero, 0, True, V)
    if k > n:
        raise RankDeficientError(f"{k} columns cannot be independent in dimension {n}")
    # one column has sigma_min = sigma_max = |v| and the basis v / |v|, taken
    # where the sum |v|^2 lies in [1e-290, 1e290], clear of over- and
    # underflow; the SVD takes every other matrix, and all of several columns
    svd = np.True_
    if k == 1:
        X = np.ascontiguousarray(V).view(float)
        ss = _sum_squares(X)
        svd = (ss < 1e-290) | (ss > 1e290)
        Q = (X / np.sqrt(np.where(svd, 1.0, ss))[..., None, None]).view(complex)
    if svd.any():
        if svd.all():
            Q, s, _ = np.linalg.svd(V, full_matrices=False)
        else:
            Q[svd], s, _ = np.linalg.svd(V[svd], full_matrices=False)
        if (s[..., -1] <= RANK_TOL_FACTOR * s[..., 0]).any():
            # a zero matrix has sigma_max = 0; its ratio reads 0
            ratio = np.divide(s[..., -1], s[..., 0], out=np.zeros(s.shape[:-1]), where=s[..., 0] > 0)
            raise RankDeficientError(
                f"spanning columns are dependent: sigma_min/sigma_max = {ratio.min():.2e}"
            )
    pi = Q @ adjoint(Q)
    pi = 0.5 * (pi + adjoint(pi))  # enforce Hermitian symmetry exactly up to roundoff
    real = np.abs(pi.imag).max(axis=(-2, -1)) < PROJECTION_TOL
    pi = np.where(real[..., None, None], pi.real, pi)
    return HermitianProjection._from_basis(pi, k, bool(real.all()), Q)


def projection_distance(p: HermitianProjection, q: HermitianProjection) -> float:
    """Max-norm distance between two projections (equality threshold 1e-9)."""
    return max_abs(p.matrix - q.matrix)

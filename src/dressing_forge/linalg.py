"""Dense complex matrix arithmetic and Hermitian projections.

Everything is a plain complex128 ``numpy.ndarray`` at small fixed dimension
(n = 2..8 at desk scale); there is no sparse or blocked structure.  Matrix
routines accept stacks of shape (..., n, n), one matrix per point of a point
set, and apply their checks to every matrix in the stack.  The one
structured value is :class:`HermitianProjection`, which is re-validated on
every construction because a projection that silently fails pi^2 = pi or
pi = pi* corrupts every downstream transformation formula.
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


def solve_linear(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for a small well-conditioned square A, or for each
    matrix of a stack A of shape (..., n, n).  B holds one right-hand side
    vector per matrix (shape (..., n)) or one block (shape (..., n, k)).

    Raises :class:`SingularError` when the SVD condition estimate of any
    matrix exceeds ``COND_MAX`` (covers exactly singular pivots as well).
    """
    A = cmat(A)
    _require_square(A, "solve_linear")
    s = np.linalg.svd(A, compute_uv=False)
    smin = s[..., -1]
    cond = s[..., 0] / np.maximum(smin, 1e-300)
    # an empty stack has nothing to check
    if smin.size and (smin.min() == 0.0 or cond.max() > COND_MAX):
        worst = np.where(smin == 0.0, np.inf, cond).max()
        raise SingularError(f"matrix condition {worst:.3e} exceeds {COND_MAX:.1e}")
    B = np.asarray(B, dtype=complex)
    if A.ndim > 2 and B.ndim == A.ndim - 1:
        return np.linalg.solve(A, B[..., None])[..., 0]
    return np.linalg.solve(A, B)


@dataclass(frozen=True, eq=False)
class HermitianProjection:
    """An n x n complex matrix pi with pi^2 = pi and pi = pi*, or a stack of
    them of shape (..., n, n) sharing one rank (one projection per point of a
    point set; indexing the stack gives the projection at one point).

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

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    @property
    def complement(self) -> np.ndarray:
        return np.eye(self.n) - self.matrix

    def __getitem__(self, index) -> "HermitianProjection":
        """The projection (or sub-stack) at ``index`` of a stack."""
        pi = self.matrix[index]
        return HermitianProjection(pi, self.rank, not np.any(pi.imag), self.span[index])

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

    Computed through an SVD orthonormal basis Q as Q Q*, which agrees with the
    Gram form to machine precision and is invariant under right-multiplication
    of V by any invertible matrix.  Raises :class:`RankDeficientError` when
    sigma_min(V) <= RANK_TOL_FACTOR * sigma_max(V) for any matrix.  Each
    projection whose imaginary part is below ``PROJECTION_TOL`` is snapped to
    real.
    """
    V = cmat(V)
    if V.ndim == 1:
        V = V[:, None]
    n, k = V.shape[-2:]
    if k == 0:
        zero = np.zeros(V.shape[:-1] + (n,), dtype=complex)
        return HermitianProjection(zero, 0, True, V)
    if k > n:
        raise RankDeficientError(f"{k} columns cannot be independent in dimension {n}")
    Q, s, _ = np.linalg.svd(V, full_matrices=False)
    dependent = s[..., -1] <= RANK_TOL_FACTOR * s[..., 0]
    if dependent.any():
        ratio = np.min(s[..., -1] / s[..., 0])
        raise RankDeficientError(
            f"spanning columns are dependent: sigma_min/sigma_max = {ratio:.2e}"
        )
    pi = Q @ adjoint(Q)
    pi = 0.5 * (pi + adjoint(pi))  # enforce Hermitian symmetry exactly up to roundoff
    real = np.abs(pi.imag).max(axis=(-2, -1)) < PROJECTION_TOL
    pi = np.where(real[..., None, None], pi.real, pi)
    return HermitianProjection(pi, k, bool(real.all()), Q)


def projection_distance(p: HermitianProjection, q: HermitianProjection) -> float:
    """Max-norm distance between two projections (equality threshold 1e-9)."""
    return max_abs(p.matrix - q.matrix)

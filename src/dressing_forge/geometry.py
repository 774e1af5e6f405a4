"""Grids, sampled metrics/immersions, finite differences in u and in lambda,
and the geometric verification checks.

All finite differences in u are 2nd-order central in the interior with
2nd-order one-sided stencils at the boundary (``numpy.gradient`` with
``edge_order=2``), so every residual check converges at order 2 and
refinement-ratio tests have a uniform bookkeeping; dE/dlambda at lambda = 0
(``frame_dlambda_at_zero``) is a Richardson-extrapolated central difference.
Checks never hard-code tolerances: each takes them as arguments whose
defaults are the documented ones, read from ``report.DEFAULT_TOLERANCES``.
Every check reports its residuals; a residual over its tolerance fails in
the report (the limit net's imaginary part too) and is never raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ChartSingularError
from .linalg import adjoint, matvec, max_abs
from .report import DEFAULT_TOLERANCES, VerificationReport


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor product of uniform per-axis partitions."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise ValueError("each grid axis needs at least two points")
            d = np.diff(a)
            if np.any(d <= 0) or max_abs(d - d[0]) > 1e-9 * abs(d[0]):
                raise ValueError("grid axes must be uniform increasing partitions")

    @classmethod
    def from_specs(cls, specs) -> "Grid":
        """specs: per-axis (min, max, points)."""
        axes = []
        for lo, hi, m in specs:
            if not lo < hi:
                raise ValueError(f"grid axis needs min < max, got [{lo}, {hi}]")
            axes.append(np.linspace(float(lo), float(hi), int(m)))
        return cls(tuple(axes))

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    def spacing(self, axis: int) -> float:
        a = self.axes[axis]
        return float(a[1] - a[0])

    def points(self) -> np.ndarray:
        """All grid points, shape (*shape, n)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def refined(self) -> "Grid":
        """Halve the spacing of every axis (2m - 1 points per axis)."""
        return Grid(tuple(np.linspace(a[0], a[-1], 2 * a.size - 1) for a in self.axes))

    def indices(self):
        return np.ndindex(self.shape)


def axis_gradient(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """d(values)/du_axis, 2nd order everywhere."""
    return np.gradient(values, grid.spacing(axis), axis=axis, edge_order=2)


def frame_dlambda_at_zero(E_fn, u, step: float = 1e-3) -> np.ndarray:
    """dE/dlambda at lambda = 0 on the points u, by 4th-order central
    differences with one Richardson extrapolation level; ``E_fn(u, lam)`` is
    the frame block evaluator (``frame.E`` for an extended frame) and must
    take a lambda stack: one call gets the eight lambdas ahead of u's axes."""
    u = np.asarray(u, dtype=float)
    sizes = (step, step / 2)
    lam = np.array([k * s for s in sizes for k in (2, 1, -1, -2)])
    E = np.asarray(E_fn(u, lam.reshape((-1,) + (1,) * (u.ndim - 1))))
    coarse, fine = ((-E[i] + 8 * E[i + 1] - 8 * E[i + 2] + E[i + 3]) / (12 * s)
                    for i, s in zip((0, 4), sizes))
    return (16 * fine - coarse) / 15


@dataclass(eq=False)
class EgoroffMetric:
    """Grid samples of a diagonal potential metric: coefficient vector h,
    potential phi (zero at the origin), rotation coefficients beta.  phi is
    the closed form when the chain has one (``phi_is_closed``), else it is
    path-integrated.  Arrays are complex and ``imag_max`` is the largest
    imaginary part of h and beta; the checks, not the metric, judge them."""

    grid: Grid
    h: np.ndarray          # (*shape, n)
    phi: np.ndarray        # (*shape,)
    beta: np.ndarray       # (*shape, n, n)
    imag_max: float
    phi_is_closed: bool = False

    @property
    def phi_closed(self) -> np.ndarray | None:
        """``phi`` when it is the closed form, else None.  Read-only view of
        a former separate field; perfbench's grid3d digest still reads it."""
        return self.phi if self.phi_is_closed else None

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(eq=False)
class ImmersionSample:
    """One member of the associated family sampled on a grid, with the frame
    block E it came from."""

    lam: complex
    grid: Grid
    X: np.ndarray  # (*shape, n) complex
    E: np.ndarray  # (*shape, n, n) complex


def sample_immersion(frame, grid: Grid, lam: complex) -> ImmersionSample:
    E, X = frame.evaluate(grid.points(), lam)
    return ImmersionSample(complex(lam), grid, X, E)


def is_real_lambda(lam: complex) -> bool:
    """The real-lambda rule: only there is the family member Lagrangian, and
    spherical when lam is also nonzero."""
    return abs(lam.imag) <= 1e-14


def _real_nonzero(lam: complex, what: str) -> float:
    """lam as a float; ValueError naming ``what`` unless it is real and nonzero."""
    if not is_real_lambda(lam) or lam == 0:
        raise ValueError(f"{what} needs real nonzero lambda")
    return lam.real


def sphere_center(c: np.ndarray, lam: float) -> np.ndarray:
    """Center of the hypersphere containing the associated family member:
    the constant-norm vector is X - i c / lam (equal to -i/lam E h)."""
    return 1j * np.asarray(c) / lam


def check_darboux_egoroff(metric: EgoroffMetric,
                          tol: float = DEFAULT_TOLERANCES["darboux_egoroff"]) -> VerificationReport:
    """Finite-difference residuals of the flatness equations for beta.

    Family "triple": d(beta_ij)/du_k = beta_ik beta_kj for distinct i, j, k
                     (a skip entry at n = 2).
    Family "pair":   d(beta_ij)/du_i + d(beta_ij)/du_j + sum_k beta_ik beta_kj = 0.

    Both come from the Lax pair, so they hold for every chain, tau-only
    complex dressings (non-symmetric beta) included; for symmetric beta the
    pair family is Egoroff's sum_k beta_ik beta_jk form.
    """
    beta = metric.beta
    n = metric.n
    grid = metric.grid
    db = [axis_gradient(beta, grid, k) for k in range(n)]

    report = VerificationReport()
    # residual lists reduced by max_abs, so a NaN anywhere fails the check
    if n == 2:
        report.add("darboux_egoroff_triple_skipped", 0.0, None, reason="n = 2 has no three "
                   "distinct indices (rule: the Darboux-Egoroff triple family runs at n >= 3)")
    else:
        report.add("darboux_egoroff_triple", max_abs([
            max_abs(db[k][..., i, j] - beta[..., i, k] * beta[..., k, j])
            for i, j, k in itertools.permutations(range(n), 3)]), tol,
            spacing=[grid.spacing(k) for k in range(n)])
    r_pair = [max_abs(db[i][..., i, j] + db[j][..., i, j]
                      + sum(beta[..., i, k] * beta[..., k, j] for k in range(n)))
              for i, j in itertools.permutations(range(n), 2)]
    report.add("darboux_egoroff_pair", max_abs(r_pair), tol)
    return report


def check_lagrangian(sample: ImmersionSample, h: np.ndarray,
                     tol: float = DEFAULT_TOLERANCES["lagrangian"],
                     metric_tol: float = DEFAULT_TOLERANCES["lagrangian_metric"]
                     ) -> VerificationReport:
    """Symplectic-form and induced-metric residuals from exact tangents.

    Tangents are h_i(u) E(u, lam) e_i, with E the sample's frame block and h
    the metric coefficient vectors on the sample's grid, so for real lam the
    Hermitian products (d_i X)* (d_j X) should be h_i h_j delta_ij up to
    roundoff: the imaginary part is the symplectic form evaluation, the
    diagonal real part the metric.  Skipped with an explanatory entry for
    non-real lam (the frame is not unitary off the real axis).
    """
    report = VerificationReport()
    lam = sample.lam
    if not is_real_lambda(lam):
        report.add("lagrangian_skipped_nonreal_lambda", 0.0, None, lam=str(lam))
        return report
    T = sample.E * h[..., None, :]  # column i = tangent along u_i
    G = adjoint(T) @ T
    r_sympl = max_abs(G.imag)
    r_metric = max_abs(np.diagonal(G, axis1=-2, axis2=-1).real - np.abs(h) ** 2)
    report.add("lagrangian_symplectic", r_sympl, tol)
    report.add("lagrangian_metric", r_metric, metric_tol)
    return report


def check_sphere(sample: ImmersionSample, c: np.ndarray,
                 tol: float = DEFAULT_TOLERANCES["sphere"]) -> VerificationReport:
    """Deviation of |X - i c / lam| from |c| / |lam| over the grid."""
    lam = _real_nonzero(sample.lam, "sphere check")
    center = sphere_center(c, lam)
    radius = float(np.linalg.norm(c)) / abs(lam)
    dist = np.linalg.norm(sample.X - center, axis=-1)
    residual = max_abs(dist - radius)
    report = VerificationReport()
    report.add("sphere_containment", residual, tol, radius=radius, lam=lam)
    return report


def check_partial_invariance(metric: EgoroffMetric,
                             fd_tol: float = DEFAULT_TOLERANCES["partial_invariance"],
                             norm_tol: float = DEFAULT_TOLERANCES["norm_constancy"]
                             ) -> VerificationReport:
    """Residuals of the three equivalent invariance conditions for h plus the
    constancy spread of |h|^2.

    directional: sum_j d(h_i)/du_j = 0
    off-diagonal: d(h_i)/du_j = beta_ij h_j  (i != j)
    diagonal:     d(h_i)/du_i + sum_j beta_ij h_j = 0
    """
    grid = metric.grid
    n = metric.n
    h = metric.h
    beta = metric.beta
    dh = [axis_gradient(h, grid, j) for j in range(n)]

    # residual lists reduced by max_abs, so a NaN anywhere fails the check
    r_dir, r_off, r_diag = [], [], []
    for i in range(n):
        total = np.zeros(grid.shape, dtype=complex)
        for j in range(n):
            total += dh[j][..., i]
            if i != j:
                r_off.append(max_abs(dh[j][..., i] - beta[..., i, j] * h[..., j]))
        r_dir.append(max_abs(total))
        diag = dh[i][..., i] + np.einsum("...j,...j->...", beta[..., i, :], h)
        r_diag.append(max_abs(diag))

    norm2 = np.sum(np.abs(h) ** 2, axis=-1)
    spread = float(norm2.max() - norm2.min())

    report = VerificationReport()
    report.add("partial_invariance_directional", max_abs(r_dir), fd_tol)
    report.add("partial_invariance_offdiagonal", max_abs(r_off), fd_tol)
    report.add("partial_invariance_diagonal", max_abs(r_diag), fd_tol)
    report.add("norm_h_constancy", spread, norm_tol)
    return report


def limit_net(frame, sample: ImmersionSample, tol: float = DEFAULT_TOLERANCES["lambda_zero"],
              cross_check_tol: float = DEFAULT_TOLERANCES["lambda_zero_derivative"]):
    """Real net samples X(u, 0) from ``sample``, the frame's lambda = 0
    member of the family on a grid (ValueError at any other lambda), with a
    report.

    The report's ``limit_net_imag`` entry is the largest |Im X(u, 0)|; above
    ``tol`` (a sigma-incompatible history) it fails, and its ``reason``
    names the first point where it does.  For partial-invariant frames the
    direct values are cross-checked against -i dE/dlambda(u, 0) h(u).
    """
    if sample.lam != 0:
        raise ValueError(f"limit net needs the lambda = 0 sample, got lambda = {sample.lam}")
    pts, X0 = sample.grid.points(), sample.X
    imag = np.max(np.abs(X0.imag), axis=-1)
    imag_max = max_abs(imag)
    details = {}
    if imag_max > tol:
        first = np.unravel_index(np.argmax(imag > tol), imag.shape)
        details["reason"] = (f"X(u, 0) has imaginary part {imag[first]:.2e} > {tol:.1e} "
                             f"at u={pts[first]}")
    report = VerificationReport()
    report.add("limit_net_imag", imag_max, tol, **details)
    if frame.is_partial_invariant:
        dE = frame_dlambda_at_zero(frame.E, pts)
        alt = -1j * matvec(dE, frame.h(pts))
        report.add("limit_net_derivative_agreement", max_abs(alt - X0), cross_check_tol)
    return X0.real, report


def hopf_project(sample: ImmersionSample, c: np.ndarray, chart: int) -> np.ndarray:
    """Affine-chart coordinates of the recentred immersion in CP^{n-1}.

    The sample is recentred to Y = X - i c / lam (for a spherical family this
    is -i/lam E h); the returned array holds Y_j / Y_chart for j != chart.
    Raises ChartSingularError where |Y_chart| <= 1e-8.
    """
    Y = sample.X - sphere_center(c, _real_nonzero(sample.lam, "Hopf projection"))
    pivot = Y[..., chart]
    small = np.abs(pivot) <= 1e-8
    if np.any(small):
        raise ChartSingularError(
            f"chart component {chart} vanishes on {int(small.sum())} grid points")
    others = [j for j in range(sample.X.shape[-1]) if j != chart]
    return Y[..., others] / pivot[..., None]

"""Grids, sampled metrics/immersions, and the geometric verification checks.

All finite differences are 2nd-order central in the interior with 2nd-order
one-sided stencils at the boundary (``numpy.gradient`` with ``edge_order=2``),
so every residual check converges at order 2 and refinement-ratio tests have a
uniform bookkeeping.  Checks never hard-code tolerances: each takes them as
arguments whose defaults are the documented ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartSingularError, NonRealError
from .linalg import adjoint, max_abs
from .report import VerificationReport


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


@dataclass(eq=False)
class EgoroffMetric:
    """Grid samples of a diagonal potential metric: coefficient vector h,
    potential phi (zero at the origin), rotation coefficients beta.  phi is
    the closed form when the chain has one (``phi_is_closed``), else it is
    path-integrated.  Arrays are complex; ``is_real`` records whether the
    imaginary parts of h and beta are negligible (sigma-compatible dressing
    chains)."""

    grid: Grid
    h: np.ndarray          # (*shape, n)
    phi: np.ndarray        # (*shape,)
    beta: np.ndarray       # (*shape, n, n)
    c: np.ndarray          # h at u = 0
    is_real: bool
    h_positive: bool
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
    block E it came from when it was sampled from a frame."""

    lam: complex
    grid: Grid
    X: np.ndarray  # (*shape, n) complex
    E: np.ndarray | None = None  # (*shape, n, n) complex


def sample_immersion(frame, grid: Grid, lam: complex) -> ImmersionSample:
    E, X = frame.evaluate(grid.points(), lam)
    return ImmersionSample(complex(lam), grid, X, E)


def sphere_center(c: np.ndarray, lam: float) -> np.ndarray:
    """Center of the hypersphere containing the associated family member:
    the constant-norm vector is X - i c / lam (equal to -i/lam E h)."""
    return 1j * np.asarray(c) / lam


def check_darboux_egoroff(metric: EgoroffMetric, tol: float = 1e-4,
                          symmetric: bool = True) -> VerificationReport:
    """Finite-difference residuals of the flatness equations for beta.

    Family "triple": d(beta_ij)/du_k = beta_ik beta_kj for distinct i, j, k.
    Family "pair":   d(beta_ij)/du_i + d(beta_ij)/du_j + sum_k beta_ik beta_jk = 0.

    ``symmetric=False`` replaces the product in the pair family by
    beta_ik beta_kj, the form valid when the coefficient matrix is not
    symmetric (tau-only complex dressings); both coincide for symmetric beta.
    """
    beta = metric.beta
    n = metric.n
    grid = metric.grid
    db = [axis_gradient(beta, grid, k) for k in range(n)]

    r_triple = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                res = db[k][..., i, j] - beta[..., i, k] * beta[..., k, j]
                r_triple = max(r_triple, max_abs(res))

    r_pair = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bb = np.zeros(grid.shape, dtype=complex)
            for k in range(n):
                if symmetric:
                    bb += beta[..., i, k] * beta[..., j, k]
                else:
                    bb += beta[..., i, k] * beta[..., k, j]
            res = db[i][..., i, j] + db[j][..., i, j] + bb
            r_pair = max(r_pair, max_abs(res))

    report = VerificationReport()
    report.add("darboux_egoroff_triple", r_triple, tol,
               spacing=[grid.spacing(k) for k in range(n)])
    report.add("darboux_egoroff_pair", r_pair, tol, symmetric_product=symmetric)
    return report


def check_lagrangian(sample: ImmersionSample, h: np.ndarray, tol: float = 1e-10,
                     metric_tol: float = 1e-10) -> VerificationReport:
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
    if abs(lam.imag) > 1e-14:
        report.add("lagrangian_skipped_nonreal_lambda", 0.0, None, lam=str(lam))
        return report
    T = sample.E * h[..., None, :]  # column i = tangent along u_i
    G = adjoint(T) @ T
    r_sympl = max_abs(G.imag)
    r_metric = max_abs(np.diagonal(G, axis1=-2, axis2=-1).real - np.abs(h) ** 2)
    report.add("lagrangian_symplectic", r_sympl, tol)
    report.add("lagrangian_metric", r_metric, metric_tol)
    return report


def check_sphere(sample: ImmersionSample, c: np.ndarray, tol: float = 1e-9) -> VerificationReport:
    """Deviation of |X - i c / lam| from |c| / |lam| over the grid."""
    lam = sample.lam
    if abs(lam.imag) > 1e-14 or lam == 0:
        raise ValueError("sphere check needs real nonzero lambda")
    lam = lam.real
    center = sphere_center(c, lam)
    radius = float(np.linalg.norm(c)) / abs(lam)
    dist = np.linalg.norm(sample.X - center, axis=-1)
    residual = max_abs(dist - radius)
    report = VerificationReport()
    report.add("sphere_containment", residual, tol, radius=radius, lam=lam)
    return report


def check_partial_invariance(metric: EgoroffMetric, fd_tol: float = 5e-3,
                             norm_tol: float = 1e-10) -> VerificationReport:
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

    r_dir = 0.0
    r_off = 0.0
    r_diag = 0.0
    for i in range(n):
        total = np.zeros(grid.shape, dtype=complex)
        for j in range(n):
            total += dh[j][..., i]
            if i != j:
                r_off = max(r_off, max_abs(dh[j][..., i] - beta[..., i, j] * h[..., j]))
        r_dir = max(r_dir, max_abs(total))
        diag = dh[i][..., i] + np.einsum("...j,...j->...", beta[..., i, :], h)
        r_diag = max(r_diag, max_abs(diag))

    norm2 = np.sum(np.abs(h) ** 2, axis=-1)
    spread = float(norm2.max() - norm2.min())

    report = VerificationReport()
    report.add("partial_invariance_directional", r_dir, fd_tol)
    report.add("partial_invariance_offdiagonal", r_off, fd_tol)
    report.add("partial_invariance_diagonal", r_diag, fd_tol)
    report.add("norm_h_constancy", spread, norm_tol)
    return report


def limit_net(frame, grid: Grid, tol: float = 1e-10,
              cross_check_tol: float = 1e-7):
    """Real net samples X(u, 0) on the grid.

    Raises NonRealError when the imaginary part exceeds ``tol`` (a
    sigma-incompatible history).  For partial-invariant frames the direct
    values are cross-checked against -i dE/dlambda(u, 0) h(u); the residual
    goes into the returned report.
    """
    from .frames import frame_dlambda_at_zero  # local import to avoid a cycle

    pts = grid.points()
    X0 = frame.evaluate(pts, 0.0)[1]
    imag = np.max(np.abs(X0.imag), axis=-1)
    imag_max = max_abs(imag)
    if imag_max > tol:
        first = np.unravel_index(np.argmax(imag > tol), imag.shape)
        raise NonRealError(
            f"X(u, 0) has imaginary part {imag[first]:.2e} > {tol:.1e} at u={pts[first]}")
    net = X0.real
    cross_max = 0.0
    spherical = getattr(frame, "is_partial_invariant", False)
    if spherical:
        dE = frame_dlambda_at_zero(frame.E, pts)
        alt = -1j * (dE @ frame.h(pts)[..., None])[..., 0]
        cross_max = max_abs(alt - X0)
    report = VerificationReport()
    report.add("limit_net_imag", imag_max, tol)
    if spherical:
        report.add("limit_net_derivative_agreement", cross_max, cross_check_tol)
    return net, report


def hopf_project(sample: ImmersionSample, c: np.ndarray, chart: int,
                 chart_floor: float = 1e-8) -> np.ndarray:
    """Affine-chart coordinates of the recentred immersion in CP^{n-1}.

    The sample is recentred to Y = X - i c / lam (for a spherical family this
    is -i/lam E h); the returned array holds Y_j / Y_chart for j != chart.
    Raises ChartSingularError where |Y_chart| <= chart_floor.
    """
    lam = sample.lam
    if abs(lam.imag) > 1e-14 or lam == 0:
        raise ValueError("Hopf projection needs real nonzero lambda")
    Y = sample.X - sphere_center(c, lam.real)
    pivot = Y[..., chart]
    small = np.abs(pivot) <= chart_floor
    if np.any(small):
        raise ChartSingularError(
            f"chart component {chart} vanishes on {int(small.sum())} grid points")
    others = [j for j in range(sample.X.shape[-1]) if j != chart]
    return Y[..., others] / pivot[..., None]

"""Independent numerical oracles: classical RK4 integration of the flat
connection and of the first-order dressing system, for comparison against the
closed-form algebra.

Fixed-step RK4 only --- no adaptivity --- so convergence-order arithmetic
stays clean, and integrating at step h and 2h estimates the error
(``doubling_estimate``; the CLI's PDE check gates by it).  The frame
equation F' = F theta is linear, so a chunk's steps are stacked matrices
I + M composed pairwise; the dressing system is reprojected after every
step, so it steps [pi | y] alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DressingForgeError, ProjectionDriftError
from .linalg import lax_block, max_abs

# Most RK4 steps whose stage points one point-set call evaluates, so memory
# stays bounded however small the step is.
RK4_CHUNK_STEPS = 256
# Most RK4 steps one path segment may take: a step so small that it needs
# more is refused rather than integrated for days.
MAX_SEGMENT_STEPS = 10 ** 6


@dataclass(frozen=True, eq=False)
class PathSpec:
    """Axis-aligned path from the origin: an ordered list of
    (axis, target coordinate) segments.  Each segment moves exactly one
    coordinate to its target, holding the others."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((int(a), float(t)) for a, t in self.segments)
        object.__setattr__(self, "segments", segs)

    @classmethod
    def staircase(cls, u_target, order=None) -> "PathSpec":
        """The axis-ordered staircase from 0 to u_target."""
        u_target = np.asarray(u_target, dtype=float)
        order = range(u_target.size) if order is None else order
        return cls(tuple((a, u_target[a]) for a in order))

    def waypoints(self, n: int):
        """The list of (u_start, axis, t_start, t_end), one per segment."""
        u = np.zeros(n)
        out = []
        for axis, target in self.segments:
            if not 0 <= axis < n:
                raise ValueError(f"path axis {axis} out of range for dimension {n}")
            out.append((u.copy(), axis, float(u[axis]), float(target)))
            u = u.copy()
            u[axis] = target
        return out

    def endpoint(self, n: int) -> np.ndarray:
        u = np.zeros(n)
        for axis, target in self.segments:
            u[axis] = target
        return u


def estimate_order(residual_coarse: float, residual_fine: float) -> float:
    """log2 of the residual drop under step halving (inf when the fine
    residual underflows to zero)."""
    if residual_fine == 0.0:
        return math.inf
    return math.log2(residual_coarse / residual_fine)


def _segment_steps(t0: float, t1: float, step: float) -> int:
    """The segment's RK4 step count at ``step``, rounded up with a relative
    slack, so at 2 ``step`` it is exactly half, rounded up."""
    steps = abs(t1 - t0) / step
    if not steps <= MAX_SEGMENT_STEPS:  # also refuses an overflow to inf
        raise DressingForgeError(
            f"RK4 step {step!r} needs more than {MAX_SEGMENT_STEPS} steps on one path segment")
    return max(1, math.ceil(steps * (1 - 1e-12)))


def doubling_estimate(n: int, path: PathSpec, step: float, fine, coarse) -> float:
    """Richardson's error estimate for ``fine``, the path's end at ``step``,
    from ``coarse``, its end at 2 ``step``: |coarse - fine| / (r^4 - 1) for
    RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.4), r the least ratio
    of a segment's step counts (2 at even counts) but for segments of one
    step at both, which doubling cannot see."""
    r = min((m / _segment_steps(t0, t1, 2 * step) for _, _, t0, t1 in path.waypoints(n)
             if t0 != t1 and (m := _segment_steps(t0, t1, step)) > 1), default=2.0)
    return max_abs(coarse - fine) / (r ** 4 - 1)


def _stage_chunks(u_start, axis: int, t0: float, t1: float, step: float):
    """Yield (U, dt, m) for consecutive chunks of at most RK4_CHUNK_STEPS of
    the segment's RK4 steps: U is the (2m + 1, n) point set of the chunk's
    stage points, spaced dt / 2 along the axis from the chunk's first step."""
    total = _segment_steps(t0, t1, step)
    dt = (t1 - t0) / total
    for first in range(0, total, RK4_CHUNK_STEPS):
        m = min(RK4_CHUNK_STEPS, total - first)
        U = np.repeat(u_start[None, :], 2 * m + 1, axis=0)
        U[:, axis] = t0 + (2 * first + np.arange(2 * m + 1)) * (0.5 * dt)
        yield U, dt, m


def _rk4(state: np.ndarray, rhs, dt: float, m: int, post_step) -> np.ndarray:
    """m classical RK4 steps of size dt on one array state, each followed by
    post_step; rhs(k, state) is the right-hand side at stage point k = 0..2m
    of a chunk (step i starts at k = 2i)."""
    for i in range(m):
        k1 = rhs(2 * i, state)
        k2 = rhs(2 * i + 1, state + 0.5 * dt * k1)
        k3 = rhs(2 * i + 1, state + 0.5 * dt * k2)
        k4 = rhs(2 * i + 2, state + dt * k3)
        state = post_step(state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    return state


def _chunk_groups(n: int, paths, steps):
    """Lists of (path index, axis, U, dt) chunks (``_stage_chunks``) of
    the paths' segments in order, each path at its own step, consecutive
    chunks together while their steps total at most RK4_CHUNK_STEPS."""
    group, total = [], 0
    for p, (path, step) in enumerate(zip(paths, steps, strict=True)):
        for u_start, axis, t0, t1 in path.waypoints(n):
            if t0 == t1:
                continue
            for U, dt, m in _stage_chunks(u_start, axis, t0, t1, step):
                if total + m > RK4_CHUNK_STEPS:
                    yield group
                    group, total = [], 0
                group.append((p, axis, U, dt))
                total += m
    if group:
        yield group


def _step_product(theta: np.ndarray, dt: float) -> np.ndarray:
    """The product of a chunk's RK4 step matrices I + M of F' = F theta,
    theta at its 2m + 1 stage points: M = dt/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = theta_a, K2 = theta_b + (dt/2) K1 theta_b, K3 = theta_b
    + (dt/2) K2 theta_b and K4 = theta_c + dt K3 theta_c, composed pairwise."""
    a, b, c = theta[:-1:2], theta[1::2], theta[2::2]
    K2 = b + (0.5 * dt) * (a @ b)
    K3 = b + (0.5 * dt) * (K2 @ b)
    K4 = c + dt * (K3 @ c)
    A = np.eye(theta.shape[-1]) + dt / 6.0 * (a + 2 * K2 + 2 * K3 + K4)
    while len(A) > 1:
        A = np.concatenate([A[:-1:2] @ A[1::2], A[len(A) - len(A) % 2:]])
    return A[0]


def integrate_frames(n: int, beta_fn, h_fn, lam: complex, paths, steps) -> list:
    """Path-ordered RK4 solutions of F^{-1} dF = theta_lambda, F(0) = I,
    along each staircase of ``paths`` at its own RK4 step of ``steps``;
    returns one (E, X) pair of blocks at each path's end.  beta_fn and h_fn
    are point-set evaluators, (S, n) -> (S, n, n) and (S, n) (closed-form
    when the metric came from dressing; spline interpolants for external
    grids).  Consecutive chunks of the segments' steps (``_chunk_groups``),
    across segments and paths, share one beta_fn and one h_fn call."""
    lam = complex(lam)
    F = [np.eye(n + 1, dtype=complex) for _ in paths]
    for group in _chunk_groups(n, paths, steps):
        U = np.concatenate([chunk[2] for chunk in group])
        cuts = np.cumsum([len(chunk[2]) for chunk in group])[:-1]
        betas, hs = np.split(beta_fn(U), cuts), np.split(h_fn(U), cuts)
        for (p, axis, _, dt), beta, h in zip(group, betas, hs):
            F[p] = F[p] @ _step_product(lax_block(beta, axis, lam, h), dt)
    return [(f[:n, :n], f[:n, n]) for f in F]


def integrate_frame(n: int, beta_fn, h_fn, lam: complex, path: PathSpec,
                    step: float):
    """``integrate_frames`` on the one path: the (E, X) blocks at its end."""
    return integrate_frames(n, beta_fn, h_fn, lam, [path], [step])[0]


def _reproject(pi: np.ndarray):
    """Snap a near-projection back onto the manifold: eigen-threshold the
    Hermitian part at 1/2.  Rank-preserving for small drift; the correction
    size is the health metric."""
    sym = 0.5 * (pi + pi.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    keep = vals > 0.5
    Q = vecs[:, keep]
    fixed = Q @ Q.conj().T
    return fixed, max_abs(fixed - pi)


@dataclass(eq=False)
class BfIntegration:
    pi_tilde: np.ndarray
    y: np.ndarray
    max_correction: float


def integrate_bf(n: int, beta_fn, h_fn, alpha: float, pi0: np.ndarray,
                 b, path: PathSpec, step: float,
                 drift_tol: float = 1e-6) -> BfIntegration:
    """RK4 integration of the first-order dressing system

        d pi = [pi, [delta, beta]] + alpha (I - 2 pi) [delta, pi],  pi(0) = pi0
        d y  = -[delta, beta - 2 alpha pi] y + pi delta h - alpha delta y,  y(0) = b

    along the path, re-projecting pi after every step and logging the
    correction; raises ProjectionDriftError when a single correction exceeds
    drift_tol.

    The pi equation is the arrangement consistent with the algebraic
    transported projection (differentiate U (U*U)^{-1} U* with
    dU = (alpha delta - [delta, beta]) U); integrating the mirrored
    arrangement converges to a different field entirely."""
    alpha = float(alpha)
    state = np.column_stack([np.asarray(pi0, dtype=complex), np.asarray(b, dtype=complex)])
    max_corr = 0.0

    for u_start, axis, t0, t1 in path.waypoints(n):
        if t0 == t1:
            continue
        corrections = []

        def post(state):
            state[:, :n], corr = _reproject(state[:, :n])
            corrections.append(corr)
            return state

        for U, dt, m in _stage_chunks(u_start, axis, t0, t1, step):
            # [delta, beta] and h along the segment axis at every stage point
            Ba = lax_block(beta_fn(U), axis)
            ha = h_fn(U)[:, axis]

            def rhs(k, state):
                pi_now, y_now = state[:, :n], state[:, n]
                comm_a = lax_block(pi_now, axis)
                d = np.empty_like(state)
                d[:, :n] = (pi_now @ Ba[k] - Ba[k] @ pi_now
                            + alpha * (np.eye(n) - 2 * pi_now) @ comm_a)
                # [delta, beta - 2 alpha pi] along the segment axis
                Ca = Ba[k] - 2 * alpha * comm_a
                d[:, n] = -Ca @ y_now + ha[k] * pi_now[:, axis]
                d[axis, n] -= alpha * y_now[axis]
                return d

            state = _rk4(state, rhs, dt, m, post_step=post)
        seg_max = max(corrections)
        if seg_max > drift_tol:
            raise ProjectionDriftError(
                f"projection correction {seg_max:.3e} exceeds {drift_tol:.1e}")
        max_corr = max(max_corr, seg_max)

    return BfIntegration(pi_tilde=state[:, :n], y=state[:, n], max_correction=max_corr)


def metric_interpolators(metric):
    """Cubic-spline point-set evaluators (beta_fn, h_fn) for an externally
    supplied gridded metric: points (..., n) give (..., n, n) and (..., n),
    with one interpolator call per component over all the points.  Metrics
    that came from dressing should use the frame's closed-form evaluators
    instead; interpolation caps the achievable integration accuracy at the
    interpolation error."""
    from scipy.interpolate import RegularGridInterpolator

    axes = metric.grid.axes
    n = metric.grid.n
    h_parts = [RegularGridInterpolator(axes, metric.h[..., j], method="cubic")
               for j in range(n)]
    beta_parts = {(i, j): RegularGridInterpolator(axes, metric.beta[..., i, j],
                                                  method="cubic")
                  for i in range(n) for j in range(n) if i != j}

    def h_fn(u):
        u = np.asarray(u, dtype=float)
        return np.stack([part(u) for part in h_parts], axis=-1).reshape(u.shape)

    def beta_fn(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (n, n), dtype=complex)
        for (i, j), part in beta_parts.items():
            out[..., i, j] = part(u).reshape(u.shape[:-1])
        return out

    return beta_fn, h_fn

"""Dressing transformations of extended frames and Egoroff metrics.

The extended frame is one element F = [[E, X], [0, 1]] of U(n) x C^n, and
evaluation carries its top block F = [E | X] (n x (n+1)) through the
history.  Each loop factor acts on it as g F g_tilde^{-1}.  For the one-pole
factor with pole z and projection pi, take from the frame built so far, at
the factor's pole pair, the transported projection pi_tilde(u) (image of
E(u, z)^{-1} applied to im pi, computed through the spanning basis) and the
vector eta(u) = E(u, conj(z))^{-1} X(u, conj(z)).  With c = conj(z) - z,
dq_w f = (f(lambda) - f(w)) / (lambda - w) and

    R_tilde = [[pi_tilde^perp, -pi_tilde eta], [0, 1]],

the record updates

    F    ->  F + c pi dq_{conj z}(F) R_tilde - c pi^perp dq_z(E) [pi_tilde | pi_tilde eta]
    h    ->  h + i (z - conj(z)) pi_tilde eta
    beta -> beta + i (z - conj(z)) star(pi_tilde)
    phi  -> phi - 2 Im(z) Re(eta^* pi_tilde eta)

The F update is E -> g_{z,pi} E g_{z,pi_tilde}^{-1} and
X -> g_{conj(z),pi^perp} (X - c/(lambda-z) E pi_tilde eta) in
residue-subtracted form: the rational factors are expanded and their
(vanishing) residues at lambda = z and lambda = conj(z) removed
symbolically, leaving difference quotients of functions holomorphic at the
poles.  This keeps evaluation pole-free; where lambda lies within 1e-6 of a
pole the quotient is read off the prefix frame sampled on a small circle
around it, all 16 circle nodes in one evaluation (in groups of nodes for a
point set of more than STACK_PAIRS // 16 points).  The translation factor
with pole p = i alpha and real b updates F -> F + dq_p(F) Y with
Y = -i [[0, y], [0, 0]] and y = E(p)^{-1} b, that is
X -> X - i (E y - b) / (lambda - p) since E(p) y = b.

The phi update is the potential's closed form on chains whose h stays real:
real one-pole records and two-pole records (see :class:`TwoPoleRecord`); a
translation has none.

The history holds one immutable record per loop factor: one-pole, two-pole
or translation.  The frame evaluates it as a flat sequence of steps, each
record's ``steps``: a two-pole record is its two one-pole parts and holds no
evaluation code.  A step's pole data (pi_tilde, eta and the prefix frame at
the poles) are arrays stacked over a whole point set, which the frame's
pole-data sweep (``ExtendedFrame.pole_data``) computes and memoises per
point set: ``take_pole_data`` reads them off the step's own rows of the
stacked prefix block, and a record's ``point_data`` is the one-point view (a
pair for a two-pole record).  ``apply`` gets the prefix (frame, U, depth),
the first ``depth`` steps at the point set U, which it evaluates only on a
Taylor circle, so an update away from the poles evaluates no prefix; it
updates the block it is given in place and returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleCollisionError, SphericalViolationError
from .frames import ExtendedFrame, frame_dlambda_at_zero, row_groups
from .geometry import Grid
from .linalg import (HermitianProjection, adjoint, max_abs, project_onto_span,
                     solve_linear, star_reduce)
from .loops import (RealOnePoleFactor, TranslationFactor, TwoPointFactor,
                    TwoPoleFactor, one_pole_factor, permute_factors, pole_tol,
                    two_pole_factor)
from .report import VerificationReport

# Difference quotients switch to circle-sampled Taylor data below this
# distance from the pole (handles exact pole hits).
TAYLOR_BELOW = 1e-6
CIRCLE_NODES = 16
_THETA = 2.0 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
# the circle nodes on a leading axis of their own, broadcasting against (P,)
_NODES = np.exp(1j * _THETA)[:, None]


def _mv(A, x):
    """Matrix-vector products over a point set: A (..., n, n), x (..., n)."""
    return (A @ x[..., None])[..., 0]


def _circle_values(prefix, pole: complex, radius: float):
    """The block of the prefix (frame, U, depth) on the sampling circle
    |w - pole| = radius, stacked on a leading node axis; the samples serve
    every quotient taken around this pole.  The nodes go through the prefix
    as lambda of shape (nodes, 1), in as few evaluations as ``row_groups``
    allows."""
    frame, U, depth = prefix
    ws = pole + radius * _NODES
    return np.concatenate([frame._block(U, ws[g], depth)
                           for g in row_groups(CIRCLE_NODES, len(U))])


def _taylor_dq(vals, radius: float, d):
    """(f(pole + d) - f(pole)) / d for holomorphic f via the first two Taylor
    coefficients, read off the circle samples ``vals`` of f."""
    w1 = np.exp(-1j * _THETA) / (CIRCLE_NODES * radius)
    w2 = np.exp(-2j * _THETA) / (CIRCLE_NODES * radius ** 2)
    a1 = np.tensordot(w1, vals, axes=(0, 0))
    a2 = np.tensordot(w2, vals, axes=(0, 0))
    return a1 + d * a2


def _near(d) -> bool:
    """Whether the offset d = lambda - pole, one complex or an array with
    one per point, puts some point below TAYLOR_BELOW: then the pole's
    sampling circle is needed."""
    if isinstance(d, complex):
        return abs(d) < TAYLOR_BELOW
    return bool((np.abs(d) < TAYLOR_BELOW).any())


def _quotient(f, f_pole, d, radius: float, samples):
    """(f - f_pole) / d for f holomorphic at the pole, d = lambda - pole one
    complex or an array with one per point of f: the direct quotient where
    |d| >= TAYLOR_BELOW, elsewhere the Taylor quotient from ``samples``, f on
    the pole's sampling circle of ``radius`` (None when no point is near)."""
    if isinstance(d, complex):
        return (f - f_pole) / d if samples is None else _taylor_dq(samples, radius, d)
    d = d.reshape(d.shape + (1,) * (f.ndim - d.ndim))
    if samples is None:
        return (f - f_pole) / d
    near = np.abs(d) < TAYLOR_BELOW
    return np.where(near, _taylor_dq(samples, radius, d),
                    (f - f_pole) / np.where(near, 1.0, d))


def _circle_radius(pole: complex, existing_points) -> float:
    """Sampling-circle radius around a pole: small, but clear of every other
    sensitive point of the prefix frame."""
    r = 0.05 * max(1.0, abs(pole))
    for q in existing_points:
        d = abs(complex(pole) - complex(q))
        if d > pole_tol(pole):
            r = min(r, 0.45 * d)
    return r


def _point_data(record, frame: ExtendedFrame, index: int, u):
    """Pole data of ``record`` (the frame's record ``index``) at the single
    point u, one per step (a pair for a two-pole record): the one-point
    view of the stacked data the frame memoises."""
    U = np.asarray(u, dtype=float).reshape(1, frame.n)
    k, m = frame.step_count(index), len(record.steps)
    data = [d.first_point() for d in frame.pole_data(U, k + m)[k:k + m]]
    return tuple(data) if len(data) > 1 else data[0]


@dataclass(frozen=True, eq=False)
class _OnePoleData:
    """Per-point pole data of a one-pole record, stacked over a point set.

    ``F_poles`` holds the prefix block [E | X] at conj(z) and [E | eta] at
    z: the update reads only E at z (the quotient of that X column is
    discarded), so the column holds eta.  ``blocks`` holds the two
    n x (n+1) blocks the update multiplies by, the top block
    [pi_tilde^perp | -pi_tilde eta] of R_tilde and [pi_tilde | pi_tilde eta].
    Each pair sits on a leading axis (shape (2, P, n, n+1)), so one stacked
    product runs over all points of each pole; ``eta``, pi_tilde's matrix,
    ``complement`` and ``pe`` are views into them, so nothing is held twice.
    """

    pi_tilde: HermitianProjection
    complement: np.ndarray  # I - pi_tilde
    eta: np.ndarray
    pe: np.ndarray          # pi_tilde @ eta
    F_poles: np.ndarray
    blocks: np.ndarray

    def first_point(self) -> "_OnePoleData":
        return _OnePoleData(self.pi_tilde[0], self.complement[0], self.eta[0], self.pe[0],
                            self.F_poles[:, 0], self.blocks[:, 0])


def _on_pair_axis(x, ndim: int):
    """``x``, stacked over a pole pair on axis 0, with unit axes after that
    one so that it broadcasts against ``ndim``-dimensional stacks
    (2, ..., P, n, n+1)."""
    return x if x.ndim == ndim else x.reshape(x.shape[:1] + (1,) * (ndim - x.ndim) + x.shape[1:])


@dataclass(frozen=True, eq=False)
class OnePoleRecord:
    """One application of the pole-z simple element to the extended frame:
    with c = conj(z) - z,

        F -> F + c pi dq_{conj z}(F) R_tilde - c pi^perp dq_z(E) [pi_tilde | pi_tilde eta],
        R_tilde = [[pi_tilde^perp, -pi_tilde eta], [0, 1]].

    Both quotients and both products run as one stack over the pole pair.
    The E block is c (pi dq pi_tilde^perp) - c (pi^perp dq pi_tilde), each
    product grouped from the left as in the separate E update.

    ``sphere_preserving`` is set by :func:`dress_spherical`: the record
    provably preserves |h| = const.  The record is one step of a frame.
    """

    z: complex
    projection: HermitianProjection
    radius_z: float
    radius_zbar: float
    sphere_preserving: bool = False

    def __post_init__(self):
        z = complex(self.z)
        # the lambdas at which the step reads the prefix block, in the
        # order of its rows in a pole-data sweep
        object.__setattr__(self, "pole_rows", (z.conjugate(), z))
        # [pi, pi^perp], the left factors of the two products
        object.__setattr__(self, "_left", np.stack(
            (self.projection.matrix, self.projection.complement)).astype(complex)[:, None])

    @property
    def zbar(self) -> complex:
        return complex(self.z).conjugate()

    @property
    def steps(self) -> tuple:
        return (self,)

    @property
    def factor_poles(self) -> tuple:
        return (complex(self.z),)

    @property
    def sensitive_points(self) -> tuple:
        return (complex(self.z), self.zbar)

    @property
    def is_sigma_compatible(self) -> bool:
        return abs(self.z.real) < 1e-12 and self.projection.is_real

    @property
    def potential_gap(self) -> str | None:
        """Why the record has no closed potential update; None when it has."""
        if self.is_sigma_compatible:
            return None
        return ("sigma-incompatible pole, the eta^* pi_tilde eta update needs "
                "the sigma-real product")

    @property
    def has_closed_potential(self) -> bool:
        return self.potential_gap is None

    def take_pole_data(self, F_poles) -> _OnePoleData:
        """Pole data off this step's rows F_poles (2, P, n, n+1) of a
        pole-data sweep, the prefix block at conj(z) and z.  The data keep
        views into the rows, which nothing touches afterwards."""
        n = F_poles.shape[-2]
        E_zbar = F_poles[0, ..., :n]
        # tau-reality gives E(u, z)^{-1} = E(u, zbar)*, so the transported
        # image of pi is spanned by E(u, zbar)* span(pi)
        pi_tilde = project_onto_span(adjoint(E_zbar) @ self.projection.span)
        # eta at the conjugate point keeps the dressed X holomorphic at zbar
        eta = F_poles[1, ..., n]
        eta[...] = solve_linear(E_zbar, F_poles[0, ..., n])
        blocks = np.empty_like(F_poles)
        blocks[0, ..., :n] = pi_tilde.complement
        pi_tilde = pi_tilde.stored_in(blocks[1, ..., :n])
        blocks[1, ..., n] = _mv(pi_tilde.matrix, eta)
        blocks[0, ..., n] = -blocks[1, ..., n]
        return _OnePoleData(pi_tilde, blocks[0, ..., :n], eta, blocks[1, ..., n],
                            F_poles, blocks)

    point_data = _point_data

    def _quotients(self, F, lam, data: _OnePoleData, prefix):
        """dq_{conj z}(F) and dq_z(F), stacked on a leading axis; the prefix
        is sampled only on the circle of a pole some point is near."""
        zb, z = self.pole_rows
        d_zb, d_z = lam - zb, lam - z
        if not (_near(d_zb) or _near(d_z)):
            D = F - _on_pair_axis(data.F_poles, F.ndim + 1)
            D /= _on_pair_axis(np.array((d_zb, d_z))[..., None, None], F.ndim + 1)
            return D
        return np.stack([
            _quotient(F, data.F_poles[i], d, r,
                      _circle_values(prefix, pole, r) if _near(d) else None)
            for i, (pole, d, r) in enumerate(((zb, d_zb, self.radius_zbar),
                                              (z, d_z, self.radius_z)))])

    def apply(self, F, lam, data: _OnePoleData, prefix):
        """Update the block F (..., P, n, n+1) in place and return it."""
        n = F.shape[-2]
        D = self._quotients(F, lam, data, prefix)
        # [pi dq_{conj z}(F), pi^perp dq_z(F)]
        S = _on_pair_axis(self._left, D.ndim) @ D
        # times [R_tilde's top block, [pi_tilde | pi_tilde eta]]; the bottom
        # row [0, 1] of R_tilde passes the X column of the first through
        out = np.matmul(S[..., :n], _on_pair_axis(data.blocks, D.ndim), out=D)
        out[0, ..., n] += S[0, ..., n]
        del S
        zb, z = self.pole_rows
        out *= zb - z
        F += out[0]
        F -= out[1]
        return F

    def apply_h(self, h, data: _OnePoleData):
        return h + 1j * (self.z - self.zbar) * data.pe

    def apply_beta(self, beta, data: _OnePoleData):
        return beta + 1j * (self.z - self.zbar) * star_reduce(data.pi_tilde.matrix)

    def apply_phi(self, phi, data: _OnePoleData):
        alpha = self.z.imag
        return phi - 2.0 * alpha * np.real(np.sum(data.eta.conj() * data.pe, axis=-1))


@dataclass(frozen=True, eq=False)
class _TranslationData:
    y: np.ndarray

    def first_point(self) -> "_TranslationData":
        return _TranslationData(self.y[0])


@dataclass(frozen=True, eq=False)
class TranslationRecord:
    """Dressing by the translation-block factor with pole p = i alpha and real
    b: F -> F + dq_p(F) Y with Y = -i [[0, y], [0, 0]] and
    y(u) = E(u, p)^{-1} b.  Since E(p) y = b that shifts X by
    -i (E(u, lambda) y - b) / (lambda - p), and h by y; E and beta are
    untouched."""

    alpha: float
    b: np.ndarray
    radius: float

    sphere_preserving = False
    is_sigma_compatible = True
    has_closed_potential = False
    potential_gap = "no closed-form potential update for the translation factor"

    @property
    def pole(self) -> complex:
        return 1j * self.alpha

    @property
    def factor_poles(self) -> tuple:
        return (self.pole,)

    @property
    def sensitive_points(self) -> tuple:
        return (self.pole,)

    @property
    def pole_rows(self) -> tuple:
        return (self.pole,)

    @property
    def steps(self) -> tuple:
        return (self,)

    def take_pole_data(self, F_poles) -> _TranslationData:
        """y off this step's row F_poles (1, P, n, n+1) of a pole-data
        sweep, the prefix block at the pole."""
        n = F_poles.shape[-2]
        b = np.broadcast_to(self.b.astype(complex), F_poles.shape[1:-1])
        return _TranslationData(solve_linear(F_poles[0, ..., :n], b))

    point_data = _point_data

    def apply(self, F, lam, data: _TranslationData, prefix):
        """Update the block F (..., P, n, n+1) in place and return it."""
        # dq_p(F) Y = -i [0 | (E y - b) / d]; E y - b vanishes at the pole
        b = self.b.astype(complex)
        n = F.shape[-2]
        d = lam - self.pole
        Bs = None
        if _near(d):
            Bs = _mv(_circle_values(prefix, self.pole, self.radius)[..., :n], data.y) - b
        F[..., n] -= 1j * _quotient(_mv(F[..., :n], data.y) - b, 0.0, d, self.radius, Bs)
        return F

    def apply_h(self, h, data: _TranslationData):
        return h + data.y

    def apply_beta(self, beta, data: _TranslationData):
        return beta


@dataclass(frozen=True, eq=False)
class TwoPoleRecord:
    """Dressing by the two-pole factor f_{z,pi} = g_{-conj(z),rho} g_{z,pi}:
    its one-pole parts ``first`` (pole z, pi) and ``second`` (pole -conj(z),
    rho) are its two steps, so a frame evaluates it as dressing by one part
    and then the other.  Each part alone is only tau-real; the product is
    sigma-real, so the record is sigma-compatible.  Its point data are the
    pair (first part's, second part's).

    The potential takes each part's update phi -> phi - 2 alpha Q, with
    alpha = Im(z) and Q = eta^* pi_tilde eta (real: pi_tilde is Hermitian).
    This is the potential of the product, and of no part alone.  Write
    A_i(lam) = i lam e_ii + [e_ii, beta] for the Lax coefficient along u_i,
    so d_i eta = -A_i(zbar) eta + h_i e_i, and tau-reality gives
    A_i(lam)^* = -A_i(conj(lam)).  im pi_tilde = E(z)^{-1} im pi moves by
    d_i V = -A_i(z) V, so the Hermitian projection P = pi_tilde has
    d_i P = -(I - P) A_i(z) P + P A_i(zbar) (I - P).  Then

        d_i Q = eta^* P (A_i(z) - A_i(zbar)) P eta + 2 Re(conj(h_i) (P eta)_i)
              = -2 alpha |(P eta)_i|^2 + 2 Re(conj(h_i) (P eta)_i),

    and with h' = h - 2 alpha P eta that is |h'_i|^2 = |h_i|^2 - 2 alpha d_i Q.
    So each tau-real part updates the potential of |h|^2, whatever h is.
    The metric's potential is that of h^2 (d phi = sum_i h_i^2 du_i), the
    same only where h is real.  A lone complex part leaves h complex, so its
    update misses its potential; the sigma-real product makes h real again,
    so the two updates in turn carry the potential of the real h before the
    record to that of the real h after it.
    """

    first: OnePoleRecord
    second: OnePoleRecord

    is_sigma_compatible = True
    has_closed_potential = True
    potential_gap = None

    @property
    def factor_poles(self) -> tuple:
        return self.first.factor_poles + self.second.factor_poles

    @property
    def sensitive_points(self) -> tuple:
        return self.first.sensitive_points + self.second.sensitive_points

    @property
    def steps(self) -> tuple:
        return (self.first, self.second)

    point_data = _point_data


DressingRecord = OnePoleRecord | TranslationRecord | TwoPoleRecord


def _one_pole_record(points, z: complex, projection: HermitianProjection,
                     **flags) -> OnePoleRecord:
    """The pole-z record, its sampling circles clear of ``points``."""
    return OnePoleRecord(z=z, projection=projection,
                         radius_z=_circle_radius(z, points),
                         radius_zbar=_circle_radius(np.conj(z), points), **flags)


def dress(frame: ExtendedFrame, factor, **flags) -> ExtendedFrame:
    """Append the record of one validated loop factor (a ``loops`` factor),
    refusing a factor of the wrong dimension or with a pole on one of the
    frame's factor poles; ``flags`` go to a one-pole record."""
    if isinstance(factor, TwoPointFactor) and factor.alpha2 != np.conj(factor.alpha1):
        raise ValueError("a simple element dresses only as g_{z,pi} "
                         "(rule: its zero is the conjugate of its pole)")
    if factor.n != frame.n:
        raise ValueError(
            f"factor dimension {factor.n} does not match frame dimension {frame.n}")
    for p in factor.poles():
        for q in frame.factor_poles():
            if abs(complex(p) - complex(q)) <= pole_tol(p):
                raise PoleCollisionError(
                    f"new pole {p} collides with existing history pole {q}")
    points = frame.sensitive_points()
    if isinstance(factor, TranslationFactor):
        record = TranslationRecord(factor.alpha, factor.b,
                                   _circle_radius(factor.poles()[0], points))
    elif isinstance(factor, TwoPoleFactor):
        first = _one_pole_record(points, factor.z, factor.projection)
        record = TwoPoleRecord(first, _one_pole_record(
            points + first.sensitive_points, complex(-np.conj(factor.z)), factor.rho))
    else:
        record = _one_pole_record(points, factor.poles()[0], factor.projection, **flags)
    return frame.with_record(record)


def dress_extended(frame: ExtendedFrame, z: complex,
                   projection: HermitianProjection) -> ExtendedFrame:
    """Append one pole-z dressing record (general complex z off the real
    axis).  The dressed frame's connection keeps the Lax shape with the
    updated beta and h; that is verified numerically by the oracle module,
    not assumed."""
    return dress(frame, one_pole_factor(z, projection))


def dress_real(frame: ExtendedFrame, alpha: float,
               projection: HermitianProjection) -> ExtendedFrame:
    """Sigma-compatible one-pole dressing: pole i alpha with a real
    projection.  h, beta, eta, pi_tilde all stay real and the potential gets
    the closed update phi - 2 alpha eta^t pi_tilde eta."""
    return dress(frame, RealOnePoleFactor(float(alpha), projection))


def dress_spherical(frame: ExtendedFrame, alpha: float,
                    projection: HermitianProjection) -> ExtendedFrame:
    """Sphere-preserving real dressing.  Requires im(pi) orthogonal to h(0);
    that condition is exact (an if-and-only-if), so nearly-orthogonal data is
    refused rather than silently repaired."""
    if not frame.seed.is_spherical:
        raise ValueError("spherical dressing needs a spherical (constant-profile) seed")
    factor = RealOnePoleFactor(float(alpha), projection)
    h0 = frame.h(np.zeros(frame.n)).real
    viol = max_abs(projection.matrix @ h0)
    if viol >= 1e-10:
        band = " (within the ambiguous band below 1e-6: refusing rather than re-projecting)" \
            if viol < 1e-6 else ""
        raise SphericalViolationError(
            f"projection image not orthogonal to h(0): |pi h(0)| = {viol:.3e}{band}")
    return dress(frame, factor, sphere_preserving=True)


def dress_translation(frame: ExtendedFrame, alpha: float, b) -> ExtendedFrame:
    """Dressing by the translation-block factor: h -> h + E(u, i alpha)^{-1} b
    with beta untouched (bit-for-bit: the record forwards it unchanged)."""
    factor = TranslationFactor(float(alpha), b)
    if factor.b.shape != (frame.n,):
        raise ValueError(f"b must be a real vector of length {frame.n}")
    return dress(frame, factor)


def dress_two_pole(frame: ExtendedFrame, z: complex,
                   projection: HermitianProjection) -> ExtendedFrame:
    """Complex Ribaucour transformation: one record for the two-pole factor,
    which evaluates as its two one-pole parts in sequence (pole z with pi, then
    pole -conj(z) with the derived rho).  Sigma-reality of the product forces
    the accumulated h and beta back to real values."""
    return dress(frame, two_pole_factor(z, projection))


_PERMUTE_LAMBDAS = (0.9, -1.4, 0.35 + 0.6j, -0.2 - 1.1j, 1.8 + 0.25j,
                    -0.8 + 0.9j, 0.05 + 1.7j, 2.4 - 0.6j)


def dress_permuted(frame: ExtendedFrame, z1: complex, pi1: HermitianProjection,
                   z2: complex, pi2: HermitianProjection,
                   grid: Grid | None = None, lam_samples=None,
                   tol: float = 1e-9):
    """Apply the two factors in both orders with permuted projections and
    report the discrepancy; the permutability identity makes the two frames
    equal, so the report is the oracle."""
    rho1, rho2 = permute_factors(z1, pi1, z2, pi2)
    f12 = dress_extended(dress_extended(frame, z1, pi1), z2, rho2)
    f21 = dress_extended(dress_extended(frame, z2, pi2), z1, rho1)

    if grid is None:
        grid = Grid.from_specs([(-0.5, 0.5, 10)] * frame.n)
    if lam_samples is None:
        poles = [complex(z1), complex(z2)]
        lam_samples = [lam for lam in _PERMUTE_LAMBDAS
                       if all(abs(lam - p) > 0.05 and abs(lam - np.conj(p)) > 0.05
                              for p in poles)]

    pts = grid.points()
    r_frame = 0.0
    for lam in lam_samples:
        Ea, Xa = f12.evaluate(pts, lam)
        Eb, Xb = f21.evaluate(pts, lam)
        r_frame = max(r_frame, max_abs(Ea - Eb), max_abs(Xa - Xb))
    r_h = max_abs(f12.h(pts) - f21.h(pts))
    r_beta = max_abs(f12.beta(pts) - f21.beta(pts))

    report = VerificationReport()
    report.add("permutability_frame", r_frame, tol,
               lam_samples=[str(s) for s in lam_samples], grid_points=int(np.prod(grid.shape)))
    report.add("permutability_h", r_h, tol)
    report.add("permutability_beta", r_beta, tol)
    return f12, f21, report


@dataclass(eq=False)
class SphericalFamily:
    """The n-parameter family of partial-invariant metrics sharing one set of
    dressed rotation coefficients: pick any real constant vector c and get

        h(u) = E(u, 0)^{-1} c,
        X(u, lambda) = -i/lambda (E(u, lambda) E(u, 0)^{-1} c - c).

    E(u, 0) is real orthogonal, so |h(u)| = |c| everywhere and X lies on the
    sphere of radius |c| / |lambda| centered at i c / lambda."""

    c: np.ndarray
    E_fn: object

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def h(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        E0 = np.asarray(self.E_fn(u, 0.0))
        return solve_linear(E0, self.c.astype(complex)).real

    def X(self, u, lam: float) -> np.ndarray:
        lam = complex(lam)
        if lam == 0:
            raise ValueError("the family member at lambda = 0 is the net limit; use net()")
        u = np.asarray(u, dtype=float)
        E0 = np.asarray(self.E_fn(u, 0.0))
        g = solve_linear(E0, self.c.astype(complex))
        return -1j / lam * (np.asarray(self.E_fn(u, lam)) @ g - self.c)

    def net(self, u, step: float = 1e-3) -> np.ndarray:
        """lambda -> 0 limit: -i dE/dlambda(u, 0) h(u), real."""
        dE = frame_dlambda_at_zero(self.E_fn, u, step)
        return (-1j * dE @ self.h(u).astype(complex)).real

    def radius(self, lam: float) -> float:
        return float(np.linalg.norm(self.c)) / abs(lam)

    def center(self, lam: float) -> np.ndarray:
        return 1j * self.c / lam


def dress_spherical_family(frame: ExtendedFrame,
                           factor: RealOnePoleFactor | TwoPoleFactor,
                           c_tilde) -> SphericalFamily:
    """Dress the frame block of a partial-invariant metric by a generator and
    return the family of metrics/immersions determined by the real constant
    vector c_tilde."""
    c = np.asarray(c_tilde, dtype=float)
    if c.shape != (frame.n,):
        raise ValueError(f"c_tilde must be a real vector of length {frame.n}")

    if not isinstance(factor, (RealOnePoleFactor, TwoPoleFactor)):
        raise ValueError("spherical family dressing supports the one-pole and two-pole generators")
    return SphericalFamily(c=c, E_fn=dress(frame, factor).E)

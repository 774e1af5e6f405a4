"""Dressing transformations of extended frames and Egoroff metrics.

Every transformation follows the same shape: from the frame built so far,
evaluate at the factor's pole pair to get the transported projection
pi_tilde(u) (image of E(u, z)^{-1} applied to im pi, computed through the
spanning basis) and the vector eta(u) = E(u, conj(z))^{-1} X(u, conj(z)); then
update

    E  ->  g_{z,pi} E g_{z,pi_tilde}^{-1}
    X  ->  g_{conj(z), pi^perp} (X - (conj(z)-z)/(lambda-z) E pi_tilde eta)
    h  ->  h + i (z - conj(z)) pi_tilde eta
    beta -> beta + i (z - conj(z)) star(pi_tilde)

The updates are implemented in residue-subtracted form: the rational factors
are expanded and the (vanishing) residues at lambda = z and lambda = conj(z)
are removed symbolically, leaving difference quotients of functions that are
holomorphic at the poles.  This keeps evaluation pole-free; at a point whose
lambda lies within 1e-6 of a pole the quotient itself is evaluated from a small
sampling circle.

The history holds one immutable record per loop factor: one-pole, two-pole
or translation.  A record's pole data (pi_tilde, eta and the prefix frame at
the poles) are computed by ``pole_data`` from the prefix evaluator
``w -> (E, X)`` over a whole point set at once, as arrays stacked over the
points, and the frame memoises them per point set; ``point_data`` is the
one-point view.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import PoleCollisionError, SphericalViolationError
from .frames import ExtendedFrame, frame_dlambda_at_zero
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


def _mv(A, x):
    """Matrix-vector products over a point set: A (..., n, n), x (..., n)."""
    return (A @ x[..., None])[..., 0]


def _circle_values(prefix_fn, pole: complex, radius: float):
    """Prefix-frame (E, X) at the sampling circle |w - pole| = radius,
    stacked on a leading node axis; one batch serves every quotient taken
    around this pole."""
    Es, Xs = zip(*(prefix_fn(pole + radius * p) for p in np.exp(1j * _THETA)))
    return np.stack(Es), np.stack(Xs)


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
    point u: the one-point view of the stacked data the frame memoises."""
    U = np.asarray(u, dtype=float).reshape(1, frame.n)
    return _first_point(frame.pole_data(U, index + 1)[index])


def _first_point(data):
    if isinstance(data, tuple):  # a two-pole record's (first, second) data
        return tuple(map(_first_point, data))
    return type(data)(*(getattr(data, f.name)[0] for f in fields(data)))


@dataclass(frozen=True, eq=False)
class _OnePoleData:
    """Per-point pole data of a one-pole record, stacked over a point set."""

    pi_tilde: HermitianProjection
    complement: np.ndarray  # I - pi_tilde
    eta: np.ndarray
    pe: np.ndarray          # pi_tilde @ eta
    E_z: np.ndarray
    E_zbar: np.ndarray
    G_zbar: np.ndarray      # X(zbar) - E(zbar) pe


@dataclass(frozen=True, eq=False)
class OnePoleRecord:
    """One application of the pole-z simple element to the extended frame.

    ``sphere_preserving`` is set by :func:`dress_spherical`: the record
    provably preserves |h| = const.
    """

    z: complex
    projection: HermitianProjection
    radius_z: float
    radius_zbar: float
    sphere_preserving: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_complement", self.projection.complement)

    @property
    def zbar(self) -> complex:
        return complex(self.z).conjugate()

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
    def has_closed_potential(self) -> bool:
        return self.is_sigma_compatible

    def pole_data(self, prefix_fn) -> _OnePoleData:
        """Pole data over a point set, from the prefix evaluator
        ``prefix_fn(w) -> (E, X)`` stacked over that set."""
        E_zbar, X_zbar = prefix_fn(self.zbar)
        E_z, _ = prefix_fn(self.z)
        # tau-reality gives E(u, z)^{-1} = E(u, zbar)*, so the transported
        # image of pi is spanned by E(u, zbar)* span(pi)
        pi_tilde = project_onto_span(adjoint(E_zbar) @ self.projection.span)
        # eta at the conjugate point keeps the dressed X holomorphic at zbar
        eta = solve_linear(E_zbar, X_zbar)
        pe = _mv(pi_tilde.matrix, eta)
        return _OnePoleData(pi_tilde, pi_tilde.complement, eta, pe, E_z, E_zbar,
                            X_zbar - _mv(E_zbar, pe))

    point_data = _point_data

    def apply(self, E, X, lam, data: _OnePoleData, prefix_fn):
        z, zb = complex(self.z), self.zbar
        c = zb - z
        Pi, Pp = self.projection.matrix, self._complement
        Pt, Ptp = data.pi_tilde.matrix, data.complement
        pe = data.pe
        d_z, d_zb = lam - z, lam - zb
        Es = _circle_values(prefix_fn, z, self.radius_z)[0] if _near(d_z) else None
        dq_z = _quotient(E, data.E_z, d_z, self.radius_z, Es)
        # G = X - E pe; its quotient at zbar shares the circle samples of E
        Es = Gs = None
        if _near(d_zb):
            Es, Xs = _circle_values(prefix_fn, zb, self.radius_zbar)
            Gs = Xs - _mv(Es, pe)
        dq_zb = _quotient(E, data.E_zbar, d_zb, self.radius_zbar, Es)
        dq_G = _quotient(X - _mv(E, pe), data.G_zbar, d_zb, self.radius_zbar, Gs)
        E_new = E + c * (Pi @ dq_zb @ Ptp) - c * (Pp @ dq_z @ Pt)
        X_new = X - c * _mv(Pp, _mv(dq_z, pe)) + c * _mv(Pi, dq_G)
        return E_new, X_new

    def apply_h(self, h, data: _OnePoleData):
        return h + 1j * (self.z - self.zbar) * data.pe

    def apply_beta(self, beta, data: _OnePoleData):
        return beta + 1j * (self.z - self.zbar) * star_reduce(data.pi_tilde.matrix)

    def apply_phi(self, phi, data: _OnePoleData):
        alpha = self.z.imag
        return phi - 2.0 * alpha * np.real(np.sum(data.eta * data.pe, axis=-1))


@dataclass(frozen=True, eq=False)
class _TranslationData:
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class TranslationRecord:
    """Dressing by the translation-block factor with pole i alpha and real b:
    shifts X by i (b - E(u, lambda) y(u)) / (lambda - i alpha) with
    y(u) = E(u, i alpha)^{-1} b, and h by y; E and beta are untouched."""

    alpha: float
    b: np.ndarray
    radius: float
    sphere_preserving: bool = False

    is_sigma_compatible = True
    has_closed_potential = False

    @property
    def pole(self) -> complex:
        return 1j * self.alpha

    @property
    def factor_poles(self) -> tuple:
        return (self.pole,)

    @property
    def sensitive_points(self) -> tuple:
        return (self.pole,)

    def pole_data(self, prefix_fn) -> _TranslationData:
        E_pole, _ = prefix_fn(self.pole)
        b = np.broadcast_to(self.b.astype(complex), E_pole.shape[:-1])
        return _TranslationData(solve_linear(E_pole, b))

    point_data = _point_data

    def apply(self, E, X, lam, data: _TranslationData, prefix_fn):
        # B = E y - b vanishes at the pole: y = E(pole)^{-1} b
        b = self.b.astype(complex)
        d = lam - self.pole
        Bs = None
        if _near(d):
            Es, _ = _circle_values(prefix_fn, self.pole, self.radius)
            Bs = _mv(Es, data.y) - b
        return E, X - 1j * _quotient(_mv(E, data.y) - b, 0.0, d, self.radius, Bs)

    def apply_h(self, h, data: _TranslationData):
        return h + data.y

    def apply_beta(self, beta, data: _TranslationData):
        return beta


@dataclass(frozen=True, eq=False)
class TwoPoleRecord:
    """Dressing by the two-pole factor f_{z,pi} = g_{-conj(z),rho} g_{z,pi}:
    its one-pole parts ``first`` (pole z, pi) and ``second`` (pole -conj(z),
    rho) applied in order.  Each part alone is only tau-real; the product is
    sigma-real, so the record is sigma-compatible.  Its pole data are the
    pair (first part's, second part's)."""

    first: OnePoleRecord
    second: OnePoleRecord

    is_sigma_compatible = True
    has_closed_potential = False

    @property
    def factor_poles(self) -> tuple:
        return self.first.factor_poles + self.second.factor_poles

    @property
    def sensitive_points(self) -> tuple:
        return self.first.sensitive_points + self.second.sensitive_points

    def _middle_fn(self, prefix_fn, first: _OnePoleData):
        """Evaluator of the prefix frame dressed by the first part."""
        def fn(w):
            E, X = prefix_fn(w)
            return self.first.apply(E, X, w, first, prefix_fn)
        return fn

    def pole_data(self, prefix_fn) -> tuple:
        first = self.first.pole_data(prefix_fn)
        return first, self.second.pole_data(self._middle_fn(prefix_fn, first))

    point_data = _point_data

    def apply(self, E, X, lam, data: tuple, prefix_fn):
        E, X = self.first.apply(E, X, lam, data[0], prefix_fn)
        return self.second.apply(E, X, lam, data[1], self._middle_fn(prefix_fn, data[0]))

    def apply_h(self, h, data: tuple):
        return self.second.apply_h(self.first.apply_h(h, data[0]), data[1])

    def apply_beta(self, beta, data: tuple):
        return self.second.apply_beta(self.first.apply_beta(beta, data[0]), data[1])


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
    which applies its two one-pole parts in sequence (pole z with pi, then
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

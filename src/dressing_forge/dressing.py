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
poles, so the dressed block is entire in lambda.  A record takes only the
direct quotients; near a pole they subtract nearly equal terms, and the
frame evaluates a lambda there as the block's mean over a circle around it
(``ExtendedFrame._block``).  The translation factor with pole p = i alpha
and real b updates F -> F + dq_p(F) Y with Y = -i [[0, y], [0, 0]] and
y = E(p)^{-1} b, that is X -> X - i (E y - b) / (lambda - p) since
E(p) y = b.

The phi update is the potential's closed form on chains whose h stays real:
real one-pole records and two-pole records (see :class:`TwoPoleRecord`); a
translation has none.

The history holds one immutable record per loop factor: one-pole, two-pole
or translation.  A record keeps the facts of its factor as a whole
(sigma-compatibility, why it has no closed potential); the frame evaluates
the history as a flat sequence of steps, each record's ``steps``: a
two-pole record is its two one-pole parts and holds no evaluation code.  A
step's pole data are the arrays its ``apply`` reads, stacked over a whole
point set (:class:`_OnePoleData`, :class:`_TranslationData`): the frame's
pole-data sweep (``ExtendedFrame.pole_data``) computes and memoises them
per point set, and each step's ``take_pole_data`` reads its own off the
sweep; ``rows`` views the data at some of the points.  ``apply`` updates
the block it is given in place and returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SphericalViolationError
from .frames import ExtendedFrame
from .geometry import Grid, frame_dlambda_at_zero
from .linalg import (HermitianProjection, adjoint, matvec, max_abs,
                     project_onto_span, solve_and_invert, solve_linear,
                     star_reduce)
from .loops import (RealOnePoleFactor, TranslationFactor, TwoPointFactor,
                    TwoPoleFactor, check_pole_collisions, one_pole_factor,
                    permute_factors, two_pole_factor)
from .report import DEFAULT_TOLERANCES, VerificationReport


def _point_data(record, frame: ExtendedFrame, index: int, u):
    """Pole data of the one-step ``record`` (the frame's record ``index``)
    at the single point u: the one-point view of the stacked data the frame
    memoises."""
    U = np.asarray(u, dtype=float).reshape(1, frame.n)
    return frame.pole_data(U)[frame.step_count(index)].rows(0)


@dataclass(frozen=True, eq=False)
class _OnePoleData:
    """Pole data of a one-pole step over a point set: the two arrays its
    update reads.

    ``F_poles``, of shape (P, 2, n, n+1) with the pole pair next to the
    matrix axes, holds the prefix block [E | X] at conj(z), as the sweep
    evaluates it, and [E | eta] at z, with E(u, z) = (E(u, conj z)^{-1})^*
    by tau-reality, written by ``take_pole_data`` from the inverse its
    certified solve for eta computes: the update reads only E at z (the
    quotient of that X column is discarded), so the column holds eta.  It
    is a view into the sweep's one array.  ``blocks``, of shape
    (P, 2n+1, n+1), holds per point the matrix the update multiplies by:
    R_tilde, its rows [pi_tilde^perp | -pi_tilde eta] and [0 ... 0 | 1],
    stacked above [pi_tilde | pi_tilde eta].  ``eta``, ``pi_tilde`` (the
    transported projection's matrix) and ``pe`` (pi_tilde eta) are views
    into them, and ``rows`` views both at some of the points.
    """

    F_poles: np.ndarray
    blocks: np.ndarray

    @property
    def eta(self) -> np.ndarray:
        return self.F_poles[..., 1, :, -1]

    @property
    def pi_tilde(self) -> np.ndarray:
        n = self.blocks.shape[-1] - 1
        return self.blocks[..., n + 1:, :n]

    @property
    def pe(self) -> np.ndarray:
        n = self.blocks.shape[-1] - 1
        return self.blocks[..., n + 1:, n]

    def rows(self, index) -> "_OnePoleData":
        """The data at the points ``index`` (an int, a slice or an index
        array) of the point set: views for an int or a slice."""
        return _OnePoleData(self.F_poles[index], self.blocks[index])


@dataclass(frozen=True, eq=False)
class OnePoleRecord:
    """One application of the pole-z simple element to the extended frame:
    with c = conj(z) - z,

        F -> F + c pi dq_{conj z}(F) R_tilde - c pi^perp dq_z(E) [pi_tilde | pi_tilde eta],
        R_tilde = [[pi_tilde^perp, -pi_tilde eta], [0, 1]].

    Both quotients run as one stack, the pole pair next to the matrix axes,
    so that a (lambda, point) row holds them as one 2n x (n+1) matrix, and
    one product by the record's left factor c blockdiag(pi, -pi^perp), its
    rows interleaved, gives S_0 = c pi dq_{conj z}(F) and S_1 = -c pi^perp
    dq_z(F) a row of each in turn: row 2i is S_0's row i, row 2i+1 is
    S_1's.  So the product, read as an n x (2n+2) matrix without a copy, is
    [S_0 | S_1], and its first 2n+1 columns, [S_0 | S_1's first n columns],
    times the pole data's ``blocks`` (R_tilde above [pi_tilde | pi_tilde
    eta]) are both products with the right factors, which change from point
    to point, at once; the sum is added to F.  That is six numpy calls,
    with no concatenation.
    Each product is grouped from the left as in the separate E update, and
    pi_tilde^perp is stored, not formed as I - pi_tilde in the product.
    Every product has the same shape at every row, so a row's value does
    not depend on how many rows are stacked with it: a product over all
    rows at once would run through BLAS kernels that compute a row by where
    it sits in the stack.

    ``sphere_preserving`` is set by :func:`dress_spherical`: the record
    provably preserves |h| = const.  The record is one step of a frame.
    """

    z: complex
    projection: HermitianProjection
    sphere_preserving: bool = False

    def __post_init__(self):
        z = complex(self.z)
        # the step's sensitive points, in the order of its rows in its
        # pole data: a sweep evaluates the prefix block at the first, and
        # the step writes its block at the last, the pole
        object.__setattr__(self, "pole_rows", (z.conjugate(), z))
        object.__setattr__(self, "_pair", np.array(self.pole_rows))
        # the left factors with c folded in, c blockdiag(pi, -pi^perp), its
        # rows interleaved: row 2i is c pi's row i, row 2i+1 -c pi^perp's
        n = self.projection.matrix.shape[-1]
        c = z.conjugate() - z
        left = np.zeros((n, 2, 2 * n), dtype=complex)
        left[:, 0, :n] = c * self.projection.matrix
        left[:, 1, n:] = -c * self.projection.complement
        object.__setattr__(self, "_left", left.reshape(2 * n, 2 * n))

    @property
    def zbar(self) -> complex:
        return complex(self.z).conjugate()

    @property
    def steps(self) -> tuple:
        return (self,)

    @property
    def is_sigma_compatible(self) -> bool:
        return one_pole_factor(self.z, self.projection).is_sigma_compatible

    @property
    def potential_gap(self) -> str | None:
        """Why the record has no closed potential update; None when it has."""
        if self.is_sigma_compatible:
            return None
        return ("sigma-incompatible pole, the eta^* pi_tilde eta update needs "
                "the sigma-real product")

    def take_pole_data(self, F_poles) -> _OnePoleData:
        """Pole data off this step's rows F_poles (2, P, n, n+1) of a
        pole-data sweep: it reads row 0, the prefix block A = E(u, conj z)
        and X(u, conj z), and writes row 1, [E(u, z) | eta].  tau-reality,
        E(u, conj(lambda))^* E(u, lambda) = I, gives E(u, z) = (A^{-1})^*,
        from the A^{-1} that the certified solve for eta computes with it.
        The data keep views into the rows, which nothing touches
        afterwards."""
        n = F_poles.shape[-2]
        E_zbar = F_poles[0, ..., :n]
        # E(u, z)^{-1} = E(u, zbar)*, so the transported image of pi is
        # spanned by E(u, zbar)* span(pi)
        pi_tilde = project_onto_span(adjoint(E_zbar) @ self.projection.span)
        # eta at the conjugate point keeps the dressed X holomorphic at zbar
        eta = F_poles[1, ..., n]
        eta[...], E_inv = solve_and_invert(E_zbar, F_poles[0, ..., n])
        np.conjugate(E_inv.swapaxes(-1, -2), out=F_poles[1, ..., :n])
        del E_inv  # a view that keeps the whole solve alive
        blocks = np.zeros(F_poles.shape[1:-2] + (2 * n + 1, n + 1), dtype=complex)
        np.subtract(np.eye(n), pi_tilde.matrix, out=blocks[..., :n, :n])
        blocks[..., n, n] = 1.0
        blocks[..., n + 1:, :n] = pi_tilde.matrix
        blocks[..., n + 1:, n] = matvec(blocks[..., n + 1:, :n], eta)
        blocks[..., :n, n] = -blocks[..., n + 1:, n]
        return _OnePoleData(F_poles.swapaxes(0, 1), blocks)

    point_data = _point_data

    def apply(self, F, lam, data: _OnePoleData):
        """Update the block F (..., P, n, n+1) in place and return it; each
        (lambda, point) row's value does not depend on the others."""
        n = F.shape[-2]
        # dq_{conj z}(F) and dq_z(F), the pole pair next to the matrix axes
        D = F[..., None, :, :] - data.F_poles
        d = lam[..., None] - self._pair if isinstance(lam, np.ndarray) else lam - self._pair
        D /= d[..., None, None]
        # S_0 = c pi dq_{conj z}(F) and S_1 = -c pi^perp dq_z(F), their rows
        # interleaved, one product per (lambda, point) row; row i of S_0
        # then row i of S_1 is row i of the n x (2n+2) view of S
        S = self._left @ D.reshape(D.shape[:-3] + (2 * n, n + 1))
        del D
        # [S_0 | S_1's first n columns] times [R_tilde; [pi_tilde | pi_tilde
        # eta]], both right products in one per point
        F += S.reshape(S.shape[:-2] + (n, 2 * n + 2))[..., :2 * n + 1] @ data.blocks
        return F

    def apply_h(self, h, data: _OnePoleData):
        return h + 1j * (self.z - self.zbar) * data.pe

    def apply_beta(self, beta, data: _OnePoleData):
        return beta + 1j * (self.z - self.zbar) * star_reduce(data.pi_tilde)

    def apply_phi(self, phi, data: _OnePoleData):
        alpha = self.z.imag
        return phi - 2.0 * alpha * np.real(np.sum(data.eta.conj() * data.pe, axis=-1))


@dataclass(frozen=True, eq=False)
class _TranslationData:
    y: np.ndarray

    def rows(self, index) -> "_TranslationData":
        return _TranslationData(self.y[index])


@dataclass(frozen=True, eq=False)
class TranslationRecord:
    """Dressing by the translation-block factor with pole p = i alpha and real
    b: F -> F + dq_p(F) Y with Y = -i [[0, y], [0, 0]] and
    y(u) = E(u, p)^{-1} b.  Since E(p) y = b that shifts X by
    -i (E(u, lambda) y - b) / (lambda - p), and h by y; E and beta are
    untouched."""

    alpha: float
    b: np.ndarray

    sphere_preserving = False
    is_sigma_compatible = True
    potential_gap = "no closed-form potential update for the translation factor"

    @property
    def pole(self) -> complex:
        return 1j * self.alpha

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

    def apply(self, F, lam, data: _TranslationData):
        """Update the block F (..., P, n, n+1) in place and return it."""
        # dq_p(F) Y = -i [0 | (E y - b) / d]; E y - b vanishes at the pole
        n = F.shape[-2]
        d = np.asarray(lam - self.pole)[..., None]
        F[..., n] -= 1j * ((matvec(F[..., :n], data.y) - self.b.astype(complex)) / d)
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
    and then the other, and takes its poles and pole data from the parts.
    Each part alone is only tau-real; the product is sigma-real, so the
    record is sigma-compatible.

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
    potential_gap = None

    @property
    def steps(self) -> tuple:
        return (self.first, self.second)


DressingRecord = OnePoleRecord | TranslationRecord | TwoPoleRecord


def dress(frame: ExtendedFrame, factor, sphere_preserving: bool = False) -> ExtendedFrame:
    """Append the record of one validated loop factor (a ``loops`` factor),
    refusing a factor that is not tau-real, of the wrong dimension or with a
    pole on one of the frame's factor poles.  ``sphere_preserving`` marks a
    one-pole record (see :func:`dress_spherical`) and is refused for any
    other factor."""
    if not factor.is_tau_real:
        raise ValueError("a simple element dresses only as g_{z,pi} "
                         "(rule: its zero is the conjugate of its pole)")
    if factor.n != frame.n:
        raise ValueError(
            f"factor dimension {factor.n} does not match frame dimension {frame.n}")
    check_pole_collisions(factor.poles(), frame.factor_poles())
    if isinstance(factor, TwoPointFactor):
        record = OnePoleRecord(factor.poles()[0], factor.projection, sphere_preserving)
    elif sphere_preserving:
        raise ValueError(f"only a one-pole factor dresses sphere-preserving, "
                         f"got a {type(factor).__name__}")
    elif isinstance(factor, TwoPoleFactor):
        record = TwoPoleRecord(OnePoleRecord(factor.z, factor.projection),
                               OnePoleRecord(-factor.z.conjugate(), factor.rho))
    else:
        record = TranslationRecord(factor.alpha, factor.b)
    return ExtendedFrame(frame.seed, frame.history + (record,))


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
    return dress(frame, TranslationFactor(float(alpha), b))


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
                   grid: Grid, tol: float = DEFAULT_TOLERANCES["permutability"]):
    """Apply the two factors in both orders with permuted projections and
    report the discrepancy on the grid, at every fixed lambda sample (one on
    a pole is evaluated like any other); the permutability identity makes
    the two frames equal, so the report is the oracle."""
    rho1, rho2 = permute_factors(z1, pi1, z2, pi2)
    f12 = dress_extended(dress_extended(frame, z1, pi1), z2, rho2)
    f21 = dress_extended(dress_extended(frame, z2, pi2), z1, rho1)

    pts = grid.points()
    lams = np.reshape(_PERMUTE_LAMBDAS, (-1,) + (1,) * grid.n)
    (Ea, Xa), (Eb, Xb) = f12.evaluate(pts, lams), f21.evaluate(pts, lams)
    r_frame = max(max_abs(Ea - Eb), max_abs(Xa - Xb))
    r_h = max_abs(f12.h(pts) - f21.h(pts))
    r_beta = max_abs(f12.beta(pts) - f21.beta(pts))

    report = VerificationReport()
    report.add("permutability_frame", r_frame, tol,
               lam_samples=[str(s) for s in _PERMUTE_LAMBDAS], grid_points=int(np.prod(grid.shape)))
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
        return -1j / lam * (matvec(np.asarray(self.E_fn(u, lam)), g) - self.c)

    def net(self, u) -> np.ndarray:
        """lambda -> 0 limit: -i dE/dlambda(u, 0) h(u), real."""
        dE = frame_dlambda_at_zero(self.E_fn, u)
        return (-1j * matvec(dE, self.h(u).astype(complex))).real


def dress_spherical_family(frame: ExtendedFrame, factor: TwoPointFactor | TwoPoleFactor,
                           c_tilde) -> SphericalFamily:
    """Dress the frame block of a partial-invariant metric by a
    sigma-compatible generator (one-pole or two-pole) and return the family
    of metrics/immersions determined by the real constant vector c_tilde."""
    c = np.asarray(c_tilde, dtype=float)
    if c.shape != (frame.n,):
        raise ValueError(f"c_tilde must be a real vector of length {frame.n}")

    if isinstance(factor, TranslationFactor) or not factor.is_sigma_compatible:
        raise ValueError("spherical family dressing supports the one-pole and two-pole generators "
                         "(rule: a sigma-compatible generator)")
    return SphericalFamily(c=c, E_fn=dress(frame, factor).E)

"""Forward error of ``evaluate`` against a 40-digit reference.

tau/sigma reality measures how far E is from the loop group, not from the
true E: an op of the ``deep_chain`` benchmark with a forward error of
2.5e-10 has tau/sigma below 1e-10.  The reference here rebuilds the frame at
one point and one lambda in mpmath, from the same float inputs (seed radii,
poles, projection spans, translation vectors), by the product form of each
step rather than the residue-subtracted updates: a one-pole step with pole z
and projection pi, c = conj(z) - z, gives

    E_k = g_{z,pi} E_{k-1} g_{z,pi_tilde}^{-1},
    X_k = g_{z,pi} (X_{k-1} - c/(lambda - z) E_{k-1} pi_tilde eta),

with g_{z,pi}(lambda) = pi^perp + (lambda - z)/(lambda - conj(z)) pi,
pi_tilde the projection onto E_{k-1}(z)^{-1} im pi and eta =
E_{k-1}(conj z)^{-1} X_{k-1}(conj z), each from the reference's own prefix;
a translation with pole p = i alpha and vector b gives X_k = X_{k-1} - i
(E_{k-1} y - b)/(lambda - p) with y = E_{k-1}(p)^{-1} b.  So the reference
shares no code with the frame: not the pole data, not tau-reality, not the
contour.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from dressing_forge import (ConstantProfile, ExtendedFrame, PolynomialProfile,
                            SampledProfile, VacuumSeed, dress_extended, dress_real,
                            dress_translation, dress_two_pole, max_abs,
                            project_onto_span)
from dressing_forge.dressing import OnePoleRecord
from dressing_forge.frames import MAX_POLYNOMIAL_DEGREE, POLYNOMIAL_ROUNDING_UNITS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import DeepChain  # noqa: E402

DIGITS = 40


def _mp(a):
    """A numpy vector or matrix as an mpmath matrix, exactly."""
    return mp.matrix(np.asarray(a, dtype=complex).tolist())


def _projection(V):
    """The Hermitian projection onto the column span of V."""
    return V * mp.inverse(V.H * V) * V.H


class Reference:
    """The frame of a chain of one-pole and translation steps on a constant
    seed at one point u, in ``DIGITS``-digit arithmetic.  Each step's pole
    data are computed once, from the reference's own prefix."""

    def __init__(self, frame: ExtendedFrame, u):
        with mp.workdps(DIGITS):
            self.radii = [mp.mpf(p.r) for p in frame.seed.profiles]
            self.u = [mp.mpf(x) for x in u]
            self.eye = mp.eye(len(self.u))
            self.steps = []
            for k, step in enumerate(frame.steps):
                self.steps.append(self._pole_data(step, k))

    def _pole_data(self, step, k):
        if isinstance(step, OnePoleRecord):
            z = mp.mpc(step.z)
            S = _mp(step.projection.span)
            E_z = self._block(z, k)[0]
            E_zbar, X_zbar = self._block(mp.conj(z), k)
            pi_tilde = _projection(mp.inverse(E_z) * S)
            eta = mp.inverse(E_zbar) * X_zbar
            return ("one_pole", z, _projection(S), pi_tilde, eta)
        p = mp.mpc(1j * step.alpha)
        b = _mp(step.b)
        return ("translation", p, b, mp.inverse(self._block(p, k)[0]) * b)

    def _block(self, lam, depth):
        E = mp.diag([mp.exp(1j * lam * u) for u in self.u])
        X = mp.matrix([r * u if lam == 0 else r * (mp.exp(1j * lam * u) - 1) / (1j * lam)
                       for r, u in zip(self.radii, self.u)])
        for kind, pole, *rest in self.steps[:depth]:
            if kind == "one_pole":
                pi, pi_tilde, eta = rest
                c = mp.conj(pole) - pole
                g = self.eye - pi + (lam - pole) / (lam - mp.conj(pole)) * pi
                g_tilde_inv = self.eye - pi_tilde + (lam - mp.conj(pole)) / (lam - pole) * pi_tilde
                E, X = g * E * g_tilde_inv, g * (X - c / (lam - pole) * (E * (pi_tilde * eta)))
            else:
                b, y = rest
                X = X - 1j * (E * y - b) / (lam - pole)
        return E, X

    def evaluate(self, lam):
        """(E, X) of the whole chain at lambda, as complex numpy arrays."""
        with mp.workdps(DIGITS):
            E, X = self._block(mp.mpc(lam), len(self.steps))
            return (np.array(E.tolist(), dtype=complex),
                    np.array(X.tolist(), dtype=complex)[:, 0])


def forward_error(frame: ExtendedFrame, reference: Reference, u, lam) -> float:
    """max |evaluate - reference| over the entries of E and X."""
    E, X = frame.evaluate(u, lam)
    E_ref, X_ref = reference.evaluate(lam)
    return max(max_abs(E - E_ref), max_abs(X - X_ref))


def deep_chain(seed: int):
    """The ``deep_chain`` benchmark's inputs at this seed and its frame:
    eight real one-pole records on the constant seed (1.0, 0.7, 1.3)."""
    work = DeepChain(None, None, seed, None)
    frame = ExtendedFrame(VacuumSeed.constant(work.RADII))
    for alpha, span in zip(work.ALPHAS, work.spans):
        frame = dress_real(frame, alpha, project_onto_span(span))
    return work, frame


# (seed, point, lambda index, bound): the worst ops of seeds 10 and 29
# (2.5e-10 to 3.1e-10), two ops with large tau/sigma (3e-11 and 4.2e-11),
# the two worst ops of seed 1 (up to 4.6e-12) and two near-pole ops at depth
# 8 (2.5e-12 and 1.1e-10), each bound about 1.5 times the largest forward
# error measured on it
DEEP_CHAIN_OPS = [
    (10, 5, 28, 4e-10),
    (29, 23, 16, 4.5e-10),
    (29, 45, 28, 4.5e-10),
    (10, 14, 17, 5e-11),
    (10, 48, 9, 6e-11),
    (1, 13, 9, 7e-12),
    (1, 47, 13, 7e-12),
    (10, 0, 31, 4e-12),
    (29, 8, 31, 1.6e-10),
]


@pytest.mark.parametrize("seed, point, index, bound", DEEP_CHAIN_OPS)
def test_deep_chain_forward_error(seed, point, index, bound):
    """``evaluate`` on fixed ops of the ``deep_chain`` benchmark is within
    the stated bound of the reference, in E and X."""
    work, frame = deep_chain(seed)
    u, lam = work.points[point], work.lams[point][index]
    assert forward_error(frame, Reference(frame, u), u, lam) < bound


def test_mixed_chain_forward_error():
    """A real one-pole, a complex one-pole, a two-pole and a translation
    record, then a real one: off the poles and 1e-8 from each sensitive
    point (where the product form still keeps 24 of its 40 digits), at two
    points, ``evaluate`` is within 2e-13 of the reference (worst measured
    3.1e-14)."""
    frame = ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3]))
    frame = dress_real(frame, 0.6, project_onto_span(np.ones(3) / np.sqrt(3)))
    frame = dress_extended(frame, 0.3 + 0.7j, project_onto_span(np.array([1.0, -0.4 + 0.2j, 0.5j])))
    frame = dress_two_pole(frame, 0.4 + 0.8j, project_onto_span(np.array([1.0, 0.5 - 0.25j, 0.3])))
    frame = dress_translation(frame, 0.9, np.array([0.2, -0.1, 0.15]))
    frame = dress_real(frame, 1.3, project_onto_span(np.array([0.6, 0.0, 0.8])))
    poles = frame.sensitive_points()
    lams = [0.9, 0.3 - 1.1j, -1.2 + 0.5j] + [p + 1e-8 * np.exp(0.7j) for p in poles]
    for u in np.random.default_rng(41).uniform(-0.4, 0.4, size=(2, 3)):
        reference = Reference(frame, u)
        worst = max(forward_error(frame, reference, u, lam) for lam in lams)
        assert worst < 2e-13


# --- the seed block, every profile type ---------------------------------------

def _moment_integral(coeffs, s, il):
    """int_0^s sum_m c_m t^m e^{il t} dt by parts, exact in the working
    precision: I_m = (s^m e^{il s} - m I_{m-1}) / il, or the plain
    polynomial integral at il = 0."""
    if il == 0:
        return sum(c * s ** (m + 1) / (m + 1) for m, c in enumerate(coeffs))
    e = mp.exp(il * s)
    I = (e - 1) / il
    total = coeffs[0] * I
    for m in range(1, len(coeffs)):
        I = (s ** m * e - m * I) / il
        total += coeffs[m] * I
    return total


def _piece_reference(coeffs, knot, a, b, lam):
    """int_a^b p(t - knot) e^{i lam t} dt and its rounding scale int_a^b
    sum_m |c_m (t - knot)^m| |e^{i lam t}| dt, for a <= b on one side of the
    knot, in 120-digit arithmetic, where the recursion's cancellation (at
    most about m! / |lam s|^m) leaves more than DIGITS digits."""
    with mp.workdps(120):
        c = [mp.mpf(x) for x in coeffs]
        knot, a, b, lam = mp.mpf(knot), mp.mpf(a) - knot, mp.mpf(b) - knot, mp.mpc(lam)
        phase = mp.exp(1j * lam * knot)
        value = phase * (_moment_integral(c, b, 1j * lam) - _moment_integral(c, a, 1j * lam))
        side = 1 if a + b >= 0 else -1
        size = [abs(x) * side ** m for m, x in enumerate(c)]
        scale = abs(phase) * abs(_moment_integral(size, b, -mp.im(lam))
                                 - _moment_integral(size, a, -mp.im(lam)))
        return value, scale


def _profile_reference(pieces, u, lam):
    """X_j = int_0^u h_j(t) e^{i lam t} dt and its rounding scale, for h_j
    the piecewise polynomial ``pieces`` [(knot, lo, hi, coeffs in t - knot)]
    from the profile's own float data, summed over the parts of [0, u]."""
    value = scale = 0
    for knot, lo, hi, coeffs in pieces:
        a, b = max(min(0.0, u), lo), min(max(0.0, u), hi)
        if a < b:
            v, sc = _piece_reference(coeffs, knot, a, b, lam)
            value, scale = value + (v if u > 0 else -v), scale + sc
    return complex(value), float(scale)


SEED_LAMBDAS = [1e-3, 0.3, 0.6, 1.0, 2.0, 5.0, 20.0, 0.6j, -0.6j, 1.37j, 0.6 + 0.6j, 3.0 - 4.0j]
SEED_POINTS = [0.05, 0.3, 0.9, 1.0, -0.3, -1.0]


@pytest.mark.parametrize("degree", [3, 10, MAX_POLYNOMIAL_DEGREE])
def test_seed_block_forward_error(degree):
    """``VacuumSeed.block`` on a constant, a polynomial (coefficients 1,
    0.3/k up to ``degree``) and a sampled profile (9 knots of 1 + 0.3 t^2):
    E to rounding, and each X_j within POLYNOMIAL_ROUNDING_UNITS units of
    rounding of int_0^u |h_j(t) e^{i lam t}| dt (summed over the monomials
    of each piece) of an exact reference, over lambdas from 1e-3 to 20, on
    both axes and around the pole rows of the shipped chains, and points
    across [-1, 1]."""
    knots = np.linspace(-1.0, 1.0, 9)
    profiles = (ConstantProfile(0.7),
                PolynomialProfile((1.0,) + tuple(0.3 / k for k in range(1, degree + 1)), (-1.0, 1.0)),
                SampledProfile(tuple(knots), tuple(1.0 + 0.3 * knots ** 2)))
    pieces = ([(0.0, -np.inf, np.inf, (0.7,))],
              [(0.0, -1.0, 1.0, profiles[1].coeffs)],
              [(lo, lo, hi, piece.coeffs)
               for lo, hi, piece in zip(knots, knots[1:], profiles[2]._pieces)])
    seed = VacuumSeed(profiles)
    U = np.repeat(np.array(SEED_POINTS)[:, None], 3, axis=1)
    eps = np.finfo(float).eps
    for lam in SEED_LAMBDAS:
        block = seed.block(U, lam)
        for i, u in enumerate(SEED_POINTS):
            with mp.workdps(DIGITS):
                e = complex(mp.exp(1j * mp.mpc(lam) * mp.mpf(u)))
            assert max_abs(np.diagonal(block[i, :, :3]) - e) <= 2 * eps * abs(e)
            for j in range(3):
                value, scale = _profile_reference(pieces[j], u, lam)
                assert abs(block[i, j, 3] - value) <= POLYNOMIAL_ROUNDING_UNITS * eps * scale, (j, u, lam)

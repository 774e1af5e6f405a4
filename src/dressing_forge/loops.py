"""Rational loop elements: simple factors, inverses, reality checks, permutability.

A simple element with pole a1 and zero a2 acts as

    g(lambda) = pi + (lambda - a2)/(lambda - a1) * (I - pi),

normalized to the identity at lambda = infinity.  The unitary-type factor
``g_{z,pi}`` is the special case a1 = z, a2 = conj(z) with pi Hermitian; it
satisfies g(conj(lambda))* g(lambda) = I (tau condition).  The factors that in
addition satisfy g(-lambda)^t g(lambda) = I (sigma condition) are the
generators implemented here: one imaginary pole with a real projection, and
the two-pole product f_{z,pi} = g_{-conj(z),rho} g_{z,pi}.

The factor constructors hold the rules on factor data (finite numbers,
alpha != 0, a real projection, poles off the axes, the pole list); dressing
and the scenario loader build factors here and rely on those checks.  Every
factor answers ``is_tau_real`` and ``is_sigma_compatible`` from its own data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AtPoleError, PoleCollisionError
from .linalg import HermitianProjection, adjoint, max_abs, project_onto_span
from .report import DEFAULT_TOLERANCES, VerificationReport

# A factor's own g(lambda) refuses within pole_tol of its pole (scale-aware);
# a dressed frame evaluates at any finite lambda, a pole included.
POLE_TOL = 1e-8
# A pole coordinate (real or imaginary part) below this is on its axis.
AXIS_TOL = 1e-12


def pole_tol(pole: complex) -> float:
    return POLE_TOL * max(1.0, abs(pole))


def on_axis(x: float) -> bool:
    return abs(x) < AXIS_TOL


def check_pole_collisions(poles, earlier=()) -> None:
    """Raise :class:`PoleCollisionError` when a pole lies within ``pole_tol``
    of one before it in ``poles`` or of one of ``earlier``."""
    for i, p in enumerate(poles):
        for q in (*earlier, *poles[:i]):
            if abs(p - q) <= pole_tol(p):
                raise PoleCollisionError(f"poles {p} and {q} collide")


def _simple_eval(pi_matrix: np.ndarray, pole: complex, zero: complex, lam: complex) -> np.ndarray:
    n = pi_matrix.shape[0]
    if not np.isfinite(complex(lam)):
        return np.eye(n, dtype=complex)
    if abs(lam - pole) <= pole_tol(pole):
        raise AtPoleError(f"evaluation at lambda={lam} too close to pole {pole}")
    return pi_matrix + (lam - zero) / (lam - pole) * (np.eye(n) - pi_matrix)


@dataclass(frozen=True, eq=False)
class TwoPointFactor:
    """General simple element with pole alpha1, zero alpha2, projection pi.
    It is tau-real when its zero is the conjugate of its pole, and
    sigma-compatible when also its pole is imaginary and pi real."""

    alpha1: complex
    alpha2: complex
    projection: HermitianProjection

    def __post_init__(self):
        if not np.isfinite([self.alpha1, self.alpha2]).all():
            raise ValueError(f"a simple element needs a finite pole and zero, got {self.alpha1} "
                             f"and {self.alpha2} (rule: pole and zero finite)")
        if abs(self.alpha1 - self.alpha2) <= pole_tol(self.alpha1):
            raise PoleCollisionError("pole and zero of a simple element must differ")

    @property
    def n(self) -> int:
        return self.projection.n

    @property
    def is_tau_real(self) -> bool:
        return on_axis(abs(self.alpha2 - np.conj(self.alpha1)))

    @property
    def is_sigma_compatible(self) -> bool:
        return self.is_tau_real and on_axis(self.alpha1.real) and self.projection.is_real

    def poles(self) -> tuple[complex, ...]:
        return (complex(self.alpha1),)

    def __call__(self, lam: complex) -> np.ndarray:
        return _simple_eval(self.projection.matrix, self.alpha1, self.alpha2, lam)


def one_pole_factor(z: complex, projection: HermitianProjection) -> TwoPointFactor:
    """The tau-real simple element g_{z,pi} (pole z, zero conj(z))."""
    z = complex(z)
    if on_axis(z.imag):
        raise ValueError("one-pole factor needs z off the real axis (rule: Im z != 0)")
    return TwoPointFactor(z, complex(np.conj(z)), projection)


class RealOnePoleFactor(TwoPointFactor):
    """g_{i alpha, pi} with alpha real nonzero and a real projection: the
    simple element with pole i alpha and zero -i alpha, the sigma-compatible
    one-pole generator."""

    def __init__(self, alpha: float, projection: HermitianProjection):
        if not np.isfinite(alpha) or alpha == 0.0:
            raise ValueError("alpha must be finite and nonzero (rule: alpha != 0)")
        if not projection.is_real:
            raise ValueError("real one-pole factor needs a real projection "
                             "(rule: conjugation-invariant image)")
        super().__init__(1j * alpha, -1j * alpha, projection)

    @property
    def alpha(self) -> float:
        return self.alpha1.imag

    @property
    def z(self) -> complex:
        return self.alpha1


@dataclass(frozen=True, eq=False)
class TwoPoleFactor:
    """f_{z,pi}: the sigma-compatible generator with poles at z and -conj(z).

    rho is derived on construction by the permutability formula
    (:func:`permute_factors` with -conj(z) and conj(pi)).
    """

    z: complex
    projection: HermitianProjection
    rho: HermitianProjection = field(init=False, repr=False)

    is_tau_real = True
    is_sigma_compatible = True

    def __post_init__(self):
        z = complex(self.z)
        if not np.isfinite(z):
            raise ValueError(f"two-pole factor needs a finite z, got {z} (rule: z finite)")
        if on_axis(z.real) or on_axis(z.imag):
            raise ValueError("two-pole factor needs z off both the real and imaginary axes "
                             "(rule: Re z != 0 and Im z != 0)")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "rho", permute_factors(z, self.projection, -z.conjugate(),
                                                        self.projection.conjugate())[1])

    @property
    def n(self) -> int:
        return self.projection.n

    def poles(self) -> tuple[complex, ...]:
        return (complex(self.z), complex(-np.conj(self.z)))

    def __call__(self, lam: complex) -> np.ndarray:
        z = self.z
        left = _simple_eval(self.rho.matrix, -np.conj(z), -z, lam)
        right = _simple_eval(self.projection.matrix, z, np.conj(z), lam)
        return left @ right


def two_pole_factor(z: complex, projection: HermitianProjection) -> TwoPoleFactor:
    """Build f_{z,pi} = g_{-conj(z),rho} g_{z,pi} with the derived rho."""
    return TwoPoleFactor(z, projection)


@dataclass(frozen=True, eq=False)
class TranslationFactor:
    """(n+1) x (n+1) block factor [[I, i b / (lambda - i alpha)], [0, 1]]."""

    alpha: float
    b: np.ndarray

    # the n x n block is the identity, and k(-lambda) = conj(k(conj(lambda)))
    is_tau_real = is_sigma_compatible = True

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha == 0.0:
            raise ValueError("alpha must be finite and nonzero (rule: alpha != 0)")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or not np.isfinite(b).all():
            raise ValueError(f"translation b must be a finite real vector, got {self.b!r} "
                             "(rule: b is a real vector of finite numbers)")
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def poles(self) -> tuple[complex, ...]:
        return (1j * self.alpha,)

    def __call__(self, lam: complex) -> np.ndarray:
        n = self.n
        out = np.eye(n + 1, dtype=complex)
        if not np.isfinite(complex(lam)):
            return out
        pole = 1j * self.alpha
        if abs(lam - pole) <= pole_tol(pole):
            raise AtPoleError(f"evaluation at lambda={lam} too close to pole {pole}")
        out[:n, n] = 1j * self.b / (lam - pole)
        return out


LoopFactor = TwoPointFactor | TwoPoleFactor | TranslationFactor


def invert_factor(factor: TwoPointFactor) -> TwoPointFactor:
    """Inverse of a simple element: swap pole and zero."""
    return TwoPointFactor(factor.alpha2, factor.alpha1, factor.projection)


def check_reality(factor: LoopFactor, lam_samples) -> VerificationReport:
    """Residuals of the two loop-group reality conditions over sample points.

    tau:   max |g(conj(lambda))* g(lambda) - I|
    sigma: max |g(-lambda)^t g(lambda) - I|

    Each entry carries a tolerance only when the factor's data make it hold
    (``is_tau_real``, ``is_sigma_compatible``); otherwise it is
    informational.  A translation factor is not matrix-unitary in the
    (n+1)-block sense; for it the sigma-type condition is the conjugation
    symmetry k(-lambda) = conj(k(conj(lambda))), which is what gets checked.
    """
    n = factor.n
    translation = isinstance(factor, TranslationFactor)
    tau = sigma = 0.0
    for lam in map(complex, lam_samples):
        a, a_conj = factor(lam), factor(np.conj(lam))
        tau = max(tau, max_abs(adjoint(a_conj[:n, :n]) @ a[:n, :n] - np.eye(n)))
        if translation:
            sigma = max(sigma, max_abs(factor(-lam) - a_conj.conj()))
        else:
            sigma = max(sigma, max_abs(factor(-lam).T @ a - np.eye(n)))
    tol = DEFAULT_TOLERANCES["reality"]
    report = VerificationReport()
    report.add("tau_reality", tau, tol if factor.is_tau_real else None)
    report.add("sigma_reality", sigma, tol if factor.is_sigma_compatible else None,
               **({"sense": "(n+1)-block conjugation symmetry"} if translation else {}))
    return report


def permute_factors(z1: complex, pi1: HermitianProjection,
                    z2: complex, pi2: HermitianProjection
                    ) -> tuple[HermitianProjection, HermitianProjection]:
    """Recompute projections so the two one-pole factors commute as a product:

        g_{z2,rho2} g_{z1,pi1} = g_{z1,rho1} g_{z2,pi2}.

    rho1 projects onto g_{z2,pi2}(z1) applied to the image of pi1, and rho2
    onto g_{z1,pi1}(z2) applied to the image of pi2.
    """
    z1, z2 = complex(z1), complex(z2)
    if on_axis(z1.imag) or on_axis(z2.imag):
        raise ValueError("permutability needs poles off the real axis")
    if abs(z1 - z2) <= pole_tol(z1) or abs(z1 - np.conj(z2)) <= pole_tol(z1):
        raise PoleCollisionError(f"poles z1={z1} and z2={z2} (or its conjugate) collide")
    g2_at_z1 = _simple_eval(pi2.matrix, z2, np.conj(z2), z1)
    g1_at_z2 = _simple_eval(pi1.matrix, z1, np.conj(z1), z2)
    rho1 = project_onto_span(g2_at_z1 @ pi1.span)
    rho2 = project_onto_span(g1_at_z2 @ pi2.span)
    return rho1, rho2


def random_lambda_samples(count: int, poles, rng):
    """Complex sample points drawn uniformly from the square |Re lam|,
    |Im lam| <= 2, each more than 0.05 from every listed pole."""
    samples = []
    poles = [complex(p) for p in poles]
    while len(samples) < count:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(lam - p) > 0.05 for p in poles):
            samples.append(lam)
    return samples

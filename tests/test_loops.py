import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressing_forge import (AtPoleError, HermitianProjection,
                            PoleCollisionError, RealOnePoleFactor,
                            TranslationFactor, TwoPointFactor, check_reality,
                            invert_factor, max_abs,
                            one_pole_factor, permute_factors,
                            project_onto_span, projection_distance,
                            two_pole_factor)
from dressing_forge.loops import random_lambda_samples


def pi_of(v):
    return project_onto_span(np.asarray(v, dtype=complex))


def test_normalization_at_infinity():
    g = one_pole_factor(0.3 + 0.7j, pi_of([1.0, 1.0j]))
    assert max_abs(g(np.inf) - np.eye(2)) < 1e-10
    # probe: deviation from I at |lambda| = 1e8 scales like the pole-zero gap
    probe = g(1e8 * (1 + 0.3j))
    gap = abs(g.alpha1 - g.alpha2)
    assert max_abs(probe - np.eye(2)) < 10 * gap / 1e8


def test_eval_at_conjugate_point_gives_projection():
    pi = pi_of([1.0, -0.5 + 0.2j])
    z = 0.4 + 0.9j
    g = one_pole_factor(z, pi)
    assert max_abs(g(np.conj(z)) - pi.matrix) < 1e-13


def test_real_one_pole_at_zero_is_reflection():
    pi = pi_of([1.0, 1.0])
    g = RealOnePoleFactor(0.7, pi)
    expected = pi.matrix - pi.complement
    assert max_abs(g(0.0) - expected) < 1e-13


def test_at_pole_guard():
    g = one_pole_factor(0.5j, pi_of([1.0, 0.0]))
    with pytest.raises(AtPoleError):
        g(0.5j + 1e-12)


def test_invert_is_involution_and_pointwise_inverse(rng):
    pi = pi_of([1.0, 0.3 - 0.4j])
    g = TwoPointFactor(0.2 + 0.6j, -0.8 + 0.1j, pi)
    ginv = invert_factor(g)
    assert invert_factor(ginv).alpha1 == g.alpha1
    for lam in random_lambda_samples(10, [g.alpha1, g.alpha2], rng):
        prod = g(lam) @ ginv(lam)
        assert max_abs(prod - np.eye(2)) < 1e-12


def test_trivial_projection_makes_constant_factor(rng):
    g = one_pole_factor(0.3 + 0.7j, HermitianProjection.identity(2))
    ginv = invert_factor(g)
    for lam in random_lambda_samples(5, [g.alpha1], rng):
        assert max_abs(g(lam) - np.eye(2)) < 1e-14
        assert max_abs(ginv(lam) - np.eye(2)) < 1e-14


def test_reality_real_one_pole(rng):
    g = RealOnePoleFactor(0.8, pi_of([1.0, 1.0]))
    report = check_reality(g, random_lambda_samples(12, g.poles(), rng))
    assert report["tau_reality"].residual < 1e-12
    assert report["sigma_reality"].residual < 1e-12
    assert report.passed


def test_reality_complex_one_pole_tau_only(rng):
    g = one_pole_factor(0.3 + 0.7j, pi_of([1.0, 1.0j]))
    report = check_reality(g, random_lambda_samples(12, g.poles(), rng))
    assert report["tau_reality"].residual < 1e-12
    assert report["sigma_reality"].residual > 1e-2
    assert report["sigma_reality"].passed is None  # informational only


def test_reality_imaginary_pole_one_pole_asserts_sigma(rng):
    """g_{i alpha, pi} with a real pi is sigma-real however it is built, so
    check_reality asserts sigma at 1e-10 for one_pole_factor(i alpha, pi)."""
    g = one_pole_factor(0.7j, pi_of([1.0, 1.0]))
    report = check_reality(g, random_lambda_samples(12, g.poles(), rng))
    assert report["tau_reality"].tolerance == 1e-10
    assert report["sigma_reality"].tolerance == 1e-10
    assert report["sigma_reality"].residual < 1e-12
    assert report.passed


@pytest.mark.parametrize("make, tau, sigma", [
    (lambda: RealOnePoleFactor(0.8, pi_of([1.0, 1.0])), True, True),
    (lambda: one_pole_factor(0.8j, pi_of([1.0, 1.0])), True, True),
    (lambda: one_pole_factor(-0.8j, pi_of([1.0, -2.0])), True, True),
    (lambda: one_pole_factor(0.8j, pi_of([1.0, 1.0j])), True, False),
    (lambda: one_pole_factor(0.3 + 0.7j, pi_of([1.0, 1.0])), True, False),
    (lambda: TwoPointFactor(0.8j, -0.8j + 1e-13, pi_of([1.0, 1.0])), True, True),
    (lambda: TwoPointFactor(0.8j, 0.3j, pi_of([1.0, 1.0])), False, False),
    (lambda: TwoPointFactor(0.2 + 0.6j, -0.8 + 0.1j, pi_of([1.0, 0.0])), False, False),
    (lambda: two_pole_factor(0.4 + 0.8j, pi_of([1.0, 0.5 - 0.25j])), True, True),
    (lambda: TranslationFactor(0.9, [0.2, -0.4]), True, True),
], ids=["real-one-pole", "imaginary-pole", "negative-imaginary-pole", "complex-projection",
        "complex-pole", "zero-within-axis-tol", "zero-not-conjugate", "generic", "two-pole",
        "translation"])
def test_reality_class_comes_from_the_factor_data(make, tau, sigma):
    """Every factor answers is_tau_real and is_sigma_compatible from its own
    data: a simple element is tau-real when its zero is its pole's
    conjugate, sigma-compatible when also its pole is imaginary and its
    projection real."""
    factor = make()
    assert (factor.is_tau_real, factor.is_sigma_compatible) == (tau, sigma)


def test_real_one_pole_is_the_imaginary_pole_simple_element(rng):
    """RealOnePoleFactor(a, pi) is the simple element with pole i a, zero
    -i a and projection pi: the same numbers as one_pole_factor(i a, pi)."""
    pi = pi_of([1.0, -0.3])
    g, h = RealOnePoleFactor(0.8, pi), one_pole_factor(0.8j, pi)
    assert isinstance(g, TwoPointFactor)
    assert (g.alpha, g.z, g.n, g.poles()) == (0.8, 0.8j, 2, h.poles())
    assert (g.alpha1, g.alpha2) == (h.alpha1, h.alpha2)
    for lam in random_lambda_samples(8, g.poles(), rng):
        assert np.array_equal(g(lam), h(lam))


def test_reality_generic_two_point_informational(rng):
    g = TwoPointFactor(0.2 + 0.6j, -0.8 + 0.1j, pi_of([1.0, 0.0]))
    report = check_reality(g, random_lambda_samples(8, [g.alpha1, g.alpha2], rng))
    assert report["tau_reality"].passed is None


def test_two_pole_reality_and_alternate_factorization(rng):
    z = 0.4 + 0.8j
    pi = pi_of([1.0, 0.5 - 0.25j])
    f = two_pole_factor(z, pi)
    report = check_reality(f, random_lambda_samples(12, f.poles(), rng))
    assert report["tau_reality"].residual < 1e-10
    assert report["sigma_reality"].residual < 1e-10
    # alternate ordering: f = g_{z, conj(rho)} g_{-conj(z), conj(pi)}
    left = one_pole_factor(z, f.rho.conjugate())
    right = one_pole_factor(-np.conj(z), pi.conjugate())
    for lam in random_lambda_samples(10, f.poles(), rng):
        alt = left(lam) @ right(lam)
        assert max_abs(f(lam) - alt) < 1e-10


def test_translation_factor_blocks_and_reality(rng):
    k = TranslationFactor(0.9, np.array([0.2, -0.4]))
    lam = 1.3 + 0.2j
    K = k(lam)
    assert max_abs(K[:2, :2] - np.eye(2)) == 0.0
    assert max_abs(K[:2, 2] - 1j * k.b / (lam - 0.9j)) < 1e-15
    assert K[2, 2] == 1.0
    report = check_reality(k, random_lambda_samples(8, k.poles(), rng))
    assert report.passed
    assert max_abs(k(np.inf) - np.eye(3)) == 0.0


def test_permute_factors_product_identity(rng):
    z1, z2 = 0.3 + 0.7j, -0.5 + 0.4j
    pi1, pi2 = pi_of([1.0, 1.0]), pi_of([1.0, -0.4 + 0.2j])
    rho1, rho2 = permute_factors(z1, pi1, z2, pi2)
    g1, g2 = one_pole_factor(z1, pi1), one_pole_factor(z2, pi2)
    gr1, gr2 = one_pole_factor(z1, rho1), one_pole_factor(z2, rho2)
    for lam in random_lambda_samples(20, [z1, z2], rng):
        lhs = gr2(lam) @ g1(lam)
        rhs = gr1(lam) @ g2(lam)
        assert max_abs(lhs - rhs) < 1e-10


def test_permute_factors_fixed_point():
    z1, z2 = 0.3 + 0.7j, -0.5 + 0.4j
    pi = pi_of([1.0, 1.0j])
    rho1, rho2 = permute_factors(z1, pi, z2, pi)
    assert projection_distance(rho1, pi) < 1e-12
    assert projection_distance(rho2, pi) < 1e-12


def test_permute_factors_recovers_two_pole_construction():
    # z2 = -conj(z1), pi2 = conj(pi1) makes rho2 the conjugate of rho1
    z = 0.4 + 0.8j
    pi = pi_of([1.0, 0.5 - 0.25j])
    rho1, rho2 = permute_factors(z, pi, -np.conj(z), pi.conjugate())
    assert projection_distance(rho2, rho1.conjugate()) < 1e-12
    f = two_pole_factor(z, pi)
    assert projection_distance(rho2, f.rho) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_two_pole_rho_is_the_permutability_projection(n, rng):
    """rho of f_{z,pi} is exactly rho2 of permute_factors(z, pi, -conj(z),
    conj(pi)), and exactly the projection onto g_{z,pi}(-conj(z)) conj(im
    pi) formed directly, for every rank from 1 to n - 1."""
    for rank in range(1, n):
        span = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        pi = project_onto_span(span)
        z = complex(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
        f = two_pole_factor(z, pi)
        for rho in (permute_factors(z, pi, -np.conj(z), pi.conjugate())[1],
                    project_onto_span(one_pole_factor(z, pi)(-np.conj(z)) @ pi.span.conj())):
            assert np.array_equal(f.rho.matrix, rho.matrix)
            assert np.array_equal(f.rho.span, rho.span)
            assert (f.rho.rank, f.rho.is_real) == (rho.rank, rho.is_real)


def test_permute_factors_involution(rng):
    # the recomputed pair factors the inverse loop: feeding it back with the
    # poles conjugated recovers the original projections
    z1, z2 = 0.25 + 0.9j, -0.7 + 0.5j
    pi1, pi2 = pi_of([1.0, 0.2 + 0.1j]), pi_of([0.5, 1.0])
    rho1, rho2 = permute_factors(z1, pi1, z2, pi2)
    back2, back1 = permute_factors(np.conj(z2), rho2, np.conj(z1), rho1)
    assert projection_distance(back1, pi1) < 1e-9
    assert projection_distance(back2, pi2) < 1e-9


def test_permute_factors_pole_collision():
    pi = pi_of([1.0, 0.0])
    with pytest.raises(PoleCollisionError):
        permute_factors(0.3 + 0.7j, pi, 0.3 + 0.7j, pi)
    with pytest.raises(PoleCollisionError):
        permute_factors(0.3 + 0.7j, pi, 0.3 - 0.7j, pi)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_factor_normalization_property(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    z = complex(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
    g = one_pole_factor(z, project_onto_span(v))
    assert max_abs(g(np.inf) - np.eye(3)) < 1e-10
    lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if abs(lam - z) > 0.05:
        prod = g(np.conj(lam)).conj().T @ g(lam)
        assert max_abs(prod - np.eye(3)) < 1e-12


@pytest.mark.parametrize("make", [
    lambda pi: TranslationFactor(0.5, [np.nan, 1.0]),
    lambda pi: TranslationFactor(0.5, [[0.1, 0.2], [0.3, 0.4]]),
    lambda pi: TranslationFactor(np.inf, [0.1, 0.2]),
    lambda pi: RealOnePoleFactor(np.nan, pi),
    lambda pi: one_pole_factor(complex(np.nan, 0.5), pi),
    lambda pi: TwoPointFactor(complex(np.inf, 0.5), complex(np.inf, -0.5), pi),
    lambda pi: two_pole_factor(complex(0.4, np.inf), pi),
], ids=["b-nan", "b-matrix", "translation-alpha-inf", "real-alpha-nan", "one-pole-z-nan",
        "simple-element-pole-inf", "two-pole-z-inf"])
def test_factor_constructors_reject_nonfinite_data(make):
    """Each factor constructor refuses non-finite or misshapen factor data
    with a message about finiteness, before any frame is dressed by it."""
    with pytest.raises(ValueError, match="finite"):
        make(pi_of([1.0, 0.5]))


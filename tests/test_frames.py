import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from dressing_forge import (ConstantProfile, ExtendedFrame, Grid,
                            NonFiniteError, OutOfDomainError, PolynomialProfile,
                            SampledProfile, VacuumSeed, dress_extended,
                            dress_real, dress_spherical, dress_translation,
                            dress_two_pole, frame_dlambda_at_zero, max_abs,
                            metric_from_frame, potential_on_grid,
                            project_onto_span, sample_immersion)
from dressing_forge import frames
from dressing_forge.linalg import lax_block


def split_quad(f, u, breaks=()):
    """int_0^u f(t) dt by quadrature, split at the ``breaks`` between 0 and u
    (a spline's knots, where f is only twice differentiable)."""
    ts = sorted({0.0, u, *(b for b in breaks if min(0.0, u) < b < max(0.0, u))})
    total = sum(quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
                for a, b in zip(ts, ts[1:]))
    return total if u >= 0 else -total


def quad_position_oracle(profile, u, lam, breaks=()):
    """Independent oracle: brute quadrature of int_0^u h(t) e^{i lam t} dt."""
    re = split_quad(lambda t: (profile.value(t) * np.exp(1j * lam * t)).real, u, breaks)
    im = split_quad(lambda t: (profile.value(t) * np.exp(1j * lam * t)).imag, u, breaks)
    return re + 1j * im


def test_vacuum_E_examples(torus_seed):
    assert max_abs(torus_seed.E(np.array([0.0, 0.0]), 0.77) - np.eye(2)) == 0.0
    E = torus_seed.E(np.array([0.4, -0.9]), 1.3)
    assert max_abs(E.conj().T @ E - np.eye(2)) < 1e-15
    E2 = torus_seed.E(np.array([np.pi, 0.0]), 1.0)
    assert max_abs(E2 - np.diag([-1.0, 1.0])) < 1e-14


def test_vacuum_X_basics(torus_seed):
    assert max_abs(torus_seed.X(np.array([0.0, 0.0]), 0.9)) == 0.0
    # the lambda -> 0 limit is the standard orthogonal net r_j u_j
    u = np.array([0.3, -0.5])
    X0 = torus_seed.X(u, 0.0)
    assert max_abs(X0.imag) == 0.0
    assert max_abs(X0.real - np.array([1.0, 0.7]) * u) < 1e-15
    # closed form r_j (e^{i lam u_j} - 1) / (i lam)
    lam = 0.8
    expected = np.array([1.0, 0.7]) * (np.exp(1j * lam * u) - 1) / (1j * lam)
    assert max_abs(torus_seed.X(u, lam) - expected) < 1e-14


def test_vacuum_X_small_lambda_branch(torus_seed):
    u = np.array([0.7, 0.2])
    lam = 1e-9
    series = np.array([1.0, 0.7]) * u * (1 + 1j * lam * u / 2 - (lam * u) ** 2 / 6)
    assert max_abs(torus_seed.X(u, lam) - series) < 1e-15


@pytest.mark.parametrize("lam", [0.9, -1.7, 0.4 + 0.6j, 1e-5])
def test_constant_profile_against_quadrature(lam):
    p = ConstantProfile(0.8)
    for u in (0.6, -0.45):
        assert abs(p.position_integral(u, lam) - quad_position_oracle(p, u, lam)) < 1e-11


@pytest.mark.parametrize("lam", [1.1, -0.7, 0.3 - 0.8j, 1e-6, 0.0])
def test_polynomial_profile_against_quadrature(lam):
    p = PolynomialProfile((1.0, 0.3, -0.4), (-1.0, 1.0))
    for u in (0.8, -0.6):
        assert abs(p.position_integral(u, lam) - quad_position_oracle(p, u, lam)) < 1e-10
    # exact polynomial energy integral vs quadrature
    e = quad(lambda t: p.value(t) ** 2, 0, 0.8, epsabs=1e-13)[0]
    assert abs(p.energy_integral(0.8) - e) < 1e-11


def test_sampled_profile_against_quadrature():
    knots = np.linspace(-1.0, 1.0, 9)
    values = 1.0 + 0.3 * np.sin(knots)
    p = SampledProfile(tuple(knots), tuple(values))
    for u in (0.9, -0.6, 0.25, 1.0):
        for lam in (0.7 + 0.2j, -1.3, 2.5j, 1e-7, 0.0):
            oracle = quad_position_oracle(p, u, lam, knots)
            assert abs(p.position_integral(u, lam) - oracle) < 1e-13
        e = split_quad(lambda t: p.value(t) ** 2, u, knots)
        assert abs(p.energy_integral(u) - e) < 1e-13


@pytest.mark.parametrize("lam", [0.0, 1e-200, 1e-9, 0.8 - 0.3j])
def test_degree_zero_profiles_match_the_constant_profile(lam):
    """A polynomial whose only nonzero coefficient is the constant one, and
    a sampled profile of constant samples (every spline piece (v, 0, 0, 0)),
    integrate as the constant profile does, lambda = 0 and 1e-200 included
    (the suite turns a 0/0 warning into an error)."""
    u = np.array([0.6, -0.45, 0.0, 1.0])
    want = ConstantProfile(0.7).position_integral(u, lam)
    if abs(lam) < 1e-100:
        assert max_abs(want - 0.7 * u) < 1e-15
    for coeffs in ((0.7,), (0.7, 0.0), (0.7, 0.0, 0.0, 0.0)):
        assert np.array_equal(PolynomialProfile(coeffs, (-1.0, 1.0)).position_integral(u, lam), want)
    sampled = SampledProfile(tuple(np.linspace(-1.0, 1.0, 5)), (0.7,) * 5)
    assert max_abs(sampled.position_integral(u, lam) - want) < 1e-15


def test_profile_validation():
    with pytest.raises(ValueError):
        ConstantProfile(-1.0)
    with pytest.raises(ValueError):
        PolynomialProfile((0.1, -1.0), (-1.0, 1.0))  # goes negative
    with pytest.raises(ValueError):
        SampledProfile((0.0, 0.5, 1.0, 1.5), (1.0, -0.2, 1.0, 1.0))
    with pytest.raises(ValueError):
        PolynomialProfile((1.0,), (0.5, 1.0))  # domain misses 0


def test_polynomial_positivity_is_exact():
    """A dip narrower than any sample spacing: 1e4 (t - 1/256)^2 - 1e-3 is
    -1e-3 at its critical point t = 1/256 and positive at t = 0 and at every
    point of the 257-point sampling of [-1, 1]."""
    coeffs = (1e4 / 256 ** 2 - 1e-3, -2e4 / 256, 1e4)
    ts = np.linspace(-1.0, 1.0, 257)
    assert np.all(np.polynomial.polynomial.polyval(ts, coeffs) > 0)
    assert np.polynomial.polynomial.polyval(1 / 256, coeffs) == pytest.approx(-1e-3)
    with pytest.raises(ValueError, match="stay positive"):
        PolynomialProfile(coeffs, (-1.0, 1.0))
    # the same polynomial on a domain that stops short of the dip is fine
    PolynomialProfile(coeffs, (-1.0, 0.0))
    # critical points next to roots far outside the domain are still found
    with pytest.raises(ValueError, match="stay positive"):
        PolynomialProfile((1.0, -1e308, 1e308, 1e-300, 1.0), (-1.0, 1.0))
    # t^3 scaled to a domain of 1e300 overflows: refused, not guessed at
    with pytest.raises(ValueError, match="too wide a range"):
        PolynomialProfile((1.0, 0.0, 0.0, 1.0), (-1e300, 1e300))


def test_out_of_domain():
    seed = VacuumSeed((PolynomialProfile((1.0, 0.2), (-1.0, 1.0)),
                       ConstantProfile(1.0)))
    with pytest.raises(OutOfDomainError):
        seed.X(np.array([1.5, 0.0]), 1.0)
    assert not seed.is_spherical


def _seed_E_X(seed, u, lam):
    """The seed's E and X built separately over the whole point set, profile
    by profile: E = diag(e^{i lam u_j}), X_j = profile j's own position
    integral; ``lam`` may carry leading axes of its own."""
    lam_u = lam[..., None] if isinstance(lam, np.ndarray) else lam
    phase = np.exp(1j * lam_u * u)
    E = np.zeros(phase.shape + (seed.n,), dtype=complex)
    X = np.empty(phase.shape, dtype=complex)
    for j, p in enumerate(seed.profiles):
        E[..., j, j] = phase[..., j]
        X[..., j] = p.position_integral(u[..., j], lam)
    return E, X


def _three_axis_seed():
    """Constant profiles on axes 0 and 2 around a polynomial on axis 1: the
    block writes the constant axes' X entries in one call, the other alone."""
    return VacuumSeed((ConstantProfile(1.2), PolynomialProfile((1.0, 0.3, -0.2), (-1.0, 1.0)),
                       ConstantProfile(0.8)))


@pytest.mark.parametrize("seed_name", ["constant", "constant3", "polynomial", "sampled",
                                       "three_axis"])
def test_seed_block_matches_per_profile_reference(seed_name):
    """block, E and X equal the per-profile reference bit for bit, for one
    lambda (0 among them), one lambda per point, lambdas with a leading
    axis, each for every point (an (m, 1) stack) or one per point (an
    (m, P) stack), with lambda = 0 among them, and at a single point; the
    all-constant seeds write E and X through strided slices alone, and the
    three-axis seed has constant profiles on axes 0 and 2 and a polynomial
    on axis 1."""
    seed = {**SEEDS, "three_axis": _three_axis_seed,
            "constant3": lambda: VacuumSeed.constant([1.0, 0.7, 1.3])}[seed_name]()
    U = np.random.default_rng(21).uniform(-0.6, 0.6, size=(5, seed.n))
    per_point = np.array([0.9, 0.3 - 0.4j, 0.0, 1e-3j, -1.7 + 0.2j])
    stacked = np.array([0.0, 0.6j + 3e-9, 2.1 - 0.5j])[:, None]
    rows = np.stack((per_point, per_point[::-1] * 1.3j, np.zeros(5)))
    for u, lam in ((U, 0.7 - 0.2j), (U, 0.0), (U, 0j), (U, per_point), (U, stacked),
                   (U, rows), (U[0], 0.9)):
        E, X = _seed_E_X(seed, u, lam)
        block = seed.block(u, lam)
        assert block.shape == E.shape[:-1] + (seed.n + 1,)
        assert np.array_equal(block, np.concatenate((E, X[..., None]), axis=-1))
        assert np.array_equal(seed.E(u, lam), E)
        assert np.array_equal(seed.X(u, lam), X)


@pytest.mark.parametrize("bad, axis", [((0.1, np.nan), 2), ((np.nan, 0.1), 1),
                                       ((1.5, 0.0), 1), ((-1.2, 0.3), 1)])
def test_seed_block_refuses_points_off_the_domain(bad, axis):
    """E, X and a frame over the seed refuse a point off the profile
    domain; the block itself leaves the check to them."""
    seed = SEEDS["polynomial"]()
    U = np.array([[0.2, 0.1], bad])
    for call in (seed.E, seed.X, ExtendedFrame(seed).evaluate):
        with pytest.raises(OutOfDomainError, match=f"u_{axis} = "):
            call(U, 0.9)


def test_infinite_points_are_out_of_domain(torus_seed, pi_diag):
    """A constant profile's domain is the whole axis, which holds no
    infinite point: the seed frame, a dressed frame and h refuse u_2 = ±inf
    instead of returning NaN or failing later in a projection."""
    frame = ExtendedFrame(torus_seed)
    dressed = dress_real(frame, 0.6, pi_diag)
    for call in (lambda: frame.evaluate([0.1, np.inf], 0.9),
                 lambda: dressed.evaluate([0.1, np.inf], 0.9),
                 lambda: frame.h([0.1, -np.inf])):
        with pytest.raises(OutOfDomainError, match="u_2 = -?inf outside"):
            call()


def test_seed_block_checks_the_domain_once(monkeypatch):
    """E and X check their points once per call; a frame checks a point
    set once, when it is new to the memo, and a memoised one not again."""
    seed = SEEDS["sampled"]()
    calls = []
    check = VacuumSeed._check_domain
    monkeypatch.setattr(VacuumSeed, "_check_domain",
                        lambda self, u: calls.append(1) or check(self, u))
    U = np.random.default_rng(22).uniform(-0.6, 0.6, size=(4, 2))
    frame = ExtendedFrame(seed)
    for call, checks in ((seed.E, 1), (seed.X, 1), (frame.evaluate, 1), (frame.evaluate, 0)):
        calls.clear()
        call(U, 0.9)
        assert len(calls) == checks


def test_vacuum_phi(torus_seed):
    u = np.array([0.4, -0.3])
    frame = ExtendedFrame(torus_seed)
    assert abs(frame.phi(u) - (1.0 ** 2 * 0.4 + 0.7 ** 2 * (-0.3))) < 1e-14


def test_frame_base_point_after_chain(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    for lam in (0.9, 1.7 - 0.4j):
        E, X = frame.evaluate(np.zeros(2), lam)
        assert max_abs(E - np.eye(2)) < 1e-12
        assert max_abs(X) < 1e-12


def test_frame_reality_invariants(torus_frame, pi_diag, rng):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    eye = np.eye(2)
    for _ in range(25):
        u = rng.uniform(-0.8, 0.8, size=2)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam - 0.6j) < 0.05 or abs(lam + 0.6j) < 0.05:
            continue
        E = frame.E(u, lam)
        assert max_abs(frame.E(u, np.conj(lam)).conj().T @ E - eye) < 1e-10
        assert max_abs(E.T @ frame.E(u, -lam) - eye) < 1e-10
        if abs(lam.imag) < 1e-12:
            assert max_abs(E.conj().T @ E - eye) < 1e-10


def test_partial_invariance_of_spherical_frames(torus_frame, pi_perp_torus, rng):
    # E(u, 0) h(u) = h(0) for spherical seeds, before and after spherical dressing
    h0 = torus_frame.h(np.zeros(2)).real
    frame = dress_real(torus_frame, 0.8, pi_perp_torus)
    for _ in range(10):
        u = rng.uniform(-0.7, 0.7, size=2)
        E0 = frame.E(u, 0.0)
        assert max_abs(E0 @ frame.h(u) - h0) < 1e-10


def test_position_equation_convergence(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    lam = 0.9

    def residual(m):
        grid = Grid.from_specs([(-0.4, 0.4, m)] * 2)
        sample = sample_immersion(frame, grid, lam)
        pts = grid.points()
        worst = 0.0
        for axis in range(2):
            dX = np.gradient(sample.X, grid.spacing(axis), axis=axis, edge_order=2)
            for idx in grid.indices():
                u = pts[idx]
                worst = max(worst, max_abs(dX[idx] - frame.h(u)[axis] * frame.E(u, lam)[:, axis]))
        return worst

    r1, r2 = residual(9), residual(17)
    assert 3.2 < r1 / r2 < 4.8


def test_near_pole_evaluation_holomorphy(torus_frame, pi_diag):
    """The dressed X has vanishing residues at the dressing poles: the
    implementation near a pole must agree with the naive rational formula away
    from it, the contour integral around the pole must vanish, and the value
    at the pole must equal the contour mean (Cauchy)."""
    alpha = 0.6
    frame = dress_real(torus_frame, alpha, pi_diag)
    u = np.array([0.35, -0.55])
    z = 1j * alpha
    rec = frame.history[0]
    data = rec.point_data(frame, 0, u)

    def naive(lam):
        # direct rational update from the cached record data (independent of
        # the residue-subtracted implementation path)
        E0, X0 = torus_frame.evaluate(u, lam)
        c = np.conj(z) - z
        Pi, Pp = pi_diag.matrix, pi_diag.complement
        g = Pp + (lam - z) / (lam - np.conj(z)) * Pi
        return g @ (X0 - c / (lam - z) * (E0 @ data.pe))

    for offset in (1e-3, -1e-3, 1e-3j, -1e-3j):
        for pole in (z, np.conj(z)):
            lam = pole + offset
            assert max_abs(frame.X(u, lam) - naive(lam)) < 1e-10

    # residue: (1/2 pi i) contour integral of X around the pole vanishes
    theta = 2 * np.pi * np.arange(64) / 64
    for pole in (z, np.conj(z)):
        ws = pole + 1e-2 * np.exp(1j * theta)
        vals = np.stack([frame.X(u, w) for w in ws])
        residue = np.mean(vals * (ws - pole)[:, None], axis=0)
        assert max_abs(residue) < 1e-9
        mean_value = np.mean(vals, axis=0)  # Cauchy mean-value property
        assert max_abs(frame.X(u, pole) - mean_value) < 1e-9


def test_frame_dlambda_at_zero(torus_frame, pi_perp_torus):
    u = np.array([0.3, -0.2])
    # vacuum: dE/dlambda(u, 0) = i diag(u)
    D = frame_dlambda_at_zero(torus_frame.E, u)
    assert max_abs(D - 1j * np.diag(u)) < 1e-10
    # Richardson self-consistency on a dressed frame
    frame = dress_real(torus_frame, 0.8, pi_perp_torus)
    D1 = frame_dlambda_at_zero(frame.E, u, step=1e-3)
    D2 = frame_dlambda_at_zero(frame.E, u, step=5e-4)
    assert max_abs(D1 - D2) < 1e-8
    # -i dE/dlambda(u,0) h(u) is real for spherical seeds
    net = -1j * frame_dlambda_at_zero(frame.E, u) @ frame.h(u)
    assert max_abs(net.imag) < 1e-9


def test_metric_from_frame_vacuum(torus_frame):
    grid = Grid.from_specs([(-0.5, 0.5, 7), (-0.5, 0.5, 7)])
    metric = metric_from_frame(torus_frame, grid)
    assert metric.imag_max == 0.0 and np.all(metric.h.real > 0)
    assert max_abs(metric.beta) == 0.0
    assert max_abs(metric.h.real - np.array([1.0, 0.7])) < 1e-14
    pts = grid.points()
    expected_phi = pts[..., 0] * 1.0 + pts[..., 1] * 0.49
    assert max_abs(potential_on_grid(torus_frame, grid) - expected_phi) < 1e-12
    assert max_abs(metric.phi - expected_phi) < 1e-12


def test_metric_from_frame_sweeps_only_the_grid(torus_frame, pi_diag):
    """Sampling the metric of a chain with a closed potential takes the pole
    data of one point set, the grid's: nothing else is evaluated."""
    frame = dress_real(torus_frame, 0.6, pi_diag)
    metric_from_frame(frame, Grid.from_specs([(-0.4, 0.4, 5)] * 2))
    assert len(frame._memo) == 1


def test_metric_sampled_seed_potential():
    knots = np.linspace(-1.0, 1.0, 9)
    seed = VacuumSeed((SampledProfile(tuple(knots), tuple(1.0 + 0.3 * np.sin(knots))),
                       ConstantProfile(0.9)))
    frame = ExtendedFrame(seed)
    u = np.array([0.6, -0.4])
    expect = split_quad(lambda t: seed.profiles[0].value(t) ** 2, 0.6, knots) + 0.81 * (-0.4)
    assert abs(frame.phi(u) - expect) < 1e-13


def test_dressed_beta_symmetric_zero_diagonal(torus_frame, pi_diag, rng):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    for _ in range(8):
        u = rng.uniform(-0.7, 0.7, size=2)
        beta = frame.beta(u)
        assert max_abs(np.diag(beta)) == 0.0
        assert max_abs(beta - beta.T) < 1e-10
        assert max_abs(beta.imag) < 1e-10


def test_potential_path_order_independence(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    grid = Grid.from_specs([(-0.5, 0.5, 17)] * 2)
    p01 = potential_on_grid(frame, grid, (0, 1))
    p10 = potential_on_grid(frame, grid, (1, 0))
    assert max_abs(p01 - p10) < 1e-8


@pytest.mark.parametrize("chunk", [40, 7])
def test_potential_on_grid_chunks_match_one_point_set(torus3_frame, monkeypatch, chunk):
    """Cutting a sweep axis's staircase points into point sets of at most
    POINT_BLOCK points (several lines per set, or parts of a line longer
    than the cap) changes no value, on a 3-D chain with a translation (no
    closed potential)."""
    frame = dress_translation(
        dress_real(torus3_frame, 0.6, project_onto_span(np.ones(3) / np.sqrt(3))),
        0.9, [0.2, -0.1, 0.15])
    grid = Grid.from_specs([(-0.4, 0.4, 5), (-0.3, 0.5, 4), (-0.5, 0.2, 6)])
    whole = potential_on_grid(frame, grid, (2, 0, 1))
    sizes, h = [], ExtendedFrame.h

    def counting_h(self, u):
        sizes.append(np.size(u) // 3)
        return h(self, u)

    monkeypatch.setattr(ExtendedFrame, "h", counting_h)
    monkeypatch.setattr(frames, "POINT_BLOCK", chunk)
    chunked = potential_on_grid(frame, grid, (2, 0, 1))
    # the longest line has 13 points (7 knots with 0, 6 midpoints)
    assert max(sizes) <= chunk and len(sizes) > 3
    assert max_abs(chunked - whole) <= 1e-15


def test_lax_connection_vacuum_block(torus_frame):
    u = np.array([0.2, 0.1])
    block = lax_block(torus_frame.beta(u), 0, 1.5, torus_frame.h(u))
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 0] = 1.5j
    expect[0, 2] = 1.0
    assert max_abs(block - expect) < 1e-15


# -- array-form evaluation over point sets -----------------------------------

_KNOTS = np.linspace(-1.0, 1.0, 9)
SEEDS = {
    "constant": lambda: VacuumSeed.constant([1.0, 0.7]),
    "polynomial": lambda: VacuumSeed((PolynomialProfile((1.0, 0.3, -0.2), (-1.0, 1.0)),
                                      ConstantProfile(0.8))),
    "sampled": lambda: VacuumSeed((SampledProfile(tuple(_KNOTS), tuple(1.0 + 0.3 * np.sin(_KNOTS))),
                                   ConstantProfile(0.9))),
}
COMPLEX_Z = 0.3 + 0.9j
TRANSLATION_ALPHA = 1.7


def _chain(seed, closed_only):
    """Every record type on the seed: spherical (constant seed only), real
    one-pole, and unless ``closed_only`` complex one-pole, two-pole and
    translation."""
    frame = ExtendedFrame(seed)
    if seed.is_spherical:
        frame = dress_spherical(frame, 0.8, project_onto_span(np.array([0.7, -1.0])))
    frame = dress_real(frame, 0.6, project_onto_span(np.array([1.0, 1.0])))
    if not closed_only:
        frame = dress_extended(frame, COMPLEX_Z, project_onto_span(np.array([1.0, 0.5 + 0.3j])))
        frame = dress_two_pole(frame, 0.5 + 1.3j, project_onto_span(np.array([1.0, 0.2 - 0.4j])))
        frame = dress_translation(frame, TRANSLATION_ALPHA, [0.1, -0.2])
    return frame


# off-pole (real and complex), lambda = 0, and within 1e-8 of chain poles
# (real one-pole pole, complex conjugate pole, translation pole)
LAMBDAS = [0.9, 0.3 - 0.4j, 0.0, 0.6j + 3e-9, np.conj(COMPLEX_Z) + 3e-9j,
           1j * TRANSLATION_ALPHA - 3e-9]


@pytest.mark.parametrize("closed_only", [True, False], ids=["closed", "all-records"])
@pytest.mark.parametrize("seed_name", list(SEEDS))
def test_batched_evaluation_matches_single_points(seed_name, closed_only):
    frame = _chain(SEEDS[seed_name](), closed_only)
    U = np.random.default_rng(11).uniform(-0.6, 0.6, size=(4, 2))
    for lam in LAMBDAS if not closed_only else LAMBDAS[:4]:
        E, X = frame.evaluate(U, lam)
        assert E.shape == (4, 2, 2) and X.shape == (4, 2)
        for p, u in enumerate(U):
            E1, X1 = frame.evaluate(u, lam)
            assert E1.shape == (2, 2) and X1.shape == (2,)
            assert max_abs(E[p] - E1) < 1e-13
            assert max_abs(X[p] - X1) < 1e-13
    h, beta, phi = frame.h(U), frame.beta(U), frame.phi(U)
    assert h.shape == (4, 2) and beta.shape == (4, 2, 2)
    assert (phi is None) == (not closed_only)
    for p, u in enumerate(U):
        assert max_abs(h[p] - frame.h(u)) < 1e-13
        assert max_abs(beta[p] - frame.beta(u)) < 1e-13
        if closed_only:
            assert isinstance(frame.phi(u), float)
            assert abs(phi[p] - frame.phi(u)) < 1e-13


@pytest.mark.parametrize("seed_name", list(SEEDS))
def test_per_point_lambda_matches_scalar_calls(seed_name):
    """One call with a lambda per point (off-pole, exactly 0, and within
    3e-9 of three chain poles, so direct and contour values mix) equals the
    one-point, one-lambda calls row by row."""
    frame = _chain(SEEDS[seed_name](), closed_only=False)
    lams = np.array(LAMBDAS * 2)[np.random.default_rng(5).permutation(2 * len(LAMBDAS))]
    U = np.random.default_rng(12).uniform(-0.6, 0.6, size=(len(lams), 2))
    E, X = frame.evaluate(U, lams)
    assert E.shape == (len(lams), 2, 2) and X.shape == (len(lams), 2)
    for p, (u, lam) in enumerate(zip(U, lams)):
        E1, X1 = frame.evaluate(u, complex(lam))
        assert max_abs(E[p] - E1) < 1e-13
        assert max_abs(X[p] - X1) < 1e-13
    assert max_abs(frame.E(U, lams) - E) == 0 and max_abs(frame.X(U, lams) - X) == 0


def test_per_point_lambda_broadcasts_against_leading_shape(torus_frame, pi_diag):
    frame = dress_extended(dress_real(torus_frame, 0.6, pi_diag), COMPLEX_Z,
                           project_onto_span(np.array([1.0, 0.5 + 0.3j])))
    U = np.random.default_rng(13).uniform(-0.5, 0.5, size=(3, 4, 2))
    per_point = np.arange(12).reshape(3, 4) * (0.2 - 0.1j) - 1.0
    for lam in (per_point, per_point[0], per_point[:, :1], np.array(0.7 - 0.2j), 0.7 - 0.2j):
        E, X = frame.evaluate(U, lam)
        assert E.shape == (3, 4, 2, 2) and X.shape == (3, 4, 2)
        full = np.broadcast_to(lam, (3, 4))
        for q in range(3):
            for r in range(4):
                E1, X1 = frame.evaluate(U[q, r], complex(full[q, r]))
                assert max_abs(E[q, r] - E1) < 1e-13 and max_abs(X[q, r] - X1) < 1e-13
    # one point with lambda of shape (1,) is a stack of one lambda
    E, X = frame.evaluate(U[0, 0], per_point[0, :1])
    assert E.shape == (1, 2, 2) and X.shape == (1, 2)
    for bad_U, bad_lam in ((U, per_point[:2]), (U, per_point.T), (U, per_point[..., None]),
                           (U[:, :1], per_point), (U[:1, 0], per_point[0])):
        with pytest.raises(ValueError, match="do not broadcast"):
            frame.evaluate(bad_U, bad_lam)


def _stack_chains():
    """A one-pole, a two-pole and a translation chain on the constant seed,
    each after a real one-pole record."""
    real = dress_real(ExtendedFrame(SEEDS["constant"]()), 0.6,
                      project_onto_span(np.array([1.0, 1.0])))
    return {
        "one_pole": lambda: dress_extended(real, COMPLEX_Z,
                                           project_onto_span(np.array([1.0, 0.5 + 0.3j]))),
        "two_pole": lambda: dress_two_pole(real, 0.5 + 1.3j,
                                           project_onto_span(np.array([1.0, 0.2 - 0.4j]))),
        "translation": lambda: dress_translation(real, TRANSLATION_ALPHA, [0.1, -0.2]),
    }


@pytest.mark.parametrize("block", [None, 4], ids=["one-block", "block-4"])
@pytest.mark.parametrize("chain", ["one_pole", "two_pole", "translation"])
def test_lambda_stack_rows_equal_their_own_calls(chain, block, monkeypatch):
    """Every row of a lambda-stacked evaluation is bit for bit its own
    one-lambda call: a stack at one point, a stack of one lambda per row at
    11 points, and an (m, P) stack of one lambda per (row, point) pair
    (its own call is the row's one-lambda-per-point call), with entries in
    the contour bands of every record's poles.  With POINT_BLOCK at 4 the
    stacks run across block boundaries."""
    if block is not None:
        monkeypatch.setattr(frames, "POINT_BLOCK", block)
    frame = _stack_chains()[chain]()
    rng = np.random.default_rng(21)
    U = rng.uniform(-0.5, 0.5, size=(11, 2))
    # off-pole, 0, and within 3e-9 of the real, complex, two-pole and
    # translation poles
    lams = np.array(LAMBDAS + [0.5 + 1.3j - 3e-9, -0.5 + 1.3j + 3e-9j])
    # two banded pairs in each row of the (m, P) stack, and a row all in one band
    pairs = rng.uniform(-1.5, 1.5, size=(len(lams), len(U))) + 0.2j
    banded = lams[3:]
    for i in range(len(lams)):
        pairs[i, [i, (i + 5) % len(U)]] = banded[i % len(banded)], banded[(i + 1) % len(banded)]
    pairs[-1] = banded[0]
    for u, stack, own in ((U[4], lams, lambda i: complex(lams[i])),
                          (U, lams[:, None], lambda i: complex(lams[i])),
                          (U, pairs, lambda i: pairs[i])):
        E, X = frame.evaluate(u, stack)
        assert E.shape == (len(lams),) + np.shape(u)[:-1] + (2, 2)
        for i in range(len(lams)):
            E1, X1 = frame.evaluate(u, own(i))
            assert np.array_equal(E[i], E1) and np.array_equal(X[i], X1)


def test_a_stack_of_one_lambda_per_row_stays_one_per_row(monkeypatch):
    """A stack of lambdas each for every point reaches the band check and
    the seed block as (m, 1), not spread over the points; its one row in a
    contour band is spread to its points for the contour alone.  Every
    row is bit for bit its own one-lambda call."""
    frame = _stack_chains()["two_pole"]()
    U = np.random.default_rng(24).uniform(-0.5, 0.5, size=(11, 2))
    # the third lambda is 3e-9 from the two-pole record's pole
    lams = np.array([0.9, -0.4 + 0.7j, 0.5 + 1.3j - 3e-9, 1.7j, -2.1])
    frame.evaluate(U, 0.9)
    shapes = {"band": [], "block": []}
    radius, block = ExtendedFrame._contour_radius, VacuumSeed.block

    def spy_radius(self, lam, depth):
        shapes["band"].append(np.shape(lam))
        return radius(self, lam, depth)

    def spy_block(self, u, lam, out=None):
        shapes["block"].append(np.shape(lam))
        return block(self, u, lam, out)
    monkeypatch.setattr(ExtendedFrame, "_contour_radius", spy_radius)
    monkeypatch.setattr(VacuumSeed, "block", spy_block)
    E, X = frame.evaluate(U, lams[:, None])
    assert shapes == {"band": [(5, 1)], "block": [(5, 1), (frames.CONTOUR_NODES, len(U))]}
    for i, lam in enumerate(lams):
        E1, X1 = frame.evaluate(U, complex(lam))
        assert np.array_equal(E[i], E1) and np.array_equal(X[i], X1)


def test_lambda_stack_axes_lead_the_result():
    """Lambda's axes beyond u's leading shape lead the results, the rest
    broadcast against it; a lambda that would enlarge u's leading shape is
    refused, and a stack on no points, or a stack of no lambdas, is empty."""
    frame = _stack_chains()["one_pole"]()
    U = np.random.default_rng(22).uniform(-0.5, 0.5, size=(3, 4, 2))
    lam = np.arange(8).reshape(2, 1, 4) * (0.2 - 0.1j) - 0.7
    E, X = frame.evaluate(U, lam)
    assert E.shape == (2, 3, 4, 2, 2) and X.shape == (2, 3, 4, 2)
    for k in range(2):
        E1, X1 = frame.evaluate(U, np.broadcast_to(lam[k], (3, 4)))
        assert np.array_equal(E[k], E1) and np.array_equal(X[k], X1)
    assert frame.evaluate(U, lam[..., None, None])[0].shape == (2, 1, 4, 3, 4, 2, 2)
    for bad_U, bad_lam in ((U[:, :1], lam[0]), (U[0, :1], lam[0, 0]), (U, lam[..., :3])):
        with pytest.raises(ValueError, match="do not broadcast"):
            frame.evaluate(bad_U, bad_lam)
    E, X = frame.evaluate(np.empty((0, 2)), lam[:, :, :1])
    assert E.shape == (2, 1, 0, 2, 2) and X.shape == (2, 1, 0, 2)
    assert frame.evaluate(U[0], np.empty((0, 1)))[0].shape == (0, 4, 2, 2)


def test_batched_evaluation_keeps_leading_shape(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    pts = Grid.from_specs([(-0.4, 0.4, 3), (-0.4, 0.4, 5)]).points()
    E, X = frame.evaluate(pts, 0.9)
    assert E.shape == (3, 5, 2, 2) and X.shape == (3, 5, 2)
    assert frame.h(pts).shape == (3, 5, 2) and frame.phi(pts).shape == (3, 5)
    assert max_abs(E[2, 1] - frame.E(pts[2, 1], 0.9)) < 1e-13
    empty = np.empty((0, 2))
    assert frame.evaluate(empty, 0.9)[0].shape == (0, 2, 2)
    assert frame.h(empty).shape == (0, 2) and frame.beta(empty).shape == (0, 2, 2)
    assert frame.phi(empty).shape == (0,)


def test_out_of_domain_row_fails_whole_batch():
    frame = _chain(SEEDS["polynomial"](), closed_only=False)
    U = np.array([[0.2, 0.1], [1.5, 0.0], [-0.3, 0.4]])
    for call in (lambda: frame.evaluate(U, 0.9), lambda: frame.h(U),
                 lambda: frame.beta(U)):
        with pytest.raises(OutOfDomainError, match="u_1 = 1.5"):
            call()
    assert frame.h(U[[0, 2]]).shape == (2, 2)


def test_scalar_calls_keep_memory_bounded(torus_frame, pi_diag):
    """Many single-point calls at distinct points must not accumulate
    per-point state: the frame keeps only its most recent point sets."""
    frame = dress_real(torus_frame, 0.6, pi_diag)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(10_000, 2))
    for u in pts[:9_000]:
        frame.h(u)
    # trace only the last calls (tracing slows every allocation): what they
    # leave behind must not grow with the number of calls
    tracemalloc.start()
    try:
        for u in pts[9_000:9_500]:
            frame.h(u)
        warm = tracemalloc.get_traced_memory()[0]
        for u in pts[9_500:]:
            frame.h(u)
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


def test_threads_sharing_a_frame_get_single_thread_results(torus_frame, pi_diag):
    """The per-frame memo is shared state: threads that evaluate one frame at
    more point sets than the memo holds must see the single-thread values."""
    frame = dress_real(dress_real(torus_frame, 0.6, pi_diag), 1.1,
                       project_onto_span(np.array([1.0, -0.3])))
    sets = [np.random.default_rng(k).uniform(-0.5, 0.5, size=(3, 2)) for k in range(12)]
    reference = [dress_real(dress_real(torus_frame, 0.6, pi_diag), 1.1,
                            project_onto_span(np.array([1.0, -0.3]))).evaluate(U, 0.7)[1]
                 for U in sets]
    failures = []

    def worker(offset):
        for rep in range(10):
            for k in range(len(sets)):
                i = (k + offset) % len(sets)
                if max_abs(frame.evaluate(sets[i], 0.7)[1] - reference[i]) > 1e-13:
                    failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


@pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0.3, -np.inf), np.array(np.nan),
                                 np.array([0.9, np.nan, 0.4]), [0.9, 0.5, np.inf]],
                         ids=["nan", "inf", "imag-inf", "0d-nan", "per-point-nan",
                              "per-point-inf"])
def test_evaluate_rejects_nonfinite_lambda(lam, torus3_frame):
    """A NaN or infinite lambda, one for all points or one per point, is
    refused instead of giving NaN blocks."""
    frame = dress_real(torus3_frame, 0.6, project_onto_span(np.ones(3) / np.sqrt(3)))
    U = np.zeros((3, 3))
    with pytest.raises(NonFiniteError, match="finite"):
        frame.evaluate(U, lam)


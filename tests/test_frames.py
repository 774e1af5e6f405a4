import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from dressing_forge import (ConstantProfile, ExtendedFrame, Grid,
                            OutOfDomainError, PolynomialProfile,
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


@pytest.mark.parametrize("seed_name", ["constant", "polynomial", "sampled"])
def test_seed_block_matches_per_profile_reference(seed_name):
    """block, E and X equal the per-profile reference bit for bit, for one
    lambda, one lambda per point, and lambdas with a leading axis (with
    lambda = 0 among them), and at a single point."""
    seed = SEEDS[seed_name]()
    U = np.random.default_rng(21).uniform(-0.6, 0.6, size=(5, 2))
    per_point = np.array([0.9, 0.3 - 0.4j, 0.0, 1e-3j, -1.7 + 0.2j])
    stacked = np.array([0.0, 0.6j + 3e-9, 2.1 - 0.5j])[:, None]
    for u, lam in ((U, 0.7 - 0.2j), (U, 0.0), (U, per_point), (U, stacked), (U[0], 0.9)):
        E, X = _seed_E_X(seed, u, lam)
        block = seed.block(u, lam)
        assert block.shape == E.shape[:-1] + (3,)
        assert np.array_equal(block, np.concatenate((E, X[..., None]), axis=-1))
        assert np.array_equal(seed.E(u, lam), E)
        assert np.array_equal(seed.X(u, lam), X)


@pytest.mark.parametrize("bad, axis", [((0.1, np.nan), 2), ((np.nan, 0.1), 1),
                                       ((1.5, 0.0), 1), ((-1.2, 0.3), 1)])
def test_seed_block_refuses_points_off_the_domain(bad, axis):
    seed = SEEDS["polynomial"]()
    U = np.array([[0.2, 0.1], bad])
    for call in (seed.block, seed.E, seed.X):
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
    seed = SEEDS["sampled"]()
    calls = []
    check = VacuumSeed._check_domain
    monkeypatch.setattr(VacuumSeed, "_check_domain",
                        lambda self, u: calls.append(1) or check(self, u))
    U = np.random.default_rng(22).uniform(-0.6, 0.6, size=(4, 2))
    for call in (seed.block, seed.E, seed.X, ExtendedFrame(seed).evaluate):
        calls.clear()
        call(U, 0.9)
        assert len(calls) == 1


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
    assert metric.is_real and metric.h_positive
    assert max_abs(metric.beta) == 0.0
    assert max_abs(metric.h.real - np.array([1.0, 0.7])) < 1e-14
    pts = grid.points()
    expected_phi = pts[..., 0] * 1.0 + pts[..., 1] * 0.49
    assert max_abs(potential_on_grid(torus_frame, grid) - expected_phi) < 1e-12
    assert max_abs(metric.phi - expected_phi) < 1e-12


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
    """Chunking a sweep axis into whole staircase lines (several lines per
    chunk, or one line when a line alone exceeds the cap) changes no value,
    on a 3-D chain with a translation (no closed potential)."""
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
    monkeypatch.setattr(frames, "POTENTIAL_CHUNK", chunk)
    chunked = potential_on_grid(frame, grid, (2, 0, 1))
    # the longest line has 13 points (7 knots with 0, 6 midpoints)
    assert max(sizes) <= max(chunk, 13) and len(sizes) > 3
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
    3e-9 of three chain poles, so direct and Taylor quotients mix) equals the
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
    for bad_U, bad_lam in ((U, per_point[:2]), (U, per_point.T), (U, per_point[..., None]),
                           (U[0, 0], per_point[0, :1])):
        with pytest.raises(ValueError, match="do not broadcast"):
            frame.evaluate(bad_U, bad_lam)


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

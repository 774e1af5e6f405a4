import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dressing_forge import (ExtendedFrame, Grid, HermitianProjection,
                            PoleCollisionError, RealOnePoleFactor,
                            SphericalViolationError, TranslationFactor,
                            TwoPointFactor,
                            VacuumSeed, check_sphere, dress, dress_extended,
                            dress_permuted,
                            dress_real, dress_spherical,
                            dress_spherical_family, dress_translation,
                            dress_two_pole, max_abs, metric_from_frame,
                            potential_on_grid, project_onto_span,
                            projection_distance, sample_immersion,
                            one_pole_factor, solve_linear, two_pole_factor)
from dressing_forge import dressing, frames


def simple_eval(pi_mat, pole, zero, lam):
    n = pi_mat.shape[0]
    return pi_mat + (lam - zero) / (lam - pole) * (np.eye(n) - pi_mat)


def _step_data(frame, u, depth=None):
    """The pole data of the frame's first ``depth`` steps (all by default)
    at the single point u, one per step: a two-pole record's parts in turn."""
    U = np.asarray(u, dtype=float).reshape(1, frame.n)
    depth = len(frame.steps) if depth is None else depth
    return [d.rows(0) for d in frame.pole_data(U, depth)[:depth]]


def test_base_point_pinning(torus_frame, pi_diag):
    alpha = 0.6
    frame = dress_real(torus_frame, alpha, pi_diag)
    rec = frame.history[0]
    data = rec.point_data(frame, 0, np.zeros(2))
    assert max_abs(data.pi_tilde - pi_diag.matrix) < 1e-12
    assert max_abs(data.eta) < 1e-14
    assert max_abs(frame.h(np.zeros(2)) - torus_frame.h(np.zeros(2))) < 1e-13
    assert abs(frame.phi(np.zeros(2))) < 1e-14
    expected_beta0 = -2 * alpha * (pi_diag.matrix - np.diag(np.diag(pi_diag.matrix)))
    assert max_abs(frame.beta(np.zeros(2)) - expected_beta0) < 1e-12


def test_zero_projection_is_identity_transformation(torus_frame, rng):
    frame = dress_extended(torus_frame, 0.3 + 0.7j, HermitianProjection.zero(2))
    for _ in range(5):
        u = rng.uniform(-0.6, 0.6, size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if min(abs(lam - 0.3 - 0.7j), abs(lam - 0.3 + 0.7j)) < 0.05:
            continue
        E0, X0 = torus_frame.evaluate(u, lam)
        E1, X1 = frame.evaluate(u, lam)
        assert max_abs(E0 - E1) < 1e-13
        assert max_abs(X0 - X1) < 1e-13
        assert max_abs(frame.h(u) - torus_frame.h(u)) < 1e-13
        assert max_abs(frame.beta(u)) < 1e-13


def test_full_projection_leaves_E_unchanged(torus_frame, rng):
    # pi = I makes the n x n factor constant, so the E-block is untouched;
    # the scalar block of the (n+1)-extension still shifts X and h
    frame = dress_extended(torus_frame, 0.3 + 0.7j, HermitianProjection.identity(2))
    u = np.array([0.4, -0.2])
    lam = 1.1
    assert max_abs(frame.E(u, lam) - torus_frame.E(u, lam)) < 1e-12
    assert max_abs(frame.h(u) - torus_frame.h(u)) > 1e-3


def test_complex_dressing_tau_reality(torus_frame, rng):
    pi = project_onto_span(np.array([1.0, 0.5 + 0.3j]))
    frame = dress_extended(torus_frame, 0.3 + 0.7j, pi)
    eye = np.eye(2)
    for _ in range(15):
        u = rng.uniform(-0.7, 0.7, size=2)
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if min(abs(lam - 0.3 - 0.7j), abs(lam - 0.3 + 0.7j)) < 0.05:
            continue
        assert max_abs(frame.E(u, np.conj(lam)).conj().T @ frame.E(u, lam) - eye) < 1e-10


def test_real_dressing_everything_real(torus_frame, pi_diag, rng):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    rec = frame.history[0]
    for _ in range(10):
        u = rng.uniform(-0.8, 0.8, size=2)
        data = rec.point_data(frame, 0, u)
        assert max_abs(data.pi_tilde.imag) < 1e-10
        assert max_abs(data.eta.imag) < 1e-10
        assert max_abs(frame.h(u).imag) < 1e-10
        assert max_abs(frame.beta(u).imag) < 1e-10


def test_real_dressing_residue_formula(torus_frame, pi_diag):
    """Residue of the dressed X at lambda = -i alpha:
    -2 i alpha pi (X_{-ia} - E_{-ia} pi_tilde E_{ia}^t X_{-ia}) must vanish."""
    alpha = 0.6
    frame = dress_real(torus_frame, alpha, pi_diag)
    rec = frame.history[0]
    grid = Grid.from_specs([(-0.5, 0.5, 5)] * 2)
    pts = grid.points()
    worst = 0.0
    for idx in grid.indices():
        u = pts[idx]
        data = rec.point_data(frame, 0, u)
        E_m, X_m = torus_frame.evaluate(u, -1j * alpha)
        E_p, _ = torus_frame.evaluate(u, 1j * alpha)
        res = -2j * alpha * pi_diag.matrix @ (
            X_m - E_m @ data.pi_tilde @ E_p.T @ X_m)
        worst = max(worst, max_abs(res))
    assert worst < 1e-9


def test_eta_variant_discriminated_by_residue(torus_frame, pi_diag):
    """Evaluating eta at the pole instead of its conjugate breaks the
    residue-vanishing property of the raw rational update: the naive formula
    acquires a genuine pole at the conjugate point.  (The implementation's
    residue-subtracted form regularizes either way, so the naive formula is
    reconstructed here: from the record data for the implemented eta, and
    the rejected eta = E(u, zbar)^{-1} X(u, z) from the seed frame.)"""
    alpha = 0.6
    z = 1j * alpha
    u = np.array([0.4, -0.3])
    theta = 2 * np.pi * np.arange(64) / 64
    ws = np.conj(z) + 1e-2 * np.exp(1j * theta)
    frame = dress_extended(torus_frame, z, pi_diag)
    data = frame.history[0].point_data(frame, 0, u)
    E_zbar, _ = torus_frame.evaluate(u, np.conj(z))
    _, X_z = torus_frame.evaluate(u, z)
    pe_rejected = data.pi_tilde @ np.linalg.solve(E_zbar, X_z)

    def naive_residue(pe):
        c = np.conj(z) - z

        def naive(lam):
            E0, X0 = torus_frame.evaluate(u, lam)
            g = pi_diag.complement + (lam - z) / (lam - np.conj(z)) * pi_diag.matrix
            return g @ (X0 - c / (lam - z) * (E0 @ pe))

        vals = np.stack([naive(w) for w in ws])
        return max_abs(np.mean(vals * (ws - np.conj(z))[:, None], axis=0))

    assert naive_residue(data.pe) < 1e-9
    assert naive_residue(pe_rejected) > 1e-4


def test_translation_identity_and_base_point(torus_frame, rng):
    frame0 = dress_translation(torus_frame, 0.9, np.zeros(2))
    u = rng.uniform(-0.5, 0.5, size=2)
    E0, X0 = torus_frame.evaluate(u, 1.3)
    E1, X1 = frame0.evaluate(u, 1.3)
    assert max_abs(E0 - E1) == 0.0
    assert max_abs(X0 - X1) < 1e-14
    b = np.array([0.15, -0.25])
    frame = dress_translation(torus_frame, 0.9, b)
    assert max_abs(frame.h(np.zeros(2)) - (torus_frame.h(np.zeros(2)) + b)) < 1e-13
    # the shifted X is holomorphic at the factor pole
    u2 = np.array([0.3, 0.2])
    X_pole = frame.X(u2, 0.9j)
    X_near = frame.X(u2, 0.9j + 1e-8)
    assert np.all(np.isfinite(X_pole))
    assert max_abs(X_pole - X_near) < 1e-6


def test_translation_beta_unchanged_bit_for_bit(torus_frame, pi_diag, rng):
    base = dress_real(torus_frame, 0.6, pi_diag)
    frame = dress_translation(base, 0.9, np.array([0.15, -0.25]))
    for _ in range(5):
        u = rng.uniform(-0.6, 0.6, size=2)
        assert np.array_equal(frame.beta(u), base.beta(u))


def test_translation_h_solves_same_linear_system(torus_frame, pi_diag):
    # (h_i)_{u_j} = beta_ij h_j for i != j with the untouched beta
    base = dress_real(torus_frame, 0.6, pi_diag)
    frame = dress_translation(base, 0.9, np.array([0.2, -0.1]))

    def residual(m):
        grid = Grid.from_specs([(-0.4, 0.4, m)] * 2)
        pts = grid.points()
        h = np.empty(grid.shape + (2,), dtype=complex)
        beta = np.empty(grid.shape + (2, 2), dtype=complex)
        for idx in grid.indices():
            h[idx] = frame.h(pts[idx])
            beta[idx] = frame.beta(pts[idx])
        worst = 0.0
        for j in range(2):
            dh = np.gradient(h, grid.spacing(j), axis=j, edge_order=2)
            for i in range(2):
                if i != j:
                    worst = max(worst, max_abs(dh[..., i] - beta[..., i, j] * h[..., j]))
        return worst

    r1, r2 = residual(9), residual(17)
    assert 3.2 < r1 / r2 < 4.8


def test_translation_composition_matches_r_factor(torus_frame, pi_diag, rng):
    """The composite r_{i alpha, pi, b} = k_{-i alpha, -2 alpha b} g_{i alpha, pi}
    shifts h to h - 2 alpha (pi_tilde eta + E_dressed(u, -i alpha)^{-1} b)."""
    alpha, b = 0.6, np.array([0.3, -0.1])
    g_frame = dress_real(torus_frame, alpha, pi_diag)
    full = dress_translation(g_frame, -alpha, -2 * alpha * b)
    rec = g_frame.history[0]
    for _ in range(6):
        u = rng.uniform(-0.6, 0.6, size=2)
        data = rec.point_data(g_frame, 0, u)
        y = solve_linear(g_frame.E(u, -1j * alpha), b.astype(complex))
        expected = torus_frame.h(u) - 2 * alpha * (data.pe + y)
        assert max_abs(full.h(u) - expected) < 1e-11


def test_spherical_dressing(torus_frame, pi_perp_torus, rng):
    alpha = 0.8
    frame = dress_spherical(torus_frame, alpha, pi_perp_torus)
    h0 = torus_frame.h(np.zeros(2)).real
    rec = frame.history[0]
    assert max_abs(frame.h(np.zeros(2)).real - h0) < 1e-12
    for _ in range(10):
        u = rng.uniform(-0.8, 0.8, size=2)
        h = frame.h(u)
        assert abs(np.linalg.norm(h) - np.linalg.norm(h0)) < 1e-10
        # alpha pi_tilde eta = pi_tilde h (the spherical simplification)
        data = rec.point_data(frame, 0, u)
        assert max_abs(alpha * data.pe - data.pi_tilde @ torus_frame.h(u)) < 1e-9
        # h_new = h - 2 pi_tilde h
        assert max_abs(h - (torus_frame.h(u) - 2 * data.pi_tilde @ torus_frame.h(u))) < 1e-10
        # potential: phi - (2/alpha) h^t pi_tilde h
        hv = torus_frame.h(u)
        expected_phi = torus_frame.phi(u) - 2.0 / alpha * float(np.real(hv @ (data.pi_tilde @ hv)))
        assert abs(frame.phi(u) - expected_phi) < 1e-10
    # sphere containment of the dressed immersion
    grid = Grid.from_specs([(-0.6, 0.6, 7)] * 2)
    for lam in (0.9, -1.4):
        sample = sample_immersion(frame, grid, lam)
        report = check_sphere(sample, h0, tol=1e-9)
        assert report.passed, str(report)


def test_records_are_frozen(torus_frame, pi_diag, pi_perp_torus):
    spherical = dress_spherical(torus_frame, 0.8, pi_perp_torus)
    frame = dress_translation(dress_real(spherical, 0.6, pi_diag), 1.3, [0.1, 0.2])
    # dress_spherical sets the flag when it builds the record
    assert [rec.sphere_preserving for rec in frame.history[:2]] == [True, False]
    for rec in frame.history[:2]:
        with pytest.raises(FrozenInstanceError):
            rec.sphere_preserving = True
    # a translation never preserves |h|
    assert spherical.is_partial_invariant
    assert not dress_translation(spherical, 1.3, [0.1, 0.2]).is_partial_invariant
    with pytest.raises(FrozenInstanceError):
        frame.history[1].z = 0.5j
    with pytest.raises(FrozenInstanceError):
        frame.history[2].b = np.zeros(2)
    # a two-pole factor is one record, frozen like its one-pole parts
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    (rec,) = dress_two_pole(torus_frame, 0.4 + 0.8j, pi).history
    assert rec.is_sigma_compatible and rec.potential_gap is None
    for owner, attr in ((rec, "first"), (rec, "is_sigma_compatible"), (rec.second, "z")):
        with pytest.raises(FrozenInstanceError):
            setattr(owner, attr, None)


def test_spherical_violation_refused(torus_frame, pi_diag):
    # pi_diag's image is not orthogonal to h(0) = (1, 0.7)
    with pytest.raises(SphericalViolationError):
        dress_spherical(torus_frame, 0.8, pi_diag)
    # nearly-orthogonal data sits in the refusal band: no silent repair
    v = np.array([0.7, -1.0]) + 1e-8 * np.array([1.0, 0.7])
    pi_near = project_onto_span(v / np.linalg.norm(v))
    with pytest.raises(SphericalViolationError):
        dress_spherical(torus_frame, 0.8, pi_near)


def test_two_pole_dressing_real_and_pinned(torus_frame, rng):
    z = 0.4 + 0.8j
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    frame = dress_two_pole(torus_frame, z, pi)
    assert max_abs(frame.h(np.zeros(2)) - torus_frame.h(np.zeros(2))) < 1e-12
    for _ in range(8):
        u = rng.uniform(-0.7, 0.7, size=2)
        assert max_abs(frame.h(u).imag) < 1e-9
        beta = frame.beta(u)
        assert max_abs(beta.imag) < 1e-9
        assert max_abs(beta - beta.T) < 1e-9
    E0, X0 = frame.evaluate(np.zeros(2), 1.1)
    assert max_abs(E0 - np.eye(2)) < 1e-12
    assert max_abs(X0) < 1e-12


def test_two_pole_matches_transport_formulas(torus_frame):
    """The second record's transported data must match the explicit
    permutability transport: rho_tilde from g_{z,pi_tilde}(-conj z) applied to
    E(u,-conj z)^{-1} im(conj pi), and eta_12 from the eta-transport rule."""
    z = 0.4 + 0.8j
    zb = np.conj(z)
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    frame = dress_two_pole(torus_frame, z, pi)
    (rec,) = frame.history
    for u in (np.array([0.3, -0.5]), np.array([-0.2, 0.6])):
        d1, d2 = _step_data(frame, u)
        # rho_tilde transport
        E_mzb = torus_frame.E(u, -zb)
        span = solve_linear(E_mzb, pi.span.conj())
        W = simple_eval(d1.pi_tilde, z, zb, -zb) @ span
        rho_tilde = project_onto_span(W)
        assert max_abs(d2.pi_tilde - rho_tilde.matrix) < 1e-10
        # eta transport: g_{zbar, pi_tilde_perp}(-z) eta_2 + (zbar-z)/(zbar+z) pi_tilde eta_1
        eta2 = solve_linear(torus_frame.E(u, -z), torus_frame.X(u, -z))
        g = simple_eval(np.eye(2) - d1.pi_tilde, zb, z, -z)
        eta12 = g @ eta2 + (zb - z) / (zb + z) * d1.pe
        assert max_abs(d2.eta - eta12) < 1e-10
        # accumulated h matches the closed two-pole formula
        expected_h = (torus_frame.h(u) + 1j * (z - zb) * (d1.pe + d2.pe))
        assert max_abs(frame.h(u) - expected_h) < 1e-12


def test_two_pole_equals_loop_factor_on_E(torus_frame, rng):
    """The composite E-dressing equals conjugation by the two-pole loop factor
    with the transported projections (sanity against the loop module)."""
    z = 0.4 + 0.8j
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    factor = two_pole_factor(z, pi)
    frame = dress_two_pole(torus_frame, z, pi)
    u = np.array([0.25, -0.45])
    lam = 1.3 + 0.4j
    E_direct = frame.E(u, lam)
    # left product: f_{z,pi}(lam) E(u,lam) [transported factors]^{-1}
    d1, d2 = _step_data(frame, u)
    left = factor(lam) @ torus_frame.E(u, lam)
    right = (simple_eval(d2.pi_tilde, -np.conj(z), -z, lam)
             @ simple_eval(d1.pi_tilde, z, np.conj(z), lam))
    assert max_abs(E_direct - left @ np.linalg.inv(right)) < 1e-10


def test_dress_permuted_report_and_formulas(torus_frame):
    z1, z2 = 0.3 + 0.7j, -0.5 + 0.4j
    pi1 = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    pi2 = project_onto_span(np.array([1.0, -0.4 + 0.2j]))
    f12, f21, report = dress_permuted(torus_frame, z1, pi1, z2, pi2,
                                      grid=Grid.from_specs([(-0.5, 0.5, 6)] * 2))
    assert report.passed, str(report)
    # h_12 = h + i(z1 - conj z1) pi1_tilde eta_1 + i(z2 - conj z2) rho2_tilde eta_12
    u = np.array([0.35, -0.25])
    rec1, rec2 = f12.history
    d1 = rec1.point_data(f12, 0, u)
    d2 = rec2.point_data(f12, 1, u)
    expected = (torus_frame.h(u) + 1j * (z1 - np.conj(z1)) * d1.pe
                + 1j * (z2 - np.conj(z2)) * d2.pe)
    assert max_abs(f12.h(u) - expected) < 1e-12
    assert max_abs(f12.h(u) - f21.h(u)) < 1e-10


def test_dress_permuted_explicit_immersion_formula(torus_frame):
    """The composed immersion equals the explicit double-transport display:
    X_12 = g_{zb2, rho2_perp} g_{zb1, pi1_perp} (X - c1/(lam-z1) E pt1 eta1
           - c2/(lam-z2) E g_{z1, pt1_perp} rt2 eta12)."""
    z1, z2 = 0.3 + 0.7j, -0.5 + 0.4j
    pi1 = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    pi2 = project_onto_span(np.array([1.0, -0.4 + 0.2j]))
    f12, _, _ = dress_permuted(torus_frame, z1, pi1, z2, pi2,
                               grid=Grid.from_specs([(-0.3, 0.3, 3)] * 2))
    rho2 = f12.history[1].projection
    u = np.array([0.35, -0.25])
    d1 = f12.history[0].point_data(f12, 0, u)
    d2 = f12.history[1].point_data(f12, 1, u)
    for lam in (1.3, 0.4 - 0.9j, -1.1 + 0.2j):
        E, X = torus_frame.evaluate(u, lam)
        c1, c2 = np.conj(z1) - z1, np.conj(z2) - z2
        inner = (X - c1 / (lam - z1) * (E @ d1.pe)
                 - c2 / (lam - z2) * (E @ simple_eval(np.eye(2) - d1.pi_tilde,
                                                      z1, np.conj(z1), lam)
                                      @ d2.pe))
        outer = (simple_eval(rho2.complement, np.conj(z2), z2, lam)
                 @ simple_eval(pi1.complement, np.conj(z1), z1, lam))
        assert max_abs(f12.X(u, lam) - outer @ inner) < 1e-10


def test_dress_permuted_trivial_when_equal(torus_frame):
    pi = project_onto_span(np.array([1.0, 1.0j]))
    f12, f21, report = dress_permuted(torus_frame, 0.3 + 0.7j, pi, -0.5 + 0.4j, pi,
                                      grid=Grid.from_specs([(-0.4, 0.4, 4)] * 2))
    assert report.passed
    # recomputed projections equal the originals when both inputs share pi
    assert projection_distance(f12.history[0].projection, pi) < 1e-12
    assert projection_distance(f12.history[1].projection, pi) < 1e-12


def test_dress_refuses_simple_element_not_tau_real(torus_frame, pi_diag):
    with pytest.raises(ValueError, match="conjugate of its pole"):
        dress(torus_frame, TwoPointFactor(0.6j, 0.3j, pi_diag))
    assert len(dress(torus_frame, one_pole_factor(0.6j, pi_diag)).history) == 1


def test_dress_marks_only_a_one_pole_record_sphere_preserving(torus_frame, pi_perp_torus):
    """sphere_preserving marks a one-pole record and is refused, not
    dropped, for a two-pole or a translation factor."""
    frame = dress(torus_frame, RealOnePoleFactor(0.8, pi_perp_torus), sphere_preserving=True)
    assert frame.history[0].sphere_preserving and frame.is_partial_invariant
    assert not dress(torus_frame, RealOnePoleFactor(0.8, pi_perp_torus)).is_partial_invariant
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    for factor in (two_pole_factor(0.4 + 0.8j, pi), TranslationFactor(0.9, [0.2, -0.4])):
        with pytest.raises(ValueError, match="only a one-pole factor"):
            dress(torus_frame, factor, sphere_preserving=True)
        assert len(dress(torus_frame, factor).history) == 1


def test_real_one_pole_factor_dresses_like_the_imaginary_pole_one_pole(torus3_frame, rng):
    """RealOnePoleFactor(a, pi) and one_pole_factor(i a, pi) dress to bit
    for bit the same E, X, h, beta and phi, after a two-pole record too."""
    pi = project_onto_span(np.ones(3) / np.sqrt(3.0))
    prefix = dress_two_pole(torus3_frame, 0.4 + 0.8j,
                            project_onto_span(np.array([1.0, 0.5 - 0.25j, 0.3])))
    U = rng.uniform(-0.4, 0.4, size=(6, 3))
    for frame in (torus3_frame, prefix):
        real = dress(frame, RealOnePoleFactor(0.6, pi))
        simple = dress(frame, one_pole_factor(0.6j, pi))
        assert real.is_sigma_compatible and simple.is_sigma_compatible
        for lam in (0.9, 0.35 + 0.6j, 0.6j + 1e-9):
            for a, b in zip(real.evaluate(U, lam), simple.evaluate(U, lam)):
                assert np.array_equal(a, b)
        for name in ("h", "beta", "phi"):
            assert np.array_equal(getattr(real, name)(U), getattr(simple, name)(U))


def test_pole_collision_guard(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    with pytest.raises(PoleCollisionError):
        dress_extended(frame, 0.6j, pi_diag)


def test_group_action_undo(torus_frame):
    """Dressing by g_{z,pi} then by the swapped-point factor g_{conj z, pi}
    multiplies to the identity loop: the metric returns to the vacuum.  The
    undo record's transported data is evaluated exactly at the first record's
    pole, exercising the pole-free rearrangement."""
    z = 0.3 + 0.7j
    pi = project_onto_span(np.array([1.0, 0.5 + 0.3j]))
    once = dress_extended(torus_frame, z, pi)
    undone = dress_extended(once, np.conj(z), pi)
    grid = Grid.from_specs([(-0.5, 0.5, 5)] * 2)
    pts = grid.points()
    for idx in grid.indices():
        u = pts[idx]
        assert max_abs(undone.h(u) - torus_frame.h(u)) < 1e-9
        assert max_abs(undone.beta(u)) < 1e-9
    E, X = undone.evaluate(np.array([0.3, -0.4]), 0.9)
    E0, X0 = torus_frame.evaluate(np.array([0.3, -0.4]), 0.9)
    assert max_abs(E - E0) < 1e-9
    assert max_abs(X - X0) < 1e-9


def test_dress_frame_E_unit(torus_frame, pi_diag, rng):
    """The E-block of a one-pole dressed frame: pinned projection at the base
    point, both reality conditions, and no change under the identity
    projection."""
    frame = dress_extended(torus_frame, 0.6j, pi_diag)
    pi_at_origin = frame.history[0].point_data(frame, 0, np.zeros(2)).pi_tilde
    assert max_abs(pi_at_origin - pi_diag.matrix) < 1e-12
    eye = np.eye(2)
    for _ in range(8):
        u = rng.uniform(-0.7, 0.7, size=2)
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if min(abs(lam - 0.6j), abs(lam + 0.6j)) < 0.05:
            continue
        E = frame.E(u, lam)
        assert max_abs(frame.E(u, np.conj(lam)).conj().T @ E - eye) < 1e-10
        assert max_abs(E.T @ frame.E(u, -lam) - eye) < 1e-10
    # identity projection leaves E untouched
    frame_id = dress_extended(torus_frame, 0.6j, HermitianProjection.identity(2))
    u = np.array([0.3, 0.2])
    assert max_abs(frame_id.E(u, 1.1) - torus_frame.E(u, 1.1)) < 1e-12


def test_spherical_family_trivial(torus_frame):
    factor = RealOnePoleFactor(0.8, HermitianProjection.zero(2))
    c = torus_frame.h(np.zeros(2)).real
    family = dress_spherical_family(torus_frame, factor, c)
    u = np.array([0.4, -0.3])
    assert max_abs(family.h(u) - torus_frame.h(u).real) < 1e-12
    X = family.X(u, 0.9)
    assert max_abs(X - torus_frame.X(u, 0.9)) < 1e-11


def test_spherical_family_dressed(torus_frame, pi_perp_torus, rng):
    factor = RealOnePoleFactor(0.8, pi_perp_torus)
    c = np.array([0.9, 0.5])
    family = dress_spherical_family(torus_frame, factor, c)
    for _ in range(8):
        u = rng.uniform(-0.7, 0.7, size=2)
        h = family.h(u)
        assert abs(np.linalg.norm(h) - np.linalg.norm(c)) < 1e-10
        lam = rng.choice([0.7, -1.3, 2.1])
        X = family.X(u, lam)
        assert abs(np.linalg.norm(X - family.center(lam)) - family.radius(lam)) < 1e-10
    net = family.net(np.array([0.3, -0.2]))
    assert np.all(np.isfinite(net))


def test_spherical_family_takes_any_sigma_compatible_one_pole(torus_frame, pi_perp_torus):
    """The family takes one_pole_factor(i alpha, pi) with a real pi, the
    same generator as RealOnePoleFactor(alpha, pi), and refuses a
    sigma-incompatible one-pole factor and a translation."""
    c = np.array([0.9, 0.5])
    u = np.array([0.3, -0.2])
    family = dress_spherical_family(torus_frame, one_pole_factor(0.8j, pi_perp_torus), c)
    real = dress_spherical_family(torus_frame, RealOnePoleFactor(0.8, pi_perp_torus), c)
    assert np.array_equal(family.h(u), real.h(u))
    assert np.array_equal(family.X(u, 0.7), real.X(u, 0.7))
    for factor in (one_pole_factor(0.3 + 0.8j, pi_perp_torus), TranslationFactor(0.9, [0.2, -0.4])):
        with pytest.raises(ValueError, match="sigma-compatible generator"):
            dress_spherical_family(torus_frame, factor, c)


def test_spherical_family_two_pole(torus_frame):
    z = 0.4 + 0.8j
    pi = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    family = dress_spherical_family(torus_frame, two_pole_factor(z, pi),
                                    np.array([1.0, 0.7]))
    u = np.array([0.3, -0.4])
    h = family.h(u)
    assert abs(np.linalg.norm(h) - np.linalg.norm([1.0, 0.7])) < 1e-10
    X = family.X(u, 1.2)
    assert abs(np.linalg.norm(X - family.center(1.2)) - family.radius(1.2)) < 1e-10


def _real_and_two_pole(n):
    """Real one-pole plus two-pole chain on a constant seed of dimension n."""
    radii, span = {2: ([1.0, 0.7], [1.0, 0.5 - 0.25j]),
                   3: ([1.0, 0.7, 1.3], [1.0, 0.5 - 0.25j, 0.3])}[n]
    frame = dress_real(ExtendedFrame(VacuumSeed.constant(radii)), 0.6,
                       project_onto_span(np.ones(n) / np.sqrt(n)))
    return dress_two_pole(frame, 0.4 + 0.8j, project_onto_span(np.array(span)))


@pytest.mark.parametrize("n, sizes", [(2, (21, 41, 81)), (3, (9, 17, 33))])
def test_two_pole_closed_potential_matches_staircase_at_order_4(n, sizes):
    """The closed-form potential of a chain with a two-pole record is the
    limit of the Simpson staircase integral: the gap shrinks 16-fold per
    halving of the spacing (at least 12-fold asserted), and is real."""
    frame = _real_and_two_pole(n)
    assert frame.has_closed_potential
    errors = []
    for m in sizes:
        grid = Grid.from_specs([(-0.4, 0.4, m)] * n)
        gap = potential_on_grid(frame, grid) - frame.phi(grid.points())
        assert max_abs(gap.imag) < 1e-12
        errors.append(max_abs(gap))
    assert all(coarse / fine >= 12 for coarse, fine in zip(errors, errors[1:])), errors


def test_metric_from_frame_skips_staircase_for_closed_chains(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("potential_on_grid called for a closed-potential chain")
    monkeypatch.setattr(frames, "potential_on_grid", refuse)
    frame = _real_and_two_pole(2)
    grid = Grid.from_specs([(-0.4, 0.4, 9)] * 2)
    metric = metric_from_frame(frame, grid)
    assert metric.phi_is_closed and metric.phi.dtype == complex
    assert np.array_equal(metric.phi.real, frame.phi(grid.points()))
    with pytest.raises(AssertionError, match="closed-potential chain"):
        metric_from_frame(dress_translation(frame, 1.3, [0.1, 0.2]), grid)


def _kinds():
    """One dressing of each record kind on an n = 3 frame, poles apart."""
    b = np.array([0.2, -0.1, 0.15])
    return {
        "real": lambda f: dress_real(f, 0.6, project_onto_span(np.ones(3) / np.sqrt(3))),
        "complex": lambda f: dress_extended(
            f, 0.3 + 0.7j, project_onto_span(np.array([1.0, -0.4 + 0.2j, 0.5j]))),
        "two_pole": lambda f: dress_two_pole(
            f, 0.4 + 0.8j, project_onto_span(np.array([1.0, 0.5 - 0.25j, 0.3]))),
        "translation": lambda f: dress_translation(f, 0.9, b),
    }


def _chain_ending_in(kind):
    """The other three kinds, then ``kind``: its prefix has depth 3 and runs
    through every other record kind."""
    kinds = _kinds()
    frame = ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3]))
    for name in [k for k in kinds if k != kind] + [kind]:
        frame = kinds[name](frame)
    return frame


def _contours(frame):
    """(depth, point) for every sensitive point of the last record's steps,
    at the depth that ends in its step (for a two-pole record's first part,
    the prefix frame without the second)."""
    first = frame.step_count(len(frame.history) - 1)
    return [(k + 1, p) for k in range(first, len(frame.steps))
            for p in frame.steps[k].pole_rows]


def _spy_stacks(monkeypatch):
    """Record (lambda, block) of every lambda-stacked evaluation the frame's
    steps run (lambda of two dimensions, nodes or rows against the points)."""
    stacks = []
    steps = ExtendedFrame._steps

    def spy(self, U, lam, data):
        F = steps(self, U, lam, data)
        if isinstance(lam, np.ndarray) and lam.ndim == 2:
            stacks.append((lam, F))
        return F
    monkeypatch.setattr(ExtendedFrame, "_steps", spy)
    return stacks


@pytest.mark.parametrize("kind", ["real", "complex", "two_pole", "translation"])
@pytest.mark.parametrize("P", [1, 5])
def test_circle_values_match_node_by_node_prefix(kind, P, monkeypatch, rng):
    """At and within 1e-8 of each sensitive point of the last record, the
    contour's one lambda-stacked evaluation of the prefix frame gives the
    16 node values on |w - lambda| = R that evaluating it node by node
    gives, and the block there is their mean."""
    frame = _chain_ending_in(kind)
    U = rng.uniform(-0.4, 0.4, size=(P, 3))
    frame.pole_data(U, len(frame.steps))
    stacks = _spy_stacks(monkeypatch)
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    for depth, p in _contours(frame):
        for lam in (p, p + 1e-8 * np.exp(0.7j)):
            radius = frame._contour_radius(lam, depth)
            assert radius > 0
            stacks.clear()
            F = frame._block(U, lam, depth)
            stacked = np.concatenate([F for _, F in stacks])
            oracle = np.stack([frame._block(U, w, depth) for w in lam + radius * angles])
            assert stacked.shape == (frames.CONTOUR_NODES, P, 3, 4)
            assert max_abs(stacked - oracle) <= 1e-15
            assert np.array_equal(F, stacked.mean(axis=0))


def test_translation_block_update_matches_rational_formula(torus3_frame, rng):
    """Off the poles, a translation after a real one-pole record gives
    X = g (X0 - c/(lam-z) E0 pe) - i (E1 y - b)/(lam - i alpha_t), with
    E1 = g E0 g_tilde^{-1}, from the records' point data."""
    pi = project_onto_span(np.ones(3) / np.sqrt(3))
    alpha, alpha_t, b = 0.6, 0.9, np.array([0.2, -0.1, 0.15])
    frame = dress_translation(dress_real(torus3_frame, alpha, pi), alpha_t, b)
    z, zb = 1j * alpha, -1j * alpha
    for _ in range(3):
        u = rng.uniform(-0.4, 0.4, size=3)
        d1 = frame.history[0].point_data(frame, 0, u)
        y = frame.history[1].point_data(frame, 1, u).y
        for lam in (1.3, 0.4 - 0.9j, -1.1 + 0.2j, 0.25 + 0.45j):
            E0, X0 = torus3_frame.evaluate(u, lam)
            g = simple_eval(pi.complement, zb, z, lam)
            E1 = g @ E0 @ simple_eval(np.eye(3) - d1.pi_tilde, z, zb, lam)
            X1 = g @ (X0 - (zb - z) / (lam - z) * (E0 @ d1.pe))
            E, X = frame.evaluate(u, lam)
            assert max_abs(E - E1) < 1e-12
            assert max_abs(X - (X1 - 1j * (E1 @ y - b) / (lam - 1j * alpha_t))) < 1e-12


def test_two_pole_block_update_matches_rational_formula(torus3_frame, rng):
    """Off the poles, the two-pole record's X is the double-transport display
    of its two parts, built from its point data."""
    z = 0.4 + 0.8j
    frame = dress_two_pole(torus3_frame, z, project_onto_span(np.array([1.0, 0.5 - 0.25j, 0.3])))
    rec = frame.history[0]
    pi, rho = rec.first.projection, rec.second.projection
    z1, z2 = z, -np.conj(z)
    c1, c2 = np.conj(z1) - z1, np.conj(z2) - z2
    for _ in range(3):
        u = rng.uniform(-0.4, 0.4, size=3)
        d1, d2 = _step_data(frame, u)
        for lam in (1.3, 0.4 - 0.9j, -1.1 + 0.2j, 0.1 + 0.3j):
            E, X = torus3_frame.evaluate(u, lam)
            inner = (X - c1 / (lam - z1) * (E @ d1.pe)
                     - c2 / (lam - z2) * (E @ simple_eval(np.eye(3) - d1.pi_tilde,
                                                          z1, np.conj(z1), lam) @ d2.pe))
            outer = (simple_eval(rho.complement, np.conj(z2), z2, lam)
                     @ simple_eval(pi.complement, np.conj(z1), z1, lam))
            assert max_abs(frame.X(u, lam) - outer @ inner) < 1e-12


@pytest.mark.parametrize("P", [1, 5])
@pytest.mark.parametrize("prefix", ["none", "translation"])
def test_two_pole_record_equals_its_parts(prefix, P, rng):
    """Dressing by a two-pole factor gives E, X, h and beta bit for bit equal
    to dressing by its one-pole parts g_{z,pi}, then g_{-conj(z),rho}: off
    the poles, within 1e-8 of each of the four poles and exactly on them,
    on the bare seed and after a real record and a translation."""
    kinds = _kinds()
    frame = ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3]))
    if prefix == "translation":
        frame = kinds["translation"](kinds["real"](frame))
    z = 0.4 + 0.8j
    factor = two_pole_factor(z, project_onto_span(np.array([1.0, 0.5 - 0.25j, 0.3])))
    whole = dress(frame, factor)
    parts = dress(dress(frame, one_pole_factor(z, factor.projection)),
                  one_pole_factor(-np.conj(z), factor.rho))
    U = rng.uniform(-0.4, 0.4, size=(P, 3))
    poles = (z, np.conj(z), -np.conj(z), -z)
    lams = [0.9, 0.3 - 1.1j, -1.2 + 0.5j] + [p + 1e-8 * np.exp(0.7j) for p in poles] + list(poles)
    for lam in lams:
        for a, b in zip(whole.evaluate(U, lam), parts.evaluate(U, lam)):
            assert np.array_equal(a, b)
    assert np.array_equal(whole.h(U), parts.h(U))
    assert np.array_equal(whole.beta(U), parts.beta(U))
    # the record's two steps' pole data, and a later record's point data,
    # are those of the parts' records at the same steps
    whole, parts = (dress_real(f, 1.5, project_onto_span(np.array([0.6, 0.0, 0.8])))
                    for f in (whole, parts))
    k = len(whole.history) - 2
    got = _step_data(whole, U[0])[-3:-1] + [whole.history[k + 1].point_data(whole, k + 1, U[0])]
    want = [rec.point_data(parts, i, U[0]) for i, rec in enumerate(parts.history) if i >= k]
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert np.array_equal(a.F_poles, b.F_poles) and np.array_equal(a.blocks, b.blocks)


@pytest.mark.parametrize("warm", ["h", "evaluate", "last_record"])
def test_point_data_after_deeper_memo(warm, rng):
    """A record's point data do not depend on how deep the memo at u
    already runs: after the whole frame (or the last record's point data)
    was evaluated at u, the steps of every earlier record, one-pole,
    two-pole and translation, give the data of a fresh frame evaluated to
    the end of that record, bit for bit."""
    u = rng.uniform(-0.4, 0.4, size=3)
    frame = _sweep_chains()["mixed"]()
    warm_up = {"h": lambda: frame.h(u),
               "evaluate": lambda: frame.evaluate(u, 0.9),
               "last_record": lambda: frame.history[-1].point_data(frame, len(frame.history) - 1, u)}
    warm_up[warm]()
    for i, record in enumerate(frame.history):
        k, m = frame.step_count(i), len(record.steps)
        got = _step_data(frame, u, k + m)[k:]
        fresh = _sweep_chains()["mixed"]()
        want = _step_data(fresh, u, k + m)[k:]
        assert len(got) == len(want) == m
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert all(np.array_equal(x, y) for x, y in zip(_data_arrays(a), _data_arrays(b)))


@pytest.mark.parametrize("kind", ["translation", "two_pole"])
def test_near_pole_block_values_are_continuous(kind, rng):
    """From |lambda - pole| = 1e-9 to 1e-3, log-uniformly, the frame differs
    from its value exactly at the pole by the distance times one slope
    (within 2%), at every pole of the record, for a single point and a
    point set: the contour values join the pole smoothly."""
    frame = _chain_ending_in(kind)
    U = rng.uniform(-0.4, 0.4, size=(5, 3))
    direction = np.exp(0.7j)

    def gap(u, a, b):
        Ea, Xa = frame.evaluate(u, a)
        Eb, Xb = frame.evaluate(u, b)
        return max(max_abs(Ea - Eb), max_abs(Xa - Xb))

    for pole in (p for step in frame.history[-1].steps for p in step.pole_rows):
        for u in (U[0], U):
            slope = gap(u, pole + 1e-6 * direction, pole) / 1e-6
            for d in np.logspace(-9, -3, 7):
                assert gap(u, pole + d * direction, pole) / d == pytest.approx(slope, rel=0.02)


@pytest.mark.parametrize("depth, tol", [(1, 1e-13), (3, 1e-13), (8, 1e-11)])
def test_near_pole_sweep_keeps_reality(depth, tol):
    """tau- and sigma-reality, E(conj lambda)^* E(lambda) = I and
    E(lambda)^t E(-lambda) = I, hold to ``tol`` with |lambda - p| swept
    log-uniformly over [1e-9, 1e-1] at every sensitive point p of the real
    chain of the first ``depth`` records alpha = 0.5 + 0.2 k, at 4 angles
    and 3 points: one evaluation per lambda, with lambda per point."""
    frame = ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3]),
                          _sweep_chains()["real8"]().history[:depth])
    points = np.random.default_rng(31).uniform(-0.4, 0.4, size=(3, 3))
    offsets = np.outer(np.logspace(-9, -1, 17), np.exp(1j * np.array([0.3, 1.9, 3.5, 5.1])))
    lam = np.add.outer(np.array(frame.sensitive_points()), offsets.ravel()).ravel()
    U = np.repeat(points, len(lam), axis=0)
    lam = np.tile(lam, len(points))
    E = frame.E(U, lam)
    eye = np.eye(3)
    tau = max_abs(frame.E(U, lam.conj()).conj().swapaxes(-1, -2) @ E - eye)
    sigma = max_abs(E.swapaxes(-1, -2) @ frame.E(U, -lam) - eye)
    assert tau < tol and sigma < tol


def _sweep_chains():
    """Chains whose pole data a sweep stacks, each on the n = 3 constant seed."""
    kinds = _kinds()
    spans = np.random.default_rng(8).normal(size=(8, 3))

    def chain(*steps):
        frame = ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3]))
        for step in steps:
            frame = step(frame)
        return frame

    def real(alpha, span):
        return lambda f: dress_real(f, alpha, project_onto_span(span / np.linalg.norm(span)))

    return {
        "real8": lambda: chain(*(real(0.5 + 0.2 * k, spans[k]) for k in range(8))),
        "complex": lambda: chain(*(lambda f, z=z, v=v: dress_extended(f, z, project_onto_span(v))
                                   for z, v in ((0.3 + 0.7j, np.array([1.0, -0.4 + 0.2j, 0.5j])),
                                                (-0.5 + 1.1j, np.array([0.2j, 1.0, 0.3])),
                                                (0.8 + 0.4j, np.array([1.0, 1.0, -1j]))))),
        "two_pole": lambda: chain(
            kinds["two_pole"],
            lambda f: dress_two_pole(f, -0.6 + 1.2j, project_onto_span(np.array([0.3j, 1.0, 0.2]))),
            real(1.5, spans[0])),
        "translation": lambda: chain(real(0.6, spans[1]), kinds["translation"],
                                     lambda f: dress_translation(f, 1.4, [0.0, 0.3, -0.2]),
                                     real(1.1, spans[2])),
        "mixed": lambda: chain(kinds["real"], kinds["complex"], kinds["two_pole"],
                               kinds["translation"], real(1.3, spans[3])),
        # the second record's poles sit exactly on the first one's
        "conjugate": lambda: chain(real(0.6, spans[4]), real(-0.6, spans[5])),
        "two_pole_conjugate": lambda: chain(
            kinds["two_pole"],
            lambda f: dress_extended(f, -0.4 - 0.8j, project_onto_span(np.array([1.0, 0.3j, -0.2])))),
        # poles 0.05 apart, so their distance caps the contour radii
        "close": lambda: chain(real(0.6, spans[6]), real(0.65, spans[7])),
    }


def _data_arrays(data):
    """Every array a step's pole data hold."""
    if isinstance(data, dressing._TranslationData):
        return [data.y]
    return [data.F_poles, data.blocks]


def _record_pole_data(step, prefix):
    """The per-step path: the block of the prefix (frame, U, k) evaluated
    once per pole, the step's data read off those rows."""
    frame, U, k = prefix
    return step.take_pole_data(np.stack([frame._block(U, w, k) for w in step.pole_rows]))


def _per_record_pole_data(frame, U):
    """Pole data step by step (a two-pole record's parts in turn), on a
    copy of the frame whose memo this path fills itself, so each prefix
    evaluation sees only the steps before it."""
    oracle = ExtendedFrame(frame.seed, frame.history)
    data = oracle._memo.setdefault(U.tobytes(), [])
    for k, step in enumerate(frame.steps):
        data.append(_record_pole_data(step, (oracle, U, k)))
    return data


def _assert_same_pole_data(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        arrays_a, arrays_b = _data_arrays(a), _data_arrays(b)
        assert len(arrays_a) == len(arrays_b)
        assert all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b))


@pytest.mark.parametrize("P", [1, 5])
@pytest.mark.parametrize("chain", list(_sweep_chains()))
def test_pole_data_sweep_matches_per_record_prefix(chain, P, rng):
    """One lambda-stacked sweep gives bit for bit the pole data that
    evaluating each step's prefix at its own poles gives, cold and from a
    memo already filled to the steps of 3 records."""
    make = _sweep_chains()[chain]
    U = rng.uniform(-0.4, 0.4, size=(P, 3))
    frame = make()
    want = _per_record_pole_data(frame, U)
    _assert_same_pole_data(frame.pole_data(U, len(frame.steps)), want)
    warm = make()
    depth = min(3, len(warm.history) - 1)
    warm.evaluate(U, 0.9 - 0.3j, depth=depth)
    steps = len([s for rec in warm.history[:depth] for s in rec.steps])
    assert len(warm.pole_data(U, 0)) == steps
    _assert_same_pole_data(warm.pole_data(U, len(warm.steps)), want)


@pytest.mark.parametrize("chain", ["conjugate", "two_pole_conjugate"])
def test_pole_data_sweep_takes_the_contour_on_a_conjugate_pole(chain, monkeypatch, rng):
    """A step whose poles are the previous step's conjugate poles: the sweep
    reads that step's rows, exactly at the previous step's poles, off the
    contour at the step's own depth (for a two-pole record's second part,
    the depth that ends in the first), as the per-step path does.
    dress_real(0.6) then dress_real(-0.6), and a two-pole record at z then a
    one-pole record at conj(-conj(z))."""
    frame = _sweep_chains()[chain]()
    *_, earlier, last = frame.steps
    assert last.pole_rows == earlier.pole_rows[::-1]
    contours = []
    block = ExtendedFrame._block

    def spy(self, U, lam, depth):
        if self._contour_radius(lam, depth).any():
            contours.append((depth, lam))
        return block(self, U, lam, depth)
    monkeypatch.setattr(ExtendedFrame, "_block", spy)
    U = rng.uniform(-0.4, 0.4, size=(5, 3))
    got = frame.pole_data(U, len(frame.steps))
    k = len(frame.steps) - 1
    assert contours == [(k, w) for w in last.pole_rows]
    _assert_same_pole_data(got, _per_record_pole_data(frame, U))


@pytest.mark.parametrize("chain", ["mixed", "conjugate", "two_pole_conjugate", "close"])
def test_no_contour_node_falls_in_a_band(chain, monkeypatch, rng):
    """At every depth and every sensitive point p of the steps so far, a
    lambda at p, halfway to the band's edge or just inside it, at 4 angles,
    gets its 16 nodes on |w - lambda| = R(p), and none of them lies within
    the band of any sensitive point: the nodes take the direct updates."""
    frame = _sweep_chains()[chain]()
    U = rng.uniform(-0.4, 0.4, size=(2, 3))
    frame.pole_data(U, len(frame.steps))
    stacks = _spy_stacks(monkeypatch)
    for depth in range(1, len(frame.steps) + 1):
        for p in frame.steps[depth - 1].pole_rows:
            radius = frame._contour_radius(p, depth)
            for s in (0.0, 0.5, 0.999):
                for angle in np.exp(1j * np.array([0.0, 0.9, 2.5, 4.4])):
                    lam = p + s * radius / 2 * angle
                    stacks.clear()
                    frame._block(U, lam, depth)
                    w = np.concatenate([nodes for nodes, _ in stacks])
                    assert w.size == frames.CONTOUR_NODES
                    assert np.allclose(np.abs(w - lam), radius, rtol=1e-12, atol=0)
                    assert not frame._contour_radius(w, depth).any()


def test_one_lambda_band_check_equals_its_row_of_the_stacked_check():
    """The contour radius at one complex, Python or numpy, equals bit for
    bit its row of the stacked check at every depth of the mixed chain, for
    lambda at each sensitive point, inside its band, on the band's edge,
    one ulp inside it and 1% outside, and far from every point."""
    frame = _sweep_chains()["mixed"]()
    full = len(frame.steps)
    lams = [0.9, 5.0 + 5.0j, -3.0j]
    for p in frame.sensitive_points():
        half = frame._contour_radius(np.array([p]), full)[0] / 2
        for angle in np.exp(1j * np.array([0.0, 1.3, 3.9])):
            lams += [p + s * angle for s in (0.0, 0.3 * half, half,
                                               np.nextafter(half, 0.0), 1.01 * half)]
    lams = np.array(lams)
    banded = 0
    for depth in range(full + 1):
        rows = frame._contour_radius(lams, depth)
        banded += np.count_nonzero(rows)
        for lam, row in zip(lams, rows):
            for one in (complex(lam), lam):
                r = frame._contour_radius(one, depth)
                assert np.ndim(r) == 0 and r == row
    assert 0 < banded < full * len(lams)


@pytest.mark.parametrize("chain", ["mixed", "conjugate", "two_pole_conjugate"])
def test_evaluate_at_depth_equals_the_shorter_frame(chain, rng):
    """evaluate(u, lam, depth=k) is bit for bit the k-record frame's
    evaluate, for every k, off the poles, within 1e-8 of every sensitive
    point of the whole chain and exactly on it, after the whole frame was
    evaluated there, for a single point and a point set."""
    frame = _sweep_chains()[chain]()
    U = rng.uniform(-0.4, 0.4, size=(5, 3))
    poles = frame.sensitive_points()
    lams = [0.9, 0.3 - 1.1j] + [p + 1e-8 * np.exp(0.7j) for p in poles] + list(poles)
    for u in (U[0], U):
        for lam in lams:
            frame.evaluate(u, lam)
        for k in range(1, len(frame.history) + 1):
            fresh = ExtendedFrame(frame.seed, frame.history[:k])
            for lam in lams:
                for a, b in zip(frame.evaluate(u, lam, depth=k), fresh.evaluate(u, lam)):
                    assert np.array_equal(a, b)


def test_depth_out_of_range_is_refused(rng):
    """``evaluate`` refuses a record depth outside 0..len(history), and
    ``pole_data`` a step depth outside 0..len(steps), with a ValueError
    naming the value; both ends of each range are accepted, and depth 0
    is the seed."""
    frame = _sweep_chains()["mixed"]()
    U = rng.uniform(-0.4, 0.4, size=(2, 3))
    records, steps = len(frame.history), len(frame.steps)
    for k in (-1, -5, records + 1):
        with pytest.raises(ValueError, match=f"depth {k} outside 0..{records}"):
            frame.evaluate(U, 0.9, depth=k)
    for depth in (-1, steps + 1):
        with pytest.raises(ValueError, match=f"depth {depth} outside 0..{steps}"):
            frame.pole_data(U, depth)
    frame.pole_data(U, 0)
    assert len(frame.pole_data(U, steps)) == steps
    for a, b in zip(frame.evaluate(U, 0.9, depth=0), ExtendedFrame(frame.seed).evaluate(U, 0.9)):
        assert np.array_equal(a, b)
    for a, b in zip(frame.evaluate(U, 0.9, depth=records), frame.evaluate(U, 0.9)):
        assert np.array_equal(a, b)


def _lambda_shape(lam) -> str:
    """Which lambda shape a seed block or step update was given."""
    if np.ndim(lam) < 2:
        return ("one", "per_point")[np.ndim(lam)]
    return "rows" if np.shape(lam)[-1] == 1 else "rows_per_point"


@pytest.mark.parametrize("cap", [7, 30])
def test_stacked_evaluations_stay_within_the_cap(monkeypatch, cap, rng):
    """With POINT_BLOCK small, no seed block and no ``apply`` call of
    either record type carries more than POINT_BLOCK (lambda, point)
    pairs, and each gets every lambda shape the frame passes: one lambda,
    one per point (off the bands, or a mixed band), and rows of a sweep or
    of contour nodes at one lambda or one per point.  Pole data and values
    off and near the poles are bit for bit those of an unblocked run."""
    chain = _sweep_chains()["mixed"]
    U = rng.uniform(-0.4, 0.4, size=(11, 3))
    poles = chain().sensitive_points()
    per_point = rng.uniform(-1, 1, 11) + 1j * rng.uniform(-0.3, 0.3, 11)
    mixed = per_point.copy()
    mixed[[2, 7]] = poles[1], poles[8] - 1e-9
    lams = [0.9, 0.3 - 0.4j, 0.6j + 3e-9, 0.3 - 0.7j + 2e-9, 0.9j - 1e-9,
            per_point, mixed, np.resize(poles, 11) + 1e-9]
    monkeypatch.setattr(frames, "POINT_BLOCK", 10 ** 6)
    unblocked = chain()
    want = _per_record_pole_data(unblocked, U)
    _assert_same_pole_data(unblocked.pole_data(U, len(unblocked.steps)), want)
    want_values = [unblocked.evaluate(U, lam) for lam in lams]

    pairs, shapes = [], set()
    for owner, name in ((VacuumSeed, "block"), (dressing.OnePoleRecord, "apply"),
                        (dressing.TranslationRecord, "apply")):
        def wrapper(self, x, lam, *rest, owner=owner, method=getattr(owner, name)):
            F = method(self, x, lam, *rest)  # (..., n, n+1), a row per pair
            pairs.append(np.prod(F.shape[:-2]))
            shapes.add((owner, _lambda_shape(lam)))
            return F
        monkeypatch.setattr(owner, name, wrapper)
    monkeypatch.setattr(frames, "POINT_BLOCK", cap)
    blocked = chain()
    _assert_same_pole_data(blocked.pole_data(U, len(blocked.steps)), want)
    for lam, (E, X) in zip(lams, want_values):
        E1, X1 = blocked.evaluate(U, lam)
        assert np.array_equal(E1, E) and np.array_equal(X1, X)
    assert pairs and max(pairs) <= cap
    assert shapes == {(owner, shape)
                      for owner in (VacuumSeed, dressing.OnePoleRecord, dressing.TranslationRecord)
                      for shape in ("one", "per_point", "rows", "rows_per_point")}


def _two_product_update(record, F, lam, data):
    """The one-pole update as first written, the oracle of
    ``OnePoleRecord.apply``: both quotients stacked on a leading pole-pair
    axis, times [pi, pi^perp] as a stack of n x n matrices, then times
    [R_tilde's top block, [pi_tilde | pi_tilde eta]], with c (out_0 - out_1)
    added to F.  The right factors are built here from the data's pi_tilde
    and pi_tilde eta, with pi_tilde^perp = I - pi_tilde, so the oracle does
    not read the ``blocks`` layout it checks."""
    n = F.shape[-2]
    zb, z = record.pole_rows

    def pair(x):  # the pole pair on axis 0, against (2, ..., P, n, n+1)
        return x.reshape(x.shape[:1] + (1,) * (F.ndim + 1 - x.ndim) + x.shape[1:])
    F_poles = np.moveaxis(data.F_poles, -3, 0)
    pi_tilde, pe = data.pi_tilde, data.pe[..., None]
    blocks = np.stack((np.concatenate((np.eye(n) - pi_tilde, -pe), axis=-1),
                       np.concatenate((pi_tilde, pe), axis=-1)))
    left = np.stack((record.projection.matrix, record.projection.complement)).astype(complex)
    D = F - pair(F_poles)
    D /= pair(np.array((lam - zb, lam - z))[..., None, None])
    S = pair(left[:, None]) @ D
    out = S[..., :n] @ pair(blocks)
    out[0, ..., n] += S[0, ..., n]
    out *= zb - z
    return F + out[0] - out[1]


def _one_pole_case(n, rank, real, P, rng):
    """A one-pole record with a rank-``rank`` projection, real (pole on the
    imaginary axis) or complex, and its pole data at P points read off
    random prefix blocks."""
    span = rng.normal(size=(n, rank)) + (0 if real else 1j * rng.normal(size=(n, rank)))
    record = dressing.OnePoleRecord(0.8j if real else 0.3 + 0.8j, project_onto_span(span))
    rows = rng.normal(size=(2, P, n, n + 1)) + 1j * rng.normal(size=(2, P, n, n + 1))
    rows[..., :n] += 2 * np.eye(n)  # well-conditioned E at the poles
    return record, record.take_pole_data(rows)


_LAMBDA_SHAPES = {
    "scalar": lambda P, rng: complex(0.4 - 0.9j),
    "per_point": lambda P, rng: rng.uniform(-1, 1, P) + 1j * rng.uniform(-2, -1, P),
    "nodes_1": lambda P, rng: (0.4 - 0.9j + 0.2 * np.exp(2j * np.pi * np.arange(16) / 16))[:, None],
    "nodes_P": lambda P, rng: (rng.uniform(-1, 1, P) - 1.5j + 0.2 * np.exp(
        2j * np.pi * np.arange(16) / 16)[:, None]),
    "sweep_rows": lambda P, rng: np.array([0.5 + 0.2j, -1.1 - 0.7j, 1.3j])[:, None],
}


@pytest.mark.parametrize("lam_shape", list(_LAMBDA_SHAPES))
@pytest.mark.parametrize("P", [0, 1, 7, "block+3"])
@pytest.mark.parametrize("n, rank, real", [(2, 1, True), (2, 1, False), (3, 1, True),
                                           (3, 2, False), (4, 2, True), (4, 1, False)])
def test_one_pole_update_matches_the_two_product_form(n, rank, real, P, lam_shape,
                                                      monkeypatch, rng):
    """The update as one product per point for the pole pair's left
    factors and one for its right factors, over point blocks, agrees with
    the two stacked products it replaced within 1e-14 relative: for n = 2,
    3 and 4, rank 1 and 2, real and complex projections, every lambda
    shape a frame passes (one for all points, one per point, contour nodes
    against one lambda or one per point, sweep rows), and point sets with
    no point, one, seven, and three more than a (small) point block, which
    the record updates in one piece.  The block is updated in place and
    returned."""
    if P == "block+3":
        monkeypatch.setattr(frames, "POINT_BLOCK", 4)
        P = frames.POINT_BLOCK + 3
    record, data = _one_pole_case(n, rank, real, P, rng)
    lam = _LAMBDA_SHAPES[lam_shape](P, rng)
    lead = np.shape(lam)[:-1] if np.ndim(lam) == 2 else ()
    F = rng.normal(size=lead + (P, n, n + 1)) + 1j * rng.normal(size=lead + (P, n, n + 1))
    want = _two_product_update(record, F, lam, data)
    got = record.apply(F, lam, data)
    assert got is F and got.shape == want.shape
    assert max_abs(got - want) <= 1e-14 * max_abs(want)


@pytest.mark.parametrize("lam_kind", ["scalar", "per_point", "nodes", "per_point_band"])
def test_blocked_update_equals_the_unblocked_one(lam_kind, monkeypatch, rng):
    """With POINT_BLOCK at 4, a frame evaluated on 11 points (blocks of 4,
    4 and 3) gives bit for bit the pole data and values of a frame
    evaluated in one piece, with one lambda, one per point (two of them in
    a contour band) or one near a pole.  Every lambda row of a one-pole or
    translation update of the 11 points in one piece becomes three
    ``apply`` calls, one per block, and the 16 node rows of the two banded
    points go two rows at a time."""
    U = rng.uniform(-0.4, 0.4, size=(11, 3))
    lam = {"scalar": 0.9 - 0.3j, "per_point": rng.uniform(-1, 1, 11) + 0.4j,
           "nodes": 0.6j + 1e-8, "per_point_band": rng.uniform(-1, 1, 11) + 0.4j}[lam_kind]
    if lam_kind == "per_point_band":
        lam[[1, 6]] = 0.6j, 0.3 - 0.7j + 1e-8
    calls = []
    for owner in (dressing.OnePoleRecord, dressing.TranslationRecord):
        def counted(self, F, lam, data, method=owner.apply):
            calls.append((type(self), F.shape[:-2]))
            return method(self, F, lam, data)
        monkeypatch.setattr(owner, "apply", counted)
    whole = _sweep_chains()["mixed"]()
    want = (whole.pole_data(U, len(whole.steps)), whole.evaluate(U, lam))
    whole_calls = calls[:]
    calls.clear()
    monkeypatch.setattr(frames, "POINT_BLOCK", 4)
    blocked = _sweep_chains()["mixed"]()
    _assert_same_pole_data(blocked.pole_data(U, len(blocked.steps)), want[0])
    for a, b in zip(blocked.evaluate(U, lam), want[1]):
        assert np.array_equal(a, b)

    def blocks(lead):
        if lead[-1] == 2:  # the banded points' contour nodes
            assert lead == (16, 2)
            return [(2, 2)] * 8
        assert lead[-1] == 11
        return [(1,) * (len(lead) - 1) + (p,) for _ in range(math.prod(lead[:-1]))
                for p in (4, 4, 3)]
    for owner in (dressing.OnePoleRecord, dressing.TranslationRecord):
        want_calls = [b for kind, lead in whole_calls if kind is owner for b in blocks(lead)]
        got_calls = [lead for kind, lead in calls if kind is owner]
        assert want_calls and sorted(got_calls) == sorted(want_calls)


def test_banded_lambdas_alone_take_the_contour(monkeypatch, rng):
    """With one lambda per point and three of 40 in contour bands (at a
    pole, 1e-8 from one, at a conjugate pole), the contour runs on those
    three points alone, with their rows of the memoised pole data, and no
    memo entry is added; every point matches its own evaluation, within
    1e-15 relative."""
    frame = _sweep_chains()["mixed"]()
    U = rng.uniform(-0.4, 0.4, size=(40, 3))
    lam = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-0.2, 0.2, 40)
    banded = [5, 17, 33]
    lam[banded] = [0.6j, 0.3 + 0.7j + 1e-8 * np.exp(0.7j), -0.6j]
    frame.evaluate(U, 0.9)
    memo = len(frame._memo)
    stacks = _spy_stacks(monkeypatch)
    E, X = frame.evaluate(U, lam)
    assert len(frame._memo) == memo
    nodes = [nodes for nodes, _ in stacks]
    assert nodes and all(w.shape[1] == len(banded) for w in nodes)
    assert sum(len(w) for w in nodes) == frames.CONTOUR_NODES
    for p in range(len(U)):
        E1, X1 = frame.evaluate(U[p], lam[p])
        assert max_abs(E[p] - E1) <= 1e-15 * max_abs(E1)
        assert max_abs(X[p] - X1) <= 1e-15 * max_abs(X1)

"""Acceptance suite: every structural property at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them on
success)."""

import numpy as np
import pytest

from dressing_forge import (ExtendedFrame, Grid, PathSpec,
                            SphericalViolationError, VacuumSeed,
                            check_darboux_egoroff, check_lagrangian,
                            check_sphere, dress_permuted, dress_real,
                            dress_spherical, dress_translation,
                            dress_two_pole, estimate_order,
                            integrate_bf, integrate_frame, limit_net, max_abs,
                            metric_from_frame, one_pole_factor,
                            permute_factors, potential_on_grid,
                            project_onto_span, sample_immersion,
                            two_pole_factor, check_reality)
from dressing_forge.loops import random_lambda_samples

RADII = np.array([1.0, 0.7])
ALPHA = 0.6
TWO_POLE_Z = 0.4 + 0.8j


def record(criterion, description, residual, tol, ok=None):
    ok = bool(residual < tol) if ok is None else bool(ok)
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:>2}: {description}: "
            f"residual={residual:.3e} tol={tol:g}")
    print(line)
    assert ok, line


def record_flag(criterion, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:>2}: {description}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def vacuum():
    return ExtendedFrame(VacuumSeed.constant(RADII))


@pytest.fixture(scope="module")
def pi_real():
    return project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))


@pytest.fixture(scope="module")
def pi_complex():
    return project_onto_span(np.array([1.0, 0.5 - 0.25j]))


@pytest.fixture(scope="module")
def soliton(vacuum, pi_real):
    return dress_real(vacuum, ALPHA, pi_real)


@pytest.fixture(scope="module")
def chain_stages(vacuum, pi_real, pi_complex):
    """Vacuum plus one frame after each sigma-compatible dressing step."""
    s1 = dress_real(vacuum, ALPHA, pi_real)
    s2 = dress_two_pole(s1, TWO_POLE_Z, pi_complex)
    s3 = dress_translation(s2, 0.9, np.array([0.1, -0.2]))
    return [("vacuum", vacuum), ("real_one_pole", s1), ("two_pole", s2),
            ("translation", s3)]


def beta_on_grid(frame, grid):
    beta = np.empty(grid.shape + (frame.n, frame.n), dtype=complex)
    pts = grid.points()
    for idx in grid.indices():
        beta[idx] = frame.beta(pts[idx])
    return beta


def h_on_grid(frame, grid):
    h = np.empty(grid.shape + (frame.n,), dtype=complex)
    pts = grid.points()
    for idx in grid.indices():
        h[idx] = frame.h(pts[idx])
    return h


def test_criterion_01_reality(chain_stages):
    """Reality/unitarity of E over 200 random (u, lambda) per stage."""
    rng = np.random.default_rng(20260809)
    worst = 0.0
    eye = np.eye(2)
    for name, frame in chain_stages:
        poles = list(frame.sensitive_points())
        guard = [p for q in poles for p in (q, -q, np.conj(q), -np.conj(q))]
        count = 0
        while count < 200:
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if any(abs(lam - p) < 0.05 for p in guard):
                continue
            u = rng.uniform(-0.7, 0.7, size=2)
            E = frame.E(u, lam)
            tau = max_abs(frame.E(u, np.conj(lam)).conj().T @ E - eye)
            sigma = max_abs(E.T @ frame.E(u, -lam) - eye)
            worst = max(worst, tau, sigma)
            count += 1
    record(1, "E reality (tau and sigma), 200 samples per dressing stage", worst, 1e-10)


def test_criterion_02_flatness(soliton):
    """Flatness residual of the one-soliton rotation coefficients: order-2
    refinement ratio and absolute value at 64 points/axis."""
    residuals = {}
    for m in (17, 33, 65, 64):
        grid = Grid.from_specs([(-0.5, 0.5, m)] * 2)
        metric_beta = beta_on_grid(soliton, grid)
        db = [np.gradient(metric_beta, grid.spacing(k), axis=k, edge_order=2)
              for k in range(2)]
        worst = 0.0
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                res = (db[i][..., i, j] + db[j][..., i, j]
                       + np.einsum("...k,...k->...", metric_beta[..., i, :],
                                   metric_beta[..., j, :]))
                worst = max(worst, max_abs(res))
        residuals[m] = worst
    r1 = residuals[17] / residuals[33]
    r2 = residuals[33] / residuals[65]
    record_flag(2, f"flatness refinement ratios {r1:.2f}, {r2:.2f} within 4 +/- 0.8",
                3.2 < r1 < 4.8 and 3.2 < r2 < 4.8)
    record(2, "flatness absolute residual at 64 points/axis", residuals[64], 1e-4)


def test_criterion_03_lagrangian(chain_stages):
    """Symplectic-form residual with exact tangents, chains of length <= 3."""
    grid = Grid.from_specs([(-0.5, 0.5, 7)] * 2)
    worst = 0.0
    for lam in (0.9, -1.3):
        for name, frame in chain_stages:
            sample = sample_immersion(frame, grid, lam)
            report = check_lagrangian(sample, frame.h(grid.points()))
            worst = max(worst, report["lagrangian_symplectic"].residual)
    record(3, "Lagrangian condition along dressing chains", worst, 1e-10)


def test_criterion_04_position_equation(soliton):
    """Finite-difference dX/du_i vs h_i E e_i converges at order 2."""
    lam = 0.9

    def residual(m):
        grid = Grid.from_specs([(-0.4, 0.4, m)] * 2)
        sample = sample_immersion(soliton, grid, lam)
        pts = grid.points()
        worst = 0.0
        for axis in range(2):
            dX = np.gradient(sample.X, grid.spacing(axis), axis=axis, edge_order=2)
            for idx in grid.indices():
                u = pts[idx]
                worst = max(worst, max_abs(
                    dX[idx] - soliton.h(u)[axis] * soliton.E(u, lam)[:, axis]))
        return worst

    ratio = residual(9) / residual(17)
    record_flag(4, f"position equation refinement ratio {ratio:.2f} within 4 +/- 0.8",
                3.2 < ratio < 4.8)


def test_criterion_05_permutability(vacuum, pi_real):
    pi2 = project_onto_span(np.array([1.0, -0.4 + 0.2j]))
    z1, z2 = 0.3 + 0.7j, -0.5 + 0.4j
    f12, f21, report = dress_permuted(vacuum, z1, pi_real, z2, pi2,
                                      grid=Grid.from_specs([(-0.5, 0.5, 10)] * 2))
    record(5, "frame permutability F_12 vs F_21 (10x10 grid, 8 lambdas)",
           report["permutability_frame"].residual, 1e-9)
    rho1, rho2 = permute_factors(z1, pi_real, z2, pi2)
    rng = np.random.default_rng(7)
    worst = 0.0
    for lam in random_lambda_samples(20, [z1, z2], rng):
        lhs = one_pole_factor(z2, rho2)(lam) @ one_pole_factor(z1, pi_real)(lam)
        rhs = one_pole_factor(z1, rho1)(lam) @ one_pole_factor(z2, pi2)(lam)
        worst = max(worst, max_abs(lhs - rhs))
    record(5, "loop-element permutability identity at 20 random lambdas", worst, 1e-10)


def test_criterion_06_spherical_preservation(vacuum):
    v = np.array([RADII[1], -RADII[0]])
    pi_perp = project_onto_span(v / np.linalg.norm(v))
    frame = dress_spherical(vacuum, 0.8, pi_perp)
    grid = Grid.from_specs([(-0.6, 0.6, 13)] * 2)
    h0 = vacuum.h(np.zeros(2)).real
    sphere_worst = 0.0
    for lam in (0.9, -1.4):
        sample = sample_immersion(frame, grid, lam)
        sphere_worst = max(sphere_worst,
                           check_sphere(sample, h0)["sphere_containment"].residual)
    record(6, "sphere containment after sphere-preserving dressing", sphere_worst, 1e-9)
    pts = grid.points()
    norm_worst = max(abs(np.linalg.norm(frame.h(pts[idx])) - np.linalg.norm(h0))
                     for idx in grid.indices())
    record(6, "norm of h preserved on the grid", norm_worst, 1e-10)
    # negative control: non-orthogonal projection is refused, and forcing the
    # plain real dressing breaks sphere containment by a visible margin
    pi_bad = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    refused = False
    try:
        dress_spherical(vacuum, 0.8, pi_bad)
    except SphericalViolationError:
        refused = True
    forced = dress_real(vacuum, 0.8, pi_bad)
    sample = sample_immersion(forced, grid, 0.9)
    forced_residual = check_sphere(sample, h0)["sphere_containment"].residual
    record_flag(6, "negative control: refused, and forced output breaks the "
                   f"sphere check (residual {forced_residual:.2e})",
                refused and forced_residual > 1e-9)


def test_criterion_07_pde_agreement(soliton):
    lam = 0.9
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    ref = soliton.evaluate(target, lam)

    def residual(step):
        E, X = integrate_frame(2, soliton.beta, soliton.h, lam, path, step)
        return E, X, max(max_abs(E - ref[0]), max_abs(X - ref[1]))

    E, X, endpoint = residual(1e-2)
    order = estimate_order(residual(2e-2)[2], endpoint)
    record_flag(7, f"RK4 frame integration order {order:.2f} within 4 +/- 0.8",
                3.2 < order < 4.8)
    record(7, "endpoint residual at step 1e-2", endpoint, 1e-6)
    E2, X2 = integrate_frame(2, soliton.beta, soliton.h, lam,
                             PathSpec.staircase(target, order=(1, 0)), 1e-2)
    record(7, "axis-ordering (path independence) residual",
           max(max_abs(E - E2), max_abs(X - X2)), 1e-6)


def test_criterion_08_bf_system(vacuum, soliton, pi_real):
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    rec = soliton.history[0]
    data = rec.point_data(soliton, 0, target)
    y_ref = (vacuum.h(target) - soliton.h(target)) / (2 * ALPHA)

    def run(step):
        out = integrate_bf(2, vacuum.beta, vacuum.h, ALPHA, pi_real.matrix,
                           np.zeros(2), path, step)
        return out, max(max_abs(out.pi_tilde - data.pi_tilde),
                        max_abs(out.y - y_ref))

    out1, r1 = run(2e-2)
    out2, r2 = run(1e-2)
    order = estimate_order(r1, r2)
    record_flag(8, f"dressing-system integration order {order:.2f} within 4 +/- 0.8",
                3.2 < order < 4.8)
    record(8, "integrated projection and y vs algebraic dressing", r2, 1e-6)
    record(8, "per-step projection correction", out2.max_correction, 1e-8)


def test_criterion_09_lambda_zero(vacuum, chain_stages):
    grid = Grid.from_specs([(-0.5, 0.5, 7)] * 2)
    frame = chain_stages[-1][1]
    pts = grid.points()
    worst = max(max_abs(frame.evaluate(pts[idx], 0.0)[1].imag)
                for idx in grid.indices())
    record(9, "Im X(u, 0) after real/two-pole/translation chain", worst, 1e-10)
    v = np.array([RADII[1], -RADII[0]])
    spherical = dress_spherical(vacuum, 0.8, project_onto_span(v / np.linalg.norm(v)))
    _, report = limit_net(spherical, sample_immersion(spherical, grid, 0.0),
                          cross_check_tol=1e-7)
    record(9, "spherical net limit vs frame lambda-derivative formula",
           report["limit_net_derivative_agreement"].residual, 1e-7)


def test_criterion_10_translation(soliton):
    b = np.array([0.15, -0.25])
    frame = dress_translation(soliton, 0.9, b)
    grid = Grid.from_specs([(-0.4, 0.4, 9)] * 2)
    pts = grid.points()
    identical = all(np.array_equal(frame.beta(pts[idx]), soliton.beta(pts[idx]))
                    for idx in grid.indices())
    record_flag(10, "rotation coefficients untouched bit-for-bit", identical)

    def residual(m):
        g = Grid.from_specs([(-0.4, 0.4, m)] * 2)
        h = h_on_grid(frame, g)
        beta = beta_on_grid(frame, g)
        worst = 0.0
        for j in range(2):
            dh = np.gradient(h, g.spacing(j), axis=j, edge_order=2)
            for i in range(2):
                if i != j:
                    worst = max(worst, max_abs(dh[..., i] - beta[..., i, j] * h[..., j]))
        return worst

    ratio = residual(9) / residual(17)
    record_flag(10, f"translated h solves the linear system, refinement ratio "
                    f"{ratio:.2f} within 4 +/- 0.8", 3.2 < ratio < 4.8)


def test_criterion_11_complex_ribaucour(vacuum, pi_complex):
    frame = dress_two_pole(vacuum, TWO_POLE_Z, pi_complex)
    grid = Grid.from_specs([(-0.5, 0.5, 9)] * 2)
    pts = grid.points()
    worst = 0.0
    for idx in grid.indices():
        u = pts[idx]
        worst = max(worst, max_abs(frame.h(u).imag), max_abs(frame.beta(u).imag))
    record(11, "two-pole dressed h and beta real on the grid", worst, 1e-9)
    factor = two_pole_factor(TWO_POLE_Z, pi_complex)
    rng = np.random.default_rng(11)
    report = check_reality(factor, random_lambda_samples(12, factor.poles(), rng))
    record(11, "two-pole factor tau reality", report["tau_reality"].residual, 1e-10)
    record(11, "two-pole factor sigma reality", report["sigma_reality"].residual, 1e-10)


def test_criterion_12_potential(soliton):
    diffs = {}
    for m in (17, 33):
        grid = Grid.from_specs([(-0.5, 0.5, m)] * 2)
        metric = metric_from_frame(soliton, grid)
        diffs[m] = max_abs(potential_on_grid(soliton, grid) - metric.phi)
    ratio = diffs[17] / diffs[33]
    record_flag(12, f"closed-form vs path-integrated potential converges at "
                    f"order >= 2 (ratio {ratio:.1f})", ratio > 3.2)
    grid = Grid.from_specs([(-0.5, 0.5, 33)] * 2)
    spread = max_abs(potential_on_grid(soliton, grid, (0, 1))
                     - potential_on_grid(soliton, grid, (1, 0)))
    record(12, "axis-permutation spread of the path integral", spread, 1e-8)

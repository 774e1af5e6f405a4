import numpy as np
import pytest

from dressing_forge import (ChartSingularError, ExtendedFrame, Grid,
                            ImmersionSample, PolynomialProfile,
                            ConstantProfile, VacuumSeed,
                            check_darboux_egoroff, check_lagrangian,
                            check_partial_invariance, check_sphere,
                            dress_extended, dress_real, dress_spherical,
                            dress_translation, dress_two_pole, hopf_project,
                            limit_net, max_abs, metric_from_frame,
                            project_onto_span, sample_immersion,
                            sphere_center)
from dressing_forge.report import DEFAULT_TOLERANCES


def one_soliton(frame, alpha=0.6):
    pi = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    return dress_real(frame, alpha, pi)


def test_grid_basics():
    grid = Grid.from_specs([(-1.0, 1.0, 5), (0.0, 2.0, 3)])
    assert grid.shape == (5, 3)
    assert grid.spacing(0) == 0.5
    fine = grid.refined()
    assert fine.shape == (9, 5)
    assert fine.spacing(0) == 0.25
    with pytest.raises(ValueError):
        Grid((np.array([0.0, 0.1, 0.5]),))


def test_darboux_egoroff_vacuum_exact(torus_frame, torus3_frame):
    for frame in (torus_frame, torus3_frame):
        grid = Grid.from_specs([(-0.5, 0.5, 7)] * frame.n)
        report = check_darboux_egoroff(metric_from_frame(frame, grid), tol=1e-12)
        if frame.n > 2:
            assert report["darboux_egoroff_triple"].residual == 0.0
        assert report["darboux_egoroff_pair"].residual == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_darboux_egoroff_triple_runs_from_n_3(n):
    """n = 2 has no three distinct indices, so the triple family writes a
    skip entry naming that rule instead of a vacuous 0.0 that counts as
    passed; at n = 3 it is the real, gated entry."""
    frame = dress_real(ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3][:n])), 0.6,
                       project_onto_span(np.ones(n) / np.sqrt(n)))
    grid = Grid.from_specs([(-0.3, 0.3, 9)] * n)
    report = check_darboux_egoroff(metric_from_frame(frame, grid), tol=1e-2)
    names = [c.name for c in report.checks]
    if n == 2:
        assert names == ["darboux_egoroff_triple_skipped", "darboux_egoroff_pair"]
        skip = report["darboux_egoroff_triple_skipped"]
        assert skip.tolerance is None and skip.passed is None
        assert skip.details == {"reason": "n = 2 has no three distinct indices (rule: the "
                                          "Darboux-Egoroff triple family runs at n >= 3)"}
    else:
        assert names == ["darboux_egoroff_triple", "darboux_egoroff_pair"]
        triple = report["darboux_egoroff_triple"]
        assert triple.tolerance == 1e-2 and triple.passed is True and triple.residual > 0
        assert triple.details == {"spacing": [grid.spacing(k) for k in range(n)]}


def test_darboux_egoroff_soliton_refinement(torus3_frame):
    pi = project_onto_span(np.array([1.0, 1.0, -0.5]) / np.sqrt(2.25))
    frame = dress_real(torus3_frame, 0.6, pi)

    def residual(m):
        grid = Grid.from_specs([(-0.4, 0.4, m)] * 3)
        metric = metric_from_frame(frame, grid)
        report = check_darboux_egoroff(metric, tol=1.0)
        return max(report["darboux_egoroff_triple"].residual,
                   report["darboux_egoroff_pair"].residual)

    r1, r2 = residual(7), residual(13)
    assert 3.2 < r1 / r2 < 4.8


def test_darboux_egoroff_negative_control(torus_frame, rng):
    grid = Grid.from_specs([(-0.5, 0.5, 7)] * 2)
    metric = metric_from_frame(torus_frame, grid)
    # corrupt beta with a random symmetric zero-diagonal field that does not
    # satisfy the flatness equations
    pts = grid.points()
    bad = np.zeros(grid.shape + (2, 2))
    bad[..., 0, 1] = np.sin(3 * pts[..., 0]) + pts[..., 1] ** 2
    bad[..., 1, 0] = bad[..., 0, 1]
    metric.beta = bad.astype(complex)
    report = check_darboux_egoroff(metric, tol=1e-4)
    assert not report.passed
    assert report["darboux_egoroff_pair"].residual > 0.1


def test_darboux_egoroff_nonsymmetric_complex_dressing(torus3_frame):
    """A tau-only complex dressing gives a non-symmetric coefficient matrix,
    and the flatness equations, with the product beta_ik beta_kj that every
    chain satisfies, still converge at order 2."""
    pi = project_onto_span(np.array([1.0, 0.5 + 0.3j, -0.2j]))
    frame = dress_extended(torus3_frame, 0.3 + 0.7j, pi)

    def residual(m):
        grid = Grid.from_specs([(-0.3, 0.3, m)] * 3)
        metric = metric_from_frame(frame, grid)
        report = check_darboux_egoroff(metric, tol=1.0)
        return max(report["darboux_egoroff_triple"].residual,
                   report["darboux_egoroff_pair"].residual)

    beta = frame.beta(np.array([0.2, -0.1, 0.3]))
    assert max_abs(beta - beta.T) > 1e-3  # genuinely non-symmetric
    r1, r2 = residual(7), residual(13)
    assert 3.2 < r1 / r2 < 4.8


@pytest.mark.parametrize("entry", [(0, 1), (1, 2), (2, 0)], ids=["beta12", "beta23", "beta31"])
def test_nan_coefficient_fails_every_residual_that_reads_it(torus3_frame, entry):
    """A NaN in one beta entry makes the Darboux-Egoroff and partial
    invariance residuals that read it NaN, and those checks fail, whichever
    (i, j) term of the residual it enters first."""
    frame = dress_real(torus3_frame, 0.6, project_onto_span(np.ones(3) / np.sqrt(3.0)))
    metric = metric_from_frame(frame, Grid.from_specs([(-0.3, 0.3, 5)] * 3))
    metric.beta = metric.beta.copy()
    metric.beta[(..., *entry)] = np.nan
    report = check_darboux_egoroff(metric, tol=1.0)
    report.extend(check_partial_invariance(metric, fd_tol=1.0, norm_tol=1.0))
    for name in ("darboux_egoroff_triple", "darboux_egoroff_pair",
                 "partial_invariance_offdiagonal", "partial_invariance_diagonal"):
        assert np.isnan(report[name].residual) and report[name].passed is False, name


def test_lagrangian_vacuum_and_dressed(torus_frame):
    grid = Grid.from_specs([(-0.5, 0.5, 6)] * 2)
    sample = sample_immersion(torus_frame, grid, 0.9)
    report = check_lagrangian(sample, torus_frame.h(grid.points()))
    assert report["lagrangian_symplectic"].residual < 1e-12
    assert report["lagrangian_metric"].residual < 1e-12

    chain = dress_two_pole(one_soliton(torus_frame),
                           0.4 + 0.8j, project_onto_span(np.array([1.0, 0.5j])))
    chain = dress_translation(chain, 0.9, np.array([0.1, -0.2]))
    sample = sample_immersion(chain, grid, 0.9)
    report = check_lagrangian(sample, chain.h(grid.points()))
    assert report["lagrangian_symplectic"].residual < 1e-10
    assert report["lagrangian_metric"].residual < 1e-10


def test_lagrangian_skips_complex_lambda(torus_frame):
    grid = Grid.from_specs([(-0.3, 0.3, 3)] * 2)
    sample = sample_immersion(torus_frame, grid, 0.9 + 0.2j)
    report = check_lagrangian(sample, torus_frame.h(grid.points()))
    assert report.checks[0].name == "lagrangian_skipped_nonreal_lambda"
    assert report.passed


def test_sphere_vacuum_and_negative_control(torus_frame):
    grid = Grid.from_specs([(-0.6, 0.6, 6)] * 2)
    c = torus_frame.h(np.zeros(2)).real
    sample = sample_immersion(torus_frame, grid, 1.3)
    assert check_sphere(sample, c, tol=1e-10).passed
    # non-spherical seed: sphere containment fails by O(1)
    seed = VacuumSeed((PolynomialProfile((1.0, 0.4), (-1.0, 1.0)), ConstantProfile(0.7)))
    frame = ExtendedFrame(seed)
    sample2 = sample_immersion(frame, grid, 1.3)
    report = check_sphere(sample2, frame.h(np.zeros(2)).real, tol=1e-9)
    assert not report.passed
    assert report["sphere_containment"].residual > 1e-3


def test_sphere_requires_real_nonzero_lambda(torus_frame):
    grid = Grid.from_specs([(-0.3, 0.3, 3)] * 2)
    sample = sample_immersion(torus_frame, grid, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        check_sphere(sample, np.array([1.0, 0.7]))


def test_partial_invariance_flat_torus_and_dressed(torus_frame, pi_perp_torus):
    def residuals(frame, m):
        grid = Grid.from_specs([(-0.5, 0.5, m)] * 2)
        metric = metric_from_frame(frame, grid)
        report = check_partial_invariance(metric, fd_tol=1.0, norm_tol=1e-10)
        fd = max(report["partial_invariance_directional"].residual,
                 report["partial_invariance_offdiagonal"].residual,
                 report["partial_invariance_diagonal"].residual)
        return fd, report["norm_h_constancy"].residual

    fd, spread = residuals(torus_frame, 7)
    assert fd < 1e-12 and spread < 1e-12  # constant h: exactly invariant

    dressed = dress_spherical(torus_frame, 0.8, pi_perp_torus)
    fd1, spread1 = residuals(dressed, 9)
    fd2, spread2 = residuals(dressed, 17)
    assert spread1 < 1e-10 and spread2 < 1e-10
    assert 3.2 < fd1 / fd2 < 4.8


def test_partial_invariance_negative_control():
    seed = VacuumSeed((PolynomialProfile((1.0, 0.4), (-1.0, 1.0)), ConstantProfile(0.7)))
    frame = ExtendedFrame(seed)
    grid = Grid.from_specs([(-0.5, 0.5, 9)] * 2)
    metric = metric_from_frame(frame, grid)
    report = check_partial_invariance(metric, fd_tol=1e-6, norm_tol=1e-10)
    assert report["norm_h_constancy"].residual > 1e-2
    assert not report.passed


def test_limit_net_vacuum(torus_frame):
    grid = Grid.from_specs([(-0.5, 0.5, 5)] * 2)
    net, report = limit_net(torus_frame, sample_immersion(torus_frame, grid, 0.0))
    pts = grid.points()
    expected = pts * np.array([1.0, 0.7])
    assert max_abs(net - expected) < 1e-12
    assert report.passed


def test_limit_net_spherical_soliton(torus_frame, pi_perp_torus):
    frame = dress_spherical(torus_frame, 0.8, pi_perp_torus)
    grid = Grid.from_specs([(-0.5, 0.5, 5)] * 2)
    net, report = limit_net(frame, sample_immersion(frame, grid, 0.0), cross_check_tol=1e-7)
    assert report.passed, str(report)
    assert report["limit_net_derivative_agreement"].residual < 1e-7


def test_limit_net_rejects_a_nonzero_lambda_sample(torus_frame):
    """The limit net reads the lambda = 0 member of the family; a sample at
    any other lambda is refused, not taken for it."""
    grid = Grid.from_specs([(-0.5, 0.5, 4)] * 2)
    for lam in (0.9, 1e-3j):
        with pytest.raises(ValueError, match="lambda = 0 sample"):
            limit_net(torus_frame, sample_immersion(torus_frame, grid, lam))


def test_limit_net_nonreal_for_tau_only_history(torus_frame):
    """A tau-only history has a complex X(u, 0): the limit net reports a
    failing limit_net_imag entry, the largest |Im X(u, 0)|, whose reason
    names the first grid point over the tolerance."""
    pi = project_onto_span(np.array([1.0, 0.5 + 0.3j]))
    frame = dress_extended(torus_frame, 0.3 + 0.7j, pi)
    grid = Grid.from_specs([(-0.5, 0.5, 4)] * 2)
    net, report = limit_net(frame, sample_immersion(frame, grid, 0.0))
    imag = np.abs(frame.X(grid.points(), 0.0).imag).max(axis=-1)
    entry = report["limit_net_imag"]
    assert entry.passed is False and not report.passed
    assert entry.residual == imag.max() > 1e-10 and entry.tolerance == 1e-10
    first = np.unravel_index(np.argmax(imag > 1e-10), imag.shape)
    assert entry.details["reason"] == (f"X(u, 0) has imaginary part {imag[first]:.2e} > "
                                       f"1.0e-10 at u={grid.points()[first]}")
    assert net.shape == grid.shape + (2,) and net.dtype == float


def test_hopf_projection_flat_torus(torus_frame):
    grid = Grid.from_specs([(-0.5, 0.5, 6)] * 2)
    lam = 1.1
    c = torus_frame.h(np.zeros(2)).real
    sample = sample_immersion(torus_frame, grid, lam)
    coords = hopf_project(sample, c, chart=0)
    # direct oracle: Y_j = -i/lam r_j e^{i lam u_j}, so the chart-0 quotient is
    # (r2/r1) e^{i lam (u2 - u1)} with constant modulus r2 / r1
    assert coords.shape == grid.shape + (1,)
    assert max_abs(np.abs(coords[..., 0]) - 0.7 / 1.0) < 1e-12
    pts = grid.points()
    expected = 0.7 * np.exp(1j * lam * (pts[..., 1] - pts[..., 0]))
    assert max_abs(coords[..., 0] - expected) < 1e-12
    # base point maps to the projection of the recentred origin value
    zero_idx = tuple(np.argmin(np.abs(a)) for a in grid.axes)
    Y0 = sample.X[zero_idx] - sphere_center(c, lam)
    assert abs(coords[zero_idx + (0,)] - Y0[1] / Y0[0]) < 1e-12


def test_hopf_circle_invariance(torus_frame, pi_perp_torus):
    # shifting along the diagonal direction multiplies the recentred immersion
    # by a unit scalar, so the chart coordinates are unchanged
    frame = dress_spherical(torus_frame, 0.8, pi_perp_torus)
    lam = 0.9
    c = frame.h(np.zeros(2)).real
    t = 0.37
    for u in (np.array([0.1, -0.2]), np.array([-0.3, 0.25])):
        Y1 = frame.X(u, lam) - sphere_center(c, lam)
        Y2 = frame.X(u + t, lam) - sphere_center(c, lam)
        assert max_abs(Y2 - np.exp(1j * lam * t) * Y1) < 1e-10
        assert abs(Y2[1] / Y2[0] - Y1[1] / Y1[0]) < 1e-10


def test_hopf_chart_singular():
    grid = Grid.from_specs([(0.0, 1.0, 2), (0.0, 1.0, 2)])
    X = np.zeros((2, 2, 2), dtype=complex)
    X[..., 1] = 1.0
    sample = ImmersionSample(1.0, grid, X, np.zeros((2, 2, 2, 2), dtype=complex))
    with pytest.raises(ChartSingularError):
        hopf_project(sample, np.zeros(2), chart=0)


def test_beta_two_ways_agree(torus_frame):
    """Rotation coefficients from the accumulated closed form vs the quotient
    (h_i)_{u_j} / h_j recomputed from the h grid: agreement at order 2."""
    frame = one_soliton(torus_frame)

    def residual(m):
        grid = Grid.from_specs([(-0.4, 0.4, m)] * 2)
        metric = metric_from_frame(frame, grid)
        worst = 0.0
        for j in range(2):
            dh = np.gradient(metric.h, grid.spacing(j), axis=j, edge_order=2)
            for i in range(2):
                if i != j:
                    fd_beta = dh[..., i] / metric.h[..., j]
                    worst = max(worst, max_abs(fd_beta - metric.beta[..., i, j]))
        return worst

    r1, r2 = residual(9), residual(17)
    assert 3.2 < r1 / r2 < 4.8


def test_second_fundamental_form_scalar_consequence(torus_frame):
    """The shape of the second fundamental form is checked through its scalar
    consequence: <d_i d_j X, J d_k X> = lam delta_ij delta_ik h_i^2, i.e.
    principal curvatures lam / h_i along the coordinate directions."""
    frame = one_soliton(torus_frame)
    lam = 0.9
    u0 = np.array([0.25, -0.15])
    eps = 1e-3

    def X_at(u):
        return frame.X(u, lam)

    for i in range(2):
        for j in range(2):
            ei, ej = np.eye(2)[i], np.eye(2)[j]
            if i == j:
                second = (X_at(u0 + eps * ei) - 2 * X_at(u0) + X_at(u0 - eps * ei)) / eps ** 2
            else:
                second = (X_at(u0 + eps * (ei + ej)) - X_at(u0 + eps * (ei - ej))
                          - X_at(u0 - eps * (ei - ej)) + X_at(u0 - eps * (ei + ej))) / (4 * eps ** 2)
            for k in range(2):
                tangent = frame.h(u0)[k] * frame.E(u0, lam)[:, k]
                got = np.imag(np.vdot(tangent, second))
                expect = lam * frame.h(u0)[i].real ** 2 if (i == j and i == k) else 0.0
                assert abs(got - expect) < 1e-5


def test_metric_flags_nonpositive(torus_frame):
    # a large translation pushes h negative somewhere on the grid
    frame = dress_translation(torus_frame, 0.9, np.array([-3.0, 0.0]))
    grid = Grid.from_specs([(-0.4, 0.4, 5)] * 2)
    metric = metric_from_frame(frame, grid)
    assert metric.imag_max < DEFAULT_TOLERANCES["metric_real"] and not np.all(metric.h.real > 0)

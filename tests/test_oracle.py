from pathlib import Path

import numpy as np
import pytest

from dressing_forge import (DressingForgeError, ExtendedFrame, Grid, PathSpec,
                            ProjectionDriftError, VacuumSeed, doubling_estimate,
                            dress_real, dress_translation, dress_two_pole,
                            estimate_order, integrate_bf, integrate_frame,
                            integrate_frames, max_abs, project_onto_span,
                            solve_linear)
from dressing_forge import cli
from dressing_forge.oracle import RK4_CHUNK_STEPS, _segment_steps

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_pathspec_staircase_and_endpoint():
    path = PathSpec.staircase(np.array([0.5, -0.4]))
    assert path.segments == ((0, 0.5), (1, -0.4))
    assert np.allclose(path.endpoint(2), [0.5, -0.4])
    wps = path.waypoints(2)
    assert np.allclose(wps[1][0], [0.5, 0.0])
    with pytest.raises(ValueError):
        PathSpec(((3, 1.0),)).waypoints(2)


def test_segment_step_count_is_bounded():
    assert _segment_steps(0.0, 0.3, 1e-2) == 30
    # at twice the step, exactly half the steps, rounded up, even where the
    # length is a hair past a whole number of steps
    for length in (0.3, 0.24, 0.31, 0.05, 0.006, 0.01 * (31 + 2e-12), 0.01 * (30 + 1.5e-12)):
        fine = _segment_steps(0.0, length, 1e-2)
        assert _segment_steps(0.0, length, 2e-2) == -(-fine // 2), length
    # 3e299 steps, or an overflow to inf, are refused rather than attempted
    for step in (1e-300, 5e-324):
        with pytest.raises(DressingForgeError, match="RK4 step"):
            _segment_steps(0.0, 0.3, step)


def test_integrate_frame_vacuum_closed_form(torus_frame):
    lam = 1.0
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    E, X = integrate_frame(2, torus_frame.beta, torus_frame.h, lam, path, 1e-2)
    E_ref, X_ref = torus_frame.evaluate(target, lam)
    assert max_abs(E - E_ref) < 1e-10
    assert max_abs(X - X_ref) < 1e-10


def test_integrate_frame_dressed_order4(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    lam = 0.9
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    E_ref, X_ref = frame.evaluate(target, lam)

    def residual(step):
        E, X = integrate_frame(2, frame.beta, frame.h, lam, path, step)
        return max(max_abs(E - E_ref), max_abs(X - X_ref))

    assert 3.2 < estimate_order(residual(2e-2), residual(1e-2)) < 4.8
    assert residual(1e-2) < 1e-6


def test_integrate_frame_path_independence(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    lam = 0.9
    target = np.array([0.5, -0.4])
    fwd = PathSpec.staircase(target)
    rev = PathSpec.staircase(target, order=(1, 0))
    Ef, Xf = integrate_frame(2, frame.beta, frame.h, lam, fwd, 1e-2)
    Er, Xr = integrate_frame(2, frame.beta, frame.h, lam, rev, 1e-2)
    assert max(max_abs(Ef - Er), max_abs(Xf - Xr)) < 1e-6


@pytest.mark.parametrize("step", [0.45, cli.PDE_STEP])
def test_step_too_large_fails_the_pde_gate(torus_frame, pi_diag, monkeypatch, step):
    """A fast soliton integrated at a coarse step: the observed order
    degrades, step doubling no longer estimates the error, and the PDE
    check fails; at PDE_STEP the same frame passes at order 4."""
    frame = dress_real(torus_frame, 8.0, pi_diag)
    # the check's corner is 0.6 of each axis's end: (0.5, 0.4)
    grid = Grid.from_specs([(-1.0, 0.5 / 0.6, 5), (-1.0, 0.4 / 0.6, 5)])
    monkeypatch.setattr(cli, "PDE_STEP", step)
    report = cli._pde_frame_check(frame, grid, [0.9])
    order = report["pde_frame"].details["order"]
    if step == 0.45:
        assert order < 3 and report["pde_frame"].passed is False
    else:
        assert 3.8 < order < 4.2 and report.passed, str(report)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_pde_frame_gate_catches_a_1e_8_fault_in_the_closed_form(monkeypatch, name):
    """A closed-form frame off by 1e-8 at the check's corner fails
    pde_frame on every shipped scenario, while the former absolute
    tolerance of 1e-6 passed it; unperturbed, every one passes at order 4
    with its residual within the step-doubling estimate."""
    scenario = cli.load_scenario(SCENARIOS / f"{name}.json")
    frame = cli.apply_chain(scenario)
    check = cli._pde_frame_check(frame, scenario.grid, scenario.lambdas)["pde_frame"]
    assert check.passed and 3.9 < check.details["order"] < 4.1
    assert check.residual <= 1.01 * check.details["estimate"]
    evaluate = ExtendedFrame.evaluate

    def perturbed(self, u, lam):
        E, X = evaluate(self, u, lam)
        return E + 1e-8, X
    monkeypatch.setattr(ExtendedFrame, "evaluate", perturbed)
    faulty = cli._pde_frame_check(frame, scenario.grid, scenario.lambdas)["pde_frame"]
    assert faulty.passed is False and faulty.residual < 1e-6


@pytest.mark.parametrize("corner, ratio, tight", [([0.03, 0.03], 1.5, True),
                                                  ([0.03, 0.5], 1.5, False),
                                                  ([0.005, 0.5], 2.0, True),
                                                  ([0.5, 0.4], 2.0, True)])
def test_doubling_estimate_divides_by_the_least_segment_step_ratio(torus_frame, pi_diag,
                                                                    corner, ratio, tight):
    """Three steps of 1e-2 become two at 2e-2, a step ratio of 1.5, so the
    estimate divides by 1.5^4 - 1 rather than 15 (which reads a quarter of
    the error at three steps); a one-step segment, the same at both steps,
    is left out.  The estimate is within 10% of the error, or above it where
    the segments' ratios differ (0.03 at 1.5, 0.5 at 2)."""
    frame = dress_real(torus_frame, 8.0, pi_diag)
    corner = np.array(corner)
    path = PathSpec.staircase(corner)
    fine, coarse, ref = (np.column_stack(end) for end in integrate_frames(
        2, frame.beta, frame.h, 0.9, [path, path], [1e-2, 2e-2]) + [frame.evaluate(corner, 0.9)])
    estimate = doubling_estimate(2, path, 1e-2, fine, coarse)
    assert estimate == max_abs(coarse - fine) / (ratio ** 4 - 1)
    error = max_abs(fine - ref)
    assert error < 1.1 * estimate and (error > 0.9 * estimate or not tight)


def test_path_gate_takes_the_reversed_paths_own_estimate():
    """Eight real one-poles at n = 3 (a random chain) at lambda = 0.37, the
    corner at 1.2: at 2h the reversed staircase errs 22 times the forward
    one, so the 2h ends lie more than ten times the gate's multiple of the
    forward 2h end's error bound, 16 e, apart.  The gate adds the reversed
    path's own estimate and passes."""
    rng = np.random.default_rng(40)
    frame = ExtendedFrame(VacuumSeed.constant(rng.uniform(0.6, 1.4, 3)))
    for k in range(8):
        v = rng.normal(size=3)
        frame = dress_real(frame, 0.5 + 0.2 * k, project_onto_span(v / np.linalg.norm(v)))
    report = cli._pde_frame_check(frame, Grid.from_specs([(-1.0, 2.0, 3)] * 3), [0.37])
    paths = report["path_independence"]
    assert paths.residual > 10 * cli.PDE_ERROR_MULTIPLE * 16 * report["pde_frame"].details["estimate"]
    assert report.passed and paths.residual < 0.5 * paths.tolerance, str(report)


def test_bf_fixed_points(torus_frame, pi_diag):
    path = PathSpec.staircase(np.array([0.4, -0.3]))
    for pi0 in (np.zeros((2, 2)), np.eye(2)):
        out = integrate_bf(2, torus_frame.beta, torus_frame.h, 0.6, pi0,
                           np.array([0.3, -0.1]), path, 1e-2)
        assert max_abs(out.pi_tilde - pi0) < 1e-12
        assert np.all(np.isfinite(out.y))


def test_bf_matches_algebraic_projection(torus_frame, pi_diag):
    alpha = 0.6
    frame = dress_real(torus_frame, alpha, pi_diag)
    rec = frame.history[0]
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)

    def run(step):
        out = integrate_bf(2, torus_frame.beta, torus_frame.h, alpha,
                           pi_diag.matrix, np.zeros(2), path, step)
        data = rec.point_data(frame, 0, target)
        return out, max_abs(out.pi_tilde - data.pi_tilde)

    out1, r1 = run(2e-2)
    out2, r2 = run(1e-2)
    assert 3.0 < estimate_order(r1, r2) < 5.0
    assert r2 < 1e-7
    assert out2.max_correction < 1e-8
    # b = 0 case: y equals pi_tilde eta, i.e. (h - h_dressed) / (2 alpha)
    expected_y = (torus_frame.h(target) - frame.h(target)) / (2 * alpha)
    assert max_abs(out2.y - expected_y) < 1e-7


def test_bf_translation_composite_initial_data(torus_frame, pi_diag):
    """y(0) = b corresponds to the composite of the one-pole dressing with the
    translation factor k_{-i alpha, -2 alpha b}: empirically
    y(u) = pi_tilde eta + E_dressed(u, -i alpha)^{-1} b."""
    alpha = 0.6
    b = np.array([1.0, 0.0])
    frame = dress_real(torus_frame, alpha, pi_diag)
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    out = integrate_bf(2, torus_frame.beta, torus_frame.h, alpha,
                       pi_diag.matrix, b, path, 5e-3)
    rec = frame.history[0]
    data = rec.point_data(frame, 0, target)
    y_expected = data.pe + solve_linear(frame.E(target, -1j * alpha), b.astype(complex))
    assert max_abs(out.y - y_expected) < 1e-7
    # equivalently: h - 2 alpha y equals the composite-dressed h
    composite = dress_translation(frame, -alpha, -2 * alpha * b)
    assert max_abs((torus_frame.h(target) - 2 * alpha * out.y) - composite.h(target)) < 1e-7


def test_bf_cross_derivative_consistency(torus_frame, pi_diag):
    """Solvability of the dressing system is witnessed by path-order
    independence: integrating axis 1 then 2 agrees with 2 then 1 to
    integrator order."""
    alpha = 0.6
    target = np.array([0.5, -0.4])
    out_a = integrate_bf(2, torus_frame.beta, torus_frame.h, alpha,
                         pi_diag.matrix, np.array([0.3, -0.1]),
                         PathSpec.staircase(target), 1e-2)
    out_b = integrate_bf(2, torus_frame.beta, torus_frame.h, alpha,
                         pi_diag.matrix, np.array([0.3, -0.1]),
                         PathSpec.staircase(target, order=(1, 0)), 1e-2)
    assert max_abs(out_a.pi_tilde - out_b.pi_tilde) < 1e-8
    assert max_abs(out_a.y - out_b.y) < 1e-8


def test_metric_interpolators_feed_integrator(torus_frame, pi_diag):
    """Externally supplied gridded metrics integrate through spline
    interpolants; accuracy is capped by interpolation, not by the step."""
    from dressing_forge import Grid, metric_from_frame
    from dressing_forge.oracle import metric_interpolators

    frame = dress_real(torus_frame, 0.6, pi_diag)
    metric = metric_from_frame(frame, Grid.from_specs([(-0.6, 0.6, 25)] * 2))
    beta_fn, h_fn = metric_interpolators(metric)
    u = np.array([0.23, -0.41])
    assert max_abs(h_fn(u) - frame.h(u)) < 1e-5
    assert max_abs(beta_fn(u) - frame.beta(u)) < 1e-5
    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    E, X = integrate_frame(2, beta_fn, h_fn, 0.9, path, 1e-2)
    E_ref, X_ref = frame.evaluate(target, 0.9)
    assert max(max_abs(E - E_ref), max_abs(X - X_ref)) < 1e-4


def test_bf_projection_drift_guard(torus_frame, pi_diag):
    path = PathSpec.staircase(np.array([0.6, -0.5]))
    with pytest.raises(ProjectionDriftError):
        integrate_bf(2, torus_frame.beta, torus_frame.h, 3.0, pi_diag.matrix,
                     np.zeros(2), path, 0.3, drift_tol=1e-10)


def test_estimate_order_values():
    assert abs(estimate_order(1e-2, 1e-2 / 16) - 4.0) < 1e-12
    # central differences on a smooth function: order 2
    f = np.sin
    def fd(h):
        return abs((f(0.3 + h) - f(0.3 - h)) / (2 * h) - np.cos(0.3))
    assert 1.8 < estimate_order(fd(1e-2), fd(5e-3)) < 2.2
    # non-smooth (clamped) data degrades the observed order: differentiate
    # max(x, 0) across its kink at a point the stencils straddle
    g = lambda x: max(x, 0.0)
    def fd_bad(h):
        return abs((g(0.001 + h) - g(0.001 - h)) / (2 * h) - 1.0)
    assert estimate_order(fd_bad(1e-2), fd_bad(5e-3)) < 1.2
    assert estimate_order(1.0, 0.0) == np.inf
    # a ratio that underflows reads -inf, not a math domain error
    assert estimate_order(0.0, 1e-16) == estimate_order(1.0, np.inf) == -np.inf
    assert estimate_order(1e-200, 1e200) == -np.inf


# -- batched stage points against a per-point RK4 reference ------------------

def _reference_rk4(state, rhs, n, path, step, post=lambda s: s):
    """Classical RK4 along the path, one point per stage: rhs(u, axis, state)
    evaluates beta/h at the single point u.  States are tuples of arrays."""
    def axpy(s, a, k):
        return tuple(si + a * ki for si, ki in zip(s, k))

    for u_start, axis, t0, t1 in path.waypoints(n):
        if t0 == t1:
            continue
        m = max(1, int(np.ceil(abs(t1 - t0) / step - 1e-12)))
        dt = (t1 - t0) / m

        def f(t, s, u_start=u_start, axis=axis):
            u = u_start.copy()
            u[axis] = t
            return rhs(u, axis, s)

        for i in range(m):
            t = t0 + i * dt
            k1 = f(t, state)
            k2 = f(t + 0.5 * dt, axpy(state, 0.5 * dt, k1))
            k3 = f(t + 0.5 * dt, axpy(state, 0.5 * dt, k2))
            k4 = f(t + dt, axpy(state, dt, k3))
            state = post(tuple(s + dt / 6.0 * (a + 2 * b + 2 * c + d)
                               for s, a, b, c, d in zip(state, k1, k2, k3, k4)))
    return state


def _commutator(M, axis):
    """[e_aa, M] written out entry by entry."""
    out = np.zeros(M.shape, dtype=complex)
    for j in range(M.shape[0]):
        out[axis, j] += M[axis, j]
        out[j, axis] -= M[j, axis]
    return out


def _reference_frame(frame, lam, path, step):
    n = frame.n

    def rhs(u, axis, state):
        theta = np.zeros((n + 1, n + 1), dtype=complex)
        theta[:n, :n] = _commutator(frame.beta(u), axis)
        theta[axis, axis] += 1j * lam
        theta[axis, n] = frame.h(u)[axis]
        return (state[0] @ theta,)

    (F,) = _reference_rk4((np.eye(n + 1, dtype=complex),), rhs, n, path, step)
    return F[:n, :n], F[:n, n]


def _reference_bf(frame, alpha, pi0, b, path, step):
    n = frame.n

    def rhs(u, axis, state):
        pi, y = state
        Ba = _commutator(frame.beta(u), axis)
        comm = _commutator(pi, axis)
        d_pi = pi @ Ba - Ba @ pi + alpha * (np.eye(n) - 2 * pi) @ comm
        d_y = (-_commutator(frame.beta(u) - 2 * alpha * pi, axis) @ y
               + frame.h(u)[axis] * pi[:, axis])
        d_y[axis] -= alpha * y[axis]
        return (d_pi, d_y)

    def post(state):
        vals, vecs = np.linalg.eigh(0.5 * (state[0] + state[0].conj().T))
        Q = vecs[:, vals > 0.5]
        return (Q @ Q.conj().T, state[1])

    start = (np.asarray(pi0, dtype=complex), np.asarray(b, dtype=complex))
    return _reference_rk4(start, rhs, n, path, step, post)


def _oracle_chain(torus_frame):
    frame = dress_real(torus_frame, 0.6, project_onto_span(np.array([1.0, 1.0])))
    frame = dress_two_pole(frame, 0.5 + 1.3j, project_onto_span(np.array([1.0, 0.2 - 0.4j])))
    return dress_translation(frame, 1.7, [0.1, -0.2])


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["forward", "reversed"])
@pytest.mark.parametrize("chain", [False, True], ids=["constant-seed", "dressed-chain"])
def test_batched_oracles_match_per_point_reference(torus_frame, chain, order):
    frame = _oracle_chain(torus_frame) if chain else torus_frame
    path = PathSpec.staircase(np.array([0.5, -0.4]), order=order)
    for lam in (0.9, 0.3 - 0.4j):
        E, X = integrate_frame(2, frame.beta, frame.h, lam, path, 2e-2)
        E_ref, X_ref = _reference_frame(frame, lam, path, 2e-2)
        assert max(max_abs(E - E_ref), max_abs(X - X_ref)) < 1e-13
    pi0 = project_onto_span(np.array([1.0, 1.0])).matrix
    out = integrate_bf(2, frame.beta, frame.h, 0.6, pi0, np.array([0.3, -0.1]), path, 2e-2)
    pi_ref, y_ref = _reference_bf(frame, 0.6, pi0, np.array([0.3, -0.1]), path, 2e-2)
    assert max(max_abs(out.pi_tilde - pi_ref), max_abs(out.y - y_ref)) < 1e-13


def test_consecutive_chunks_share_bounded_calls(torus_frame, pi_diag):
    """Chunks of consecutive segments share one beta call while their steps
    total at most RK4_CHUNK_STEPS, so no call carries more steps' stage
    points than that; the product of the stacked step matrices matches the
    per-point RK4 reference."""
    frame = dress_real(torus_frame, 0.6, pi_diag)
    sizes = []

    def beta_spy(U):
        sizes.append(len(U))
        return frame.beta(U)

    # 100, 100, 100 and 300 steps: [100, 100], [100], [256], [44]
    path = PathSpec(((0, 0.1), (1, 0.1), (0, 0.2), (1, 0.4)))
    E, X = integrate_frame(2, beta_spy, frame.h, 0.9, path, 1e-3)
    assert sizes == [2 * 201, 201, 2 * RK4_CHUNK_STEPS + 1, 89]
    assert sum(sizes) == 2 * 600 + 5
    E_ref, X_ref = _reference_frame(frame, 0.9, path, 1e-3)
    assert max(max_abs(E - E_ref), max_abs(X - X_ref)) < 1e-13


def test_paths_integrated_together_match_each_alone(torus_frame, pi_diag):
    """integrate_frames on two staircases, each at its own step, makes one
    beta call when their steps fit in one group, and gives each path's own
    integration."""
    frame = dress_real(torus_frame, 0.6, pi_diag)
    calls = []

    def beta_spy(U):
        calls.append(len(U))
        return frame.beta(U)

    corner = np.array([0.3, -0.25])
    paths = [PathSpec.staircase(corner), PathSpec.staircase(corner, order=(1, 0))]
    steps = [1e-2, 2e-2]
    together = integrate_frames(2, beta_spy, frame.h, 0.9 + 0.2j, paths, steps)
    # 30 and 25 steps at 1e-2, then 13 and 15 at 2e-2
    assert calls == [(2 * 30 + 1) + (2 * 25 + 1) + (2 * 13 + 1) + (2 * 15 + 1)]
    for (E, X), path, step in zip(together, paths, steps):
        E_one, X_one = integrate_frame(2, frame.beta, frame.h, 0.9 + 0.2j, path, step)
        assert max(max_abs(E - E_one), max_abs(X - X_one)) < 1e-14


def test_long_segment_is_evaluated_in_bounded_chunks(torus_frame, pi_diag):
    frame = dress_real(torus_frame, 0.6, pi_diag)
    sizes = []

    def beta_spy(U):
        sizes.append(len(U))
        return frame.beta(U)

    path = PathSpec(((0, 0.06),))
    E, X = integrate_frame(2, beta_spy, frame.h, 0.9, path, 1e-4)
    # 600 steps, split into chunks of at most RK4_CHUNK_STEPS steps
    assert len(sizes) == -(-600 // RK4_CHUNK_STEPS) > 1
    assert max(sizes) <= 2 * RK4_CHUNK_STEPS + 1
    assert sum((s - 1) // 2 for s in sizes) == 600
    E_ref, X_ref = _reference_frame(frame, 0.9, path, 1e-4)
    assert max(max_abs(E - E_ref), max_abs(X - X_ref)) < 1e-13

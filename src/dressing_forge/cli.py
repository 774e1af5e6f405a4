"""Pipeline driver: parse a JSON scenario, build the seed, apply the dressing
chain, run the verification suite, export geometry and reports.

Scenario files are JSON with ``schema_version`` 1.  Complex numbers are
[re, im] pairs; matrices are row-major arrays of such pairs.  Every tolerance
used by ``verify`` comes from the scenario (``checks.tolerances``) with the
documented defaults of ``report.DEFAULT_TOLERANCES``.  Every command takes
``--scenario`` and ``--out``; ``verify`` and ``run`` add ``--step`` (the PDE
cross-check's RK4 step) and ``--tol-scale`` (multiplies every tolerance),
``permute-check`` adds ``--tol-scale``.  Runs are deterministic: repeated
runs on the same scenario produce byte-identical exports.  A value that
overflows is carried as inf or NaN, without a numpy warning, and fails the
check that reads it.

Exit codes: 0 all enabled checks pass; 1 check failure, the failing checks
named on stderr; 2 parse error; 3 validation error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frames
from .dressing import dress, dress_permuted, dress_spherical
from .errors import (DressingForgeError, PoleCollisionError, RankDeficientError,
                     SphericalViolationError)
from .frames import (ExtendedFrame, PolynomialProfile, SampledProfile,
                     VacuumSeed, metric_from_frame, potential_on_grid)
from .geometry import (EgoroffMetric, Grid, axis_gradient, check_darboux_egoroff,
                       check_lagrangian, check_partial_invariance,
                       check_sphere, is_real_lambda, limit_net, sample_immersion)
from .linalg import max_abs, project_onto_span
from .loops import (RealOnePoleFactor, TranslationFactor, TwoPointFactor,
                    check_pole_collisions, one_pole_factor, random_lambda_samples,
                    two_pole_factor)
from .oracle import PathSpec, integrate_frame
from .report import DEFAULT_TOLERANCES, CheckResult, VerificationReport

SCHEMA_VERSION = 1

# checks run by `verify` unless the scenario toggles them; the sphere-type
# checks default on only when the dressed chain keeps |h| constant
BASE_CHECKS = ("reality", "darboux_egoroff", "lagrangian", "position_equation",
               "potential", "metric_real", "lambda_zero", "pde_frame")
SPHERICAL_CHECKS = ("sphere", "partial_invariance")

REALITY_SAMPLE_SEED = 20260809

SIGMA_INCOMPATIBLE = "history contains sigma-incompatible factors"


class ParseError(DressingForgeError):
    pass


class ValidationError(DressingForgeError):
    pass


@dataclass(eq=False)
class Scenario:
    n: int
    seed: VacuumSeed
    grid: Grid
    lambdas: list
    chain: list
    checks: dict
    tolerances: dict
    export: dict | None
    reality_samples: int


def _is_number(value) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _complex_pair(value, rule: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_number(v) for v in value)):
        raise ValidationError(f"{rule}: complex numbers are [re, im] pairs of finite "
                              f"numbers, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _complex_matrix(rows, rule: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{rule}: expected a row-major matrix of [re, im] pairs")
    out = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{rule}: expected a row-major matrix of [re, im] pairs")
        out.append([_complex_pair(x, rule) for x in row])
    width = {len(r) for r in out}
    if len(width) != 1:
        raise ValidationError(f"{rule}: ragged matrix rows")
    return np.array(out, dtype=complex)


def parse_scenario(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario root must be a JSON object")
    return raw


def _build_seed(n: int, spec) -> VacuumSeed:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("seed: must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "constant":
        radii = spec.get("radii")
        if not isinstance(radii, list) or len(radii) != n:
            raise ValidationError(f"seed.radii: need {n} positive radii")
        if any(not _is_number(r) or r <= 0 for r in radii):
            raise ValidationError("seed.radii: radii must be positive numbers")
        try:
            return VacuumSeed.constant(radii)
        except ValueError as exc:
            raise ValidationError(f"seed.radii: {exc}") from exc
    if kind in ("polynomial", "sampled"):
        profs = spec.get("profiles")
        if not isinstance(profs, list) or len(profs) != n:
            raise ValidationError(f"seed.profiles: need {n} per-axis profiles")
        profile, names = ((PolynomialProfile, ("coeffs", "domain")) if kind == "polynomial"
                          else (SampledProfile, ("knots", "values")))
        built = []
        for j, p in enumerate(profs):
            where = f"seed.profiles[{j}]"
            if not isinstance(p, dict):
                raise ValidationError(f"{where}: must be an object with {' and '.join(names)}")
            for name in names:
                values = p.get(name)
                if not isinstance(values, list) or not all(_is_number(v) for v in values):
                    raise ValidationError(f"{where}.{name}: got {values!r} "
                                          f"(rule: profile {name} is a list of finite numbers)")
            try:
                built.append(profile(*(tuple(p[name]) for name in names)))
            except ValueError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
        return VacuumSeed(tuple(built))
    raise ValidationError(f"seed.type: unknown seed type {kind!r}")


def _validate_chain(seed: VacuumSeed, chain_spec) -> list:
    """The chain as (type, loop factor) pairs.  Entry fields are checked for
    shape here; the factor rules are the loop-factor constructors'."""
    n = seed.n
    if chain_spec is None:
        return []
    if not isinstance(chain_spec, list):
        raise ValidationError("chain: must be a list of factor specs")
    chain = []
    for i, entry in enumerate(chain_spec):
        where = f"chain[{i}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValidationError(f"{where}: each factor spec needs a 'type'")
        kind = entry["type"]
        if kind not in ("real_one_pole", "spherical", "one_pole", "two_pole", "translation"):
            raise ValidationError(f"{where}.type: unknown factor type {kind!r}")
        if kind == "spherical" and not seed.is_spherical:
            raise ValidationError(f"{where}: a spherical entry needs a constant seed "
                                  "(rule: spherical dressing on a constant-profile seed)")
        if kind in ("real_one_pole", "spherical", "translation"):
            alpha = entry.get("alpha")
            if not _is_number(alpha):
                raise ValidationError(f"{where}.alpha: got {alpha!r} (rule: alpha is a finite number)")
        if kind == "translation":
            b = entry.get("b")
            if not isinstance(b, list) or len(b) != n or not all(_is_number(x) for x in b):
                raise ValidationError(f"{where}.b: must be a real vector of length {n}")
        else:
            span = _complex_matrix(entry.get("span"), f"{where}.span")
            if span.shape[0] != n:
                raise ValidationError(f"{where}.span: need {n} rows, got {span.shape[0]}")
            try:
                projection = project_onto_span(span)
            except RankDeficientError as exc:
                raise ValidationError(f"{where}.span: {exc} (rule: projection well-formed)") from exc
        if kind in ("one_pole", "two_pole"):
            z = _complex_pair(entry.get("z"), f"{where}.z")
        try:
            if kind == "translation":
                factor = TranslationFactor(float(alpha), b)
            elif kind == "one_pole":
                factor = one_pole_factor(z, projection)
            elif kind == "two_pole":
                factor = two_pole_factor(z, projection)
            else:
                factor = RealOnePoleFactor(float(alpha), projection)
        except (ValueError, DressingForgeError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        chain.append((kind, factor))
    return chain


def validate_scenario(raw: dict) -> Scenario:
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValidationError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    n = raw.get("n")
    if not isinstance(n, int) or not 2 <= n <= 8:
        raise ValidationError("n: dimension must be an integer in [2, 8]")

    seed = _build_seed(n, raw.get("seed"))

    grid_spec = raw.get("grid")
    if not isinstance(grid_spec, list) or len(grid_spec) != n:
        raise ValidationError(f"grid: need {n} per-axis [min, max, points] triples")
    for j, g in enumerate(grid_spec):
        if (not isinstance(g, list) or len(g) != 3
                or not all(_is_number(x) for x in g[:2])
                or g[0] >= g[1] or not _is_count(g[2], 3)):
            raise ValidationError(
                f"grid[{j}]: expected [min, max, points] with finite min < max and an "
                "integer points >= 3 (rule: at least 3 grid points per axis, as the "
                "2nd-order finite differences need)")
        if not g[0] <= 0.0 <= g[1]:
            raise ValidationError(f"grid[{j}]: grid must contain the origin (path integrals anchor at u = 0)")
    grid = Grid.from_specs(grid_spec)

    lambdas_spec = raw.get("lambdas", [[1.0, 0.0]])
    if not isinstance(lambdas_spec, list):
        raise ValidationError(f"lambdas: got {lambdas_spec!r} "
                              "(rule: lambdas is a list of [re, im] pairs)")
    lambdas = [_complex_pair(v, "lambdas") for v in lambdas_spec]

    chain = _validate_chain(seed, raw.get("chain"))
    poles = [p for _, factor in chain for p in factor.poles()]
    try:
        check_pole_collisions(poles)
    except PoleCollisionError as exc:
        raise ValidationError(f"chain: {exc} (rule: distinct factor poles)") from None

    checks_spec = raw.get("checks", {})
    if not isinstance(checks_spec, dict):
        raise ValidationError("checks: must be an object of name -> bool toggles")
    tolerances = dict(DEFAULT_TOLERANCES)
    tol_spec = checks_spec.get("tolerances", {})
    if not isinstance(tol_spec, dict):
        raise ValidationError("checks.tolerances: must be an object of tolerance name -> "
                              "number (rule: tolerances by name)")
    for k, v in tol_spec.items():
        if k not in DEFAULT_TOLERANCES:
            raise ValidationError(f"checks.tolerances.{k}: unknown tolerance name")
        if not _is_number(v) or v <= 0:
            raise ValidationError(f"checks.tolerances.{k}: got {v!r} "
                                  "(rule: tolerances are finite positive numbers)")
        tolerances[k] = float(v)
    # tri-state toggles: True/False when the scenario says so, None = decide
    # from applicability (sphere-type checks need a partial-invariant chain)
    enabled = {}
    for name in BASE_CHECKS + SPHERICAL_CHECKS:
        value = checks_spec.get(name)
        if value is not None and not isinstance(value, bool):
            raise ValidationError(f"checks.{name}: toggle must be true or false")
        enabled[name] = value if value is not None else (None if name in SPHERICAL_CHECKS
                                                         else True)
    unknown = [name for name in checks_spec if name not in enabled and name != "tolerances"]
    if unknown:
        raise ValidationError(f"checks.{unknown[0]}: unknown check toggle (rule: a toggle "
                              f"names one of {', '.join(enabled)})")

    export = raw.get("export")
    if export is not None:
        if not isinstance(export, dict):
            raise ValidationError("export: must be an object")
        fmt = export.get("format")
        if fmt not in ("csv", "obj"):
            raise ValidationError("export.format: must be 'csv' or 'obj'")
        lam = _complex_pair(export.get("lambda", [1.0, 0.0]), "export.lambda")
        export = dict(export)
        export["lambda"] = lam
        slice_axes = export.get("slice_axes", list(range(min(2, n))))
        if (not isinstance(slice_axes, list)
                or any(not _is_count(a, 0) or a >= n for a in slice_axes)):
            raise ValidationError(f"export.slice_axes: axis indices must lie in [0, {n})")
        if len(set(slice_axes)) != len(slice_axes):
            raise ValidationError(f"export.slice_axes: got {slice_axes!r} "
                                  "(rule: slice axes are distinct)")
        export["slice_axes"] = slice_axes
        fixed = export.get("fixed", {})
        if not isinstance(fixed, dict) or not all(
                str(k) in map(str, range(n)) and _is_number(v) for k, v in fixed.items()):
            raise ValidationError(f"export.fixed: got {fixed!r} "
                                  "(rule: fixed maps axis indices < n to finite numbers)")
        export["fixed"] = {int(k): float(v) for k, v in fixed.items()}
        if set(export["fixed"]) & set(slice_axes):
            raise ValidationError(f"export.fixed: got {fixed!r} "
                                  "(rule: fixed axes are not slice axes)")
        name = export.get("path", f"immersion.{fmt}")
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValidationError(f"export.path: got {name!r} "
                                  "(rule: export path is a file name in the output directory)")
        export["path"] = name
        if fmt == "obj":
            if len(slice_axes) != 2:
                raise ValidationError("export.slice_axes: OBJ export needs exactly two slice axes")
            comps = export.get("obj_components", [0, min(1, n - 1)])
            if (not isinstance(comps, list) or len(comps) != 2
                    or any(not _is_count(c, 0) or c >= n for c in comps)):
                raise ValidationError(f"export.obj_components: need two component indices in [0, {n})")
            export["obj_components"] = comps

    reality_samples = raw.get("reality_samples", 50)
    if not _is_count(reality_samples, 1):
        raise ValidationError(f"reality_samples: got {reality_samples!r} "
                              "(rule: reality_samples is a positive integer)")

    return Scenario(n=n, seed=seed, grid=grid, lambdas=lambdas, chain=chain,
                    checks=enabled, tolerances=tolerances, export=export,
                    reality_samples=reality_samples)


def load_scenario(path) -> Scenario:
    return validate_scenario(parse_scenario(path))


def apply_chain(scenario: Scenario) -> ExtendedFrame:
    frame = ExtendedFrame(scenario.seed)
    for i, (kind, factor) in enumerate(scenario.chain):
        try:
            if kind == "spherical":
                frame = dress_spherical(frame, factor.alpha, factor.projection)
            else:
                frame = dress(frame, factor)
        except SphericalViolationError as exc:
            raise ValidationError(
                f"chain[{i}]: sphere-preservation condition violated: {exc} "
                "(rule: projection image orthogonal to h(0))") from exc
    return frame


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _reality_samples(frame, scenario):
    """The reality check's random (lam, u) samples in draw order: each lam
    from ``random_lambda_samples`` on the one generator, clear of every
    sensitive point, its negative and their conjugates, then u."""
    rng = np.random.default_rng(REALITY_SAMPLE_SEED)
    guard = [p for q in map(complex, frame.sensitive_points())
             for p in (q, -q, q.conjugate(), -q.conjugate())]
    lo = [a[0] for a in scenario.grid.axes]
    hi = [a[-1] for a in scenario.grid.axes]
    for _ in range(scenario.reality_samples):
        lam = random_lambda_samples(1, guard, rng)[0]
        yield lam, [rng.uniform(l, h) for l, h in zip(lo, hi)]


def _reality_check(frame, scenario, tol) -> VerificationReport:
    """tau-reality E(u, conj(lam))* E(u, lam) = I and, for sigma-compatible
    chains, sigma-reality E(u, lam)^t E(u, -lam) = I at random (u, lam)
    samples.  Every ``frames.POINT_BLOCK`` samples form one point set with
    one lambda per point, evaluated once on the stack [lam, conj(lam)] (and
    -lam for sigma), so memory stays bounded however many samples are asked
    for."""
    samples = _reality_samples(frame, scenario)
    eye = np.eye(frame.n)
    taus, sigmas = [], []
    while chunk := list(itertools.islice(samples, frames.POINT_BLOCK)):
        lams, points = zip(*chunk)
        U, lams = np.array(points), np.array(lams)
        E = frame.E(U, np.array([lams, lams.conj()] + [-lams] * frame.is_sigma_compatible))
        taus.append(max_abs(E[1].conj().swapaxes(-1, -2) @ E[0] - eye))
        if frame.is_sigma_compatible:
            sigmas.append(max_abs(E[0].swapaxes(-1, -2) @ E[2] - eye))
    report = VerificationReport()
    report.add("reality_tau", max_abs(taus), tol, samples=scenario.reality_samples)
    if frame.is_sigma_compatible:
        report.add("reality_sigma", max_abs(sigmas), tol, samples=scenario.reality_samples)
    else:
        report.add("reality_sigma_skipped", 0.0, None, reason=SIGMA_INCOMPATIBLE)
    return report


def _position_equation_check(sample, h, tol) -> VerificationReport:
    """Finite-difference dX/du_i against h_i E e_i on the sample's grid."""
    report = VerificationReport()
    worst = max_abs([max_abs(axis_gradient(sample.X, sample.grid, axis)
                             - h[..., axis, None] * sample.E[..., :, axis])
                     for axis in range(sample.grid.n)])
    report.add("position_equation", worst, tol, lam=sample.lam.real)
    return report


def _pde_frame_check(frame, grid, lambdas, tol, path_tol, step) -> VerificationReport:
    report = VerificationReport()
    lams = [lam for lam in lambdas if abs(lam) > 1e-12] or [complex(1.0)]
    lam = lams[0]
    n = frame.n
    corner = np.array([0.6 * a[-1] for a in grid.axes])
    path = PathSpec.staircase(corner)
    E_num, X_num = integrate_frame(n, frame.beta, frame.h, lam, path, step)
    E_ref, X_ref = frame.evaluate(corner, lam)
    residual = max_abs([max_abs(E_num - E_ref), max_abs(X_num - X_ref)])
    report.add("pde_frame", residual, tol, step=step, lam=str(lam))
    path_rev = PathSpec.staircase(corner, order=range(n - 1, -1, -1))
    E_rev, X_rev = integrate_frame(n, frame.beta, frame.h, lam, path_rev, step)
    report.add("path_independence", max_abs([max_abs(E_num - E_rev), max_abs(X_num - X_rev)]),
               path_tol, step=step)
    return report


def run_verification(scenario: Scenario, frame: ExtendedFrame, metric: EgoroffMetric,
                     step: float) -> VerificationReport:
    """Run the enabled checks on the dressed frame, its metric on the scenario
    grid and the PDE cross-check's RK4 step, at the scenario's tolerances."""
    tols = scenario.tolerances
    report = VerificationReport()
    checks = dict(scenario.checks)
    grid = scenario.grid

    # sphere-type checks default on exactly when the chain provably keeps the
    # metric partial-invariant; an explicit toggle always wins
    for name in SPHERICAL_CHECKS:
        if checks.get(name) is None:
            checks[name] = frame.is_partial_invariant

    # one immersion sample per real lambda, shared by the checks that need it
    sample = functools.cache(lambda lam: sample_immersion(frame, grid, lam))
    real_lams = [lam.real for lam in scenario.lambdas if is_real_lambda(lam)]

    if checks.get("reality"):
        report.extend(_reality_check(frame, scenario, tols["reality"]))
    if checks.get("metric_real"):
        if frame.is_sigma_compatible:
            report.add("metric_real", metric.imag_max, tols["metric_real"])
        else:
            report.add("metric_real_skipped", metric.imag_max, None, reason=SIGMA_INCOMPATIBLE)
    if checks.get("darboux_egoroff"):
        report.extend(check_darboux_egoroff(metric, tols["darboux_egoroff"]))
    if checks.get("lagrangian"):
        for lam in real_lams:
            sub = check_lagrangian(sample(lam), metric.h, tols["lagrangian"],
                                   tols["lagrangian_metric"])
            report.extend(sub, prefix=f"lam={lam:g}/")
        if not real_lams:
            report.add("lagrangian_skipped", 0.0, None, reason="no real lambda in lambdas "
                       "(rule: the Lagrangian check runs at each real lambda)")
    if checks.get("sphere"):
        sphere_lams = [lam for lam in real_lams if lam != 0]
        # h at the origin fixes the sphere; only this check reads it
        h0 = frame.h(np.zeros(grid.n)).real if sphere_lams else None
        for lam in sphere_lams:
            report.extend(check_sphere(sample(lam), h0, tols["sphere"]), prefix=f"lam={lam:g}/")
        if not sphere_lams:
            report.add("sphere_skipped", 0.0, None, reason="no real nonzero lambda in lambdas "
                       "(rule: the sphere check runs at each real lambda other than 0)")
    if checks.get("partial_invariance"):
        report.extend(check_partial_invariance(metric, tols["partial_invariance"],
                                               tols["norm_constancy"]))
    if checks.get("position_equation"):
        lam = real_lams[0] if real_lams else 1.0
        report.extend(_position_equation_check(sample(lam), metric.h,
                                               tols["position_equation"]))
    if checks.get("potential"):
        # the staircase integral is the oracle for the closed-form metric.phi
        if frame.has_closed_potential:
            residual = max_abs(potential_on_grid(frame, grid) - metric.phi)
            report.add("potential_agreement", residual, tols["potential"])
        else:
            i, rec = next((i, rec) for i, rec in enumerate(frame.history)
                          if rec.potential_gap is not None)
            report.add("potential_skipped", 0.0, None,
                       reason=f"chain[{i}]: {rec.potential_gap}")
    if checks.get("lambda_zero"):
        if frame.is_sigma_compatible:
            report.extend(limit_net(frame, grid, tols["lambda_zero"],
                                    tols["lambda_zero_derivative"])[1])
        else:
            report.add("lambda_zero_skipped", 0.0, None, reason=SIGMA_INCOMPATIBLE)
    if checks.get("pde_frame"):
        report.extend(_pde_frame_check(frame, grid, scenario.lambdas,
                                       tols["pde_frame"], tols["path_independence"], step))
    return report


def _slice_points(grid: Grid, slice_axes, fixed) -> np.ndarray:
    """Grid points of the slice, shape (m, n), the last slice axis running
    fastest: free coordinates run over the listed axes, the rest sit at their
    fixed values (default 0)."""
    free = list(slice_axes)
    U = np.zeros(tuple(grid.axes[a].size for a in free) + (grid.n,))
    for axis, val in fixed.items():
        U[..., axis] = val
    for a, coord in zip(free, np.meshgrid(*[grid.axes[a] for a in free], indexing="ij")):
        U[..., a] = coord
    return U.reshape(-1, grid.n)


def _write_csv(path, header: list, table: np.ndarray) -> int:
    """Write the header line and one line per row of the float table, every
    value at 17 significant digits; returns the row count."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return len(table)


def _re_im(name: str, labels, values) -> tuple:
    """Header names and float columns of complex values with one column per
    label: the real and the imaginary part of each, interleaved."""
    values = np.asarray(values).reshape(-1, len(labels))
    names = [f"{part}{name}{label}" for label in labels for part in ("Re", "Im")]
    return names, np.stack([values.real, values.imag], axis=-1).reshape(len(values), len(names))


def export_immersion_csv(frame, grid: Grid, lam: complex, slice_axes, fixed, path) -> int:
    axes = range(1, grid.n + 1)
    U = _slice_points(grid, slice_axes, fixed)
    names, X = _re_im("X", axes, frame.evaluate(U, lam)[1])
    return _write_csv(path, [f"u{j}" for j in axes] + names, np.hstack([U, X]))


def export_immersion_obj(frame, grid, lam, slice_axes, fixed, components, path) -> int:
    a, b = slice_axes
    p, q = components
    X = frame.evaluate(_slice_points(grid, slice_axes, fixed), lam)[1]
    lines = [f"v {_fmt(x[p].real)} {_fmt(x[p].imag)} {_fmt(x[q].real)}" for x in X]
    m = grid.axes[b].size
    for ia in range(grid.axes[a].size - 1):
        for ib in range(m - 1):
            v00 = ia * m + ib + 1
            v01 = v00 + 1
            v10 = v00 + m
            v11 = v10 + 1
            lines.append(f"f {v00} {v10} {v11}")
            lines.append(f"f {v00} {v11} {v01}")
    Path(path).write_text("\n".join(lines) + "\n")
    return len(X)


def export_metric_csv(metric, path) -> int:
    n = metric.n
    axes = range(1, n + 1)
    h_names, h = _re_im("h", axes, metric.h)
    phi_names, phi = _re_im("phi", [""], metric.phi)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))  # off-diagonal, row-major
    beta_names, beta = _re_im("beta", [f"{i + 1}{j + 1}" for i, j in zip(rows, cols)],
                              metric.beta[..., rows, cols])
    header = [f"u{j}" for j in axes] + h_names + phi_names + beta_names
    return _write_csv(path, header, np.hstack([metric.grid.points().reshape(-1, n),
                                               h, phi, beta]))


def export_sweep_csv(frame, grid, lambdas, path) -> tuple:
    """Write X at every grid point for each lambda, one call on the lambdas
    as a stack; returns the row count and X, shape (len(lambdas), points, n)."""
    axes = range(1, grid.n + 1)
    pts = grid.points().reshape(-1, grid.n)
    lams = np.repeat(np.asarray(lambdas, dtype=complex), len(pts))
    X = frame.evaluate(pts, np.reshape(lambdas, (-1, 1)))[1]
    names, cols = _re_im("X", axes, X)
    table = np.column_stack([lams.real, lams.imag, np.tile(pts, (len(lambdas), 1)), cols])
    return _write_csv(path, ["lam_re", "lam_im"] + [f"u{j}" for j in axes] + names, table), X


def _strict_json(value):
    """``value`` with every non-finite float written as the string "nan",
    "inf" or "-inf", which strict JSON parsers accept."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_report(report: VerificationReport, out_dir: Path, name: str, meta: dict):
    payload = _strict_json({"schema_version": SCHEMA_VERSION, **meta, **report.to_dict()})
    (out_dir / name).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
                                + "\n")


def _grid_meta(scenario: Scenario) -> dict:
    return {
        "grid_points": list(scenario.grid.shape),
        "grid_spacing": [scenario.grid.spacing(k) for k in range(scenario.n)],
        "n": scenario.n,
    }


def cmd_seed(scenario: Scenario, out_dir: Path, args) -> int:
    frame = ExtendedFrame(scenario.seed)
    metric = metric_from_frame(frame, scenario.grid)
    count = export_metric_csv(metric, out_dir / "seed_metric.csv")
    print(f"seed metric written: {count} rows -> {out_dir / 'seed_metric.csv'}")
    print(f"spherical seed: {scenario.seed.is_spherical}, "
          f"h(0) = {scenario.seed.h(np.zeros(scenario.n))}")
    return 0


def cmd_dress(scenario: Scenario, out_dir: Path, args) -> int:
    frame = apply_chain(scenario)
    metric = metric_from_frame(frame, scenario.grid)
    count = export_metric_csv(metric, out_dir / "metric.csv")
    print(f"dressed metric written: {count} rows -> {out_dir / 'metric.csv'}")
    real = CheckResult("metric_real", metric.imag_max, scenario.tolerances["metric_real"]).passed
    h_positive = real and bool(np.all(metric.h.real > 0))
    print(f"chain length {len(scenario.chain)}; metric real: {real} "
          f"(max imag {metric.imag_max:.2e}); h positive: {h_positive}")
    if real and not h_positive:
        print("warning: h <= 0 somewhere on the grid (left the immersion chart)")
    return 0


def _verdict(scenario: Scenario, out_dir: Path, report: VerificationReport, name: str) -> int:
    """Write the verification report to ``name`` under ``out_dir`` and print
    it; the exit code it implies, with the failing checks named on stderr."""
    _write_report(report, out_dir, name, _grid_meta(scenario))
    print(report)
    if not report.passed:
        failing = ", ".join(c.name for c in report.failures())
        print(f"FAILED checks: {failing}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(scenario: Scenario, out_dir: Path, args) -> int:
    frame = apply_chain(scenario)
    report = run_verification(scenario, frame, metric_from_frame(frame, scenario.grid), args.step)
    return _verdict(scenario, out_dir, report, "report.json")


def cmd_export(scenario: Scenario, out_dir: Path, args,
               frame: ExtendedFrame | None = None) -> int:
    if scenario.export is None:
        raise ValidationError("export: scenario has no export block")
    if frame is None:
        frame = apply_chain(scenario)
    spec = scenario.export
    lam = spec["lambda"]
    out_path = out_dir / spec["path"]
    if spec["format"] == "csv":
        count = export_immersion_csv(frame, scenario.grid, lam,
                                     spec["slice_axes"], spec["fixed"], out_path)
        print(f"immersion CSV written: {count} rows -> {out_path}")
    else:
        count = export_immersion_obj(frame, scenario.grid, lam, spec["slice_axes"],
                                     spec["fixed"], spec["obj_components"], out_path)
        print(f"immersion OBJ written: {count} vertices -> {out_path}")
    return 0


def cmd_sweep(scenario: Scenario, out_dir: Path, args) -> int:
    frame = apply_chain(scenario)
    count, X = export_sweep_csv(frame, scenario.grid, scenario.lambdas, out_dir / "sweep.csv")
    print(f"sweep written: {count} rows over {len(scenario.lambdas)} lambda values "
          f"-> {out_dir / 'sweep.csv'}")
    for lam, X_lam in zip(scenario.lambdas, X):
        if lam == 0:
            print(f"lambda=0 slice max |Im X| = {max_abs(X_lam.imag):.3e}")
    return 0


def cmd_permute_check(scenario: Scenario, out_dir: Path, args) -> int:
    one_pole = [factor for _, factor in scenario.chain if isinstance(factor, TwoPointFactor)]
    if len(one_pole) < 2:
        raise ValidationError("permute-check: scenario chain needs at least two one-pole factors")
    f1, f2 = one_pole[:2]
    _, _, report = dress_permuted(ExtendedFrame(scenario.seed), f1.poles()[0], f1.projection,
                                  f2.poles()[0], f2.projection, grid=scenario.grid,
                                  tol=scenario.tolerances["permutability"])
    return _verdict(scenario, out_dir, report, "permute_report.json")


def cmd_run(scenario: Scenario, out_dir: Path, args) -> int:
    """Full pipeline: dressed metric tables, immersion exports, verification."""
    frame = apply_chain(scenario)
    metric = metric_from_frame(frame, scenario.grid)
    export_metric_csv(metric, out_dir / "metric.csv")
    if scenario.export is not None:
        cmd_export(scenario, out_dir, args, frame)
    report = run_verification(scenario, frame, metric, args.step)
    return _verdict(scenario, out_dir, report, "report.json")


COMMANDS = {
    "seed": cmd_seed,
    "dress": cmd_dress,
    "verify": cmd_verify,
    "export": cmd_export,
    "sweep": cmd_sweep,
    "permute-check": cmd_permute_check,
    "run": cmd_run,
}


def positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dressing-forge",
        description="Flat Lagrangian immersions and Egoroff nets by loop-group dressing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name in ("verify", "run"):
            p.add_argument("--step", type=positive_float, default=1e-2,
                           help="RK4 step for the PDE cross-checks, > 0 (default 1e-2)")
        if name in ("verify", "run", "permute-check"):
            p.add_argument("--tol-scale", type=positive_float, default=1.0, dest="tol_scale",
                           help="multiply every verification tolerance by this factor (> 0)")
    return parser


# one errstate over loading and the command: validation evaluates factors too
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        # --tol-scale scales every tolerance here, once; the checks read them as they are
        scale = getattr(args, "tol_scale", 1.0)
        scenario.tolerances = {k: v * scale for k, v in scenario.tolerances.items()}
        out_dir = Path(args.out)
        # the scenario is read by now, so an OSError is a write under --out
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            return COMMANDS[args.command](scenario, out_dir, args)
        except OSError as exc:
            raise ParseError(f"--out {args.out}: cannot write {exc.filename}: "
                             f"{exc.strerror}") from exc
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DressingForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

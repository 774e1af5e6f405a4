"""Pipeline driver: parse a JSON scenario, build the seed, apply the dressing
chain, run the verification suite, export geometry and reports.

Scenario files are JSON with ``schema_version`` 1.  Complex numbers are
[re, im] pairs; matrices are row-major arrays of such pairs.  Every tolerance
used by ``verify`` but those of the RK4 and finite-difference checks, which
gate by their own step-doubling error estimates, comes from the scenario
(``checks.tolerances``) with the defaults of ``report.DEFAULT_TOLERANCES``;
a key the schema does not name is a validation error.  Every command takes
``--scenario`` and ``--out`` and nothing else: the scenario alone configures
a run.  ``verify`` runs every check that applies to the chain.  Runs are deterministic:
repeated runs on the same scenario produce byte-identical exports.  A value
that overflows is carried as inf or NaN, without a numpy warning, and fails
the check that reads it.

Exit codes: 0 all checks pass; 1 check failure, the failing checks named on
stderr; 2 parse error; 3 validation error.
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
from .geometry import (EgoroffMetric, Grid, add_doubling_entry, axis_gradient,
                       check_darboux_egoroff, check_lagrangian, check_partial_invariance,
                       check_sphere, is_real_lambda, limit_net, sample_immersion)
from .linalg import max_abs, project_onto_span
from .loops import (RealOnePoleFactor, TranslationFactor, TwoPointFactor,
                    check_pole_collisions, one_pole_factor, random_lambda_samples,
                    two_pole_factor)
from .oracle import PathSpec, doubling_estimate, estimate_order, integrate_frames
from .report import DEFAULT_TOLERANCES, CheckResult, VerificationReport

SCHEMA_VERSION = 1

# the keys of each scenario object; a seed's and a chain entry's follow its type
TOP_KEYS = ("schema_version", "n", "seed", "grid", "lambdas", "chain", "checks",
            "export", "reality_samples")
SEED_KEYS = {"constant": ("type", "radii"), "polynomial": ("type", "profiles"),
             "sampled": ("type", "profiles")}
ENTRY_KEYS = {"real_one_pole": ("type", "alpha", "span"), "spherical": ("type", "alpha", "span"),
              "one_pole": ("type", "z", "span"), "two_pole": ("type", "z", "span"),
              "translation": ("type", "alpha", "b")}
# settings an older scenario may carry, and why each is gone
REMOVED_KEYS = {
    **{f"checks.{name}": "every check runs where it applies" for name in (
        "reality", "darboux_egoroff", "lagrangian", "sphere", "partial_invariance",
        "position_equation", "potential", "metric_real", "lambda_zero", "pde_frame")},
    **{f"checks.tolerances.{name}": "the RK4 and finite-difference checks gate by their own "
       "step-doubling error estimates" for name in ("pde_frame", "path_independence",
       "darboux_egoroff", "position_equation", "partial_invariance")},
    **{f"export.{name}": "the export is the (u1, u2) slice through the origin"
       for name in ("slice_axes", "fixed", "obj_components")}}

# The PDE cross-check's RK4 step, and its gate: PDE_ERROR_MULTIPLE times the
# step-doubling error estimate (within 15% of the error on 1,600 random
# chains), plus PDE_ROUNDING_FLOOR times max(1, the frame's largest entry)
PDE_STEP = 1e-2
PDE_ERROR_MULTIPLE = 2.0
PDE_ROUNDING_FLOOR = 1e-12

# Most grid points in all, (lambda, grid point) pairs and reality samples a
# scenario may ask for
MAX_GRID_POINTS = 100_000
MAX_LAMBDA_POINTS = 500_000
MAX_REALITY_SAMPLES = 100_000

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
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) and r for r in rows):
        raise ValidationError(f"{rule}: expected a row-major matrix of [re, im] pairs")
    out = [[_complex_pair(x, rule) for x in row] for row in rows]
    if len({len(r) for r in out}) != 1:
        raise ValidationError(f"{rule}: ragged matrix rows")
    return np.array(out, dtype=complex)


def _known_keys(spec: dict, where: str, allowed) -> None:
    """Refuse the first key of the scenario object ``spec``, named ``where``
    ("" at the top level), that is not in ``allowed``: a misspelled or
    removed setting is not silently ignored."""
    for key in spec:
        if key not in allowed:
            name = f"{where}.{key}" if where else key
            if name in REMOVED_KEYS:
                raise ValidationError(f"{name}: this setting is gone ({REMOVED_KEYS[name]})")
            raise ValidationError(f"{name}: unknown key (rule: the keys here are "
                                  f"{', '.join(allowed)})")


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
    if not isinstance(kind, str) or kind not in SEED_KEYS:
        raise ValidationError(f"seed.type: unknown seed type {kind!r}")
    _known_keys(spec, "seed", SEED_KEYS[kind])
    if kind == "constant":
        radii = spec.get("radii")
        if not isinstance(radii, list) or len(radii) != n or not all(map(_is_number, radii)):
            raise ValidationError(f"seed.radii: got {radii!r} (rule: {n} radii, finite numbers)")
        try:
            return VacuumSeed.constant(radii)
        except ValueError as exc:
            raise ValidationError(f"seed.radii: {exc}") from exc
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
        _known_keys(p, where, names)
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


def _validate_chain(seed: VacuumSeed, grid: Grid, chain_spec) -> list:
    """The chain as (type, loop factor) pairs.  Entry fields are checked for
    shape here; the factor rules are the loop-factor constructors'.  The
    seed block at each pole p and conj(p), where the frame takes its pole
    data, must be finite on the grid: its entries on axis j grow with
    e^{-Im(p) u_j}, which overflows past |Im p u_j| ~ 709, so the ends of
    the grid's axes decide."""
    n = seed.n
    if chain_spec is None:
        return []
    if not isinstance(chain_spec, list):
        raise ValidationError("chain: must be a list of factor specs")
    ends = np.concatenate([np.eye(n)[j] * axis[[0, -1], None] for j, axis in enumerate(grid.axes)])
    chain = []
    for i, entry in enumerate(chain_spec):
        where = f"chain[{i}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValidationError(f"{where}: each factor spec needs a 'type'")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in ENTRY_KEYS:
            raise ValidationError(f"{where}.type: unknown factor type {kind!r}")
        keys = ENTRY_KEYS[kind]
        _known_keys(entry, where, keys)
        if kind == "spherical" and not seed.is_spherical:
            raise ValidationError(f"{where}: a spherical entry needs a constant seed "
                                  "(rule: spherical dressing on a constant-profile seed)")
        if "alpha" in keys:
            alpha = entry.get("alpha")
            if not _is_number(alpha):
                raise ValidationError(f"{where}.alpha: got {alpha!r} (rule: alpha is a finite number)")
        if "b" in keys:
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
        if "z" in keys:
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
        lams = [q for p in factor.poles() for q in (p, p.conjugate())]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(seed.block(ends, np.array(lams)[:, None])).all(axis=(1, 2, 3))
        if not finite.all():
            raise ValidationError(f"{where}: the seed block at the pole {lams[np.argmin(finite)]:.6g} "
                                  "is not finite on the grid (rule: the seed block is finite at "
                                  "every factor pole and its conjugate on the grid)")
        chain.append((kind, factor))
    return chain


def validate_scenario(raw: dict) -> Scenario:
    _known_keys(raw, "", TOP_KEYS)
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
    points = math.prod(g[2] for g in grid_spec)
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"grid: {' x '.join(str(g[2]) for g in grid_spec)} points "
                              f"(rule: at most {MAX_GRID_POINTS} grid points in all)")
    lambdas_spec = raw.get("lambdas", [[1.0, 0.0]])
    if not isinstance(lambdas_spec, list):
        raise ValidationError(f"lambdas: got {lambdas_spec!r} "
                              "(rule: lambdas is a list of [re, im] pairs)")
    if len(lambdas_spec) * points > MAX_LAMBDA_POINTS:
        raise ValidationError(f"lambdas: {len(lambdas_spec)} lambdas on {points} grid points (rule: "
                              f"at most {MAX_LAMBDA_POINTS} (lambda, grid point) pairs)")
    grid = Grid.from_specs(grid_spec)
    lambdas = [_complex_pair(v, "lambdas") for v in lambdas_spec]

    chain = _validate_chain(seed, grid, raw.get("chain"))
    poles = [p for _, factor in chain for p in factor.poles()]
    try:
        check_pole_collisions(poles)
    except PoleCollisionError as exc:
        raise ValidationError(f"chain: {exc} (rule: distinct factor poles)") from None

    checks_spec = raw.get("checks", {})
    if not isinstance(checks_spec, dict):
        raise ValidationError("checks: must be an object holding tolerances")
    _known_keys(checks_spec, "checks", ("tolerances",))
    tolerances = dict(DEFAULT_TOLERANCES)
    tol_spec = checks_spec.get("tolerances", {})
    if not isinstance(tol_spec, dict):
        raise ValidationError("checks.tolerances: must be an object of tolerance name -> "
                              "number (rule: tolerances by name)")
    _known_keys(tol_spec, "checks.tolerances", DEFAULT_TOLERANCES)
    for k, v in tol_spec.items():
        if not _is_number(v) or v <= 0:
            raise ValidationError(f"checks.tolerances.{k}: got {v!r} "
                                  "(rule: tolerances are finite positive numbers)")
        tolerances[k] = float(v)

    export = raw.get("export")
    if export is not None:
        if not isinstance(export, dict):
            raise ValidationError("export: must be an object")
        _known_keys(export, "export", ("format", "lambda", "path"))
        fmt = export.get("format")
        if fmt not in ("csv", "obj"):
            raise ValidationError("export.format: must be 'csv' or 'obj'")
        lam = _complex_pair(export.get("lambda", [1.0, 0.0]), "export.lambda")
        name = export.get("path", f"immersion.{fmt}")
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValidationError(f"export.path: got {name!r} "
                                  "(rule: export path is a file name in the output directory)")
        export = {"format": fmt, "lambda": lam, "path": name}

    reality_samples = raw.get("reality_samples", 50)
    if not _is_count(reality_samples, 1) or reality_samples > MAX_REALITY_SAMPLES:
        raise ValidationError(f"reality_samples: got {reality_samples!r} (rule: reality_samples "
                              f"is a positive integer of at most {MAX_REALITY_SAMPLES})")

    return Scenario(n=n, seed=seed, grid=grid, lambdas=lambdas, chain=chain,
                    tolerances=tolerances, export=export, reality_samples=reality_samples)


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


def _position_equation_check(sample, h) -> VerificationReport:
    """Finite-difference dX/du_i against h_i E e_i on the sample's grid,
    gated by its step-doubling estimate (``add_doubling_entry``)."""
    return add_doubling_entry(
        VerificationReport(), "position_equation", lambda grid, X, E, h: np.stack([
            axis_gradient(X, grid, k) - h[..., k, None] * E[..., :, k] for k in range(grid.n)],
            axis=-2), sample.grid, sample.X, sample.E, h, lam=sample.lam.real)


def _pde_frame_check(frame, grid, lambdas) -> VerificationReport:
    """RK4 integration of the frame's PDE in one ``integrate_frames`` call,
    forward staircase at h = ``PDE_STEP`` and 2h, reversed at 2h and 4h,
    gated by ``doubling_estimate``: the h end against the closed form, and
    the two 2h ends against each other."""
    report = VerificationReport()
    lam = next((lam for lam in lambdas if abs(lam) > 1e-12), complex(1.0))
    n = frame.n
    corner = np.array([0.6 * a[-1] for a in grid.axes])
    fwd, rev = (PathSpec.staircase(corner, order=order) for order in (range(n), range(n - 1, -1, -1)))
    ends = integrate_frames(n, frame.beta, frame.h, lam, [fwd, fwd, rev, rev],
                            [PDE_STEP, 2 * PDE_STEP, 2 * PDE_STEP, 4 * PDE_STEP])
    # each end as its (n, n + 1) block [E | X]
    fine, coarse, coarse_rev, coarser_rev, ref = (
        np.column_stack(end) for end in ends + [frame.evaluate(corner, lam)])
    estimate = doubling_estimate(n, fwd, PDE_STEP, fine, coarse)
    # the 2h ends' errors: forward, its distance from the h end plus that
    # end's; reversed, its own estimate
    path_estimate = (max_abs(coarse - fine) + estimate
                     + doubling_estimate(n, rev, 2 * PDE_STEP, coarse_rev, coarser_rev))
    floor = PDE_ROUNDING_FLOOR * max(1.0, max_abs(ref))
    residual = max_abs(fine - ref)
    report.add("pde_frame", residual, PDE_ERROR_MULTIPLE * estimate + floor, step=PDE_STEP,
               lam=str(lam), estimate=estimate, order=estimate_order(max_abs(coarse - ref), residual))
    report.add("path_independence", max_abs(coarse - coarse_rev),
               PDE_ERROR_MULTIPLE * path_estimate + floor, step=2 * PDE_STEP, estimate=path_estimate)
    return report


def run_verification(scenario: Scenario, frame: ExtendedFrame,
                     metric: EgoroffMetric) -> VerificationReport:
    """Run every check that applies on the dressed frame and its metric on
    the scenario grid, at the scenario's tolerances.  A check that does not
    apply to the chain writes a skip entry naming why; the sphere-type
    checks run exactly when the chain keeps the metric partial-invariant."""
    tols = scenario.tolerances
    report = VerificationReport()
    grid = scenario.grid

    # one immersion sample per real lambda, shared by the checks that need it
    sample = functools.cache(lambda lam: sample_immersion(frame, grid, lam))
    real_lams = [lam.real for lam in scenario.lambdas if is_real_lambda(lam)]

    report.extend(_reality_check(frame, scenario, tols["reality"]))
    if frame.is_sigma_compatible:
        report.add("metric_real", metric.imag_max, tols["metric_real"])
    else:
        report.add("metric_real_skipped", metric.imag_max, None, reason=SIGMA_INCOMPATIBLE)
    report.extend(check_darboux_egoroff(metric))
    for lam in real_lams:
        sub = check_lagrangian(sample(lam), metric.h, tols["lagrangian"],
                               tols["lagrangian_metric"])
        report.extend(sub, prefix=f"lam={lam:g}/")
    if not real_lams:
        report.add("lagrangian_skipped", 0.0, None, reason="no real lambda in lambdas "
                   "(rule: the Lagrangian check runs at each real lambda)")
    if frame.is_partial_invariant:
        sphere_lams = [lam for lam in real_lams if lam != 0]
        # h at the origin fixes the sphere; only this check reads it
        h0 = frame.h(np.zeros(grid.n)).real if sphere_lams else None
        for lam in sphere_lams:
            report.extend(check_sphere(sample(lam), h0, tols["sphere"]), prefix=f"lam={lam:g}/")
        if not sphere_lams:
            report.add("sphere_skipped", 0.0, None, reason="no real nonzero lambda in lambdas "
                       "(rule: the sphere check runs at each real lambda other than 0)")
        report.extend(check_partial_invariance(metric, tols["norm_constancy"]))
    lam = real_lams[0] if real_lams else 1.0
    report.extend(_position_equation_check(sample(lam), metric.h))
    # the staircase integral is the oracle for the closed-form metric.phi
    if frame.has_closed_potential:
        residual = max_abs(potential_on_grid(frame, grid) - metric.phi)
        report.add("potential_agreement", residual, tols["potential"])
    else:
        i, rec = next((i, rec) for i, rec in enumerate(frame.history)
                      if rec.potential_gap is not None)
        report.add("potential_skipped", 0.0, None, reason=f"chain[{i}]: {rec.potential_gap}")
    if frame.is_sigma_compatible:
        report.extend(limit_net(frame, sample(0.0), tols["lambda_zero"],
                                tols["lambda_zero_derivative"])[1])
    else:
        report.add("lambda_zero_skipped", 0.0, None, reason=SIGMA_INCOMPATIBLE)
    report.extend(_pde_frame_check(frame, grid, scenario.lambdas))
    return report


def _slice_points(grid: Grid) -> np.ndarray:
    """Grid points of the (u1, u2) slice through the origin, shape (m, n),
    u2 running fastest; every other coordinate is 0."""
    U = np.zeros(grid.shape[:2] + (grid.n,))
    U[..., 0], U[..., 1] = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    return U.reshape(-1, grid.n)


def _write_rows(file, row: str, table: np.ndarray) -> None:
    """Write the format ``row`` filled from each row of the table, at most
    ``frames.POINT_BLOCK`` rows per format operation, so memory is bounded."""
    for start in range(0, len(table), frames.POINT_BLOCK):
        block = table[start:start + frames.POINT_BLOCK]
        file.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_csv(path, header: list, table: np.ndarray) -> int:
    """Write the header line and one line per row of the float table, every
    value at 17 significant digits; returns the row count."""
    with open(path, "w") as file:
        file.write(",".join(header) + "\n")
        _write_rows(file, ",".join(["%.17g"] * table.shape[1]) + "\n", table)
    return len(table)


def _re_im(name: str, labels, values) -> tuple:
    """Header names and float columns of complex values with one column per
    label: the real and the imaginary part of each, interleaved."""
    values = np.asarray(values).reshape(-1, len(labels))
    names = [f"{part}{name}{label}" for label in labels for part in ("Re", "Im")]
    return names, np.stack([values.real, values.imag], axis=-1).reshape(len(values), len(names))


def export_immersion_csv(frame, grid: Grid, lam: complex, path) -> int:
    axes = range(1, grid.n + 1)
    U = _slice_points(grid)
    names, X = _re_im("X", axes, frame.evaluate(U, lam)[1])
    return _write_csv(path, [f"u{j}" for j in axes] + names, np.hstack([U, X]))


def write_obj(path, vertices, shape) -> int:
    """Write the vertices, rows of three floats on a ``shape`` grid whose
    last axis runs fastest, as an OBJ mesh of two triangles per grid cell;
    returns the vertex count."""
    m = shape[1]
    v00 = (np.arange(shape[0] - 1)[:, None] * m + np.arange(1, m)).ravel()
    faces = np.column_stack([v00, v00 + m, v00 + m + 1, v00, v00 + m + 1, v00 + 1])
    with open(path, "w") as file:
        _write_rows(file, "v %.17g %.17g %.17g\n", np.asarray(vertices))
        _write_rows(file, "f %d %d %d\nf %d %d %d\n", faces)
    return len(vertices)


def export_immersion_obj(frame, grid, lam, path) -> int:
    """The (u1, u2) slice as an OBJ mesh, each vertex embedded as
    (Re X1, Im X1, Re X2)."""
    X = frame.evaluate(_slice_points(grid), lam)[1]
    return write_obj(path, np.column_stack([X[:, 0].real, X[:, 0].imag, X[:, 1].real]),
                     grid.shape[:2])


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
    return {"grid_points": list(scenario.grid.shape), "n": scenario.n,
            "grid_spacing": [scenario.grid.spacing(k) for k in range(scenario.n)]}


def cmd_seed(scenario: Scenario, out_dir: Path) -> int:
    frame = ExtendedFrame(scenario.seed)
    metric = metric_from_frame(frame, scenario.grid)
    count = export_metric_csv(metric, out_dir / "seed_metric.csv")
    print(f"seed metric written: {count} rows -> {out_dir / 'seed_metric.csv'}")
    print(f"spherical seed: {scenario.seed.is_spherical}, "
          f"h(0) = {scenario.seed.h(np.zeros(scenario.n))}")
    return 0


def cmd_dress(scenario: Scenario, out_dir: Path) -> int:
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


def cmd_verify(scenario: Scenario, out_dir: Path) -> int:
    frame = apply_chain(scenario)
    report = run_verification(scenario, frame, metric_from_frame(frame, scenario.grid))
    return _verdict(scenario, out_dir, report, "report.json")


def cmd_export(scenario: Scenario, out_dir: Path, frame: ExtendedFrame | None = None) -> int:
    if scenario.export is None:
        raise ValidationError("export: scenario has no export block")
    if frame is None:
        frame = apply_chain(scenario)
    spec = scenario.export
    lam = spec["lambda"]
    out_path = out_dir / spec["path"]
    if spec["format"] == "csv":
        count = export_immersion_csv(frame, scenario.grid, lam, out_path)
        print(f"immersion CSV written: {count} rows -> {out_path}")
    else:
        count = export_immersion_obj(frame, scenario.grid, lam, out_path)
        print(f"immersion OBJ written: {count} vertices -> {out_path}")
    return 0


def cmd_sweep(scenario: Scenario, out_dir: Path) -> int:
    frame = apply_chain(scenario)
    count, X = export_sweep_csv(frame, scenario.grid, scenario.lambdas, out_dir / "sweep.csv")
    print(f"sweep written: {count} rows over {len(scenario.lambdas)} lambda values "
          f"-> {out_dir / 'sweep.csv'}")
    for lam, X_lam in zip(scenario.lambdas, X):
        if lam == 0:
            print(f"lambda=0 slice max |Im X| = {max_abs(X_lam.imag):.3e}")
    return 0


def cmd_permute_check(scenario: Scenario, out_dir: Path) -> int:
    one_pole = [factor for _, factor in scenario.chain if isinstance(factor, TwoPointFactor)]
    if len(one_pole) < 2:
        raise ValidationError("permute-check: scenario chain needs at least two one-pole factors")
    f1, f2 = one_pole[:2]
    _, _, report = dress_permuted(ExtendedFrame(scenario.seed), f1.poles()[0], f1.projection,
                                  f2.poles()[0], f2.projection, grid=scenario.grid,
                                  tol=scenario.tolerances["permutability"])
    return _verdict(scenario, out_dir, report, "permute_report.json")


def cmd_run(scenario: Scenario, out_dir: Path) -> int:
    """Full pipeline: dressed metric tables, immersion exports, verification."""
    frame = apply_chain(scenario)
    metric = metric_from_frame(frame, scenario.grid)
    export_metric_csv(metric, out_dir / "metric.csv")
    if scenario.export is not None:
        cmd_export(scenario, out_dir, frame)
    report = run_verification(scenario, frame, metric)
    return _verdict(scenario, out_dir, report, "report.json")


COMMANDS = {"seed": cmd_seed, "dress": cmd_dress, "verify": cmd_verify, "export": cmd_export,
            "sweep": cmd_sweep, "permute-check": cmd_permute_check, "run": cmd_run}


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
    return parser


# one errstate over loading and the command: validation evaluates factors too
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        out_dir = Path(args.out)
        # the scenario is read by now, so an OSError is a write under --out
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            return COMMANDS[args.command](scenario, out_dir)
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

"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (this
is part of set-up), runs one timed round in ``run_round`` and checks the
round's outputs, untimed, in ``check_round``.  ``final_check`` runs the
once-per-run oracle comparison on the last round's outputs.  A round builds fresh
frames, so the per-record caches start cold in every round.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# pde_frame default tolerance and RK4 step of the CLI's own PDE cross-check
RK4_TOL = 1e-6
RK4_STEP = 1e-2
REALITY_TOL = 1e-10


@dataclass
class Round:
    wall_s: float
    latencies_s: list
    attempted: int
    failed_ops: set = field(default_factory=set)
    # operation -> digest of its output, compared against round 0
    digests: dict = field(default_factory=dict)
    # wrong output, as opposed to a check failure the program reports itself
    problems: list = field(default_factory=list)
    # per-operation counts read from the tracer (traced rounds only)
    counts: dict = field(default_factory=dict)
    traced: bool = False

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op, problem: str | None = None) -> None:
        self.failed_ops.add(op)
        if problem is not None:
            self.problems.append(f"{op}: {problem}")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


class Scenarios:
    """`dressing-forge run` on each shipped scenario plus `permute-check`,
    in-process through the CLI entry point."""

    seed_effect = "nothing: the six operations and their inputs are fixed"
    OPS = (("run", "breather_chain"), ("run", "flat_torus"), ("run", "one_soliton"),
           ("run", "permute_pair"), ("run", "spherical_soliton"),
           ("permute-check", "permute_pair"))
    REPORTS = {"run": "report.json", "permute-check": "permute_report.json"}

    def __init__(self, df, root: Path, seed: int, workdir: Path):
        from dressing_forge import cli
        self.cli = cli
        self.workdir = workdir
        self.argv = []
        for kind, name in self.OPS:
            path = root / "scenarios" / f"{name}.json"
            if not path.is_file():
                raise FileNotFoundError(f"shipped scenario {path} is missing")
            self.argv.append((kind, name, str(path)))
        self._results = []

    def run_round(self, index: int, tracer=None) -> Round:
        out_root = self.workdir / f"round{index}"
        if out_root.exists():
            shutil.rmtree(out_root)
        lat, results, counts = [], [], {}
        problems = []
        t0 = perf_counter()
        for kind, name, path in self.argv:
            out = out_root / f"{kind}-{name}"
            argv = [kind, "--scenario", path, "--out", str(out)]
            sink = io.StringIO()
            before = _snapshot(tracer)
            t = perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    rc = self.cli.main(argv)
            except Exception as exc:  # a traceback breaks the exit-code contract
                rc = None
                problems.append((f"{kind} {name}", f"uncaught {type(exc).__name__}: {exc}"))
            lat.append(perf_counter() - t)
            if kind == "run" and tracer is not None:
                for span, value in _delta(tracer, before).items():
                    counts.setdefault(span, []).append(value)
            results.append((kind, name, rc, out))
        wall = perf_counter() - t0
        self._results = results
        rnd = Round(wall, lat, attempted=len(results), counts=counts)
        for op, problem in problems:
            rnd.fail(op, problem)
        return rnd

    def check_round(self, rnd: Round) -> None:
        for kind, name, rc, out in self._results:
            op = f"{kind} {name}"
            if rc is None:
                continue
            report = out / self.REPORTS[kind]
            try:
                passed = json.loads(report.read_text())["passed"]
            except (OSError, ValueError, KeyError) as exc:
                rnd.fail(op, f"unreadable {report.name}: {exc}")
                continue
            if rc != (0 if passed else 1):
                rnd.fail(op, f"exit {rc} but report passed={passed}")
            elif rc != 0:
                rnd.fail(op)
            h = hashlib.sha256()
            for f in sorted(p for p in out.rglob("*") if p.is_file()):
                h.update(f.relative_to(out).as_posix().encode())
                h.update(f.read_bytes())
            rnd.digests[op] = h.hexdigest()
        if self._results:
            shutil.rmtree(self._results[0][3].parent, ignore_errors=True)
        self._results = []

    def final_check(self, rnd: Round) -> None:
        pass


class Grid3d:
    """The fixed 17^3 three-record case: real one-pole plus two-pole on a 3-D
    constant seed, then metric sampling and one immersion sample."""

    seed_effect = "only which three grid points get the RK4 spot check"
    RADII = (1.0, 0.7, 1.3)
    ALPHA = 0.6
    Z = 0.4 + 0.8j
    SPAN_REAL = np.ones(3) / np.sqrt(3.0)
    SPAN_TWO_POLE = np.array([1.0, 0.5 - 0.25j, 0.3])
    GRID = ((-0.4, 0.4, 17),) * 3
    LAM = 0.9
    SPOTS = 3

    def __init__(self, df, root: Path, seed: int, workdir: Path):
        self.df = df
        rng = np.random.default_rng(seed)
        shape = tuple(m for _, _, m in self.GRID)
        self.spots = [tuple(int(rng.integers(m)) for m in shape) for _ in range(self.SPOTS)]
        self._last = None

    def run_round(self, index: int, tracer=None) -> Round:
        df = self.df
        self._last = None
        t0 = perf_counter()
        frame = df.ExtendedFrame(df.VacuumSeed.constant(self.RADII))
        frame = df.dress_real(frame, self.ALPHA, df.project_onto_span(self.SPAN_REAL))
        frame = df.dress_two_pole(frame, self.Z, df.project_onto_span(self.SPAN_TWO_POLE))
        grid = df.Grid.from_specs(self.GRID)
        metric = df.metric_from_frame(frame, grid)
        sample = df.sample_immersion(frame, grid, self.LAM)
        wall = perf_counter() - t0
        self._last = (frame, grid, metric, sample)
        return Round(wall, [wall], attempted=1)

    def check_round(self, rnd: Round) -> None:
        _, _, metric, sample = self._last
        rnd.digests["grid3d"] = _digest(metric.h, metric.beta, metric.phi,
                                        metric.phi_closed, sample.X)
        if not metric.imag_max < 1e-9:
            rnd.fail("grid3d", f"metric imag_max {metric.imag_max:.3e} >= 1e-9")

    def final_check(self, rnd: Round) -> None:
        df = self.df
        frame, grid, _, sample = self._last
        pts = grid.points()
        for idx in self.spots:
            u = pts[idx]
            E, X = df.integrate_frame(frame.n, frame.beta, frame.h, self.LAM,
                                      df.PathSpec.staircase(u), RK4_STEP)
            err = max(df.max_abs(X - sample.X[idx]),
                      df.max_abs(E - frame.evaluate(u, self.LAM)[0]))
            if not err < RK4_TOL:
                rnd.fail("grid3d", f"RK4 spot {idx}: {err:.3e} >= {RK4_TOL}")


class DeepChain:
    """Eight real one-pole records on a 3-D constant seed, queried at few
    points with many lambdas: a cold real lambda, 30 off-pole complex lambdas
    that reuse the per-record pole data, and one lambda within 1e-7 of a
    chain pole (the Taylor-circle path)."""

    seed_effect = "the eight projections, the 64 points and every lambda"
    RADII = (1.0, 0.7, 1.3)
    ALPHAS = tuple(0.5 + 0.2 * k for k in range(8))
    POINTS = 64
    PER_POINT = 32
    CHECKED = 64   # operations per round given the reality check

    def __init__(self, df, root: Path, seed: int, workdir: Path):
        self.df = df
        self.seed = seed
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(len(self.ALPHAS), 3))
        self.spans = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        self.points = rng.uniform(-0.4, 0.4, size=(self.POINTS, 3))
        guard = [s * 1j * a for a in self.ALPHAS for s in (1, -1)]
        self.lams = []
        for i in range(self.POINTS):
            lams = [complex(rng.uniform(0.2, 2.0))]
            while len(lams) < self.PER_POINT - 1:
                lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(lam - g) > 0.05 for g in guard):
                    lams.append(lam)
            # every pole (and conjugate) gets the same share of near-pole
            # operations, so the seed does not change how much work a round is
            pole = guard[i % len(guard)]
            lams.append(pole + 10 ** rng.uniform(-8, -7) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            self.lams.append(lams)
        self.rk4_point = int(rng.integers(self.POINTS))
        self.E = np.empty((self.POINTS, self.PER_POINT, 3, 3), dtype=complex)
        self.X = np.empty((self.POINTS, self.PER_POINT, 3), dtype=complex)
        self._frame = None
        self._index = 0

    def run_round(self, index: int, tracer=None) -> Round:
        df = self.df
        self._frame = None
        self._index = index
        E_out, X_out = self.E, self.X
        lat = []
        errors = []
        near = []
        t0 = perf_counter()
        frame = df.ExtendedFrame(df.VacuumSeed.constant(self.RADII))
        for alpha, span in zip(self.ALPHAS, self.spans):
            frame = df.dress_real(frame, alpha, df.project_onto_span(span))
        last = self.PER_POINT - 1
        for i in range(self.POINTS):
            u = self.points[i]
            for j, lam in enumerate(self.lams[i]):
                before = tracer.count("frames.evaluate") if tracer is not None else 0
                t = perf_counter()
                try:
                    E, X = frame.evaluate(u, lam)
                except Exception as exc:
                    E = X = np.nan
                    errors.append((f"{i}/{j}", f"evaluate raised {type(exc).__name__}: {exc}"))
                lat.append(perf_counter() - t)
                if j == last and tracer is not None:
                    near.append(tracer.count("frames.evaluate") - before)
                E_out[i, j] = E
                X_out[i, j] = X
        wall = perf_counter() - t0
        self._frame = frame
        rnd = Round(wall, lat, attempted=len(lat))
        for op, problem in errors:
            rnd.fail(op, problem)
        if near:
            rnd.counts["frames.evaluate.per_near_pole_op"] = near
        return rnd

    def check_round(self, rnd: Round) -> None:
        df, frame = self.df, self._frame
        for i in range(self.POINTS):
            for j in range(self.PER_POINT):
                rnd.digests[f"{i}/{j}"] = _digest(self.E[i, j], self.X[i, j])
        rng = np.random.default_rng([self.seed, self._index])
        eye = np.eye(3)
        ops = rng.choice(self.POINTS * self.PER_POINT, size=self.CHECKED, replace=False)
        for op in sorted(int(k) for k in ops):
            i, j = divmod(op, self.PER_POINT)
            u, lam, E = self.points[i], self.lams[i][j], self.E[i, j]
            tau = df.max_abs(frame.evaluate(u, np.conj(lam))[0].conj().T @ E - eye)
            sigma = df.max_abs(E.T @ frame.evaluate(u, -lam)[0] - eye)
            if not max(tau, sigma) < REALITY_TOL:
                rnd.fail(f"{i}/{j}", f"reality at lambda {lam}: tau {tau:.2e} sigma {sigma:.2e}")

    def final_check(self, rnd: Round) -> None:
        df, frame = self.df, self._frame
        i = self.rk4_point
        u, lam = self.points[i], self.lams[i][0]
        E, X = df.integrate_frame(frame.n, frame.beta, frame.h, lam,
                                  df.PathSpec.staircase(u), RK4_STEP)
        err = max(df.max_abs(E - self.E[i, 0]), df.max_abs(X - self.X[i, 0]))
        if not err < RK4_TOL:
            rnd.fail(f"{i}/0", f"RK4 spot: {err:.3e} >= {RK4_TOL}")


def _snapshot(tracer):
    if tracer is None:
        return None
    return {span: tracer.count(span) for span in PER_RUN_SPANS}


def _delta(tracer, before) -> dict:
    return {f"{span}.per_run": tracer.count(span) - before[span] for span in PER_RUN_SPANS}


# call counts reported per `run` operation of the scenarios workload
PER_RUN_SPANS = ("cli.apply_chain", "frames.metric_from_frame")

# per-operation counts a traced run reports (0 on workloads without them)
PER_OP_COUNTS = tuple(f"{span}.per_run" for span in PER_RUN_SPANS) + (
    "frames.evaluate.per_near_pole_op",)

WORKLOADS = {"scenarios": Scenarios, "grid3d": Grid3d, "deep_chain": DeepChain}

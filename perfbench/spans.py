"""Span tracing of dressing-forge from outside the package.

The tracer replaces the package's public entry points with thin wrappers
while it is installed and restores the originals when it is removed, so
untraced rounds run the unmodified code.  Each wrapper records one span:
name, start, end, parent span and whether the call raised.  Spans are kept
in flat typed arrays (about 25 bytes each) and written out once, at the end
of the run; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span) for module-level functions.  The wrapper replaces
# every binding of the function in every dressing_forge module, because the
# package imports functions by name into other modules.
FUNCTION_SPANS = (
    ("frames", "metric_from_frame", "frames.metric_from_frame"),
    ("frames", "potential_on_grid", "frames.potential_on_grid"),
    ("dressing", "dress_extended", "dressing.dress"),
    ("dressing", "dress_translation", "dressing.dress"),
    ("dressing", "dress_permuted", "dressing.dress_permuted"),
    ("loops", "permute_factors", "loops.permute_factors"),
    ("loops", "two_pole_factor", "loops.two_pole_factor"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "project_onto_span", "linalg.project_onto_span"),
    ("geometry", "sample_immersion", "geometry.sample_immersion"),
    ("geometry", "check_darboux_egoroff", "geometry.check_darboux_egoroff"),
    ("geometry", "check_lagrangian", "geometry.check_lagrangian"),
    ("geometry", "check_sphere", "geometry.check_sphere"),
    ("geometry", "check_partial_invariance", "geometry.check_partial_invariance"),
    ("geometry", "limit_net", "geometry.limit_net"),
    ("oracle", "integrate_frame", "oracle.integrate_frame"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "apply_chain", "cli.apply_chain"),
    ("cli", "run_verification", "cli.run_verification"),
    ("cli", "cmd_export", "cli.export"),
    ("cli", "export_metric_csv", "cli.export"),
)

# The checks run_verification calls, wrapped only where cli binds them, so a
# check that lives in geometry shows as cli.check.<name> around its geometry
# span.
CLI_CHECK_SPANS = (
    ("_reality_check", "cli.check.reality"),
    ("check_darboux_egoroff", "cli.check.darboux_egoroff"),
    ("check_lagrangian", "cli.check.lagrangian"),
    ("check_sphere", "cli.check.sphere"),
    ("check_partial_invariance", "cli.check.partial_invariance"),
    ("_position_equation_check", "cli.check.position_equation"),
    ("limit_net", "cli.check.lambda_zero"),
    ("_pde_frame_check", "cli.check.pde_frame"),
)

# (module, class, method, span) for methods.
METHOD_SPANS = (
    ("frames", "ExtendedFrame", "evaluate", "frames.evaluate"),
    ("frames", "ExtendedFrame", "h", "frames.h"),
    ("frames", "ExtendedFrame", "beta", "frames.beta"),
    ("frames", "ExtendedFrame", "phi", "frames.phi"),
    ("frames", "VacuumSeed", "E", "frames.seed"),
    ("frames", "VacuumSeed", "X", "frames.seed"),
    ("frames", "VacuumSeed", "h", "frames.seed"),
    ("frames", "VacuumSeed", "phi", "frames.seed"),
    ("dressing", "OnePoleRecord", "point_data", "dressing.point_data"),
    ("dressing", "TranslationRecord", "point_data", "dressing.point_data"),
    ("dressing", "OnePoleRecord", "apply", "dressing.apply"),
    ("dressing", "TranslationRecord", "apply", "dressing.apply"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [s for _, _, s in FUNCTION_SPANS] + [s for _, s in CLI_CHECK_SPANS]
    + [s for *_, s in METHOD_SPANS]))

LAYERS = ("cli", "frames", "dressing", "loops", "linalg", "geometry", "oracle")


class Tracer:
    """Collects spans while installed; ``summary`` turns them into metrics."""

    def __init__(self, package):
        self.package = package
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.outer = array("b")   # 1 when no span of the same name is open
        self.calls = [0] * len(self.names)
        self._active = [0] * len(self.names)
        self._stack = [-1]
        self._restore = []
        self.complement_calls = 0
        # point_data reuse: distinct (record, u) pairs per round; records are
        # held until the round ends so their ids stay unique within it
        self.point_keys = set()
        self.distinct_pairs = 0
        self._records = {}
        self.missing = []

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str, before=None):
        nid = self._ids[name]
        names_calls, active, stack = self.calls, self._active, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        error, outer = self.error, self.outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            error.append(0)
            end.append(0.0)
            names_calls[nid] += 1
            active[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _submodule(self, short):
        try:
            return importlib.import_module(f"{self.package.__name__}.{short}")
        except ImportError:
            return None

    def install(self):
        self.missing = []
        for layer in LAYERS:
            self._submodule(layer)
        modules = self._modules()
        for short, attr, span in FUNCTION_SPANS:
            mod = self._submodule(short)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{short}.{attr}")
                continue
            wrapped = self._wrap(fn, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)
        cli = self._submodule("cli")
        for attr, span in CLI_CHECK_SPANS:
            fn = getattr(cli, attr, None) if cli is not None else None
            if fn is None:
                self.missing.append(f"cli.{attr}")
                continue
            self._set(cli, attr, self._wrap(fn, span))
        for short, cls_name, attr, span in METHOD_SPANS:
            mod = self._submodule(short)
            cls = getattr(mod, cls_name, None) if mod is not None else None
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"{short}.{cls_name}.{attr}")
                continue
            before = self._note_point if span == "dressing.point_data" else None
            self._set(cls, attr, self._wrap(cls.__dict__[attr], span, before))
        linalg = self._submodule("linalg")
        proj = getattr(linalg, "HermitianProjection", None)
        if proj is not None and isinstance(proj.__dict__.get("complement"), property):
            self._set(proj, "complement", self._counting(proj.__dict__["complement"]))
        else:
            self.missing.append("linalg.HermitianProjection.complement")

    def _counting(self, prop: property) -> property:
        getter = prop.fget

        def fget(obj):
            self.complement_calls += 1
            return getter(obj)

        return property(fget, doc=prop.__doc__)

    def _note_point(self, args):
        # point_data(record, frame, index, u)
        if len(args) >= 4:
            record, u = args[0], args[3]
            self._records[id(record)] = record
            self.point_keys.add((id(record), np.asarray(u, dtype=float).tobytes()))

    def end_round(self):
        self.distinct_pairs += len(self.point_keys)
        self.point_keys.clear()
        self._records.clear()

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        error = np.frombuffer(self.error, dtype=np.int8).copy()
        outer = np.frombuffer(self.outer, dtype=np.int8).copy()
        return name, parent, start, end, error, outer

    def save(self, path):
        name, parent, start, end, error, outer = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, error=error, outer=outer)

    def summary(self, rounds: int) -> dict:
        """Per-span calls, total_s (outermost spans of that name), self_s
        (duration minus the time covered by child spans) and errors, each
        per traced round."""
        name, parent, start, end, error, outer = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size) if dur.size else dur
        self_dur = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur * (outer == 1), minlength=k)
        self_s = np.bincount(name, weights=self_dur, minlength=k)
        errors = np.bincount(name, weights=error.astype(float), minlength=k)
        out = {}
        r = float(max(rounds, 1))
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = float(calls[i]) / r
            out[f"{span}.total_s"] = float(total[i]) / r
            out[f"{span}.self_s"] = float(self_s[i]) / r
            out[f"{span}.errors"] = float(errors[i]) / r
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(out[f"{s}.errors"] for s in self.names
                                         if s.split(".")[0] == layer)
        pd_calls = float(calls[self._ids["dressing.point_data"]])
        out["dressing.point_data.distinct"] = self.distinct_pairs / r
        out["dressing.point_data.hit_ratio"] = (1.0 - self.distinct_pairs / pd_calls
                                                if pd_calls else 0.0)
        out["linalg.complement.calls"] = self.complement_calls / r
        out["trace.spans"] = float(dur.size) / r
        return out

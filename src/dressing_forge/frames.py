"""Extended frames F(u, lambda) = [[E, X], [0, 1]] in closed form.

A frame is a vacuum seed (diagonal exponential E, per-axis profile integrals
X) plus an ordered dressing history.  Evaluation carries the top block
[E | X] of F through the history and applies each record's closed-form
update to it in order, so no PDE is ever integrated here; the PDE route
lives in :mod:`dressing_forge.oracle` as an independent cross-check.

The history is evaluated as one flat sequence of steps: a one-pole or
translation record is one step, a two-pole record its two one-pole parts.
Evaluation works on whole point sets and lambda stacks at once: every
update is a stacked array operation over the (lambda, point) pairs, so a
grid costs a few numpy calls per step, not a loop.  ``evaluate`` always
runs every step.  A step's update reads its pole data: the block of the
steps before it, at the point set U and at the step's own poles.
``pole_data`` computes them for every step of the chain in one sweep per
point set, which evaluates the seed block once on the stack of every
step's first pole row and lets each step in turn read its row and dress
the later ones.  A one-pole step needs the block at z as well;
every factor is tau-real, E(u, conj(lambda))^* E(u, lambda) = I, so it is
E(u, z) = (E(u, conj z)^{-1})^*, which the step writes from the inverse
its certified solve at conj(z) computes anyway.

The steps' poles cancel, so the block is entire in lambda; near a sensitive
point p (a pole or its conjugate) the direct updates lose digits, so a
lambda within R(p)/2 of p takes the block's mean over |w - lambda| = R(p),
the trapezoid rule for Cauchy's formula (Trefethen & Weideman, SIAM Review
56, 2014).  One bound, ``POINT_BLOCK``, sizes every batch: the seed block
and the steps' updates run over blocks of at most that many (lambda, point)
pairs, which ``_blocks`` alone cuts, and ``potential_on_grid`` and the
CLI's reality check hand the frame point sets of at most that many points.

Every seed profile's position and energy integrals are closed forms: a
sampled profile is a sum over its cubic spline pieces, each a
:class:`PolynomialProfile`.  The module imports only numpy; scipy builds the
spline coefficients and is imported when a sampled profile is made.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, OutOfDomainError
from .geometry import EgoroffMetric, Grid
from .linalg import max_abs
from .loops import pole_tol


def _exp_integral(u, lam):
    w = 0.5 * lam * u
    return np.exp(1j * w) * 2.0 * np.sin(w) / lam


def _stable_exp_integral(u, lam):
    """int_0^u e^{i lam t} dt = e^{i lam u / 2} * 2 sin(lam u / 2) / lam,
    elementwise in u, which is cancellation-free for small |lam u| (limit u
    at lam = 0).  ``lam`` is one number, or an array of lambdas
    broadcasting against u."""
    u = np.asarray(u, dtype=float)
    if isinstance(lam, np.ndarray):
        zero = lam == 0
        return np.where(zero, u, _exp_integral(u, np.where(zero, 1.0, lam)))
    if lam == 0:
        return u + 0j
    return _exp_integral(u, lam)


# Profiles evaluate elementwise: t and u may be scalars or arrays of any shape.
# ``position_integral`` takes one lambda (a number) or an array of lambdas
# broadcasting against u, one per point.  ``domain`` is the closed interval
# of t on which the profile is defined.

@dataclass(frozen=True, eq=False)
class ConstantProfile:
    """h_j(t) = r with r > 0; the whole axis is the domain."""

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("constant profile needs r > 0")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.square(self.r)):
                raise ValueError(f"constant profile r = {self.r} has no finite square "
                                 "(rule: h_j^2 finite on the profile domain)")

    domain = (-np.inf, np.inf)

    def value(self, t):
        return np.full(np.shape(t), float(self.r))[()]

    def position_integral(self, u, lam):
        return self.r * _stable_exp_integral(u, lam)

    def energy_integral(self, u):
        return self.r * self.r * np.asarray(u, dtype=float)


def _critical_points(coeffs, lo: float, hi: float) -> np.ndarray:
    """The real critical points in [lo, hi] of sum_m coeffs[m] t^m.

    The companion-matrix roots of the derivative, in t scaled to the domain,
    lose absolute accuracy next to roots far outside it, so each root's real
    part is polished by Newton steps; near-real pairs become candidates too.
    """
    scale = max(-lo, hi)
    with np.errstate(all="ignore"):
        c = np.array(coeffs) * scale ** np.arange(len(coeffs))
        d = np.polynomial.Polynomial(c / np.max(np.abs(c))).deriv()
        try:
            s = d.roots().real
        except np.linalg.LinAlgError:
            raise ValueError("polynomial profile coefficients span too wide a range "
                             "to locate its minimum") from None
        dd = d.deriv()
        for _ in range(4):
            step = d(s) / dd(s)
            s = np.where(np.isfinite(step), s - step, s)
    t = scale * s
    return t[(lo <= t) & (t <= hi)]


# Highest polynomial profile degree; up to it the position integral keeps
# within POLYNOMIAL_ROUNDING_UNITS units of rounding of int_0^u sum_m |a_m
# t^m e^{i lam t}| dt (worst measured: 454 at degree 14, 626 at 15, 942 at 16)
MAX_POLYNOMIAL_DEGREE = 14
POLYNOMIAL_ROUNDING_UNITS = 512


@dataclass(frozen=True, eq=False)
class PolynomialProfile:
    """h_j(t) = sum_m coeffs[m] t^m on a finite domain containing 0."""

    coeffs: tuple
    domain: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if (not self.coeffs or len(self.domain) != 2
                or not np.isfinite(self.coeffs + tuple(self.domain)).all()):
            raise ValueError("polynomial profile needs at least one coefficient and a "
                             "[lo, hi] domain, all finite")
        degree = max((m for m, a in enumerate(self.coeffs) if a), default=0)
        if degree > MAX_POLYNOMIAL_DEGREE:
            raise ValueError(f"polynomial profile of degree {degree} (rule: degree at most "
                             f"{MAX_POLYNOMIAL_DEGREE}, where the seed's position integral "
                             "stays within its rounding bound)")
        # the series' error, about e^{|lam u|} units, meets the recursion's,
        # about m!/|lam u|^m, near |lam u| = m/e; at degree 0 the recursion
        # is the exact exponential integral everywhere, lambda = 0 included
        object.__setattr__(self, "_degree", degree)
        lo, hi = self.domain
        if not (lo <= 0.0 <= hi and lo < hi):
            raise ValueError("profile domain must contain 0")
        # the minimum and maximum on [lo, hi] sit at ends or real critical points
        ts = np.concatenate([[lo, hi], _critical_points(self.coeffs, lo, hi)])
        with np.errstate(all="ignore"):
            values = np.polynomial.polynomial.polyval(ts, self.coeffs)
            squares = values * values
        if not (values > 0).all():
            raise ValueError("polynomial profile must stay positive on its domain "
                             "(rule: h_j > 0 on the profile domain)")
        if not np.isfinite(squares).all():
            raise ValueError("polynomial profile has no finite square on its domain "
                             "(rule: h_j^2 finite on the profile domain)")

    def value(self, t):
        return np.polynomial.polynomial.polyval(t, self.coeffs)

    def position_integral(self, u, lam):
        u, lam = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(lam, dtype=complex))
        series = np.abs(lam * u) < self._degree / math.e
        out = np.empty(u.shape, dtype=complex)
        if np.any(series):
            out[series] = self._series_integral(u[series], lam[series])
        if not np.all(series):
            out[~series] = self._by_parts_integral(u[~series], lam[~series])
        return out[()]

    def _series_integral(self, u, lam):
        """sum_k (i lam)^k / k! * int_0^u t^k p(t) dt, summed until every
        point's terms fall below roundoff of the sum of their sizes."""
        total = np.zeros(u.shape, dtype=complex)
        size = np.zeros(u.shape)
        term_pow = 1.0 + 0.0j
        for k in range(80):
            moment = sum(a * u ** (m + k + 1) / (m + k + 1)
                         for m, a in enumerate(self.coeffs))
            term = term_pow * moment
            total += term
            size += np.abs(term)
            term_pow *= 1j * lam / (k + 1)
            if k > 4 and (np.abs(term) <= 1e-18 * size).all():
                break
        return total

    def _by_parts_integral(self, u, lam):
        """I_m = (u^m e^{i lam u} - m I_{m-1}) / (i lam), summed against the
        coefficients."""
        I = _stable_exp_integral(u, lam)
        total = self.coeffs[0] * I
        e = np.exp(1j * lam * u)
        for m in range(1, self._degree + 1):
            I = (u ** m * e - m * I) / (1j * lam)
            total = total + self.coeffs[m] * I
        return total

    def energy_integral(self, u):
        sq = np.polynomial.polynomial.polymul(self.coeffs, self.coeffs)
        anti = np.polynomial.polynomial.polyint(sq)
        return np.polynomial.polynomial.polyval(u, anti)


@dataclass(frozen=True, eq=False)
class SampledProfile:
    """Positive samples on knots, interpolated by the not-a-knot cubic spline.

    Spline piece k is a cubic in s = t - knots[k] on [0, width_k], held as a
    :class:`PolynomialProfile`, so the integrals from 0 to u are the sums of
    that profile's closed forms over the parts of the pieces between 0 and u.
    The spline must stay positive between the knots as well as on them: each
    piece runs the polynomial positivity check, and a spline that dips to
    <= 0 is refused.
    """

    knots: tuple
    values: tuple

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.size < 4 or knots.size != values.size:
            raise ValueError("sampled profile needs >= 4 matching knots/values")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if not (knots[0] <= 0.0 <= knots[-1]):
            raise ValueError("profile domain must contain 0")
        if np.any(values <= 0):
            raise ValueError("sampled values must be positive")
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(knots, values)
        pieces = []
        for lo, hi, c in zip(knots, knots[1:], spline.c.T):
            try:
                pieces.append(PolynomialProfile(tuple(c[::-1]), (0.0, hi - lo)))
            except ValueError as exc:
                raise ValueError(f"spline piece on [{lo}, {hi}]: {exc}") from None
        object.__setattr__(self, "knots", tuple(knots))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_pieces", tuple(pieces))

    @property
    def domain(self) -> tuple:
        return (self.knots[0], self.knots[-1])

    def value(self, t):
        return self._spline(t)[()]

    def _parts(self, u):
        """(knot, piece, s0, s1) per piece: its part between 0 and u runs
        over s0..s1 in the piece's local variable."""
        for lo, hi, piece in zip(self.knots, self.knots[1:], self._pieces):
            yield lo, piece, np.clip(0.0, lo, hi) - lo, np.clip(u, lo, hi) - lo

    def position_integral(self, u, lam):
        u, lam = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(lam, dtype=complex))
        return sum(np.exp(1j * lam * knot) * (piece.position_integral(s1, lam)
                                              - piece.position_integral(s0, lam))
                   for knot, piece, s0, s1 in self._parts(u))[()]

    def energy_integral(self, u):
        return sum(piece.energy_integral(s1) - piece.energy_integral(s0)
                   for _, piece, s0, s1 in self._parts(np.asarray(u, dtype=float)))[()]


@dataclass(frozen=True, eq=False)
class VacuumSeed:
    """Zero rotation coefficients with per-axis positive profiles h_j.

    E(u, lambda) = diag(e^{i lambda u_j}); X_j = int_0^{u_j} h_j(t) e^{i lambda t} dt;
    phi = sum_j int_0^{u_j} h_j(t)^2 dt.  The seed is spherical exactly when
    every profile is constant.  Points are arrays of shape (..., n); results
    carry the same leading shape.  ``lam`` is one lambda (a number) for every
    point, or an array broadcasting against the points' leading shape: one
    per point, possibly with leading axes of its own (a contour's nodes
    against a point set), which lead the results.
    """

    profiles: tuple

    def __post_init__(self):
        lo, hi = np.array([p.domain for p in self.profiles], dtype=float).reshape(-1, 2).T
        # clipped to the finite floats, so the bounds alone refuse NaN and inf
        big = np.finfo(float).max
        object.__setattr__(self, "_bounds", (np.maximum(lo - 1e-12, -big),
                                             np.minimum(hi + 1e-12, big)))
        # the constant axes' radii (0 on the other axes), by which the block
        # writes the X column in one call, and the other axes, whose X
        # entries it then writes each by its own closed form
        constant = [isinstance(p, ConstantProfile) for p in self.profiles]
        object.__setattr__(self, "_radii", np.array(
            [p.r if c else 0.0 for p, c in zip(self.profiles, constant)], dtype=float))
        object.__setattr__(self, "_other", tuple(
            (j, p) for j, (p, c) in enumerate(zip(self.profiles, constant)) if not c))

    @property
    def n(self) -> int:
        return len(self.profiles)

    @property
    def is_spherical(self) -> bool:
        return all(isinstance(p, ConstantProfile) for p in self.profiles)

    @classmethod
    def constant(cls, radii) -> "VacuumSeed":
        return cls(tuple(ConstantProfile(float(r)) for r in radii))

    def _check_domain(self, u: np.ndarray) -> None:
        lo, hi = self._bounds
        inside = (lo <= u) & (u <= hi)
        if not inside.all():
            j = int(np.argmin(inside.reshape(-1, self.n).all(axis=0)))
            bad = np.asarray(u)[..., j][~inside[..., j]].flat[0]
            raise OutOfDomainError(f"u_{j + 1} = {bad} outside the seed profile domain")

    def h(self, u: np.ndarray) -> np.ndarray:
        self._check_domain(u)
        out = np.empty(np.shape(u))
        for j, p in enumerate(self.profiles):
            out[..., j] = p.value(u[..., j])
        return out

    def block(self, u: np.ndarray, lam, out: np.ndarray | None = None) -> np.ndarray:
        """The seed block [E | X], shape (..., n, n+1): E on the diagonal of
        the first n columns, X in the last, written in one pass into
        ``out`` (a C-contiguous array of that shape) or a new array, and
        returned.  Both are strided slices of the block's flat n(n+1)
        entries: the diagonal every n+2 entries from the first, X every n+1
        from entry n.  X is r_j times one stacked exp integral over every
        axis (r_j = 0 off the constant axes), then each other axis's own
        integral.  The points are not checked against the domain here: the
        frame checks each point set once, ``E`` and ``X`` each call."""
        u = np.asarray(u, dtype=float)
        lead, lam_u = u.shape[:-1], lam
        if isinstance(lam, np.ndarray):
            lead, lam_u = np.broadcast_shapes(lam.shape, lead), lam[..., None]
        n = self.n
        if out is None:
            out = np.zeros(lead + (n, n + 1), dtype=complex)
        else:
            out[...] = 0
        flat = out.reshape(lead + (n * (n + 1),))
        flat[..., ::n + 2] = np.exp(1j * lam_u * u)
        X = flat[..., n::n + 1]
        X[...] = self._radii * _stable_exp_integral(u, lam_u)
        for j, p in self._other:
            X[..., j] = p.position_integral(u[..., j], lam)
        return out

    def E(self, u: np.ndarray, lam) -> np.ndarray:
        return self._checked_block(u, lam)[..., :self.n]

    def X(self, u: np.ndarray, lam) -> np.ndarray:
        return self._checked_block(u, lam)[..., self.n]

    def _checked_block(self, u, lam) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        self._check_domain(u)
        return self.block(u, lam)

    def phi(self, u: np.ndarray):
        self._check_domain(u)
        return sum(p.energy_integral(u[..., j]) for j, p in enumerate(self.profiles))


def _lambdas(lam, lead: tuple):
    """(lambdas, the result's leading shape) at points of leading shape
    ``lead``: one lambda for all as a Python complex, or ``lam`` broadcast
    against ``lead``, its own leading axes flattened into m rows that lead
    the result, of shape (P,) or (m, P), or (m, 1) for rows that are the
    same at every point.  A NaN or infinite lambda is refused."""
    if not isinstance(lam, (complex, float, int)):
        lam = np.asarray(lam, dtype=complex)
        if lam.ndim:
            if not np.isfinite(lam).all():
                raise NonFiniteError("every lambda must be finite")
            k = max(lam.ndim - len(lead), 0)
            shape = lam.shape[:k] + lead
            try:
                every = np.broadcast_to(lam, shape)
            except ValueError:
                raise ValueError(f"lambdas of shape {lam.shape} do not broadcast against "
                                 f"the leading shape {lead} of the points") from None
            rows = (math.prod(shape[:k]),) if k else ()
            if k and lam.size == rows[0]:
                return lam.reshape(rows + (1,)), shape
            return every.reshape(rows + (math.prod(lead),)), shape
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise NonFiniteError(f"lambda must be finite, got {lam}")
    return lam, lead


# Number of most recent point sets whose pole data a frame keeps.
MEMO_POINT_SETS = 4

# Most (lambda, point) pairs one seed block or step update carries, and most
# points one point set of ``potential_on_grid`` or the CLI's reality check
# carries; a larger stack goes block by block, so the transients stay bounded
# however many points it has.
POINT_BLOCK = 2048


def _blocks(U: np.ndarray, lam, data: list):
    """Cut a stack against the (P, n) point set U, of leading shape (P,)
    (``lam`` one complex or of shape (P,)) or (m, P) (``lam`` (m, 1) or
    (m, P)), into blocks of at most ``POINT_BLOCK`` (lambda, point) pairs,
    each (its index into the stack's leading axes, its points, its lambdas,
    the steps' pole data ``data`` at its points).  Whole lambda rows go
    together while the point set fits in a block, else one row of at most
    ``POINT_BLOCK`` points; a stack that fits is one block, index ``...``."""
    P, stacked = len(U), np.ndim(lam) == 2
    rows = len(lam) if stacked else 1
    if rows * P <= POINT_BLOCK:
        yield ..., U, lam, data
        return
    size = min(P, POINT_BLOCK)
    for j in range(0, P, size):
        points = slice(j, j + size)
        U_j, data_j = U[points], [d.rows(points) for d in data]
        lam_j = lam[..., points] if np.shape(lam)[-1:] == (P,) else lam
        if not stacked:
            yield points, U_j, lam_j, data_j
            continue
        step = POINT_BLOCK // size
        for i in range(0, rows, step):
            yield (slice(i, i + step), points), U_j, lam_j[i:i + step], data_j


# Nodes of the contour around a lambda near a sensitive point, on a leading axis
CONTOUR_NODES = 16
_NODES = np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)[:, None]
# the radius of a lambda in no band, a numpy float as a stacked check gives
_NO_BAND = np.float64(0.0)


@dataclass(frozen=True, eq=False)
class ExtendedFrame:
    """A vacuum seed plus an ordered tuple of dressing records.

    Every evaluator takes a point set: ``u`` of shape (P, n), or of any shape
    (..., n), with results of shape (..., n, n) and (..., n).  A single point
    of shape (n,) is the one-point case and gives (n, n) and (n,).
    ``evaluate``, ``E`` and ``X`` take one lambda for all points, or an array
    broadcasting against the leading shape whose own axes lead.  The pole
    data (the arrays each step's update reads) of every step at a point set
    come from one sweep of the whole chain, stacked over the point set; the
    frame keeps them for its ``MEMO_POINT_SETS`` most recent point sets, one
    entry per point set, so memory is bounded by the point sets, not by how
    many calls were made.

    Frames and records are immutable; dressing returns a new frame sharing
    the prefix records, with an empty memo.  The memo changes only how much
    work a call repeats, never its result, and a lock guards it, so one frame
    may be evaluated from several threads.
    """

    seed: VacuumSeed
    history: tuple = ()
    steps: tuple = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    # depth -> (points, R/2, R, the same per point), unlocked: racing
    # threads store equal values
    _bands: dict = field(default_factory=dict, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(s for rec in self.history for s in rec.steps))

    @property
    def n(self) -> int:
        return self.seed.n

    @property
    def is_partial_invariant(self) -> bool:
        """Whether |h(u)| is provably constant: spherical seed and every
        step sphere-preserving."""
        return self.seed.is_spherical and all(s.sphere_preserving for s in self.steps)

    @property
    def has_closed_potential(self) -> bool:
        """Whether every record carries a closed-form potential update."""
        return all(rec.potential_gap is None for rec in self.history)

    @property
    def is_sigma_compatible(self) -> bool:
        """Whether every record's factor satisfies the sigma condition."""
        return all(rec.is_sigma_compatible for rec in self.history)

    def step_count(self, records: int) -> int:
        """Number of steps in the first ``records`` records."""
        return sum(len(rec.steps) for rec in self.history[:records])

    def factor_poles(self) -> tuple:
        """The poles of the factors dressed in: each step's last pole row."""
        return tuple(step.pole_rows[-1] for step in self.steps)

    def sensitive_points(self, depth: int | None = None) -> tuple:
        """The pole rows of the first ``depth`` steps (all by default): the
        lambdas where their direct updates lose digits."""
        return tuple(p for step in self.steps[:depth] for p in step.pole_rows)

    def _point_set(self, u):
        """(P, n) contiguous float points plus the caller's leading shape."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != self.n:
            raise ValueError(f"points need {self.n} coordinates, got shape {u.shape}")
        return np.ascontiguousarray(u.reshape(-1, self.n)), u.shape[:-1]

    def pole_data(self, U: np.ndarray) -> list:
        """Pole data of every step at the (P, n) point set U, memoised per
        point set: a point set new to the memo is checked against the
        seed's domain, once, and one ``_sweep`` then takes every step's
        data."""
        key = U.tobytes()
        with self._lock:
            data = self._memo.pop(key, None)
            if data is None:
                self.seed._check_domain(U)
                data = self._sweep(U) if self.steps else []
            self._memo[key] = data
            if len(self._memo) > MEMO_POINT_SETS:
                del self._memo[next(iter(self._memo))]
            return data

    def _sweep(self, U: np.ndarray) -> list:
        """Every step's pole data at the (P, n) point set U from one sweep.

        The sweep's one array, of shape (2, steps, P, n, n+1), holds in row
        0 each step's prefix block at its first pole row (conj(z) for a
        one-pole step, the pole for a translation), evaluated from the seed
        block on the stack of those rows (lambda of shape (steps, 1)), and
        in row 1 the block at z that a one-pole step's ``take_pole_data``
        writes by tau-reality.  Each step in turn reads its data off its own
        rows and dresses the later rows in place with its ``apply``.  A row
        in a contour band at its step's depth is ``_block``'s value there,
        from the data taken so far (a node stands in for it in the stack).
        Evaluation and updates run block by block (``_blocks``); the data
        keep views into the array, so it is the memo's own storage."""
        rows, near = self._sweep_rows
        lam = (rows + near)[:, None]
        sweep = np.empty((2, len(rows), len(U), self.n, self.n + 1), dtype=complex)
        F = self._steps(U, lam, [], out=sweep[0])
        data = []
        for j, step in enumerate(self.steps):
            if near[j]:
                F[j] = self._block(U, complex(rows[j]), data)
            data.append(step.take_pole_data(sweep[:len(step.pole_rows), j]))
            later = F[j + 1:]
            if len(later):
                for index, _, lam_b, data_b in _blocks(U, lam[j + 1:], data):
                    step.apply(later[index], lam_b, data_b[j])
        return data

    @cached_property
    def _sweep_rows(self) -> tuple:
        """(rows, R): each step's first pole row, the one a sweep
        evaluates, and the contour radius there at the step's own depth.
        They do not depend on the points, so a frame checks its rows' bands
        once."""
        rows = [step.pole_rows[0] for step in self.steps]
        near = [self._contour_radius(row, i) for i, row in enumerate(rows)]
        return np.array(rows, dtype=complex), np.array(near, dtype=float)

    def _contour_radius(self, lam, depth: int):
        """R(p) for each lambda within R(p)/2 of a sensitive point p of the
        first ``depth`` steps, 0 for every other; of lam's shape (a numpy
        float for one complex).  R(p) is 0.05 max(1, |p|), capped at 0.45
        times the distance to every other sensitive point more than
        ``pole_tol`` away, so the bands are disjoint and no contour node
        falls in one."""
        bands = self._bands.get(depth)
        if bands is None:
            points = np.array(self.sensitive_points(depth), dtype=complex)
            radii = np.array([min([0.05 * max(1.0, abs(p))]
                                  + [0.45 * abs(p - q) for q in points if abs(p - q) > pole_tol(p)])
                              for p in points])
            each = tuple(zip(points.tolist(), (radii / 2).tolist(), radii))
            bands = self._bands[depth] = (points, radii / 2, radii, each)
        points, half, radii, each = bands
        if isinstance(lam, complex):
            # one lambda, tested against each band in turn
            return max((r for p, h, r in each if abs(lam - p) < h), default=_NO_BAND)
        inside = np.abs(np.subtract.outer(lam, points)) < half
        return (inside * radii).max(axis=-1, initial=0.0)

    def _block(self, U: np.ndarray, lam, data: list) -> np.ndarray:
        """The frame block F = [E | X] of the first steps, those whose pole
        data at the (P, n) point set U are ``data``, shape (..., P, n, n+1);
        ``lam`` is one complex or an array of shape (P,), (m, 1) or (m, P).

        A lambda within R(p)/2 of a sensitive point p of these steps, where
        the direct updates lose digits (or divide by zero), gets F as its
        mean over CONTOUR_NODES nodes on |w - lambda| = R(p), stacked as
        lambda of shape (nodes, 1) against the same points, or, for an
        array, (nodes, B) against the points of its B banded pairs, which
        read their rows of the same pole data.  Every other lambda gets the
        direct updates."""
        r = self._contour_radius(lam, len(data))
        if isinstance(lam, complex):
            return self._contour(U, lam, r, data) if r else self._steps(U, lam, data)
        if not r.any():
            return self._steps(U, lam, data)
        # the direct updates, with a node in place of each banded lambda,
        # then the contour on the banded (lambda, point) pairs alone; an
        # (m, 1) stack's banded rows are broadcast to their pairs here
        F = self._steps(U, lam + r, data)
        lam, r = np.broadcast_to(lam, F.shape[:-2]), np.broadcast_to(r, F.shape[:-2])
        pairs = np.nonzero(r)
        points = pairs[-1]
        F[pairs] = self._contour(U[points], lam[pairs], r[pairs], [d.rows(points) for d in data])
        return F

    def _contour(self, U: np.ndarray, lam, r, data: list) -> np.ndarray:
        """The mean of the block over the nodes on |w - lam| = r, every
        lambda in a band (r > 0)."""
        return self._steps(U, lam + r * _NODES, data).mean(axis=0)

    def _steps(self, U: np.ndarray, lam, data: list, out: np.ndarray | None = None) -> np.ndarray:
        """The seed block dressed by the direct updates of the frame's first
        ``len(data)`` steps, whose pole data at the (P, n) point set U are
        ``data``, shape (..., P, n, n+1), block by block (``_blocks``),
        written into ``out`` (a C-contiguous array of that shape) or a new
        array.  ``lam`` is one complex or an array of shape (P,), or (m, 1)
        or (m, P), whose rows lead the result: a contour's nodes, a sweep's
        rows, a lambda stack.  Each block is the seed block written in
        place, which each step then updates in place."""
        for index, U_b, lam_b, data_b in _blocks(U, lam, data):
            if out is None and index is not ...:
                out = np.empty(np.shape(lam)[:-1] + U.shape[:1] + (self.n, self.n + 1),
                               dtype=complex)
            block = self.seed.block(U_b, lam_b, None if out is None else out[index])
            for step, step_data in zip(self.steps, data_b):
                step.apply(block, lam_b, step_data)
        return block if out is None else out

    def evaluate(self, u, lam):
        """Dressed (E, X) at the points u, through every step; holomorphic
        in lambda across the dressing poles (each update is applied in its
        residue-subtracted form).  ``lam`` is one lambda for every point, or
        an array that broadcasts against the leading shape of u, whose axes
        beyond it (a lambda stack) lead the results, each row equal to its
        own call."""
        U, lead = self._point_set(u)
        lam, lead = _lambdas(lam, lead)
        F = self._block(U, lam, self.pole_data(U))
        F = F.reshape(lead + F.shape[-2:])
        return F[..., :self.n], F[..., self.n]

    def E(self, u, lam) -> np.ndarray:
        return self.evaluate(u, lam)[0]

    def X(self, u, lam) -> np.ndarray:
        return self.evaluate(u, lam)[1]

    def _accumulate(self, u, start, update: str):
        """``start(U)`` at the (P, n) point set of u, carried through every
        step's ``update`` method with its pole data, in u's leading shape."""
        U, lead = self._point_set(u)
        val = start(U)
        for step, data in zip(self.steps, self.pole_data(U)):
            val = getattr(step, update)(val, data)
        return val.reshape(lead + val.shape[1:])

    def h(self, u) -> np.ndarray:
        """Metric coefficient vectors, accumulated through the steps."""
        return self._accumulate(u, lambda U: self.seed.h(U).astype(complex), "apply_h")

    def beta(self, u) -> np.ndarray:
        """Rotation coefficient matrices, accumulated through the steps."""
        n = self.n
        return self._accumulate(u, lambda U: np.zeros((len(U), n, n), dtype=complex),
                                "apply_beta")

    def phi(self, u):
        """Closed-form potential (a float at a single point), or None when
        some record has no closed update (translations, lone complex
        one-pole records: see each record's ``potential_gap``)."""
        if not self.has_closed_potential:
            return None
        val = self._accumulate(u, self.seed.phi, "apply_phi")
        return val if val.ndim else float(val)


def potential_on_grid(frame: ExtendedFrame, grid: Grid, axis_order=None) -> np.ndarray:
    """Potential phi on the grid by integrating d phi = sum_i h_i^2 du_i along
    axis-ordered staircase paths from the origin.  Flatness makes the result
    independent of ``axis_order`` (tested, not assumed).

    Each sweep axis has one staircase line per grid point of the axes
    already swept, on the axis knots augmented with 0 plus the cell
    midpoints (the evaluator is exact off-grid, so they are free), and
    per-cell Simpson sums accumulate along the lines.  The last axis's knots
    are the grid in grid order when 0 is a knot and the axes go in order:
    then they are one point set, whose pole data ``metric_from_frame`` left,
    and the other points another; each goes in cuts of at most
    ``POINT_BLOCK`` points, so memory stays bounded however fine the grid.
    """
    n = grid.n
    order = tuple(range(n)) if axis_order is None else tuple(axis_order)
    if sorted(order) != list(range(n)):
        raise ValueError("axis_order must be a permutation of the axes")
    lines = []
    for pos, axis in enumerate(order):
        prior = order[:pos]
        aug = np.union1d(grid.axes[axis], [0.0])
        ts = np.concatenate([aug, 0.5 * (aug[:-1] + aug[1:])])
        # points indexed (prior..., t): prior axes on the grid, the swept
        # axis at ts, the rest at 0
        mesh = np.meshgrid(*[grid.axes[a] for a in prior], ts, indexing="ij")
        U = np.zeros(mesh[-1].shape + (n,))
        for a, coord in zip(prior + (axis,), mesh):
            U[..., a] = coord
        lines.append((prior, axis, aug, U))
    pts = np.concatenate([U.reshape(-1, n) for *_, U in lines])
    # the last pass's knot lattice goes alone when it is the grid in grid order
    lattice = np.zeros(U.shape[:-1], dtype=bool)
    lattice[..., :aug.size] = order == tuple(range(n)) and aug.size == grid.shape[-1]
    lattice = np.concatenate([np.zeros(len(pts) - lattice.size, dtype=bool), lattice.reshape(-1)])
    h = np.empty(pts.shape, dtype=complex)
    for part in (np.flatnonzero(lattice), np.flatnonzero(~lattice)):
        for i in range(0, len(part), POINT_BLOCK):
            rows = part[i:i + POINT_BLOCK]
            h[rows] = frame.h(pts[rows])
    phi = np.zeros(grid.shape, dtype=complex)
    cuts = np.cumsum([U[..., 0].size for *_, U in lines])[:-1]
    for (prior, axis, aug, U), h_line in zip(lines, np.split(h, cuts)):
        fa, fm = np.split(h_line.reshape(U.shape)[..., axis] ** 2, [aug.size], axis=-1)
        seg = (np.diff(aug) / 6.0) * (fa[..., :-1] + 4.0 * fm + fa[..., 1:])
        cum = np.concatenate([np.zeros(seg.shape[:-1] + (1,), dtype=complex),
                              np.cumsum(seg, axis=-1)], axis=-1)
        cum -= cum[..., int(np.searchsorted(aug, 0.0))][..., None]
        part = cum[..., np.searchsorted(aug, grid.axes[axis])]
        # part dims follow (prior..., axis); sort them into grid axis order,
        # then insert size-1 dims for the axes not yet visited
        src_axes = list(prior) + [axis]
        part = np.transpose(part, np.argsort(src_axes))
        phi = phi + np.expand_dims(part, [a for a in range(n) if a not in src_axes])
    return phi


def metric_from_frame(frame: ExtendedFrame, grid: Grid) -> EgoroffMetric:
    """Sample h, beta and the potential from the closed-form accumulated
    updates.  A chain with a record that has no closed potential update gets
    its potential integrated along staircase paths instead, or NaN if it is
    not sigma-compatible (beta is not symmetric, so no potential exists)."""
    pts = grid.points()
    h = frame.h(pts)
    beta = frame.beta(pts)
    closed = frame.has_closed_potential
    if closed:
        phi = frame.phi(pts).astype(complex)
    else:
        phi = (potential_on_grid(frame, grid) if frame.is_sigma_compatible
               else np.full(grid.shape, complex(np.nan, np.nan)))
    return EgoroffMetric(grid=grid, h=h, phi=phi, beta=beta,
                         imag_max=max(max_abs(h.imag), max_abs(beta.imag)),
                         phi_is_closed=closed)

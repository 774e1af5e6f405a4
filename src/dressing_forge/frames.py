"""Extended frames F(u, lambda) = [[E, X], [0, 1]] in closed form.

A frame is a vacuum seed (diagonal exponential E, per-axis profile integrals
X) plus an ordered dressing history.  Evaluation carries the top block
[E | X] of F through the history and applies each record's closed-form
update to it in order, so no PDE is ever integrated here; the PDE route
lives in :mod:`dressing_forge.oracle` as an independent cross-check.

The history is evaluated as one flat sequence of steps: a one-pole or
translation record is one step, a two-pole record its two one-pole parts.
Evaluation works on whole point sets at once: every update is a stacked
array operation over the points, so a grid costs a few numpy calls per step
rather than a Python loop per point.  Each step needs the block of its
prefix, the frame's first ``depth`` steps at the point set U, at its own
poles; a point set gets those pole data for the whole chain from one sweep,
which evaluates the block once on the stack of every pending step's poles
and lets each step in turn read its rows and dress the later ones.

The steps' poles cancel, so the block is entire in lambda; near a sensitive
point p (a pole or its conjugate) the direct updates lose digits, so a
lambda within R(p)/2 of p takes the block's mean over |w - lambda| = R(p),
the trapezoid rule for Cauchy's formula (Trefethen & Weideman, SIAM Review
56, 2014).  One bound, ``POINT_BLOCK``, sizes every batch: the seed block
and the steps' updates run over blocks of at most that many (lambda, point)
pairs, which ``_blocks`` alone cuts, and ``potential_on_grid`` sends point
sets of at most that many points through ``h``.

Every seed profile's position and energy integrals are closed forms: a
sampled profile is a sum over its cubic spline pieces, each a
:class:`PolynomialProfile`.  The module imports only numpy; scipy builds the
spline coefficients and is imported when a sampled profile is made.
"""

from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass, field

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
        lo, hi = self.domain
        if not (lo <= 0.0 <= hi and lo < hi):
            raise ValueError("profile domain must contain 0")
        # the minimum on [lo, hi] sits at an end or at a real critical point
        ts = np.concatenate([[lo, hi], _critical_points(self.coeffs, lo, hi)])
        with np.errstate(all="ignore"):
            positive = np.polynomial.polynomial.polyval(ts, self.coeffs) > 0
        if not positive.all():
            raise ValueError("polynomial profile must stay positive on its domain "
                             "(rule: h_j > 0 on the profile domain)")

    def value(self, t):
        return np.polynomial.polynomial.polyval(t, self.coeffs)

    def position_integral(self, u, lam):
        u, lam = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(lam, dtype=complex))
        # the series branch is taken per point where |lam| max(1, |u|) is small
        series = np.abs(lam) * np.maximum(1.0, np.abs(u)) < 0.5
        out = np.empty(u.shape, dtype=complex)
        if np.any(series):
            out[series] = self._series_integral(u[series], lam[series])
        if not np.all(series):
            out[~series] = self._by_parts_integral(u[~series], lam[~series])
        return out[()]

    def _series_integral(self, u, lam):
        """sum_k (i lam)^k / k! * int_0^u t^k p(t) dt, each point summed until
        its own terms fall below roundoff."""
        total = np.zeros(u.shape, dtype=complex)
        active = np.ones(u.shape, dtype=bool)
        term_pow = 1.0 + 0.0j
        for k in range(80):
            moment = sum(a * u ** (m + k + 1) / (m + k + 1)
                         for m, a in enumerate(self.coeffs))
            term = term_pow * moment
            total = np.where(active, total + term, total)
            term_pow *= 1j * lam / (k + 1)
            if k > 4:
                active &= ~(np.abs(term) < 1e-18 * (np.abs(total) + 1.0))
                if not active.any():
                    break
        return total

    def _by_parts_integral(self, u, lam):
        """I_m = (u^m e^{i lam u} - m I_{m-1}) / (i lam), summed against the
        coefficients."""
        I = _stable_exp_integral(u, lam)
        total = self.coeffs[0] * I
        e = np.exp(1j * lam * u)
        for m in range(1, len(self.coeffs)):
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
        total = np.zeros(u.shape, dtype=complex)
        for knot, piece, s0, s1 in self._parts(u):
            total += np.exp(1j * lam * knot) * (piece.position_integral(s1, lam)
                                                - piece.position_integral(s0, lam))
        return total[()]

    def energy_integral(self, u):
        u = np.asarray(u, dtype=float)
        total = np.zeros(u.shape)
        for _, piece, s0, s1 in self._parts(u):
            total += piece.energy_integral(s1) - piece.energy_integral(s0)
        return total[()]


Profile = ConstantProfile | PolynomialProfile | SampledProfile


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
        # the constant axes' radii, whose X entries the block writes in one
        # call, and the other axes, each by its own closed form
        constant = [j for j, p in enumerate(self.profiles) if isinstance(p, ConstantProfile)]
        object.__setattr__(self, "_constant", (
            np.array(constant, dtype=int),
            np.array([self.profiles[j].r for j in constant], dtype=float)))
        object.__setattr__(self, "_other", tuple(
            (j, p) for j, p in enumerate(self.profiles) if j not in constant))

    @property
    def n(self) -> int:
        return len(self.profiles)

    @property
    def is_spherical(self) -> bool:
        return all(isinstance(p, ConstantProfile) for p in self.profiles)

    @classmethod
    def constant(cls, radii) -> "VacuumSeed":
        return cls(tuple(ConstantProfile(float(r)) for r in radii))

    def h0(self) -> np.ndarray:
        return np.array([p.value(0.0) for p in self.profiles])

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

    def block(self, u: np.ndarray, lam) -> np.ndarray:
        """The seed block [E | X], shape (..., n, n+1): E on the diagonal of
        the first n columns, X in the last, written in one pass after one
        domain check; the constant axes' X entries are r_j times one
        stacked exp integral."""
        u = np.asarray(u, dtype=float)
        self._check_domain(u)
        lead = u.shape[:-1]
        if isinstance(lam, np.ndarray):
            lead = np.broadcast_shapes(lam.shape, lead)
        n = self.n
        out = np.zeros(lead + (n, n + 1), dtype=complex)
        diag = np.arange(n)
        lam_u = lam[..., None] if isinstance(lam, np.ndarray) else lam
        out[..., diag, diag] = np.exp(1j * lam_u * u)
        axes, radii = self._constant
        if axes.size:
            out[..., axes, n] = radii * _stable_exp_integral(u[..., axes], lam_u)
        for j, p in self._other:
            out[..., j, n] = p.position_integral(u[..., j], lam)
        return out

    def E(self, u: np.ndarray, lam) -> np.ndarray:
        return self.block(u, lam)[..., :self.n]

    def X(self, u: np.ndarray, lam) -> np.ndarray:
        return self.block(u, lam)[..., self.n]

    def phi(self, u: np.ndarray):
        self._check_domain(u)
        total = 0.0
        for j, p in enumerate(self.profiles):
            total = total + p.energy_integral(u[..., j])
        return total


def _lambdas(lam, lead: tuple):
    """One lambda for every point as a Python complex, or one per point as
    a flat complex array: ``lam`` broadcast against the leading shape
    ``lead`` of the point set.  A NaN or infinite lambda is refused."""
    if not isinstance(lam, (complex, float, int)):
        lam = np.asarray(lam, dtype=complex)
        if lam.ndim:
            if not np.isfinite(lam).all():
                raise NonFiniteError("every lambda must be finite")
            try:
                return np.broadcast_to(lam, lead).reshape(-1)
            except ValueError:
                raise ValueError(f"lambdas of shape {lam.shape} do not broadcast against "
                                 f"the leading shape {lead} of the points") from None
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise NonFiniteError(f"lambda must be finite, got {lam}")
    return lam


# Number of most recent point sets whose pole data a frame keeps.
MEMO_POINT_SETS = 4

# Most (lambda, point) pairs one seed block or step update carries, and most
# points one ``potential_on_grid`` point set carries; a larger stack goes block
# by block, so the transients stay bounded however many points it has.
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
    ``evaluate``, ``E`` and ``X`` take one lambda for all points, or one per
    point (an array broadcasting against the leading shape).  Each step's
    pole data (the arrays its update reads) are stacked over the whole
    point set and computed once; the frame keeps them for its
    ``MEMO_POINT_SETS`` most recent point sets, so memory is bounded by the
    point sets, not by how many calls were made.

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
    # re-entrant: computing one step's pole data evaluates the prefix frame
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False, repr=False)

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

    def with_record(self, record) -> "ExtendedFrame":
        return ExtendedFrame(self.seed, self.history + (record,))

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

    def pole_data(self, U: np.ndarray, depth: int) -> list:
        """Pole data of the first ``depth`` steps at the (P, n) point set U,
        memoised per point set.

        The missing steps' data come from one sweep: the block of the
        memoised prefix is evaluated on the stack of their poles, lambda of
        shape (m, 1) against the points.  Each step in turn reads its data
        off its own rows (``take_pole_data``), and then dresses the later
        rows in place with its ``apply``.  A row in a contour band at its
        step's depth is ``_block``'s value there (a node stands in for it in
        the stack), so the data do not depend on how deep the memo ran.
        Evaluation and updates run block by block (``_blocks``); the data
        keep views into their rows, so the stack is the memo's own
        storage."""
        if not 0 <= depth <= len(self.steps):
            raise ValueError(f"depth {depth} outside 0..{len(self.steps)}, the frame's steps")
        key = U.tobytes()
        with self._lock:
            data = self._memo.pop(key, None)
            if data is None:
                data = []
            self._memo[key] = data
            if len(self._memo) > MEMO_POINT_SETS:
                del self._memo[next(iter(self._memo))]
            k = len(data)
            if k < depth:
                pending = self.steps[k:depth]
                rows = np.array([w for step in pending for w in step.pole_rows])
                near = np.concatenate([self._contour_radius(np.array(step.pole_rows), i)
                                       for i, step in enumerate(pending, start=k)])
                lam = (rows + near)[:, None]
                F = self._steps(U, lam, data[:k])
                for i, step in enumerate(pending, start=k):
                    m = len(step.pole_rows)
                    for j in np.flatnonzero(near[:m]):
                        F[j] = self._block(U, complex(rows[j]), i)
                    data.append(step.take_pole_data(F[:m]))
                    F, lam, rows, near = F[m:], lam[m:], rows[m:], near[m:]
                    if len(F):
                        for index, _, lam_b, data_b in _blocks(U, lam, data):
                            step.apply(F[index], lam_b, data_b[i])
            return data

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

    def _block(self, U: np.ndarray, lam, depth: int) -> np.ndarray:
        """The frame block F = [E | X] of the first ``depth`` steps at the
        (P, n) point set U, shape (P, n, n+1); ``lam`` is one complex or an
        array of shape (P,).

        A lambda within R(p)/2 of a sensitive point p of these steps, where
        the direct updates lose digits (or divide by zero), gets F as its
        mean over CONTOUR_NODES nodes on |w - lambda| = R(p), stacked as
        lambda of shape (nodes, 1) against the same points, or, with one
        lambda per point, (nodes, B) against the B points whose lambdas are
        in a band, which read their rows of the same pole data.  Every
        other lambda gets the direct updates."""
        r = self._contour_radius(lam, depth)
        data = self.pole_data(U, depth)[:depth]
        if isinstance(lam, complex):
            return self._contour(U, lam, r, data) if r else self._steps(U, lam, data)
        if not r.any():
            return self._steps(U, lam, data)
        if r.all():
            return self._contour(U, lam, r, data)
        # the direct updates elsewhere, with a node in place of each contour
        # lambda, then the contour on the banded rows alone
        F = self._steps(U, lam + r, data)
        rows = np.flatnonzero(r)
        F[rows] = self._contour(U[rows], lam[rows], r[rows], [d.rows(rows) for d in data])
        return F

    def _contour(self, U: np.ndarray, lam, r, data: list) -> np.ndarray:
        """The mean of the block over the nodes on |w - lam| = r, every
        lambda in a band (r > 0)."""
        return self._steps(U, lam + r * _NODES, data).mean(axis=0)

    def _steps(self, U: np.ndarray, lam, data: list) -> np.ndarray:
        """The seed block dressed by the direct updates of the steps whose
        pole data at the (P, n) point set U are ``data``, shape
        (..., P, n, n+1), block by block (``_blocks``).  ``lam`` is one
        complex or an array of shape (P,), or of shape (m, 1) or (m, P),
        whose rows lead the result: a contour's nodes or a sweep's rows.
        Each step updates a block in place."""
        F = None
        for index, U_b, lam_b, data_b in _blocks(U, lam, data):
            block = self.seed.block(U_b, lam_b)
            for step, step_data in zip(self.steps, data_b):
                step.apply(block, lam_b, step_data)
            if index is ...:
                return block
            if F is None:
                F = np.empty(np.shape(lam)[:-1] + U.shape[:1] + block.shape[-2:], dtype=complex)
            F[index] = block
        return F

    def evaluate(self, u, lam, depth: int | None = None):
        """Dressed (E, X) at the points u; holomorphic in lambda across the
        dressing poles (each update is applied in its residue-subtracted
        form).  ``lam`` is one lambda for every point, or an array that
        broadcasts against the leading shape of u, one lambda per point.
        ``depth`` evaluates the prefix frame of the first ``depth`` records,
        0 to all of them."""
        if depth is not None and not 0 <= depth <= len(self.history):
            raise ValueError(f"depth {depth} outside 0..{len(self.history)}, "
                             "the frame's records")
        U, lead = self._point_set(u)
        upto = len(self.steps) if depth is None else self.step_count(depth)
        F = self._block(U, _lambdas(lam, lead), upto)
        F = F.reshape(lead + F.shape[1:])
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
        for step, data in zip(self.steps, self.pole_data(U, len(self.steps))):
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


def frame_dlambda_at_zero(E_fn, u, step: float = 1e-3) -> np.ndarray:
    """dE/dlambda at lambda = 0 on the points u, by 4th-order central
    differences with one Richardson extrapolation level; ``E_fn(u, lam)`` is
    the frame block evaluator (``frame.E`` for an extended frame)."""
    u = np.asarray(u, dtype=float)

    def central(s):
        Ep2, Ep1, Em1, Em2 = (np.asarray(E_fn(u, k * s)) for k in (2, 1, -1, -2))
        return (-Ep2 + 8 * Ep1 - 8 * Em1 + Em2) / (12 * s)

    coarse = central(step)
    fine = central(step / 2)
    return (16 * fine - coarse) / 15


def potential_on_grid(frame: ExtendedFrame, grid: Grid, axis_order=None) -> np.ndarray:
    """Potential phi on the grid by integrating d phi = sum_i h_i^2 du_i along
    axis-ordered staircase paths from the origin.  Flatness makes the result
    independent of ``axis_order`` (tested, not assumed).

    Each sweep axis evaluates every staircase line of that sweep (one per
    grid point of the axes already swept) on the axis knots augmented with
    0, plus the cell midpoints (the evaluator is exact off-grid, so they are
    free), as point sets of whole lines with at most ``POINT_BLOCK`` points
    (one line when a line alone has more), so memory stays bounded however
    fine the grid.  Per-cell Simpson sums are then accumulated along the
    lines.
    """
    n = grid.n
    order = tuple(range(n)) if axis_order is None else tuple(axis_order)
    if sorted(order) != list(range(n)):
        raise ValueError("axis_order must be a permutation of the axes")
    phi = np.zeros(grid.shape, dtype=complex)
    for pos, axis in enumerate(order):
        prior = order[:pos]
        knots = grid.axes[axis]
        aug = np.union1d(knots, [0.0])
        ts = np.concatenate([aug, 0.5 * (aug[:-1] + aug[1:])])
        # points indexed (prior..., t): prior axes on the grid, the swept
        # axis at ts, the rest at 0
        mesh = np.meshgrid(*[grid.axes[a] for a in prior], ts, indexing="ij")
        U = np.zeros(mesh[-1].shape + (n,))
        for a, coord in zip(prior + (axis,), mesh):
            U[..., a] = coord
        lines = U.reshape(-1, ts.size, n)
        step = max(1, POINT_BLOCK // ts.size)
        f = np.concatenate([frame.h(lines[i:i + step])[..., axis] ** 2
                            for i in range(0, len(lines), step)]).reshape(U.shape[:-1])
        fa, fm = f[..., :aug.size], f[..., aug.size:]
        seg = (np.diff(aug) / 6.0) * (fa[..., :-1] + 4.0 * fm + fa[..., 1:])
        cum = np.concatenate([np.zeros(seg.shape[:-1] + (1,), dtype=complex),
                              np.cumsum(seg, axis=-1)], axis=-1)
        cum -= cum[..., int(np.searchsorted(aug, 0.0))][..., None]
        part = cum[..., np.searchsorted(aug, knots)]
        # part dims follow (prior..., axis); sort them into grid axis order,
        # then insert size-1 dims for the axes not yet visited
        src_axes = list(prior) + [axis]
        part = np.transpose(part, np.argsort(src_axes))
        new_shape = [1] * n
        for a in src_axes:
            new_shape[a] = grid.shape[a]
        phi = phi + part.reshape(new_shape)
    return phi


def metric_from_frame(frame: ExtendedFrame, grid: Grid) -> EgoroffMetric:
    """Sample h, beta and the potential from the closed-form accumulated
    updates.  A chain with a record that has no closed potential update gets
    its potential integrated along staircase paths instead.

    Nonpositive h on the grid marks the metric (``h_positive=False``): the
    immersion chart has been left.
    """
    pts = grid.points()
    h = frame.h(pts)
    beta = frame.beta(pts)
    closed = frame.has_closed_potential
    if closed:
        phi = frame.phi(pts).astype(complex)
    else:
        phi = potential_on_grid(frame, grid)

    imag_max = max(max_abs(h.imag), max_abs(beta.imag))
    is_real = imag_max < 1e-9
    h_positive = bool(np.all(h.real > 0)) if is_real else False

    c = frame.h(np.zeros(grid.n))
    return EgoroffMetric(grid=grid, h=h, phi=phi, beta=beta, c=c,
                         is_real=is_real, h_positive=h_positive,
                         imag_max=imag_max, phi_is_closed=closed)

"""Numerical transport of hyperlogarithm word systems.

Hyperlogarithms with letters dz/(z - b_k) satisfy a triangular linear ODE:
the derivative of the value of a word is the first letter's form times the
value of the word with that letter removed. This module integrates the full
word-indexed system along the pullbacks of planar segments under the first
integrals of a web with a fixed-step fourth-order scheme, doubling the step
count until the values stabilize; the reported error estimate is never below
the observed halving discrepancy. The paths of
one call (every first integral times every sample) are transported integral
by integral in groups of a fixed number of paths, one batch per group, so
memory follows the group, not samples times integrals. Each path keeps its
own step doubling and leaves its batch once it has converged. A run of n
steps goes over blocks of steps and, within a block, weight by weight: the
RK4 stages of every word of one weight at every step of the block are outer
products of the letter coefficients with the stage inputs of the weight
below, and the values at the step starts are a running sum of the
increments. Coefficients come from vectorised evaluations per first integral
over its active paths, each over a bounded number of nodes, on one grid of
dyadic nodes that each doubling extends by its midpoints instead of
rebuilding; an integral's numerator, denominator and gradients share one
table of powers. Every element goes through the float operations of a lone
path transported step by step on fresh nodes, in the same order, so values
and error estimates are bit-identical to that route whatever the group size,
evaluation size or block width.

The first integrals come from the webs the dp4 module derives from a point
configuration: the five-term web for the weight-2 identity at rank 4, and
the ten-integral web for the weight-3 identity at rank 5. In both cases the
term signs come from the wedge kernel solve, aligned fiber-by-fiber by the
web's fiber spec, never from a hard-coded list.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import dp4
from .words import Word, asym

_STEP_CAP = 1 << 17
_CLEARANCE_GRID = 1025
# Elements (words x paths x steps) of the top weight in one block of steps
# of a transport run; each lower weight holds 1/alphabet of the one above.
_BLOCK = 1 << 13
# Paths of one transport batch when a sample plan is transported; each
# coefficient table of the batch holds (2n + 1) x paths x letters values.
# Smaller groups lower the peak a little more but free and map memory more
# often: at 20 paths, `all --rank 4/5` took 11-15% more page faults.
_GROUP = 40
# (node, path) pairs of one evaluation of a first integral's coefficients;
# its temporaries take 100-350 bytes per pair.
_NODES = 1 << 12
# A running sum over fewer steps than rows / _FOLD_ROWS goes step by step:
# np.add.accumulate costs about 35 ns per row and one np.add call about 1 us,
# and a full-width rank-5 batch has 2,700 rows of three steps per block.
_FOLD_ROWS = 32


class PathTooClose(RuntimeError):
    """The plan draw found no paths clear enough of the branch points."""


class QuadratureFailure(RuntimeError):
    """Step doubling hit the cap without meeting the tolerance."""


def _word_system(alphabet: int, max_weight: int) -> dict[Word, int]:
    """Index of every word of weight <= max_weight.

    Index 0 is the empty word; the words of each weight follow in
    itertools.product order. So the a**w words of weight w form a contiguous
    run that reshapes to (alphabet, a**(w - 1)): first letter times suffix.
    """
    index: dict[Word, int] = {(): 0}
    for weight in range(1, max_weight + 1):
        for w in itertools.product(range(alphabet), repeat=weight):
            index[w] = len(index)
    return index


def _rk4_batch(
    coef: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: int,
    alphabet: int,
    max_weight: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Transport the word system along `count` paths in one batch.

    coef(paths, t) gives the letter coefficients of the given paths at the
    times t in [0, 1], shaped (len(t), len(paths), alphabet). Every path
    starts at 64 steps and doubles until two successive runs differ by less
    than tol, then leaves the batch, so its values and error estimate are
    those it gets when transported alone. A run of n steps reads the exact
    dyadic nodes j/(2n): step starts, midpoints and ends are rows 0::2, 1::2
    and 2::2 of one array, and the 2n-step run reuses them as its even rows,
    evaluating only the odd ones. Returns the values, one row per path
    indexed as in _word_system, and the error estimates.

    A run goes over blocks of steps, and within a block weight by weight,
    with the steps on the innermost axis. The RK4 stages of a word
    (l, rest) are a letter-l coefficient times a stage input of rest, so one
    weight's stages are outer products (letter times suffix) of the stage
    inputs of the weight below, over every step of the block at once; weight
    w at step i needs only weight w - 1 at step i. Its values at the step
    starts are a running sum of its increments, carried from block to block.

    Bits: every element goes through the operations of the step-by-step
    loop v += (h/6)·(((k0 + 2·k1) + 2·k2) + k3) with k1 = a·(v + (h/2)·k0)
    and so on, associated the same way. Operands of an addition, or of a
    product with a real scalar, may swap, since those commute exactly; a
    complex product keeps the coefficient on the left, because numpy's
    fused multiply-add kernels make it commute only up to rounding. The
    running sum is a sequential fold, each value the previous one plus the
    increment, so block boundaries change no bit.
    """

    def run(c: np.ndarray, n_steps: int) -> np.ndarray:
        h = 1.0 / n_steps
        paths = c.shape[1]
        width = max(1, _BLOCK // (paths * alphabet**max_weight))
        # Values at the current step start, weight by weight, as
        # (words, paths); the empty word is 1 throughout.
        carry = [np.ones((1, paths), dtype=complex)] + [
            np.zeros((alphabet**w, paths), dtype=complex)
            for w in range(1, max_weight + 1)
        ]
        for i in range(0, n_steps, width):
            b = min(width, n_steps - i)
            nodes = c[2 * i : 2 * (i + b) + 1].transpose(2, 1, 0)
            a0, ah, a1 = (
                np.ascontiguousarray(nodes[:, None, :, j : j + 2 * b : 2])
                for j in range(3)
            )
            # Stage inputs of the empty word: 1 + (h/2)·0 and 1 + h·0 are 1.
            stages = (np.ones((1, paths, b), dtype=complex),) * 4
            for w in range(1, max_weight + 1):
                low = w < max_weight
                # inc = (h/6)·(((k0 + 2·k1) + 2·k2) + k3). Below the top
                # weight, (h/2)·k0, (h/2)·k1 and h·k2 are kept: each plus the
                # value at the step start is a stage input one weight up.
                inc = np.multiply(a0, stages[0])
                if low:
                    p1 = inc * (h / 2)
                tmp = np.multiply(ah, stages[1])
                if low:
                    p2 = tmp * (h / 2)
                tmp *= 2
                inc += tmp
                np.multiply(ah, stages[2], out=tmp)
                if low:
                    p3 = tmp * h
                tmp *= 2
                inc += tmp
                np.multiply(a1, stages[3], out=tmp)
                inc += tmp
                inc *= h / 6
                acc = _running_sum(carry[w], inc.reshape(-1, paths, b))
                carry[w] = acc[..., b]
                if low:
                    v = np.ascontiguousarray(acc[..., :b])
                    stages = (v,) + tuple(
                        np.add(p.reshape(v.shape), v, out=p.reshape(v.shape))
                        for p in (p1, p2, p3)
                    )
        return np.concatenate(carry).T

    words = sum(alphabet**w for w in range(max_weight + 1))
    values = np.empty((count, words), dtype=complex)
    errors = np.empty(count)
    active = np.arange(count)
    n = 64
    c = coef(active, np.arange(2 * n + 1) / (2 * n))
    prev = run(c, n)
    while active.size:
        n *= 2
        if n > _STEP_CAP:
            raise QuadratureFailure(
                f"no convergence below {tol:.1e} within {_STEP_CAP} steps"
            )
        # Free the coarse array before the odd rows are evaluated, so the
        # peak stays at the finer array plus its odd rows.
        coarse, c = c, np.empty((2 * n + 1,) + c.shape[1:], dtype=complex)
        c[::2] = coarse
        del coarse
        c[1::2] = coef(active, np.arange(1, 2 * n, 2) / (2 * n))
        cur = run(c, n)
        diff = np.max(np.abs(cur - prev), axis=1)
        if not np.isfinite(diff).all():
            raise QuadratureFailure("transport diverged (path too singular)")
        done = diff < tol
        scale = np.max(np.abs(cur[done]), axis=1)
        values[active[done]] = cur[done]
        errors[active[done]] = np.maximum(diff[done], 3e-14 * (1.0 + scale))
        active, prev, c = active[~done], cur[~done], c[:, ~done]
    return values, errors


def _running_sum(first: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """The sequential fold first, first + inc[..., 0], ... along the last
    axis, shaped (..., steps + 1): each entry is the one before it plus the
    next increment, by np.add.accumulate or, for many rows of few steps,
    one step at a time."""
    acc = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,), dtype=complex)
    acc[..., 0] = first
    if inc.shape[-1] * _FOLD_ROWS < first.size:
        for j in range(inc.shape[-1]):
            np.add(acc[..., j], inc[..., j], out=acc[..., j + 1])
    else:
        acc[..., 1:] = inc
        np.add.accumulate(acc, axis=-1, out=acc)
    return acc


class _RationalMap:
    """Vectorized evaluation of one first integral along a planar segment.

    The numerator, the denominator and their four partial derivatives all
    read one table of the powers x**i and y**j per evaluation.
    """

    __slots__ = ("num", "den", "grads", "degrees")

    def __init__(self, num: dict, den: dict) -> None:
        self.num = _PolyEval(num)
        self.den = _PolyEval(den)
        self.grads = (
            (_PolyEval(dp4._pdiff(num, 0)), _PolyEval(dp4._pdiff(num, 1))),
            (_PolyEval(dp4._pdiff(den, 0)), _PolyEval(dp4._pdiff(den, 1))),
        )
        self.degrees = tuple(
            max(k[axis] for k in (*num, *den)) for axis in (0, 1)
        )

    def powers(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x**i and y**j on a new last axis, up to the degrees in x and y."""
        return (
            x[..., None] ** np.arange(self.degrees[0] + 1),
            y[..., None] ** np.arange(self.degrees[1] + 1),
        )

    def forms(
        self, start: np.ndarray, stop: np.ndarray, t: np.ndarray, pts: np.ndarray
    ) -> np.ndarray:
        """Coefficients of the forms du/(u - b_k) at the times t along the
        planar segments start -> stop (rows of (x, y)), shaped
        (len(t), segments, len(pts))."""
        dx = stop[:, 0] - start[:, 0]
        dy = stop[:, 1] - start[:, 1]
        xy = self.powers(
            start[:, 0] + t[:, None] * dx, start[:, 1] + t[:, None] * dy
        )
        n = self.num(*xy)
        d = self.den(*xy)
        (nx, ny), (dxp, dyp) = self.grads
        dn = nx(*xy) * dx + ny(*xy) * dy
        dd = dxp(*xy) * dx + dyp(*xy) * dy
        u = n / d
        du = (dn * d - n * dd) / (d * d)
        return du[..., None] / (u[..., None] - pts)


class _PolyEval:
    __slots__ = ("ei", "ej", "c")

    def __init__(self, poly: dict) -> None:
        items = sorted(poly.items())
        self.ei = np.asarray([k[0] for k, _ in items], dtype=np.int64)
        self.ej = np.asarray([k[1] for k, _ in items], dtype=np.int64)
        self.c = np.asarray([complex(v) for _, v in items], dtype=complex)

    def __call__(self, xp: np.ndarray, yp: np.ndarray) -> np.ndarray:
        """The polynomial at the points whose power tables are xp and yp.

        The monomial terms c * x**i * y**j go into one C-contiguous buffer
        with the monomials on its last axis, so the sum runs over a
        contiguous axis in the same (pairwise) order as for x**ei * y**ej
        computed per monomial; a gathered table has its monomial axis
        outermost, and numpy would sum it in another order.
        """
        terms = np.empty(xp.shape[:-1] + self.c.shape, dtype=complex)
        np.multiply(self.c, xp[..., self.ei], out=terms)
        terms *= yp[..., self.ej]
        return terms.sum(axis=-1)


class NumericReport(NamedTuple):
    """Per-sample residuals of the functional identity, with error budgets."""

    r: int
    samples: int
    tol: float
    seed: int
    gamma: Fraction | None
    pi: Fraction | None
    signs: tuple[int, ...]
    residuals: tuple[float, ...]
    error_budgets: tuple[float, ...]
    max_residual: float
    passed: bool


def _web(r: int, data: dp4.DP4Data | None):
    if r == 4:
        if data is not None:
            raise ValueError("the five-integral web has no parameters")
        data = dp4.five_term_web()
    elif r == 5:
        if data is None:
            data = dp4.dp4_data(*dp4.DEFAULT_PARAMETERS)
    else:
        raise ValueError("numeric verification covers ranks 4 and 5 only")
    try:
        maps = [_RationalMap(n, d) for n, d in data.integrals]
        letters = [tuple(complex(c) for c in row) for row in data.spectra]
    except OverflowError:
        raise ValueError("the web's coefficients do not fit a float") from None
    return data, maps, letters, data.alignment, r - 2


def _clear(
    m: _RationalMap,
    pts: Sequence[complex],
    start: tuple[complex, complex],
    stop: tuple[complex, complex],
    delta: float,
) -> bool:
    """Whether the planar segment start -> stop, each an (x, y) pair, keeps
    the denominator off zero, |u| below 1/delta and u further than delta
    from every letter, on _CLEARANCE_GRID points."""
    t = np.linspace(0.0, 1.0, _CLEARANCE_GRID)
    xy = m.powers(*(start[i] + t * (stop[i] - start[i]) for i in (0, 1)))
    d = m.den(*xy)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = m.num(*xy) / d
    return bool(
        np.abs(d).min() > 1e-12
        and np.abs(u).max() < 1.0 / delta
        and all(np.abs(u - b).min() > delta for b in pts)
    )


def _draw_plan(
    rng: random.Random,
    maps: Sequence[_RationalMap],
    letters: Sequence[tuple[complex, ...]],
    samples: int,
    delta: float,
):
    """A base point and `samples` >= 1 clear endpoints around it, drawn
    from rng one candidate at a time.

    A candidate segment is checked against the integrals in order and
    rejected by the first one it does not clear. The base point gets 100
    candidates and the endpoints 200 * samples before PathTooClose.
    """

    def cpx(lo: float, hi: float, im_lo: float, im_hi: float) -> complex:
        return complex(rng.uniform(lo, hi), rng.uniform(im_lo, im_hi))

    def clear(start: tuple, stop: tuple) -> bool:
        return all(_clear(m, pts, start, stop, delta) for m, pts in zip(maps, letters))

    for _ in range(100):
        xi = (cpx(-1.2, 1.2, 0.1, 0.9), cpx(-1.2, 1.2, -0.9, -0.1))
        if clear(xi, (xi[0] + 1e-6, xi[1] + 1e-6j)):
            break
    else:
        raise PathTooClose("no admissible base point found")
    plan = []
    for _ in range(200 * samples):
        p = (xi[0] + cpx(-0.7, 0.7, -0.7, 0.7), xi[1] + cpx(-0.7, 0.7, -0.7, 0.7))
        if clear(xi, p):
            plan.append((xi, p))
            if len(plan) == samples:
                return plan
    raise PathTooClose("could not sample enough clear endpoints")


def _plan_coef(
    maps: Sequence[_RationalMap],
    letters: Sequence[tuple[complex, ...]],
    plan: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], int]:
    """Batched letter coefficients of every (integral, segment) path of the
    plan, path i * len(plan) + s being integral i on segment s, and the path
    count. The paths asked for come in ascending order, so those of one
    integral are one slice. It is filled in pieces of at most _NODES (node,
    path) pairs, but of at least two nodes: numpy sums a polynomial's
    monomials in another order when it evaluates it at one point alone."""
    starts = np.asarray([xi for xi, _ in plan])
    stops = np.asarray([p for _, p in plan])
    pts = [np.asarray(row) for row in letters]
    firsts = np.arange(len(maps) + 1) * len(plan)

    def coef(paths: np.ndarray, t: np.ndarray) -> np.ndarray:
        out = np.empty((len(t), len(paths), len(pts[0])), dtype=complex)
        bounds = np.searchsorted(paths, firsts)
        for i in np.flatnonzero(bounds[1:] > bounds[:-1]):
            lo, hi = bounds[i], bounds[i + 1]
            s = paths[lo:hi] - firsts[i]
            pieces = min(len(t) // 2, -(-len(t) // max(2, _NODES // (hi - lo))))
            edges = [len(t) * k // pieces for k in range(pieces + 1)]
            for a, b in zip(edges, edges[1:]):
                out[a:b, lo:hi] = maps[i].forms(starts[s], stops[s], t[a:b], pts[i])
        return out

    return coef, len(plan) * len(maps)


def _plan_terms(
    maps: Sequence[_RationalMap],
    letters: Sequence[tuple[complex, ...]],
    plan: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
    weight: int,
    quad_tol: float,
) -> tuple[list[complex], list[float]]:
    """Antisymmetric values and error estimates of every integral on every
    planar segment of the plan, segment by segment.

    The (integral, segment) paths go integral by integral, in groups of
    _GROUP consecutive paths, one transport batch per group; so a batch's
    coefficient tables grow with the group, not with the plan. A path's
    values and error are those of a lone transport, whatever the group. A
    failure raises from the first group that fails.
    """
    coef, count = _plan_coef(maps, letters, plan)
    alphabet = len(letters[0])
    index = _word_system(alphabet, weight)
    combination = [(index[w], float(c)) for w, c in asym(tuple(range(weight)))]
    terms = [0j] * count
    errors = [0.0] * count
    for lo in range(0, count, _GROUP):
        size = min(_GROUP, count - lo)
        values, errs = _rk4_batch(
            lambda paths, t, lo=lo: coef(paths + lo, t),
            size, alphabet, weight, quad_tol,
        )
        for p, row, err in zip(range(lo, lo + size), values, errs.tolist()):
            integral, segment = divmod(p, len(plan))
            k = segment * len(maps) + integral
            for i, c in combination:
                terms[k] += c * complex(row[i])
            errors[k] = err
    return terms, errors


def verify_identity_numeric(
    r: int,
    samples: int,
    tol: float,
    *,
    data: dp4.DP4Data | None = None,
    seed: int,
) -> NumericReport:
    """Check the rank-4 or rank-5 functional identity on random samples.

    Endpoints are drawn in a disk around a fixed admissible base point; each
    term is the antisymmetric combination of word values transported along
    the pullback of the planar segment under that first integral. The report
    carries per-sample residuals max|sum_i eps_i AI_i| / max_i|AI_i| and the
    propagated quadrature budgets; it passes iff the worst residual is below
    tol. Paths keep a clearance of 1e-3 and each transport stabilizes to
    min(1e-11, tol / 1000). Signs come from the aligned kernel solve, and
    the plan is drawn from random.Random(seed).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    data, maps, letters, alignment, weight = _web(r, data)
    signs = dp4.aligned_signs(r, alignment)
    plan = _draw_plan(random.Random(seed), maps, letters, samples, 1e-3)
    quad_tol = min(1e-11, tol * 1e-3)
    terms, errors = _plan_terms(maps, letters, plan, weight, quad_tol)
    residuals = []
    budgets = []
    for j in range(0, len(terms), len(maps)):
        row = terms[j : j + len(maps)]
        scale = max(abs(t) for t in row)
        total = sum(s * t for s, t in zip(signs, row))
        residuals.append(abs(total) / scale)
        budgets.append(sum(errors[j : j + len(maps)]) / scale)
    worst = max(residuals)
    return NumericReport(
        r=r,
        samples=samples,
        tol=tol,
        seed=seed,
        gamma=data.gamma,
        pi=data.pi,
        signs=signs,
        residuals=tuple(residuals),
        error_budgets=tuple(budgets),
        max_residual=worst,
        passed=worst < tol,
    )

"""Numerical transport of hyperlogarithm word systems.

Hyperlogarithms with letters dz/(z - b_k) satisfy a triangular linear ODE:
the derivative of the value of a word is the first letter's form times the
value of the word with that letter removed. This module integrates the full
word-indexed system along the pullbacks of planar segments under the first
integrals of a web with a fixed-step fourth-order scheme, doubling the step
count until the values stabilize; the reported error estimate is never below
the observed halving discrepancy. One transport batch holds one first
integral's segments, in groups of at most a fixed number of paths, so memory
follows the group, not samples times integrals. Each path keeps its own step
doubling and leaves its batch once it has converged. A run of n steps goes
over blocks of steps and, within a block, weight by weight: the RK4 stages
of every word of one weight at every step of the block are outer products of
the letter coefficients with the stage inputs of the weight below. Below the
top weight, the values at the step starts are a running sum of the
increments, since they make the stage inputs one weight up; the top weight's
values are read only after the block, so its increments are folded row by
row into the value it carries. The block's arrays live in buffers that only
grow, reused by every block and doubling of the batch. Coefficients
come from vectorised evaluations of the batch's first integral over its
active paths, each over a bounded number of nodes, on one grid of dyadic
nodes that each doubling extends by its midpoints instead of rebuilding. The
integral's numerator, denominator and gradients share per-column power
tables, one whole array per power of x and of y, and each polynomial adds its
monomial columns in the order numpy's sum over a monomial axis would. Every
element goes through the float operations of a lone path transported
step by step on fresh nodes, in the same order, so values and error
estimates are bit-identical to that route whatever the group size,
evaluation size or block width.

The check takes the web to verify, as the dp4 module derives it from a
point configuration, and reads the rest from it: the rank r from its line
classes, and the alphabet from each first integral's finite spectrum values,
whose number r - 2 is the weight of the identity. The term signs come from
the wedge kernel solve, aligned fiber-by-fiber by the web's fiber spec,
never from a hard-coded list.
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
_CLEARANCE = 1e-3
_CLEARANCE_GRID = 1025
# Elements (words x paths x steps) of the top weight in one block of steps
# of a transport run; each lower weight holds 1/alphabet of the one above.
_BLOCK = 1 << 13
# Segments of one first integral per transport batch when a sample plan is
# transported; each coefficient table of the batch holds (2n + 1) x paths x
# letters values. Smaller groups lower the peak a little more but free and
# map memory more often: at 200 rank-5 samples, groups of 20 took 2.9 times
# the page faults of groups of 40, for the same CPU time.
_GROUP = 40
# (node, path) pairs of one evaluation of a first integral's coefficients;
# its temporaries take 100-350 bytes per pair.
_NODES = 1 << 12


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
    w at step i needs only weight w - 1 at step i. Below the top weight, its
    values at the step starts are one running sum of its increments per
    block (_running_sum), from the value carried over from the block before.
    No stage reads the top weight, so its increments go step-major into
    rows 1..b of one array whose row 0 is the carried value, and
    _fold_rows adds the rows in one reduction. Every block reads views of
    buffers that only grow, one per role, kept for the whole batch; the
    views are built once per run, for the full blocks and the remainder.

    Bits: every element goes through the operations of the step-by-step
    loop v += (h/6)·(((k0 + 2·k1) + 2·k2) + k3) with k1 = a·(v + (h/2)·k0)
    and so on, associated the same way. Operands of an addition, or of a
    product with a real scalar, may swap, since those commute exactly; a
    complex product keeps the coefficient on the left, because numpy's
    fused multiply-add kernels make it commute only up to rounding.
    np.add.accumulate and the row fold are sequential folds, each value the
    previous one plus the increment, so block boundaries change no bit.
    2·k1 and 2·k2 are (2·ah)·s, with 2·ah = ah + ah taken once per block:
    scaling by a power of two commutes with rounding unless a value
    overflows or goes subnormal, so (2·ah)·s has the bits of 2·(ah·s), and
    (2·k1)·(h/4) and (2·k2)·(h/2) those of (h/2)·k1 and h·k2.
    """

    pool: dict[str, np.ndarray] = {}

    def buffer(role: str, size: int) -> np.ndarray:
        # The first `size` elements of the role's flat buffer, which only
        # grows; the batch's runs and blocks reuse it.
        if role not in pool or pool[role].size < size:
            pool[role] = np.empty(size, dtype=complex)
        return pool[role][:size]

    def block(paths: int, b: int) -> tuple:
        # Views into the buffers for a block of b steps. The coefficients,
        # stage inputs, products and running sums have the steps innermost,
        # the top weight's fold has them outermost. The products share a
        # buffer with the running sums and the fold, which are written only
        # once the increment is whole.
        pairs = alphabet**max_weight * paths  # top-weight (word, path) pairs
        work = buffer("work", (b + 1) * pairs)
        flat = buffer("inc", b * pairs)
        coefs = buffer("coefs", 3 * alphabet * paths * b)
        weights = []
        for w in range(1, max_weight + 1):
            shape = (alphabet, alphabet ** (w - 1), paths, b)
            inc = flat[: math.prod(shape)].reshape(shape)
            tmp = work[: inc.size].reshape(shape)
            if w < max_weight:
                acc = work[: inc.size // b * (b + 1)].reshape(*shape[:3], b + 1)
                nxt = buffer(f"stages{w}", 4 * inc.size).reshape(4, *shape)
                sums = acc.reshape(-1, paths, b + 1)
                weights.append((inc, tmp, acc[..., 1:], sums, nxt))
            else:
                # Row 0 is the carried value, rows 1..b the increments.
                fold = work.reshape(b + 1, pairs)
                scaled = fold[1:].reshape(b, *shape[:3]).transpose(1, 2, 3, 0)
                weights.append((inc, tmp, scaled, fold, None))
        # Stage inputs of the empty word: 1 + (h/2)·0 and 1 + h·0 are 1.
        ones = np.ones((1, paths, b), dtype=complex)
        return coefs.reshape(3, alphabet, 1, paths, b), (ones,) * 4, weights

    def run(c: np.ndarray, n_steps: int) -> np.ndarray:
        h = 1.0 / n_steps
        paths = c.shape[1]
        # A run shorter than a block is one block.
        width = min(n_steps, max(1, _BLOCK // (paths * alphabet**max_weight)))
        # Values at the current step start, weight by weight, as
        # (words, paths); the empty word is 1 throughout.
        carry = [np.ones((1, paths), dtype=complex)] + [
            np.zeros((alphabet**w, paths), dtype=complex)
            for w in range(1, max_weight + 1)
        ]
        top = carry[-1].reshape(-1)
        blocks = {b: block(paths, b) for b in (width, n_steps % width) if b}
        for i in range(0, n_steps, width):
            b = min(width, n_steps - i)
            (a0, ah2, a1), stages, weights = blocks[b]
            nodes = c[2 * i : 2 * (i + b) + 1].transpose(2, 1, 0)
            np.copyto(a0[:, 0], nodes[..., 0 : 2 * b : 2])
            mid = nodes[..., 1 : 2 * b : 2]
            np.add(mid, mid, out=ah2[:, 0])
            np.copyto(a1[:, 0], nodes[..., 2 : 2 * b + 1 : 2])
            for w, (inc, tmp, scaled, acc, nxt) in enumerate(weights, 1):
                # inc = (h/6)·(((k0 + 2·k1) + 2·k2) + k3), with 2·k1 and
                # 2·k2 taken as (2·ah)·s. Below the top weight, (h/2)·k0,
                # (h/2)·k1 = (2·k1)·(h/4) and h·k2 = (2·k2)·(h/2) are kept:
                # each plus the value at the step start is a stage input one
                # weight up.
                np.multiply(a0, stages[0], out=inc)
                if nxt is not None:
                    np.multiply(inc, h / 2, out=nxt[1])
                np.multiply(ah2, stages[1], out=tmp)
                if nxt is not None:
                    np.multiply(tmp, h / 4, out=nxt[2])
                inc += tmp
                np.multiply(ah2, stages[2], out=tmp)
                if nxt is not None:
                    np.multiply(tmp, h / 2, out=nxt[3])
                inc += tmp
                np.multiply(a1, stages[3], out=tmp)
                inc += tmp
                if nxt is None:
                    acc[0] = top
                    np.copyto(scaled, inc)
                    rows = acc[1:]
                    rows *= h / 6
                    _fold_rows(acc, top)
                    continue
                acc[..., 0] = carry[w]
                np.multiply(inc, h / 6, out=scaled)
                _running_sum(acc)
                carry[w][...] = acc[..., b]
                stages = nxt.reshape(4, -1, paths, b)
                np.copyto(stages[0], acc[..., :b])
                for s in stages[1:]:
                    s += stages[0]
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


def _running_sum(acc: np.ndarray) -> None:
    """Fold acc in place along its last axis, each entry the one before it
    plus itself: one np.add.accumulate, a sequential fold. The transport's
    lower weights take their values at every step start from it."""
    np.add.accumulate(acc, axis=-1, out=acc)


def _fold_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """out = ((rows[0] + rows[1]) + ...) + rows[-1], the sequential fold of
    the rows of a C-contiguous complex (steps, n) array, with the bits of
    the last column of np.add.accumulate over its transpose.

    np.add.reduce over the outer axis adds one whole row at a time, in
    order; numpy sums pairwise only along the axis of its inner loop, which
    a complex (steps, 1) array would make the rows. So the rows are reduced
    as floats, (steps, 2n), whose inner loop is always across a row. The
    fold starts from -0.0, the exact identity of IEEE addition, so even a
    signed zero keeps its bits.
    """
    np.add.reduce(rows.view(float), axis=0, out=out.view(float), initial=-0.0)


class _RationalMap:
    """Vectorized evaluation of one first integral along a planar segment.

    The numerator, the denominator and their four partial derivatives all
    read one set of power columns x**i and y**j per evaluation.
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

    def powers(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The columns x**i and y**j, each shaped like x and y, up to the
        degrees in x and y.

        np.power, not the ** operator, which sends a scalar 2 to np.square,
        whose product differs from the power loop in the last bit. The
        power loop gives exactly 1 and v at the exponents 0 and 1, so column
        k has the bits of v[..., None] ** np.arange(degree + 1) at k.
        """
        return tuple(
            [np.ones_like(v), v][: d + 1] + [np.power(v, k) for k in range(2, d + 1)]
            for v, d in zip((x, y), self.degrees)
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
    __slots__ = ("monomials",)

    def __init__(self, poly: dict) -> None:
        self.monomials = [(complex(v), i, j) for (i, j), v in sorted(poly.items())]

    def __call__(self, xp: list[np.ndarray], yp: list[np.ndarray]) -> np.ndarray:
        """The polynomial at the points whose power columns are xp and yp.

        Each monomial term is (c * x**i) * y**j, one whole column at a
        time, and the terms are added as np.stack(terms, -1).sum(-1) adds
        them. The coefficient stays on the left, since numpy's fused
        multiply-add kernels make a complex product commute only up to
        rounding. The products are not taken in place: on a one-element
        array, numpy runs an in-place product through its reduction loop,
        which can round differently.
        """
        terms = [(c * xp[i]) * yp[j] for c, i, j in self.monomials]
        return _pairwise_sum(terms, xp[0].shape)


def _pairwise_sum(terms: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The sum of the complex arrays `terms`, each of the given shape, with
    the bits of np.stack(terms, -1).sum(-1): numpy 2 sums a contiguous
    complex axis by its pairwise rule (_pairwise) and adds that to the
    identity 0. The terms are summed in place, so the caller hands over
    arrays it owns."""
    if not terms:
        return np.zeros(shape, dtype=complex)
    total = _pairwise(terms)
    # Turns only a -0.0 into 0.0, as numpy's start from the identity does.
    total += 0.0
    return total


def _pairwise(terms: list[np.ndarray]) -> np.ndarray:
    """numpy's pairwise summation on whole arrays: a left fold below 4
    terms, four running sums over blocks of four up to 64, and above that
    a split at half the terms rounded down to a multiple of 4."""
    m = len(terms)
    if m > 64:
        total = _pairwise(terms[: m // 8 * 4])
        total += _pairwise(terms[m // 8 * 4 :])
        return total
    if m < 4:
        total, rest = terms[0], terms[1:]
    else:
        sums = terms[:4]
        whole = m - m % 4
        for b in range(4, whole, 4):
            for s, t in zip(sums, terms[b : b + 4]):
                s += t
        total = sums[0]
        total += sums[1]
        sums[2] += sums[3]
        total += sums[2]
        rest = terms[whole:]
    for t in rest:
        total += t
    return total


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


def _float_web(web: dp4.DP4Data):
    """The web's first integrals and letters in floats, or ValueError."""
    try:
        maps = [_RationalMap(n, d) for n, d in web.integrals]
        letters = [tuple(complex(c) for c in row) for row in web.spectra]
    except OverflowError:
        raise ValueError("the web's coefficients do not fit a float") from None
    return maps, letters


def _clear(
    m: _RationalMap,
    pts: Sequence[complex],
    start: tuple[complex, complex],
    stop: tuple[complex, complex],
) -> bool:
    """Whether the planar segment start -> stop, each an (x, y) pair, keeps
    the denominator off zero, |u| below 1/_CLEARANCE and u further than
    _CLEARANCE from every letter, on _CLEARANCE_GRID points."""
    t = np.linspace(0.0, 1.0, _CLEARANCE_GRID)
    xy = m.powers(*(start[i] + t * (stop[i] - start[i]) for i in (0, 1)))
    d = m.den(*xy)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = m.num(*xy) / d
    return bool(
        np.abs(d).min() > 1e-12
        and np.abs(u).max() < 1.0 / _CLEARANCE
        and all(np.abs(u - b).min() > _CLEARANCE for b in pts)
    )


def _draw_plan(
    rng: random.Random,
    maps: Sequence[_RationalMap],
    letters: Sequence[tuple[complex, ...]],
    samples: int,
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
        return all(_clear(m, pts, start, stop) for m, pts in zip(maps, letters))

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
    m: _RationalMap,
    pts: Sequence[complex],
    plan: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Batched letter coefficients of one first integral on the planar
    segments of the plan, path s being segment s. It is filled in pieces of
    at most _NODES (node, path) pairs, but of at least two nodes: a forms
    call over one (node, path) element alone gets its polynomial values
    bit for bit, but its gradients times the segment direction differ in
    the last bit at some elements."""
    starts = np.asarray([xi for xi, _ in plan])
    stops = np.asarray([p for _, p in plan])
    pts = np.asarray(pts)

    def coef(paths: np.ndarray, t: np.ndarray) -> np.ndarray:
        out = np.empty((len(t), len(paths), len(pts)), dtype=complex)
        pieces = min(len(t) // 2, -(-len(t) // max(2, _NODES // len(paths))))
        edges = [len(t) * k // pieces for k in range(pieces + 1)]
        start, stop = starts[paths], stops[paths]
        for a, b in zip(edges, edges[1:]):
            out[a:b] = m.forms(start, stop, t[a:b], pts)
        return out

    return coef


def _plan_terms(
    maps: Sequence[_RationalMap],
    letters: Sequence[tuple[complex, ...]],
    plan: Sequence[tuple[tuple[complex, complex], tuple[complex, complex]]],
    quad_tol: float,
) -> tuple[list[complex], list[float]]:
    """Antisymmetric values and error estimates of every integral on every
    planar segment of the plan, segment by segment; the weight is the
    number of letters.

    Each first integral's segments go in groups of at most _GROUP, one
    transport batch per group; so a batch's coefficient tables grow with the
    group, not with the plan. A path's values and error are those of a lone
    transport, whatever the group. A failure raises from the first group
    that fails.
    """
    alphabet = weight = len(letters[0])
    index = _word_system(alphabet, weight)
    combination = [(index[w], float(c)) for w, c in asym(tuple(range(weight)))]
    terms = [0j] * (len(plan) * len(maps))
    errors = [0.0] * len(terms)
    for integral, (m, pts) in enumerate(zip(maps, letters)):
        for lo in range(0, len(plan), _GROUP):
            group = plan[lo : lo + _GROUP]
            values, errs = _rk4_batch(
                _plan_coef(m, pts, group), len(group), alphabet, weight, quad_tol
            )
            for segment, (row, err) in enumerate(zip(values, errs.tolist()), lo):
                k = segment * len(maps) + integral
                for i, c in combination:
                    terms[k] += c * complex(row[i])
                errors[k] = err
    return terms, errors


def verify_identity_numeric(
    web: dp4.DP4Data, samples: int, tol: float, *, seed: int
) -> NumericReport:
    """Check the functional identity of the web on random samples.

    Endpoints are drawn in a disk around a fixed admissible base point; each
    term is the antisymmetric combination of word values transported along
    the pullback of the planar segment under that first integral. The report
    carries per-sample residuals max|sum_i eps_i AI_i| / max_i|AI_i| and the
    propagated quadrature budgets; it passes iff the worst residual is below
    tol. Paths keep a clearance of _CLEARANCE and each transport stabilizes to
    min(1e-11, tol / 1000). Signs come from the aligned kernel solve, and
    the plan is drawn from random.Random(seed).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    r = len(web.lines[0]) - 1
    maps, letters = _float_web(web)
    signs = dp4.aligned_signs(r, web.alignment)
    plan = _draw_plan(random.Random(seed), maps, letters, samples)
    quad_tol = min(1e-11, tol * 1e-3)
    terms, errors = _plan_terms(maps, letters, plan, quad_tol)
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
        gamma=web.gamma,
        pi=web.pi,
        signs=signs,
        residuals=tuple(residuals),
        error_budgets=tuple(budgets),
        max_residual=worst,
        passed=worst < tol,
    )

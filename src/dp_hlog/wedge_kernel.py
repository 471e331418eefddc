"""The tensorial certificate: wedge products of fiber differences.

For each conic class the r-2 differences of reducible-fiber indicator
vectors span a rank r-2 module; their wedge is a sparse integer vector of
minors indexed by sorted (r-2)-tuples of line indices. The kernel of the
resulting linear system (one equation per occupied tuple, one unknown per
conic) is expected to be one-dimensional with all coefficients +-1; the
certificate records the orderings that produced it so the identity can be
replayed bit-exactly.

All arithmetic is exact. Elimination is fraction-free (integer row
combinations, gcd-normalized), pivoting on the shortest active row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, gcd
from typing import Sequence

from .errors import InternalError
from .incidence import (
    COUNTS,
    ConicFibration,
    LineTable,
    UnsupportedRank,
    enumerate_conics,
    enumerate_lines,
    rank_for_line_count,
)
from .lattice import DelPezzoLattice

_STRETCH_ENTRY_BUDGET = 30_000_000


class KernelDimensionViolation(RuntimeError):
    """The wedge system's kernel is not one-dimensional."""


class SignViolation(RuntimeError):
    """A normalized kernel coefficient is not +1 or -1."""


class BudgetExceeded(RuntimeError):
    """A gated stretch computation ran past its resource budget."""


class ReplayFailure(RuntimeError):
    """A stored certificate failed re-verification."""


@dataclass(frozen=True)
class FiberDifferenceMatrix:
    """Rows are (fiber s) - (base fiber) as vectors over line indices."""

    conic: int
    rows: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class WedgeVector:
    """Sparse exact wedge: sorted index tuple -> minor determinant."""

    conic: int
    width: int
    entries: dict[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class HlogCertificate:
    """Everything needed to replay sum_k epsilon_k wedge_k = 0 exactly."""

    r: int
    conics: tuple[tuple[int, ...], ...]
    fiber_orders: tuple[tuple[tuple[int, int], ...], ...]
    bases: tuple[int, ...]
    epsilon: tuple[int, ...]
    kernel_dimension: int
    quotient: bool
    content_hash: str

    def payload(self) -> dict:
        return {
            "r": self.r,
            "conics": [list(c) for c in self.conics],
            "fiber_orders": [[list(p) for p in fo] for fo in self.fiber_orders],
            "bases": list(self.bases),
            "epsilon": list(self.epsilon),
            "kernel_dimension": self.kernel_dimension,
            "quotient": self.quotient,
        }

    def to_json(self) -> dict:
        out = self.payload()
        out["content_hash"] = self.content_hash
        return out

    @classmethod
    def from_json(cls, data: dict) -> "HlogCertificate":
        try:
            return cls(
                r=int(data["r"]),
                conics=tuple(tuple(int(x) for x in c) for c in data["conics"]),
                fiber_orders=tuple(
                    tuple((int(p[0]), int(p[1])) for p in fo)
                    for fo in data["fiber_orders"]
                ),
                bases=tuple(int(b) for b in data["bases"]),
                epsilon=tuple(int(e) for e in data["epsilon"]),
                kernel_dimension=int(data["kernel_dimension"]),
                quotient=bool(data["quotient"]),
                content_hash=str(data["content_hash"]),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc


def _content_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fiber_differences(
    f: ConicFibration, base: int, conic: int = -1
) -> FiberDifferenceMatrix:
    """Difference rows (fiber s) - (fiber base), s != base, in fiber order."""
    nf = len(f.fibers)
    if not 0 <= base < nf:
        raise IndexError(f"base fiber index {base} out of range 0..{nf - 1}")
    l = COUNTS[f.cls.rank].lines
    bi, bj = f.fibers[base]
    rows = []
    for s, (i, j) in enumerate(f.fibers):
        if s == base:
            continue
        row = [0] * l
        row[i] += 1
        row[j] += 1
        row[bi] -= 1
        row[bj] -= 1
        rows.append(tuple(row))
    support = sorted({c for row in rows for c, v in enumerate(row) if v})
    return FiberDifferenceMatrix(conic, tuple(rows), tuple(support))


def wedge_vector(m: FiberDifferenceMatrix) -> WedgeVector:
    """Iterated sparse wedge of the rows; entries are exact minors."""
    width = 0
    acc: dict[tuple[int, ...], int] = {(): 1}
    for row in m.rows:
        width += 1
        items = [(c, v) for c, v in enumerate(row) if v]
        nxt: dict[tuple[int, ...], int] = {}
        for key, coeff in acc.items():
            for col, val in items:
                pos = bisect_left(key, col)
                if pos < len(key) and key[pos] == col:
                    continue
                sign = -1 if (len(key) - pos) & 1 else 1
                new_key = key[:pos] + (col,) + key[pos:]
                total = nxt.get(new_key, 0) + sign * coeff * val
                if total:
                    nxt[new_key] = total
                else:
                    nxt.pop(new_key, None)
        acc = nxt
    return WedgeVector(m.conic, width, acc)


def quotient_by_exceptional(v: Sequence[int]) -> tuple[int, ...]:
    """Drop the coordinates sitting at exceptional line classes."""
    keep = _quotient_columns(enumerate_lines(rank_for_line_count(len(v))))
    return tuple(v[c] for c in keep)


def _quotient_columns(lt: LineTable) -> tuple[int, ...]:
    lat = DelPezzoLattice(lt.r)
    exceptional = {lat.exceptional(i) for i in range(1, lt.r + 1)}
    return tuple(m for m, line in enumerate(lt.lines) if line not in exceptional)


def _eliminate(
    rows: list[dict[bytes, int]], budget: int | None = None
) -> list[dict[int, int]]:
    """Left-nullspace basis of the row system, by exact sparse elimination.

    Each row carries a tracking vector (conic index -> coefficient); integer
    row combinations preserve row = sum_k track[k] * wedge_k, and rows that
    reach zero yield the dependencies. Pivot rule: shortest row first, then
    smallest coefficient magnitude, then lexicographic column key.
    """
    tracks: list[dict[int, int]] = [{k: 1} for k in range(len(rows))]
    active = list(range(len(rows)))
    null_tracks: list[dict[int, int]] = []
    while active:
        pick = min(active, key=lambda i: (len(rows[i]), i))
        if not rows[pick]:
            null_tracks.append(tracks[pick])
            active.remove(pick)
            continue
        pcol, pval = min(
            rows[pick].items(), key=lambda item: (abs(item[1]), item[0])
        )
        active.remove(pick)
        prow, ptrack = rows[pick], tracks[pick]
        for i in active:
            rval = rows[i].get(pcol)
            if rval is None:
                continue
            rows[i] = _combine(pval, rows[i], rval, prow)
            tracks[i] = _combine(pval, tracks[i], rval, ptrack)
            g = 0
            for v in rows[i].values():
                g = gcd(g, v)
            for v in tracks[i].values():
                g = gcd(g, v)
            if g > 1:
                rows[i] = {c: v // g for c, v in rows[i].items()}
                tracks[i] = {c: v // g for c, v in tracks[i].items()}
        if budget is not None and sum(len(rows[i]) for i in active) > budget:
            raise BudgetExceeded("elimination fill-in exceeded the stretch budget")
    return null_tracks


def _combine(a: int, row1: dict, b: int, row2: dict) -> dict:
    """a*row1 - b*row2 over sparse dicts."""
    out = {c: a * v for c, v in row1.items()}
    for c, v in row2.items():
        total = out.get(c, 0) - b * v
        if total:
            out[c] = total
        else:
            out.pop(c, None)
    return out


def _build_wedges(
    lt: LineTable,
    fiber_orders: Sequence[Sequence[tuple[int, int]]],
    bases: Sequence[int],
    quotient: bool,
    conics,
    budget: int | None = None,
) -> list[WedgeVector]:
    r = lt.r
    keep = _quotient_columns(lt) if quotient else None
    out = []
    entries = 0
    for k, f in enumerate(conics):
        ordered = ConicFibration(f.cls, tuple(fiber_orders[k]))
        m = fiber_differences(ordered, bases[k], conic=k)
        if keep is not None:
            rows = tuple(tuple(row[c] for c in keep) for row in m.rows)
            support = sorted({c for row in rows for c, v in enumerate(row) if v})
            m = FiberDifferenceMatrix(k, rows, tuple(support))
        w = wedge_vector(m)
        if len(w) > comb(2 * (r - 1), r - 2):
            raise InternalError("wedge sparsity bound violated")
        entries += len(w)
        if budget is not None and entries > budget:
            raise BudgetExceeded("wedge assembly exceeded the stretch budget")
        out.append(w)
    return out


def kernel_signs(
    r: int,
    *,
    seed: int | None = None,
    fiber_orders: Sequence[Sequence[tuple[int, int]]] | None = None,
    bases: Sequence[int] | None = None,
    quotient: bool = False,
    stretch: bool = False,
    budget: int = _STRETCH_ENTRY_BUDGET,
) -> HlogCertificate:
    """Compute the +-1 kernel vector over the conic classes of rank r.

    Default orderings are the canonical enumeration with the last fiber as
    base. A seed randomizes fiber orders and bases; explicit `fiber_orders`
    (full fiber lists per conic) and `bases` win over the seed. r=8 is a
    gated stretch computation (set stretch=True) with an entry budget.
    """
    if r not in (4, 5, 6, 7, 8):
        raise UnsupportedRank(f"rank must be in 4..8, got {r}")
    if r == 8 and not stretch:
        raise ValueError("rank 8 is a stretch computation; pass stretch=True")
    lt = enumerate_lines(r)
    conics = enumerate_conics(r, lt)
    rng = random.Random(seed) if seed is not None else None

    if fiber_orders is None:
        if rng is None:
            fiber_orders = [f.fibers for f in conics]
        else:
            fiber_orders = [
                tuple(rng.sample(f.fibers, len(f.fibers))) for f in conics
            ]
    else:
        fiber_orders = [tuple(tuple(p) for p in fo) for fo in fiber_orders]
        for f, fo in zip(conics, fiber_orders):
            if sorted(fo) != sorted(f.fibers):
                raise ValueError("fiber_orders must permute the canonical fibers")
    if bases is None:
        if rng is None:
            bases = [r - 2] * len(conics)
        else:
            bases = [rng.randrange(r - 1) for _ in conics]
    else:
        bases = [int(b) for b in bases]

    gate = budget if r == 8 else None
    wedges = _build_wedges(lt, fiber_orders, bases, quotient, conics, gate)
    rows = [{bytes(t): v for t, v in w.entries.items()} for w in wedges]
    null_tracks = _eliminate(rows, gate)
    if len(null_tracks) != 1:
        raise KernelDimensionViolation(
            f"kernel dimension {len(null_tracks)}, expected 1"
        )
    epsilon = _normalize_track(null_tracks[0], len(conics))
    _verify_zero(wedges, epsilon)
    payload_cert = HlogCertificate(
        r=r,
        conics=tuple(c.cls.coeffs for c in conics),
        fiber_orders=tuple(tuple(fo) for fo in fiber_orders),
        bases=tuple(bases),
        epsilon=epsilon,
        kernel_dimension=1,
        quotient=quotient,
        content_hash="",
    )
    digest = _content_hash(payload_cert.payload())
    return dataclasses.replace(payload_cert, content_hash=digest)


def _normalize_track(track: dict[int, int], kappa: int) -> tuple[int, ...]:
    vec = [track.get(k, 0) for k in range(kappa)]
    g = 0
    for v in vec:
        g = gcd(g, v)
    if g:
        vec = [v // g for v in vec]
    first = next((v for v in vec if v), 0)
    if first < 0:
        vec = [-v for v in vec]
    if any(v not in (1, -1) for v in vec):
        raise SignViolation(f"kernel coefficients not all +-1: {sorted(set(vec))}")
    return tuple(vec)


def _verify_zero(wedges: Sequence[WedgeVector], epsilon: Sequence[int]) -> None:
    total: dict[tuple[int, ...], int] = {}
    for w, e in zip(wedges, epsilon):
        for t, v in w.entries.items():
            s = total.get(t, 0) + e * v
            if s:
                total[t] = s
            else:
                total.pop(t, None)
    if total:
        raise InternalError("claimed kernel vector does not annihilate the system")


def replay(cert: HlogCertificate) -> None:
    """Re-verify a certificate from its stored orderings; raise on failure."""
    if cert.r not in (4, 5, 6, 7, 8):
        raise ReplayFailure(f"unsupported rank {cert.r}")
    if _content_hash(cert.payload()) != cert.content_hash:
        raise ReplayFailure("content hash mismatch")
    if cert.kernel_dimension != 1:
        raise ReplayFailure(f"stored kernel dimension {cert.kernel_dimension} != 1")
    if any(e not in (1, -1) for e in cert.epsilon):
        raise ReplayFailure("stored coefficients are not all +-1")
    lt = enumerate_lines(cert.r)
    conics = enumerate_conics(cert.r, lt)
    if len(conics) != len(cert.conics) or any(
        f.cls.coeffs != stored for f, stored in zip(conics, cert.conics)
    ):
        raise ReplayFailure("conic ordering does not match the canonical enumeration")
    if len(cert.epsilon) != len(conics) or len(cert.bases) != len(conics):
        raise ReplayFailure("certificate length mismatch")
    for f, fo, b in zip(conics, cert.fiber_orders, cert.bases):
        if sorted(fo) != sorted(f.fibers):
            raise ReplayFailure("stored fiber order is not a permutation of the fibers")
        if not 0 <= b < len(f.fibers):
            raise ReplayFailure("stored base index out of range")
    wedges = _build_wedges(lt, cert.fiber_orders, cert.bases, cert.quotient, conics)
    try:
        _verify_zero(wedges, cert.epsilon)
    except InternalError as exc:
        raise ReplayFailure(str(exc)) from exc

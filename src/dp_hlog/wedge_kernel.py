"""The tensorial certificate: wedge products of fiber differences.

For each conic class the r-2 differences of reducible-fiber indicator
vectors span a rank r-2 module; their wedge is a sparse integer vector of
minors indexed by sorted (r-2)-tuples of line indices. The kernel of the
resulting linear system (one equation per occupied tuple, one unknown per
conic) is expected to be one-dimensional with all coefficients +-1; the
certificate records the orderings that produced it so the identity can be
replayed bit-exactly.

Every occupied tuple sits in exactly two wedges, both times with value +-1,
so the system is a signed graph on the conics: tuple t joins conics a and b
with sign -v_a v_b, and a kernel vector is a sign assignment that every edge
respects. Its left kernel is one-dimensional with +-1 entries exactly when
the graph is connected and balanced (Harary 1953; Zaslavsky, "Signed
graphs", 1982). The solve checks that structure and raises when it fails.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from math import comb
from typing import NamedTuple, Sequence

from .errors import InternalError
from .incidence import (
    COUNTS,
    ConicFibration,
    LineTable,
    UnsupportedRank,
    enumerate_conics,
    enumerate_lines,
)
from .lattice import DelPezzoLattice
from .records import Record


class KernelDimensionViolation(RuntimeError):
    """The wedge system's kernel is not one-dimensional."""


class SignViolation(RuntimeError):
    """A normalized kernel coefficient is not +1 or -1."""


class WedgeStructureViolation(RuntimeError):
    """A wedge entry is not +-1, or a tuple does not occur in exactly two wedges."""


class ReplayFailure(RuntimeError):
    """A stored certificate failed re-verification."""


class FiberDifferenceMatrix(NamedTuple):
    """Rows are (fiber s) - (base fiber) as vectors over line indices."""

    conic: int
    rows: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]


class WedgeVector(Record):
    """Sparse exact wedge: sorted index tuple -> minor determinant.

    len() is the number of entries; wedges compare by identity.
    """

    __slots__ = ("conic", "entries")
    conic: int
    entries: dict[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.entries)


class HlogCertificate(NamedTuple):
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
        """Read a stored certificate strictly; nothing is coerced.

        Integers must be JSON integers (not a bool, a float or a quoted
        number), quotient a JSON boolean and content_hash a string. Anything
        else, or a missing field, raises ValueError.
        """
        try:
            return cls(
                r=_json_int(data["r"]),
                conics=tuple(tuple(map(_json_int, c)) for c in data["conics"]),
                fiber_orders=tuple(
                    tuple((_json_int(p[0]), _json_int(p[1])) for p in fo)
                    for fo in data["fiber_orders"]
                ),
                bases=tuple(map(_json_int, data["bases"])),
                epsilon=tuple(map(_json_int, data["epsilon"])),
                kernel_dimension=_json_int(data["kernel_dimension"]),
                quotient=_json_typed(data["quotient"], bool),
                content_hash=_json_typed(data["content_hash"], str),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc


def _json_typed(value, kind: type):
    if value.__class__ is not kind:
        raise ValueError(f"malformed certificate: {value!r} is not a JSON {kind.__name__}")
    return value


def _json_int(value) -> int:
    return _json_typed(value, int)


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
    acc: dict[tuple[int, ...], int] = {(): 1}
    for row in m.rows:
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
    return WedgeVector(m.conic, acc)


def _quotient_columns(lt: LineTable) -> tuple[int, ...]:
    lat = DelPezzoLattice(lt.r)
    exceptional = {lat.exceptional(i) for i in range(1, lt.r + 1)}
    return tuple(m for m, line in enumerate(lt.lines) if line not in exceptional)


def _signed_graph_kernel(wedges: Sequence[WedgeVector]) -> tuple[int, ...]:
    """The +-1 left kernel vector of the wedges, normalized to epsilon_0 = +1.

    One pass pairs the two occurrences of each tuple into an edge and merges
    it into a spanning forest whose nodes carry their sign relative to the
    root (union-find with parity); an edge that closes a cycle of sign -1
    marks its component unbalanced. The kernel dimension is the number of
    balanced components, and an unbalanced component forces zeros.
    """
    parent = list(range(len(wedges)))
    sign = [1] * len(wedges)  # sign of a node relative to its parent
    balanced = [True] * len(wedges)

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):
            s *= sign[y]
            sign[y], parent[y] = s, x
        return x

    first: dict[tuple[int, ...], tuple[int, int] | None] = {}
    for b, w in enumerate(wedges):
        for t, v in w.entries.items():
            if v not in (1, -1):
                raise WedgeStructureViolation(f"wedge entry {v} at tuple {t}")
            entry = (b, v)
            seen = first.setdefault(t, entry)
            if seen is entry:
                continue
            if seen is None:
                raise WedgeStructureViolation(f"tuple {t} occurs in three or more wedges")
            first[t] = None
            a, u = seen
            ra, rb = find(a), find(b)
            # eps_b = -u v eps_a, restated between the two roots
            edge = -u * v * sign[a] * sign[b]
            if ra == rb:
                balanced[ra] = balanced[ra] and edge == 1
            else:
                parent[rb], sign[rb] = ra, edge
                balanced[ra] = balanced[ra] and balanced[rb]
    if any(seen is not None for seen in first.values()):
        raise WedgeStructureViolation("a tuple occurs in only one wedge")
    # After a find on every node, each sign is relative to the node's root.
    roots = {find(k) for k in range(len(wedges))}
    dimension = sum(balanced[x] for x in roots)
    if dimension != 1:
        raise KernelDimensionViolation(f"kernel dimension {dimension}, expected 1")
    if len(roots) != 1:
        raise SignViolation("kernel coefficients not all +-1: an unbalanced component is 0")
    return tuple(s * sign[0] for s in sign)


def _build_wedges(
    lt: LineTable,
    fiber_orders: Sequence[Sequence[tuple[int, int]]],
    bases: Sequence[int],
    quotient: bool,
    conics,
) -> list[WedgeVector]:
    r = lt.r
    keep = _quotient_columns(lt) if quotient else None
    out = []
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
        out.append(w)
    return out


def kernel_signs(
    r: int,
    *,
    seed: int | None = None,
    fiber_orders: Sequence[Sequence[tuple[int, int]]] | None = None,
    bases: Sequence[int] | None = None,
    quotient: bool = False,
) -> HlogCertificate:
    """Compute the +-1 kernel vector over the conic classes of rank r.

    Default orderings are the canonical enumeration with the last fiber as
    base. A seed randomizes fiber orders and bases; explicit `fiber_orders`
    (full fiber lists per conic) and `bases` win over the seed. The kernel
    is solved as a signed graph on the conics (see the module docstring),
    then checked to annihilate every wedge; a broken structure raises
    WedgeStructureViolation, KernelDimensionViolation or SignViolation.
    """
    if r not in (4, 5, 6, 7, 8):
        raise UnsupportedRank(f"rank must be in 4..8, got {r}")
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

    wedges = _build_wedges(lt, fiber_orders, bases, quotient, conics)
    epsilon = _signed_graph_kernel(wedges)
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
    return payload_cert._replace(content_hash=digest)


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
    """Re-prove a certificate from its stored orderings; raise on failure.

    The wedges are rebuilt and the signed-graph solve runs again, so the
    kernel dimension is proved rather than read from the certificate; then
    the stored coefficients must annihilate every wedge.
    """
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
        _signed_graph_kernel(wedges)
        _verify_zero(wedges, cert.epsilon)
    except (
        WedgeStructureViolation,
        KernelDimensionViolation,
        SignViolation,
        InternalError,
    ) as exc:
        raise ReplayFailure(str(exc)) from exc

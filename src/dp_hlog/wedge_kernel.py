"""The tensorial certificate: wedge products of fiber differences.

For each conic class the r-2 differences of reducible-fiber indicator
vectors span a rank r-2 module; their wedge is a sparse integer vector of
minors indexed by (r-2)-sets of line indices, keyed as bitmasks (bit c is
line c). The kernel of the resulting linear system (one equation per
occupied set, one unknown per conic) is expected to be one-dimensional with
all coefficients +-1; the certificate records the orderings that produced it
so the identity can be replayed bit-exactly.

The wedge is computed twice, by independent routes: the producer writes
it in closed form (`wedge_vector`), a signed sum of (r-1) 2^(r-2) unit
entries since the fibers are disjoint line pairs; replay multiplies out the
rebuilt difference rows one at a time (`iterated_wedge`).

Every occupied set sits in exactly two wedges, both times with value +-1,
so the system is a signed graph on the conics: set t joins conics a and b
with sign -v_a v_b, and a kernel vector is a sign assignment that every edge
respects. Its left kernel is one-dimensional with +-1 entries exactly when
the graph is connected and balanced (Harary 1953; Zaslavsky, "Signed
graphs", 1982). The solve checks that structure and raises when it fails;
the coefficients are then checked on every edge.
"""

from __future__ import annotations

import json
import random
from array import array
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import lattice
from .errors import InternalError
from .incidence import ConicFibration, UnsupportedRank, enumerate_conics, enumerate_lines
from .records import Record


class KernelDimensionViolation(RuntimeError):
    """The wedge system's kernel is not one-dimensional."""


class SignViolation(RuntimeError):
    """A normalized kernel coefficient is not +1 or -1."""


class WedgeStructureViolation(RuntimeError):
    """A wedge entry is not +-1, or a tuple does not occur in exactly two wedges."""


class ReplayFailure(RuntimeError):
    """A stored certificate failed re-verification."""


class WedgeVector(Record):
    """Sparse exact wedge: bitmask of line indices -> minor determinant.

    len() is the number of entries; wedges compare by identity.
    """

    __slots__ = ("entries",)
    entries: dict[int, int]

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
        number), every list a JSON array (not an object or a string), each
        fiber an array of exactly two integers, quotient a JSON boolean and
        content_hash a string, and the object holds exactly these fields, so
        no stored entry goes unread. Anything else raises ValueError.
        """
        if not isinstance(data, dict) or sorted(data) != sorted(cls._fields):
            raise ValueError(f"malformed certificate: fields must be {', '.join(cls._fields)}")
        try:
            return cls(
                r=_json_int(data["r"]),
                conics=_json_array(data["conics"], _json_array),
                fiber_orders=_json_array(
                    data["fiber_orders"], lambda fo: _json_array(fo, _json_pair)
                ),
                bases=_json_array(data["bases"]),
                epsilon=_json_array(data["epsilon"]),
                kernel_dimension=_json_int(data["kernel_dimension"]),
                quotient=_json_typed(data["quotient"], bool),
                content_hash=_json_typed(data["content_hash"], str),
            )
        except (TypeError, IndexError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc


def _json_typed(value, kind: type):
    if value.__class__ is not kind:
        raise ValueError(f"malformed certificate: {value!r} is not a JSON {kind.__name__}")
    return value


def _json_int(value) -> int:
    return _json_typed(value, int)


def _json_array(value, read=_json_int) -> tuple:
    """The items of a JSON array (not an object or a string), each read by `read`."""
    return tuple(map(read, _json_typed(value, list)))


def _json_pair(value) -> tuple[int, int]:
    pair = _json_array(value)
    if len(pair) != 2:
        raise ValueError(f"malformed certificate: fiber {value!r} is not a pair")
    return pair


def _content_hash(payload: dict) -> str:
    """SHA-256 of the payload's compact, key-sorted JSON, in hex.

    CPython's own SHA-256 module computes it (`_sha2` from 3.12, `_sha256`
    before), as `random` takes its `_sha512`: `hashlib` would map OpenSSL,
    about 3.4 MB of RSS, into the process for this one digest. Only a build
    without those modules falls back to `hashlib`.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def fiber_differences(f: ConicFibration, base: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Difference rows (fiber s) - (fiber base), s != base, in fiber order.

    Each row is its nonzero (line index, value) entries, the four entries
    (i, 1), (j, 1), (b_i, -1), (b_j, -1): the fibers are disjoint line
    pairs, so no two share a line.
    """
    nf = len(f.fibers)
    if not 0 <= base < nf:
        raise IndexError(f"base fiber index {base} out of range 0..{nf - 1}")
    bi, bj = f.fibers[base]
    return tuple(
        ((i, 1), (j, 1), (bi, -1), (bj, -1)) for s, (i, j) in enumerate(f.fibers) if s != base
    )


def wedge_vector(f: ConicFibration, base: int, drop: int = 0) -> WedgeVector:
    """The wedge of the rows (F_s - F_b), s != b, in closed form.

    F_s is the sum of fiber s's two lines, in stored order, and b the base.
    The wedge is the term that drops the base (sign +1) plus, for t != b,
    the term that drops F_t and puts the base in its slot (sign -1); moving
    the base back past the |t - b| - 1 fibers between makes that the sum
    over d of (-1)^(d - b) times the wedge of every fiber but F_d. Each
    term picks one line per fiber, signed by the parity of the sort; the
    fibers are disjoint, so the (r-1) 2^(r-2) picks are distinct unit
    entries. A pick that hits a line of the bitmask `drop` drops out.
    """
    fibers = f.fibers
    if not 0 <= base < len(fibers):
        raise IndexError(f"base fiber index {base} out of range 0..{len(fibers) - 1}")
    whole = [(0, 1)]  # a pick from every fiber so far
    short: list[tuple[int, int]] = []  # a pick from all but one fiber so far
    last = len(fibers) - 1
    for d, pair in enumerate(fibers):
        lines = [c for c in pair if not drop >> c & 1]
        skipped = whole if (d - base) % 2 == 0 else [(m, -v) for m, v in whole]
        short = _extend(short, lines) + skipped
        if d < last:
            whole = _extend(whole, lines)
    return WedgeVector(dict(short))


def _extend(picks: list[tuple[int, int]], lines: list[int]) -> list[tuple[int, int]]:
    """Append each of `lines` to each pick: inserting line c into a sorted
    pick flips its sign when an odd number of set bits lie above c."""
    return [
        (m | 1 << c, -v if (m >> c).bit_count() & 1 else v)
        for m, v in picks
        for c in lines
    ]


def iterated_wedge(rows: Iterable[Iterable[tuple[int, int]]], drop: int = 0) -> WedgeVector:
    """Iterated sparse wedge of any rows; entries are exact minors.

    Reads each row's (column, value) entries, skips the columns in the
    bitmask `drop`, and keys entries by bitmask as `wedge_vector` does.
    """
    acc = {0: 1}
    for row in rows:
        items = [(c, 1 << c, v) for c, v in row if not drop >> c & 1]
        nxt: dict[int, int] = {}
        for key, coeff in acc.items():
            for col, bit, val in items:
                above = key >> col
                if above & 1:
                    continue
                new_key = key | bit
                term = -coeff * val if above.bit_count() & 1 else coeff * val
                total = nxt.get(new_key, 0) + term
                if total:
                    nxt[new_key] = total
                else:
                    nxt.pop(new_key, None)
        acc = nxt
    return WedgeVector(acc)


def _replayed_wedge(f: ConicFibration, base: int, drop: int) -> WedgeVector:
    """The replay route: the iterated wedge of the rebuilt difference rows."""
    return iterated_wedge(fiber_differences(f, base), drop)


def _wedges(producer, conics, fiber_orders, bases, quotient: bool) -> Iterator[WedgeVector]:
    """One wedge per conic, `producer(fibration, base, drop)`."""
    r = len(conics[0].cls) - 1
    drop = sum(1 << i for i in enumerate_lines(r).exceptional) if quotient else 0
    for f, order, base in zip(conics, fiber_orders, bases):
        yield producer(ConicFibration(f.cls, tuple(order)), base, drop)


def _check_orderings(conics, fiber_orders, bases) -> None:
    """Raise ValueError unless each conic has one fiber order, a permutation
    of its canonical fibers, and one base, the index of one of them."""
    if not len(fiber_orders) == len(bases) == len(conics):
        raise ValueError(f"need one fiber order and one base per conic ({len(conics)})")
    for f, order, base in zip(conics, fiber_orders, bases):
        if sorted(order) != sorted(f.fibers):
            raise ValueError("a fiber order does not permute the canonical fibers")
        if not 0 <= base < len(f.fibers):
            raise ValueError(f"base fiber index {base} out of range 0..{len(f.fibers) - 1}")


def _check_incidence(r: int, conics, fiber_orders) -> None:
    """Raise ReplayFailure unless the lattice confirms the stored incidence:
    every conic passes `is_conic_class`, and every fiber of its order names
    two line-table classes that pass `is_line`, meet once and sum to it."""
    lines = enumerate_lines(r).lines
    is_line = [lattice.is_line(l) for l in lines]
    for c, order in zip(conics, fiber_orders):
        if not lattice.is_conic_class(c):
            raise ReplayFailure(f"{c} is not a conic class")
        for i, j in order:
            a, b = lines[i], lines[j]
            if not (
                is_line[i] and is_line[j] and lattice.pair(a, b) == 1
                and tuple(map(add, a, b)) == c
            ):
                raise ReplayFailure(f"fiber {a} + {b} is not two lines meeting once in {c}")


def _signed_graph(wedges: Iterable[WedgeVector]) -> tuple[int, array]:
    """Pair the two occurrences of each tuple into an edge of the signed graph.

    Returns the number of wedges and the edges as a flat array of triples
    (a, b, s): the tuple has entry u in wedge a and v in wedge b, and
    eps_a u + eps_b v = 0 reads eps_b = s eps_a with s = -u v. Raises
    WedgeStructureViolation unless every entry is +-1 and every tuple lies
    in exactly two wedges.
    """
    first: dict = {}  # tuple -> b or ~b (entry +1 or -1 in wedge b); None once paired
    edges = array("i")
    n = 0
    for b, w in enumerate(wedges):
        n, neg = b + 1, ~b
        for t, v in w.entries.items():
            if v != 1 and v != -1:
                raise WedgeStructureViolation(f"wedge {b} has entry {v}")
            mark = b if v == 1 else neg
            seen = first.setdefault(t, mark)
            if seen == mark:
                continue
            if seen is None:
                raise WedgeStructureViolation(f"a tuple of wedge {b} is in three or more wedges")
            first[t] = None
            edges.extend((~seen, b, v) if seen < 0 else (seen, b, -v))
    if len(first) != len(edges) // 3:
        raise WedgeStructureViolation("a tuple occurs in only one wedge")
    return n, edges


def signed_components(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> tuple[list[int], list[int], list[bool]]:
    """Union-find with parity on the nodes 0..n-1 of a signed graph.

    Each edge (a, b, s) says x_b = s x_a. Returns (roots, signs, balanced):
    node k lies in the component rooted at roots[k] with x_k = signs[k]
    x_root, and balanced[root] is False once an edge closes a cycle of sign
    -1 in that component.
    """
    parent = list(range(n))
    sign = [1] * n  # sign of a node relative to its parent
    balanced = [True] * n

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

    for a, b, s in edges:
        # Once compressed, a node's parent is its root: skip the call then.
        ra, rb = parent[a], parent[b]
        if parent[ra] != ra:
            ra = find(a)
        if parent[rb] != rb:
            rb = find(b)
        # x_b = s x_a, restated between the two roots
        rel = s * sign[a] * sign[b]
        if ra == rb:
            balanced[ra] = balanced[ra] and rel == 1
        else:
            parent[rb], sign[rb] = ra, rel
            balanced[ra] = balanced[ra] and balanced[rb]
    # After a find on every node, each sign is relative to the node's root.
    return [find(k) for k in range(n)], sign, balanced


def _signed_graph_kernel(n: int, edges: array) -> tuple[int, ...]:
    """The +-1 left kernel vector of the wedges, normalized to epsilon_0 = +1.

    The kernel dimension is the number of balanced components, and an
    unbalanced component forces zeros.
    """
    roots, signs, balanced = signed_components(n, zip(edges[::3], edges[1::3], edges[2::3]))
    components = set(roots)
    dimension = sum(balanced[x] for x in components)
    if dimension != 1:
        raise KernelDimensionViolation(f"kernel dimension {dimension}, expected 1")
    if len(components) != 1:
        raise SignViolation("kernel coefficients not all +-1: an unbalanced component is 0")
    return tuple(s * signs[0] for s in signs)


def _check_annihilation(edges: array, epsilon: Sequence[int]) -> None:
    """eps_a u + eps_b v = 0 on every edge, i.e. eps_b = s eps_a."""
    heads, tails, signs = edges[::3], edges[1::3], edges[2::3]
    if any(epsilon[b] != s * epsilon[a] for a, b, s in zip(heads, tails, signs)):
        raise InternalError("claimed kernel vector does not annihilate the system")


def kernel_epsilon(conics, fiber_orders, bases, quotient: bool) -> tuple[int, ...]:
    """The +-1 kernel vector of the wedges of `conics` (`enumerate_conics(r)`,
    r in lattice.CERTIFICATE_RANKS) under orderings that pass
    `_check_orderings` (else ValueError): fiber orders as tuples of pairs,
    one base per conic. Solved as a signed graph (see the module docstring),
    then checked on every wedge. A broken structure raises
    WedgeStructureViolation, KernelDimensionViolation or SignViolation."""
    _check_orderings(conics, fiber_orders, bases)
    n, edges = _signed_graph(_wedges(wedge_vector, conics, fiber_orders, bases, quotient))
    epsilon = _signed_graph_kernel(n, edges)
    _check_annihilation(edges, epsilon)
    return epsilon


def kernel_signs(r: int, *, seed: int | None = None, quotient: bool = False) -> HlogCertificate:
    """The kernel vector (`kernel_epsilon`) as a certificate, with its content hash.

    Without a seed each conic keeps its canonical fiber order with the last
    fiber as base; a seed draws every fiber order, then every base, from
    random.Random(seed).
    """
    if r not in lattice.CERTIFICATE_RANKS:
        raise UnsupportedRank(f"rank must be in 4..8, got {r}")
    conics = enumerate_conics(r)
    if seed is None:
        fiber_orders = tuple(f.fibers for f in conics)
        bases = (r - 2,) * len(conics)
    else:
        rng = random.Random(seed)
        fiber_orders = tuple(tuple(rng.sample(f.fibers, len(f.fibers))) for f in conics)
        bases = tuple(rng.randrange(r - 1) for _ in conics)
    cert = HlogCertificate(
        r=r,
        conics=tuple(f.cls for f in conics),
        fiber_orders=fiber_orders,
        bases=bases,
        epsilon=kernel_epsilon(conics, fiber_orders, bases, quotient),
        kernel_dimension=1,
        quotient=quotient,
        content_hash="",
    )
    return cert._replace(content_hash=_content_hash(cert.payload()))


def replay(cert: HlogCertificate) -> None:
    """Re-prove a certificate from its stored orderings; raise on failure.

    Each stored conic and fiber is first checked against the lattice
    (`_check_incidence`), not only against the enumeration that produced
    it. The wedges are rebuilt by the iterated route, not the producer's
    closed form, and the signed-graph solve runs again, so the kernel
    dimension is proved rather than read from the certificate; then the
    stored coefficients must annihilate every wedge.
    """
    if cert.r not in lattice.CERTIFICATE_RANKS:
        raise ReplayFailure(f"unsupported rank {cert.r}")
    if _content_hash(cert.payload()) != cert.content_hash:
        raise ReplayFailure("content hash mismatch")
    if cert.kernel_dimension != 1:
        raise ReplayFailure(f"stored kernel dimension {cert.kernel_dimension} != 1")
    if any(e not in (1, -1) for e in cert.epsilon):
        raise ReplayFailure("stored coefficients are not all +-1")
    conics = enumerate_conics(cert.r)
    if len(conics) != len(cert.conics) or any(
        f.cls != stored for f, stored in zip(conics, cert.conics)
    ):
        raise ReplayFailure("conic ordering does not match the canonical enumeration")
    if len(cert.epsilon) != len(conics):
        raise ReplayFailure("certificate length mismatch")
    try:
        _check_orderings(conics, cert.fiber_orders, cert.bases)
        _check_incidence(cert.r, cert.conics, cert.fiber_orders)
        n, edges = _signed_graph(
            _wedges(_replayed_wedge, conics, cert.fiber_orders, cert.bases, cert.quotient)
        )
        _signed_graph_kernel(n, edges)
        _check_annihilation(edges, cert.epsilon)
    except (
        ValueError,
        WedgeStructureViolation,
        KernelDimensionViolation,
        SignViolation,
        InternalError,
    ) as exc:
        raise ReplayFailure(str(exc)) from exc

"""The tensorial certificate: wedge products of fiber differences.

For each conic class the r-2 differences of reducible-fiber indicator
vectors span a rank r-2 module; their wedge is a sparse integer vector of
minors indexed by (r-2)-sets of line indices, keyed as bitmasks (bit c is
line c). The left kernel of the resulting linear system (one equation per
occupied set, one unknown per conic) is one-dimensional with all
coefficients +-1; the certificate records the orderings that produced it
so the identity can be replayed bit-exactly.

The signs come from the Weyl group (`_weyl_epsilon`). A simple reflection
s maps conic c to s(c) and c's fibers onto those of s(c), in an order that
differs from s(c)'s canonical one by a permutation pi; the closed form
gives s(w_c) = sgn(pi) w_s(c), so v = sum_c eps_c w_c satisfies s(v) = -v
when eps(s(c)) = -sgn(pi) eps(c). The producer reads that rule along
the edges by which the conic orbit search first reaches each conic.

The wedge is computed twice, by independent routes: the producer writes
it in closed form (`wedge_vector`), a signed sum of (r-1) 2^(r-2) unit
entries since the fibers are disjoint line pairs; replay multiplies out the
rebuilt difference rows one at a time (`iterated_wedge`).

Either set of wedges, with the signs, goes through one check
(`_check_kernel`): every entry is +-1, every occupied set lies in exactly
two wedges a, b with eps_a u + eps_b v = 0, and the conics are connected
through shared sets. The wedges are then a connected signed graph on the
conics that eps balances, so the left kernel is exactly the span of eps
(Harary 1953; Zaslavsky, "Signed graphs", 1982). The producer walks and
then checks; replay only checks, with the stored signs.
"""

from __future__ import annotations

import json
import random
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import lattice
from .errors import InternalError
from .incidence import ConicFibration, UnsupportedRank, enumerate_conics, enumerate_lines, orbit
from .records import Record


class KernelDimensionViolation(RuntimeError):
    """The wedge system's kernel is not one-dimensional."""


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


def _sign(perm: Sequence[int]) -> int:
    """-1 if the distinct integers `perm` have an odd number of inversions, else +1."""
    return -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) & 1 else 1


def _weyl_epsilon(conics, fiber_orders, bases) -> tuple[int, ...]:
    """The +-1 signs that the W(E_r) action gives the wedges of `conics`.

    Along each edge of the conic orbit search (`incidence.orbit`) that
    first reaches a conic, image = s_g(c): pi lists where c's canonical
    fibers, mapped through generator g's line permutation, sit in image's
    canonical fibers, and eps(image) = -sgn(pi) eps(c). A conic's stored
    fiber order and base then multiply its sign by sgn(order) and
    (-1)^(base + r - 2), and eps_0 is normalized to +1. Raises
    InternalError when a mapped fiber is no fiber of the image conic or the
    search misses a conic of the table.
    """
    r = len(conics[0].cls) - 1
    generators = enumerate_lines(r).generators
    index = {f.cls: k for k, f in enumerate(conics)}
    where = {pair: (k, p) for k, f in enumerate(conics) for p, pair in enumerate(f.fibers)}
    seed = conics[0].cls
    eps = [0] * len(conics)
    eps[index[seed]] = 1
    for image, c, g in orbit(seed):
        a, b = index[c], index.get(image, -1)
        perm = generators[g]
        pi = []
        for i, j in conics[a].fibers:
            i, j = perm[i], perm[j]
            k, p = where.get((i, j) if i < j else (j, i), (None, 0))
            if k != b:
                raise InternalError(
                    f"generator {g} maps a fiber of conic {c} to no fiber of {image}"
                )
            pi.append(p)
        eps[b] = -_sign(pi) * eps[a]
    if 0 in eps:
        k = eps.index(0)
        raise InternalError(f"the orbit of {seed} misses conic {k}, {conics[k].cls}")
    eps = [
        e * _sign([where[pair][1] for pair in order]) * (-1 if (base + r) & 1 else 1)
        for e, order, base in zip(eps, fiber_orders, bases)
    ]
    return tuple(e * eps[0] for e in eps)


def _check_kernel(wedges: Iterable[WedgeVector], epsilon: Sequence[int]) -> None:
    """Prove that the left kernel of the wedges is exactly span(epsilon).

    epsilon holds one +-1 sign per wedge. One pass over the entries checks
    that each is +-1 and that each tuple lies in exactly two wedges (else
    WedgeStructureViolation), with values u in wedge a and v in wedge b
    such that eps_a u + eps_b v = 0 (else InternalError); it joins a and b
    in a union-find as the tuple pairs. The wedges then form a signed graph
    that epsilon balances, whose kernel dimension is its number of
    components (Harary 1953): more than one raises KernelDimensionViolation.
    """
    first: dict = {}  # tuple -> b or ~b (eps_b v = +1 or -1 in wedge b); None once paired
    parent = list(range(len(epsilon)))  # joins hang roots under b, the wedge being read
    pairs = 0
    for b, w in enumerate(wedges):
        e = epsilon[b]
        for t, v in w.entries.items():
            if v != 1 and v != -1:
                raise WedgeStructureViolation(f"wedge {b} has entry {v}")
            mark = b if v == e else ~b
            seen = first.setdefault(t, mark)
            if seen == mark:
                continue
            if seen is None:
                raise WedgeStructureViolation(f"a tuple of wedge {b} is in three or more wedges")
            if (seen < 0) == (mark < 0):
                raise InternalError("claimed kernel vector does not annihilate the system")
            first[t] = None
            pairs += 1
            a = ~seen if seen < 0 else seen
            while parent[a] != a:  # a's root, halving the path
                parent[a] = a = parent[parent[a]]
            parent[a] = b
    if pairs != len(first):
        raise WedgeStructureViolation("a tuple occurs in only one wedge")
    dimension = sum(k == p for k, p in enumerate(parent))
    if dimension != 1:
        raise KernelDimensionViolation(f"kernel dimension {dimension}, expected 1")


def kernel_epsilon(conics, fiber_orders, bases, quotient: bool) -> tuple[int, ...]:
    """The +-1 kernel vector of the wedges of `conics` (`enumerate_conics(r)`,
    r in lattice.CERTIFICATE_RANKS) under orderings that pass
    `_check_orderings` (else ValueError): fiber orders as tuples of pairs,
    one base per conic. Read from the Weyl action (`_weyl_epsilon`), then
    proved on the closed-form wedges (`_check_kernel`), whose failures
    raise WedgeStructureViolation, KernelDimensionViolation or
    InternalError."""
    _check_orderings(conics, fiber_orders, bases)
    epsilon = _weyl_epsilon(conics, fiber_orders, bases)
    _check_kernel(_wedges(wedge_vector, conics, fiber_orders, bases, quotient), epsilon)
    return epsilon


def kernel_signs(r: int, *, seed: int | None = None, quotient: bool = False) -> HlogCertificate:
    """The kernel vector (`kernel_epsilon`) as a certificate, with its content hash.

    Without a seed each conic keeps its canonical fiber order with the last
    fiber as base; a seed draws every fiber order, then every base, from
    random.Random(seed).
    """
    ranks = lattice.CERTIFICATE_RANKS
    if r not in ranks:
        raise UnsupportedRank(f"rank must be in {ranks[0]}..{ranks[-1]}, got {r}")
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
    closed form, and `_check_kernel` proves that the stored coefficients
    span their left kernel, so the kernel dimension is proved rather than
    read from the certificate. Replay never runs the Weyl walk.
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
        _check_kernel(
            _wedges(_replayed_wedge, conics, cert.fiber_orders, cert.bases, cert.quotient),
            cert.epsilon,
        )
    except (ValueError, WedgeStructureViolation, KernelDimensionViolation, InternalError) as exc:
        raise ReplayFailure(str(exc)) from exc

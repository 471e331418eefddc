"""Run one ``dp-hlog`` command with spans around the package's public entry points.

Usage: python3 perfbench/traced_cli.py SPANS_PATH CLI_ARG...

The spans are recorded from outside the program: after ``dp_hlog.cli`` is
imported, every module attribute bound to one of the functions in ``TRACED``
is replaced by a wrapper that records the span and a few work counters taken
from arguments and results. The command's exit code is passed through and
its artifact is the same as an untraced run's. Calls from worker threads pass
through unrecorded, so spans nest on one stack.

A span is ``[name, start, end, parent index or -1, bookkeeping_s]``, where
``bookkeeping_s`` is the time the tracer spent counting inside that span.
Times come from ``time.monotonic``, which on Linux is one clock for all
processes, so the parent can place a child's spans within its own wall time.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time

# (module, function) pairs that become spans named "<module>.<function>".
TRACED = (
    ("incidence", "enumerate_lines"),
    ("incidence", "enumerate_conics"),
    ("weyl", "group_data"),
    ("rep_theory", "line_character"),
    ("rep_theory", "conic_character"),
    ("rep_theory", "reflection_character"),
    ("rep_theory", "trivial_character"),
    ("rep_theory", "inner_product"),
    ("rep_theory", "signature_multiplicity"),
    ("wedge_kernel", "kernel_signs"),
    ("wedge_kernel", "fiber_differences"),
    ("wedge_kernel", "wedge_vector"),
    ("wedge_kernel", "replay"),
    ("hyperlog.words", "verify_asym_shuffle_identities"),
    ("hyperlog.dp4", "dp4_data"),
    ("hyperlog.numeric", "verify_identity_numeric"),
)


class Tracer:
    """In-memory spans and counters of one process, written out at exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.group_orders: dict[int, int] = {}
        self.tuples: set = set()
        self.weyl_rss_mb = 0.0
        self.threads: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._counting = {
            "incidence.enumerate_lines": self._lines,
            "incidence.enumerate_conics": self._conics,
            "weyl.group_data": self._group,
            "rep_theory.inner_product": self._inner_product,
            "rep_theory.signature_multiplicity": self._signature,
            "wedge_kernel.wedge_vector": self._wedge,
            "hyperlog.numeric.verify_identity_numeric": self._numeric,
        }

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = self._counting.get(name)

        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None and self._stack:
                t0 = time.monotonic()
                count(result, *args, **kwargs)
                self.spans[self._stack[-1]][4] += time.monotonic() - t0
            return result

        return traced

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    # Work counters, taken from arguments and results only.

    def _lines(self, lt, *args, **kwargs):
        self.add("incidence.line_tables", 1)

    def _conics(self, conics, *args, **kwargs):
        self.add("incidence.conics", len(conics))

    def _group(self, gd, r, *args, **kwargs):
        if r in self.group_orders:  # a cached repeat call did no work
            return
        self.group_orders[r] = len(gd)
        self.add("weyl.group_order", len(gd))
        self.add("weyl.bfs_levels", int(gd.levels.max()) + 1)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.weyl_rss_mb = max(self.weyl_rss_mb, peak)

    def _inner_product(self, value, chi, *args, **kwargs):
        self.add("rep_theory.elements_summed", len(chi))

    def _signature(self, value, r, *args, **kwargs):
        self.add("rep_theory.elements_summed", self.group_orders.get(r, 0))

    def _wedge(self, w, *args, **kwargs):
        self.add("wedge_kernel.nnz", len(w.entries))
        self.tuples.update(w.entries)

    def _numeric(self, report, *args, **kwargs):
        # The rank-r web transports every word of weight <= r - 2 over r - 2
        # letters along each (sample, integral) path.
        paths = report.samples * len(report.signs)
        a = report.r - 2
        self.add("hyperlog.numeric.paths", paths)
        self.add("hyperlog.numeric.word_values", paths * sum(a**k for k in range(1, a + 1)))
        self.threads = kwargs.get("threads", 1)

    def install(self, package) -> None:
        """Point every module attribute bound to a traced function at its wrapper."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            fn = getattr(sys.modules.get(prefix + modname), fname, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    def record(self) -> dict:
        if self.tuples:
            self.add("wedge_kernel.tuples", len(self.tuples))
        return {
            "spans": self.spans,
            "counters": self.counters,
            "weyl_rss_mb": self.weyl_rss_mb,
            "threads": self.threads,
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import dp_hlog
    import dp_hlog.cli

    tracer.close(span)
    tracer.install(dp_hlog)
    span = tracer.open("cli.main")
    try:
        code = dp_hlog.cli.main(cli_args)
    finally:
        tracer.close(span)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

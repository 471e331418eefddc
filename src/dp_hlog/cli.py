"""Command-line verification runner emitting reproducible JSON artifacts.

Each subcommand runs one verification route (enumeration, group order,
kernel certificate, replay, characters, symbol identities, numerics) and
writes a JSON artifact with stable key order and no timestamps, so a fixed
seed reproduces the output byte for byte. Runtime notes go to stderr only.

Exit codes: 0 all checks pass, 2 usage, 3 enumeration mismatch, 4 kernel or
replay failure, 5 character mismatch, 6 numeric or symbol failure. A failed
invariant inside a route (every layer raises a RuntimeError subclass for
one: InternalError, FiberCountViolation, the wedge-structure violations, the
group closure checks) exits with that route's code, not a traceback.

The layers a route may not need (the Weyl group, characters, hyperlogarithms
and numpy behind them) are bound as deferred modules: each is in
``sys.modules`` from the import of this module on, but its code first runs
when one of its attributes is read. So `certify`, `replay`, `enumerate` and
`symbols` never load numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import incidence, wedge_kernel
from .lattice import SUPPORTED_RANKS

if TYPE_CHECKING:
    from collections.abc import Collection
    from fractions import Fraction


def _deferred(name: str):
    """The module `name`, run on the first read of one of its attributes."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    return module


d5_data = _deferred(__package__ + ".d5_data")
weyl = _deferred(__package__ + ".weyl")
rep_theory = _deferred(__package__ + ".rep_theory")
hwords = _deferred(__package__ + ".hyperlog.words")
dp4 = _deferred(__package__ + ".hyperlog.dp4")
hnumeric = _deferred(__package__ + ".hyperlog.numeric")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENUM = 3
EXIT_KERNEL = 4
EXIT_CHARACTER = 5
EXIT_NUMERIC = 6

# Rank -> (line_norm, conic_norm); its keys are the ranks `characters` runs at.
EXPECTED_NORMS = {4: (3, 2), 5: (3, 3), 6: (3, 3), 7: (4, 5)}
# Rank -> default (samples, tol) of the numeric route; its keys are its ranks.
NUMERIC_DEFAULTS = {4: (20, 1e-8), 5: (10, 1e-6)}


class RunConfig(NamedTuple):
    """One resolved CLI invocation; the seed fixes every randomized choice."""

    subcommand: str
    rank: int | None = None
    seed: int | None = None
    tol: float | None = None
    out: str | None = None
    quotient: bool = False
    samples: int | None = None
    gamma: Fraction | None = None
    pi: Fraction | None = None
    count_only: bool = False
    orbit: bool = False
    d5_full: bool = False
    certificate: str | None = None


def _route_enumerate(config: RunConfig) -> tuple[dict, int]:
    # Both enumerations raise on a wrong count or a conic without r - 1 fibers.
    rank = config.rank
    lt = incidence.enumerate_lines(rank)
    conics = incidence.enumerate_conics(rank, lt)
    ok = len({line for c in conics for pair in c.fibers for line in pair}) == len(lt)
    artifact = {
        "rank": rank,
        "lines": len(lt),
        "conics": len(conics),
        "fibers_per_conic": rank - 1,
        "every_line_in_a_fiber": ok,
        "matches_expected": ok,
    }
    return artifact, EXIT_OK if ok else EXIT_ENUM


def _route_group(config: RunConfig) -> tuple[dict, int]:
    rank = config.rank
    try:
        gd = weyl.group_data(rank)
    except weyl.GroupTooLarge as exc:
        return {"rank": rank, "error": str(exc)}, EXIT_USAGE
    order = len(gd)
    expected = incidence.COUNTS[rank].group_order
    ok = order == expected
    artifact = {"rank": rank, "order": order, "expected": expected}
    if not config.count_only:
        artifact["length_distribution"] = gd.length_distribution()
    if config.orbit:  # enumerate_lines raised on a wrong orbit size
        artifact["line_orbit"] = len(gd.lt)
    artifact["matches_expected"] = ok
    return artifact, EXIT_OK if ok else EXIT_ENUM


def _route_certify(config: RunConfig) -> tuple[dict, int]:
    cert = wedge_kernel.kernel_signs(config.rank, seed=config.seed, quotient=config.quotient)
    return {"rank": config.rank, "seed": config.seed, "certificate": cert.to_json()}, EXIT_OK


def _route_replay(config: RunConfig) -> tuple[dict, int]:
    try:
        data = json.loads(Path(config.certificate).read_text(encoding="utf-8"))
        if isinstance(data, dict) and "certificate" in data:
            data = data["certificate"]
        cert = wedge_kernel.HlogCertificate.from_json(data)
    except (OSError, ValueError) as exc:
        return {"error": f"unreadable certificate: {exc}"}, EXIT_USAGE
    try:
        wedge_kernel.replay(cert)
    except wedge_kernel.ReplayFailure as exc:
        return {"rank": cert.r, "error": str(exc)}, EXIT_KERNEL
    artifact = {
        "rank": cert.r,
        "content_hash": cert.content_hash,
        "replay": "pass",
    }
    return artifact, EXIT_OK


def _route_characters(config: RunConfig) -> tuple[dict, int]:
    rank = config.rank
    line = rep_theory.line_character(rank)
    conic = rep_theory.conic_character(rank)
    refl = rep_theory.reflection_character(rank)
    triv = rep_theory.trivial_character(rank)
    values = {
        "line_norm": rep_theory.inner_product(line, line),
        "conic_norm": rep_theory.inner_product(conic, conic),
        "trivial_in_line": rep_theory.inner_product(line, triv),
        "reflection_in_line": rep_theory.inner_product(line, refl),
    }
    if any(v.denominator != 1 for v in values.values()):
        return {"rank": rank, "error": "non-integer inner product"}, EXIT_CHARACTER
    artifact = {"rank": rank}
    artifact.update({k: int(v) for k, v in values.items()})
    artifact["signature_multiplicity"] = rep_theory.signature_multiplicity(rank)
    ok = (
        (artifact["line_norm"], artifact["conic_norm"]) == EXPECTED_NORMS[rank]
        and artifact["trivial_in_line"] == 1
        and artifact["reflection_in_line"] == 1
        and artifact["signature_multiplicity"] == 0
    )
    if config.d5_full:
        chi = rep_theory.d5_chi_values()
        wedge = rep_theory.d5_wedge3_values()
        chi_dec = rep_theory.d5_decompose(chi)
        wedge_dec = rep_theory.d5_decompose(wedge)
        chi_parts = tuple(
            sorted(d5_data.IRREDUCIBLE_LABELS[s] for s, m in enumerate(chi_dec) if m)
        )
        artifact["d5"] = {
            "chi": list(chi),
            "wedge3": list(wedge),
            "chi_parts": list(chi_parts),
            "wedge3_multiplicities": list(wedge_dec),
        }
        ok = (
            ok
            and chi == d5_data.D5_CHI
            and wedge == d5_data.D5_WEDGE3
            and wedge_dec == d5_data.D5_WEDGE3_MULTS
            and chi_parts == d5_data.D5_CHI_PARTS
        )
    artifact["matches_expected"] = ok
    return artifact, EXIT_OK if ok else EXIT_CHARACTER


def _route_symbols(config: RunConfig) -> tuple[dict, int]:
    reports = hwords.verify_asym_shuffle_identities()
    artifact = {
        "identities": [
            {
                "name": rep.name,
                "passed": rep.passed,
                "difference_terms": len(rep.difference.terms),
            }
            for rep in reports
        ],
        "passed": all(rep.passed for rep in reports),
    }
    return artifact, EXIT_OK if artifact["passed"] else EXIT_NUMERIC


def _route_numeric(config: RunConfig) -> tuple[dict, int]:
    rank = config.rank
    samples, tol = NUMERIC_DEFAULTS[rank]
    samples = samples if config.samples is None else config.samples
    tol = tol if config.tol is None else config.tol
    data = None
    if rank == 5:
        gamma, pi = dp4.DEFAULT_PARAMETERS
        try:
            data = dp4.dp4_data(
                gamma if config.gamma is None else config.gamma,
                pi if config.pi is None else config.pi,
            )
        except ValueError as exc:
            return {"rank": rank, "error": str(exc)}, EXIT_USAGE
    # An unseeded run draws the seed-0 plan, so its artifact is reproducible.
    seed = 0 if config.seed is None else config.seed
    report = hnumeric.verify_identity_numeric(rank, samples, tol, data=data, seed=seed)
    artifact = {
        "rank": report.r,
        "samples": report.samples,
        "tol": report.tol,
        "seed": report.seed,
        "gamma": None if report.gamma is None else str(report.gamma),
        "pi": None if report.pi is None else str(report.pi),
        "signs": list(report.signs),
        "residuals": list(report.residuals),
        "error_budgets": list(report.error_budgets),
        "max_residual": report.max_residual,
        "passed": report.passed,
    }
    return artifact, EXIT_OK if report.passed else EXIT_NUMERIC


def _route_all(config: RunConfig) -> tuple[dict, int]:
    routes: dict[str, dict] = {}
    code = EXIT_OK
    for name, (_, ranks, _) in ROUTES.items():
        if config.rank in ranks:
            routes[name], route_code = _run_route(name, config)
            if code == EXIT_OK:
                code = route_code
    artifact = {"rank": config.rank, "routes": routes, "passed": code == EXIT_OK}
    return artifact, code


# Subcommand -> (route, ranks at which `all` runs it, exit code of a failed
# invariant). `all` reads no option of the other routes, so each gets its
# RunConfig defaults there; it runs each route through the same guard, so
# nothing escapes `all` itself.
ROUTES = {
    "enumerate": (_route_enumerate, SUPPORTED_RANKS, EXIT_ENUM),
    "group": (_route_group, range(3, 8), EXIT_ENUM),  # not 8: `group --rank 8` exits 2
    "certify": (_route_certify, wedge_kernel.RANKS, EXIT_KERNEL),
    "replay": (_route_replay, (), EXIT_KERNEL),
    "characters": (_route_characters, EXPECTED_NORMS.keys(), EXIT_CHARACTER),
    "symbols": (_route_symbols, SUPPORTED_RANKS, EXIT_NUMERIC),
    "numeric": (_route_numeric, NUMERIC_DEFAULTS.keys(), EXIT_NUMERIC),
    "all": (_route_all, (), None),
}


def _run_route(name: str, config: RunConfig) -> tuple[dict, int]:
    """Run one route; a failed invariant exits with the route's code."""
    handler, _, failure = ROUTES[name]
    if failure is None:
        return handler(config)
    try:
        return handler(config)
    except RuntimeError as exc:
        return {"rank": config.rank, "error": str(exc)}, failure


def run(config: RunConfig) -> int:
    """Execute one configured invocation and write its JSON artifact."""
    started = time.monotonic()
    if config.subcommand not in ROUTES:
        print(f"unknown subcommand {config.subcommand!r}", file=sys.stderr)
        return EXIT_USAGE
    artifact, code = _run_route(config.subcommand, config)
    _write_artifact(artifact, config.out)
    elapsed = time.monotonic() - started
    print(f"{config.subcommand}: {elapsed:.2f}s", file=sys.stderr)
    return code


def _write_artifact(artifact: dict, out: str | None) -> None:
    text = json.dumps(artifact, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _fraction_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp-hlog",
        description="verification runner for del Pezzo web identities",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, ranks: Collection[int]) -> None:
        p.add_argument("--rank", type=int, required=True, choices=ranks)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("enumerate", help="line/conic counts and fiber structure")
    add_common(p, SUPPORTED_RANKS)

    p = sub.add_parser("group", help="Weyl group order by enumeration")
    add_common(p, SUPPORTED_RANKS)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--orbit", action="store_true")

    p = sub.add_parser("certify", help="wedge-kernel sign certificate")
    add_common(p, wedge_kernel.RANKS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quotient", action="store_true")

    p = sub.add_parser("replay", help="re-verify a stored certificate")
    p.add_argument("certificate", type=str)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("characters", help="character norms and multiplicities")
    add_common(p, EXPECTED_NORMS.keys())
    p.add_argument("--d5-full", action="store_true")

    p = sub.add_parser("symbols", help="exact antisymmetrization identities")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("numeric", help="numerical functional identities")
    add_common(p, NUMERIC_DEFAULTS.keys())
    p.add_argument("--gamma", type=_fraction_arg, default=None)
    p.add_argument("--pi", type=_fraction_arg, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("all", help="every route that applies to the rank")
    add_common(p, SUPPORTED_RANKS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    values = vars(args)
    if values.get("gamma") is not None or values.get("pi") is not None:
        if values.get("rank") != 5:
            print("--gamma/--pi apply to rank 5 only", file=sys.stderr)
            return EXIT_USAGE
    if values.get("d5_full") and values.get("rank") != 5:
        print("--d5-full applies to rank 5 only", file=sys.stderr)
        return EXIT_USAGE
    if values.get("samples") is not None and values["samples"] < 1:
        print("need at least one sample", file=sys.stderr)
        return EXIT_USAGE
    tol = values.get("tol")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        print("--tol must be a finite positive number", file=sys.stderr)
        return EXIT_USAGE
    config = RunConfig(**{k: v for k, v in values.items() if k in RunConfig._fields})
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

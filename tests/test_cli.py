"""Exit-code families, artifact shapes and byte-level determinism."""

import argparse
import ast
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dp_hlog
from dp_hlog import cli, incidence, wedge_kernel
from dp_hlog.errors import InternalError
from dp_hlog.incidence import FiberCountViolation
from dp_hlog.lattice import exceptional, hyperplane

from oracles import combine


def run_json(tmp_path, name, args):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_enumerate_artifact(tmp_path):
    code, artifact = run_json(tmp_path, "e.json", ["enumerate", "--rank", "5"])
    assert code == 0
    assert artifact["lines"] == 16
    assert artifact["conics"] == 10
    assert artifact["matches_expected"] is True


def test_enumerate_rank_out_of_range():
    assert cli.main(["enumerate", "--rank", "9"]) == 2
    assert cli.main(["enumerate", "--rank", "2"]) == 2


def test_group_artifact(tmp_path):
    code, artifact = run_json(
        tmp_path, "g.json", ["group", "--rank", "4", "--orbit"]
    )
    assert code == 0
    assert artifact["order"] == 120
    assert artifact["line_orbit"] == 10
    assert sum(artifact["length_distribution"]) == 120
    code, artifact = run_json(
        tmp_path, "g2.json", ["group", "--rank", "3", "--count-only"]
    )
    assert code == 0
    assert "length_distribution" not in artifact


def test_group_rank_eight_is_usage_error(tmp_path):
    code, artifact = run_json(tmp_path, "g8.json", ["group", "--rank", "8"])
    assert code == 2
    assert "error" in artifact


def test_certify_and_replay_roundtrip(tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--rank", "4", "--out", str(out)]) == 0
    artifact = json.loads(out.read_text(encoding="utf-8"))
    eps = artifact["certificate"]["epsilon"]
    assert sorted(abs(e) for e in eps) == [1] * 5
    code, replay_artifact = run_json(
        tmp_path, "replay.json", ["replay", str(out)]
    )
    assert code == 0
    assert replay_artifact["replay"] == "pass"


def test_replay_rejects_tampering(tmp_path):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--rank", "4", "--out", str(out)])
    artifact = json.loads(out.read_text(encoding="utf-8"))
    artifact["certificate"]["bases"][0] ^= 1
    out.write_text(json.dumps(artifact), encoding="utf-8")
    code, replay_artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
    assert code == 4
    assert "error" in replay_artifact


def _set(path, value):
    def mutate(cert):
        *keys, last = path
        target = cert
        for key in keys:
            target = target[key]
        target[last] = value

    return mutate


# Each mutant coerces back to the stored value under int() or bool(), so
# only a strict reader refuses it.
STRICT_MUTANTS = {
    "r": _set(["r"], "4"),
    "conics": _set(["conics", 0, 0], 1.0),
    "fiber_orders": _set(["fiber_orders", 0, 0, 0], "0"),
    "bases": _set(["bases", 0], 2.5),
    "epsilon": _set(["epsilon", 0], 1.7),
    "kernel_dimension": _set(["kernel_dimension"], True),
    "quotient": _set(["quotient"], 0),
    "content_hash": _set(["content_hash"], None),
}


@pytest.mark.parametrize("field", sorted(STRICT_MUTANTS))
def test_replay_reads_each_field_strictly(tmp_path, field):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--rank", "4", "--seed", "1", "--out", str(out)]) == 0
    artifact = json.loads(out.read_text(encoding="utf-8"))
    cert = artifact["certificate"]
    assert (cert["bases"][0], cert["epsilon"][0], cert["conics"][0][0]) == (2, 1, 1)
    assert cert["fiber_orders"][0][0][0] == 0
    STRICT_MUTANTS[field](cert)
    out.write_text(json.dumps(artifact), encoding="utf-8")
    code, replay_artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
    assert code == 2
    assert replay_artifact["error"].startswith("unreadable certificate: malformed certificate")


@pytest.mark.parametrize("change", ["extra field", "missing field"])
def test_replay_refuses_a_field_it_would_not_read(tmp_path, change):
    # The content hash covers only the payload, so an added field leaves the
    # stored hash valid; the reader refuses it before the hash is checked.
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--rank", "4", "--out", str(out)]) == 0
    artifact = json.loads(out.read_text(encoding="utf-8"))
    if change == "extra field":
        artifact["certificate"]["note"] = "unread"
    else:
        del artifact["certificate"]["quotient"]
    out.write_text(json.dumps(artifact), encoding="utf-8")
    code, replay_artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
    assert code == 2
    assert replay_artifact["error"].startswith("unreadable certificate: malformed certificate")


def test_replay_missing_file(tmp_path):
    code, artifact = run_json(
        tmp_path, "r.json", ["replay", str(tmp_path / "absent.json")]
    )
    assert code == 2


def test_replay_of_a_too_deeply_nested_file_is_unreadable(tmp_path):
    # json.loads gives up with a RecursionError, a RuntimeError, which must
    # not pass for a failed replay invariant (exit 4).
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, artifact = run_json(tmp_path, "r.json", ["replay", str(deep)])
    assert code == 2
    assert artifact["error"].startswith("unreadable certificate: maximum recursion depth")


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, target):
    # The path is checked before the route runs, so the route is never called.
    monkeypatch.setattr(cli, "_run_route", _Raises(AssertionError("the route ran")))
    out = tmp_path if target == "directory" else tmp_path / "absent" / "e.json"
    assert cli.main(["enumerate", "--rank", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write --out {out}: ")
    assert captured.err.count("\n") == 1


def test_out_keeps_an_existing_file_until_the_artifact_is_written(tmp_path, monkeypatch):
    out = tmp_path / "e.json"
    out.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_run_route", _Raises(LookupError("the route failed")))
    with pytest.raises(LookupError):
        cli.main(["enumerate", "--rank", "3", "--out", str(out)])
    assert out.read_text(encoding="utf-8") == "kept\n"


def _swap(path, i, j):
    def mutate(cert):
        target = cert
        for key in path:
            target = target[key]
        target[i], target[j] = target[j], target[i]

    return mutate


def _bump(path, delta=1):
    def mutate(cert):
        *keys, last = path
        target = cert
        for key in keys:
            target = target[key]
        target[last] += delta

    return mutate


def _proof_mutants():
    """Every value of a stored r = 4 certificate changed in turn, two fibers
    of one conic swapped (which negates that conic's wedge), a third line
    in a fiber, or a fiber order appended."""
    out = {"r up": _bump(["r"]), "r down": _bump(["r"], -1)}
    out["kernel_dimension 2"] = _set(["kernel_dimension"], 2)
    out["kernel_dimension 0"] = _set(["kernel_dimension"], 0)
    for k in range(5):
        out[f"epsilon {k} zero"] = _set(["epsilon", k], 0)
        out[f"epsilon {k} negated"] = lambda c, k=k: c["epsilon"].__setitem__(k, -c["epsilon"][k])
        out[f"base {k}"] = _bump(["bases", k], -1)
        out[f"base {k} out of range"] = _set(["bases", k], 3)
        for i in range(5):
            out[f"conic {k} coefficient {i}"] = _bump(["conics", k, i])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            out[f"conic {k} fibers {i} {j}"] = _swap(["fiber_orders", k], i, j)
        out[f"conic {k} lines of fiber 0"] = _swap(["fiber_orders", k, 0], 0, 1)
        out[f"conic {k} fiber line"] = _bump(["fiber_orders", k, 0, 1])
    out["fiber with three lines"] = lambda c: c["fiber_orders"][0][0].append(5)
    out["fiber order appended"] = lambda c: c["fiber_orders"].append(c["fiber_orders"][0])
    return out


# An object or a string where an array belongs, at the top level or inside
# one. A reader that iterated it would read an empty array, and replay would
# fail (exit 4) where the reader must refuse the file (exit 2).
ARRAY_MUTANTS = {
    "conics an object": _set(["conics"], {}),
    "bases a string": _set(["bases"], ""),
    "epsilon an object": _set(["epsilon"], {}),
    "fiber_orders a string": _set(["fiber_orders"], ""),
    "conic 0 an object": _set(["conics", 0], {}),
    "fiber order 0 a string": _set(["fiber_orders", 0], ""),
}


def test_replay_refuses_every_mutant_that_reaches_the_proof(tmp_path):
    # The content hash is recomputed, so each mutant reaches the re-proof,
    # or for the array mutants the reader.
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--rank", "4", "--out", str(out)]) == 0
    stored = json.loads(out.read_text(encoding="utf-8"))["certificate"]
    mutants = _proof_mutants()
    assert len(mutants) == 76
    for name, mutate in [*mutants.items(), *ARRAY_MUTANTS.items()]:
        cert = json.loads(json.dumps(stored))
        mutate(cert)
        assert cert != stored, name
        cert["content_hash"] = wedge_kernel._content_hash(
            {k: v for k, v in cert.items() if k != "content_hash"}
        )
        out.write_text(json.dumps(cert), encoding="utf-8")
        code, artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
        assert code in ((2,) if name in ARRAY_MUTANTS else (2, 4)), name
        assert "error" in artifact, name
    # A hash that no longer matches; a third line in a fiber under the stored
    # hash, which hashes the pairs a reader dropping that line would see; and
    # a flipped quotient flag. Every kernel vector of the full system also
    # annihilates the quotient system, whose kernel replay proves
    # one-dimensional too: that mutant is a true certificate and must replay.
    three = json.loads(json.dumps(stored["fiber_orders"]))
    three[0][0].append(5)
    for field, value, expected in (
        ("content_hash", "0" * 64, 4),
        ("fiber_orders", three, 2),
        ("quotient", not stored["quotient"], 0),
    ):
        cert = dict(stored, **{field: value})
        if field == "quotient":
            cert["content_hash"] = wedge_kernel._content_hash(
                {k: v for k, v in cert.items() if k != "content_hash"}
            )
        out.write_text(json.dumps(cert), encoding="utf-8")
        assert cli.main(["replay", str(out), "--out", str(tmp_path / "r.json")]) == expected


class _Raises:
    def __init__(self, exc):
        self.exc = exc

    def __call__(self, *args, **kwargs):
        raise self.exc


_CLOSURE = RuntimeError("a Schreier generator of W_4 does not sift to the identity")
_FIBERS = FiberCountViolation("conic has 2 reducible fibers, expected 3")
_BROKEN = InternalError("broken invariant")
# The line character with its value on the second class raised by one: the
# first irreducible then has multiplicity 10 * -2 / 1920.
_D5_CHI_OFF = (
    lambda: cli.D5_CHI[:1] + (cli.D5_CHI[1] + 1,) + cli.D5_CHI[2:],
    "non-integer multiplicity -1/96",
)

# Route -> (module attribute to break, the failure it then raises or (its
# stand-in, the error that causes), arguments, documented code).
BROKEN_INVARIANTS = {
    "enumerate": ("incidence.enumerate_conics", _FIBERS, ["enumerate", "--rank", "4"], 3),
    "group": ("weyl.group_data", _CLOSURE, ["group", "--rank", "4"], 3),
    "certify": ("wedge_kernel._check_kernel", _BROKEN, ["certify", "--rank", "4"], 4),
    "certify fibers": ("wedge_kernel.enumerate_conics", _FIBERS, ["certify", "--rank", "4"], 4),
    "characters": ("rep_theory.line_character", _BROKEN, ["characters", "--rank", "4"], 5),
    "characters d5": (
        "rep_theory.d5_chi_values", _D5_CHI_OFF, ["characters", "--rank", "5", "--d5-full"], 5
    ),
    "symbols": ("hwords.verify_asym_shuffle_identities", _BROKEN, ["symbols"], 6),
    "numeric": ("dp4.dp4_data", _BROKEN, ["numeric", "--rank", "5", "--samples", "1"], 6),
    "all": ("weyl.group_data", _CLOSURE, ["all", "--rank", "4", "--samples", "1"], 3),
}


@pytest.mark.parametrize("route", sorted(BROKEN_INVARIANTS))
def test_failed_invariants_exit_with_the_route_code(tmp_path, monkeypatch, route):
    target, failure, args, expected = BROKEN_INVARIANTS[route]
    if isinstance(failure, Exception):
        failure = _Raises(failure), str(failure)
    stand_in, error = failure
    module, attr = target.split(".")
    # Run every deferred module first, so none binds the broken attribute.
    for deferred in ("weyl", "rep_theory", "hwords", "dp4", "hnumeric"):
        getattr(cli, deferred).__name__
    monkeypatch.setattr(getattr(cli, module), attr, stand_in)
    code, artifact = run_json(tmp_path, "a.json", args)
    assert code == expected
    if route == "all":
        # The group route fails first; the others still run.
        assert artifact["passed"] is False
        assert artifact["routes"]["group"]["error"] == error
        assert artifact["routes"]["certify"]["certificate"]["r"] == 4
    else:
        assert artifact["error"] == error


@pytest.fixture
def broken_generator(monkeypatch, fresh_tables):
    """weyl reads the r = 4 line table with two images of generator 0 swapped:
    those of l_1 and of h - l_2 - l_3."""
    lt = incidence.enumerate_lines(4)
    l1, l2, l3 = (exceptional(4, i) for i in (1, 2, 3))
    a, b = lt.index[l1], lt.index[combine(hyperplane(4), l2, l3, by=(1, -1, -1))]
    perm = list(lt.generators[0])
    perm[a], perm[b] = perm[b], perm[a]
    broken = incidence.LineTable(4, lt.lines)
    object.__setattr__(broken, "generators", (tuple(perm),) + lt.generators[1:])
    monkeypatch.setattr(cli.weyl, "enumerate_lines", lambda r: broken)


@pytest.mark.parametrize("route, expected", [("group", 3), ("characters", 5)])
def test_a_broken_generator_exits_with_the_route_code(tmp_path, broken_generator, route, expected):
    code, artifact = run_json(tmp_path, "b.json", [route, "--rank", "4"])
    assert code == expected
    assert artifact["error"] == "a Schreier generator of W_3 does not sift to the identity"


def test_replay_exits_4_on_a_failed_invariant(tmp_path, monkeypatch):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--rank", "4", "--out", str(out)]) == 0
    monkeypatch.setattr(wedge_kernel, "enumerate_conics", _Raises(_FIBERS))
    code, artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
    assert code == 4
    assert artifact["error"] == str(_FIBERS)


def _swap_two_lines(lt):
    lines = list(lt.lines)
    lines[0], lines[1] = lines[1], lines[0]
    return incidence.LineTable(lt.r, tuple(lines))


def _double_a_conic(conics):
    return (conics[0]._replace(cls=tuple(2 * x for x in conics[0].cls)),) + conics[1:]


def _swap_two_conic_classes(conics):
    a, b = conics[:2]
    return (a._replace(cls=b.cls), b._replace(cls=a.cls)) + conics[2:]


# Name -> (table that certify and replay both read, its corruption, replay's error).
CONSISTENT_CORRUPTIONS = {
    "two lines swapped": ("enumerate_lines", _swap_two_lines, "is not two lines meeting once"),
    "a conic doubled": ("enumerate_conics", _double_a_conic, "is not a conic class"),
    "two conic classes swapped": (
        "enumerate_conics", _swap_two_conic_classes, "is not two lines meeting once"
    ),
}


def _corrupt(monkeypatch, corruption):
    """Make certify and replay read the named corrupted table; return replay's error."""
    table, corrupt, error = CONSISTENT_CORRUPTIONS[corruption]
    read = getattr(wedge_kernel, table)
    monkeypatch.setattr(wedge_kernel, table, lambda r: corrupt(read(r)))
    return error


@pytest.mark.parametrize("corruption", sorted(CONSISTENT_CORRUPTIONS))
def test_certify_refuses_a_corrupted_table(tmp_path, monkeypatch, corruption):
    # The Weyl walk carries each conic's fibers through a generator, and on
    # each corrupted table some image is no fiber of the conic it reaches.
    _corrupt(monkeypatch, corruption)
    code, artifact = run_json(tmp_path, "c.json", ["certify", "--rank", "4"])
    assert code == 4
    walk = r"generator \d maps a fiber of conic \(.*\) to no fiber of \(.*\)"
    assert re.fullmatch(walk, artifact["error"])


@pytest.mark.parametrize("corruption", sorted(CONSISTENT_CORRUPTIONS))
def test_replay_rederives_the_incidence_from_the_lattice(tmp_path, monkeypatch, corruption):
    # A certificate made consistent with the corrupted table: its conics and
    # fiber orders are the enumeration's, so only the lattice sees the fault.
    epsilon = wedge_kernel.kernel_signs(4).epsilon
    error = _corrupt(monkeypatch, corruption)
    conics = wedge_kernel.enumerate_conics(4)
    cert = wedge_kernel.HlogCertificate(
        r=4,
        conics=tuple(f.cls for f in conics),
        fiber_orders=tuple(f.fibers for f in conics),
        bases=(2,) * len(conics),
        epsilon=epsilon,
        kernel_dimension=1,
        quotient=False,
        content_hash="",
    )
    cert = cert._replace(content_hash=wedge_kernel._content_hash(cert.payload()))
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(cert.to_json()), encoding="utf-8")
    code, artifact = run_json(tmp_path, "r.json", ["replay", str(out)])
    assert code == 4
    assert error in artifact["error"]


def test_stretch_is_not_an_option_of_certify_or_all():
    # Rank 8 runs ungated.
    assert cli.main(["certify", "--rank", "8", "--stretch"]) == 2
    assert cli.main(["all", "--rank", "8", "--stretch"]) == 2


def test_characters_artifact(tmp_path):
    code, artifact = run_json(tmp_path, "c.json", ["characters", "--rank", "4"])
    assert code == 0
    assert artifact["signature_multiplicity"] == 0
    assert artifact["line_norm"] == 3
    assert artifact["conic_norm"] == 2
    assert artifact["trivial_in_line"] == 1
    assert artifact["reflection_in_line"] == 1


def test_characters_d5_full_tables(tmp_path):
    code, artifact = run_json(
        tmp_path, "c5.json", ["characters", "--rank", "5", "--d5-full"]
    )
    assert code == 0
    assert tuple(artifact["d5"]["chi"]) == cli.D5_CHI
    assert tuple(artifact["d5"]["wedge3"]) == cli.D5_WEDGE3
    assert tuple(artifact["d5"]["wedge3_multiplicities"]) == cli.D5_WEDGE3_MULTS
    assert tuple(artifact["d5"]["chi_parts"]) == cli.D5_CHI_PARTS


def test_d5_flag_needs_rank_five():
    assert cli.main(["characters", "--rank", "4", "--d5-full"]) == 2


def test_symbols(tmp_path):
    # symbols takes no option but --out.
    assert cli.main(["symbols", "--check-asym"]) == 2
    code, artifact = run_json(tmp_path, "s.json", ["symbols"])
    assert code == 0
    assert artifact["passed"] is True
    assert len(artifact["identities"]) == 3


def test_numeric_rank_four(tmp_path):
    code, artifact = run_json(
        tmp_path,
        "n.json",
        ["numeric", "--rank", "4", "--samples", "2", "--seed", "7"],
    )
    assert code == 0
    assert artifact["passed"] is True
    assert len(artifact["residuals"]) == 2
    assert artifact["max_residual"] < 1e-8


def test_numeric_parameter_gates():
    # The parser refuses the ranks the numeric route has no web for.
    for rank in ("3", "6"):
        assert cli.main(["numeric", "--rank", rank]) == 2
    assert cli.main(["numeric", "--rank", "4", "--gamma", "1/3"]) == 2
    assert cli.main(["numeric", "--rank", "5", "--gamma", "nonsense"]) == 2
    assert (
        cli.main(
            ["numeric", "--rank", "5", "--gamma", "1/3", "--pi", "1/3"]
        )
        == 2
    )
    # A web whose coefficients overflow a float.
    for gamma in ("1e400", "1e-400"):
        assert cli.main(["numeric", "--rank", "5", "--gamma", gamma, "--pi", "1/2"]) == 2
    assert cli.main(["numeric", "--rank", "4", "--samples", "0"]) == 2
    assert cli.main(["numeric", "--rank", "4", "--threads", "2"]) == 2
    assert cli.main(["all", "--rank", "4", "--threads", "2"]) == 2


def test_a_negative_gamma_or_pi_needs_an_equals_sign(capsys):
    # argparse reads "-3/4" after a space as an option: a usage error.
    for flag in ("--gamma", "--pi"):
        args = ["numeric", "--rank", "5", "--samples", "1"]
        assert cli.main(args + [flag, "-3/4"]) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        assert cli.main(args + [f"{flag}=-3/4"]) == 0
        assert json.loads(capsys.readouterr().out)[flag[2:]] == "-3/4"
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["numeric", "--help"])
    assert "--gamma=-3/4" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("subcommand", ["numeric", "all"])
def test_tol_must_be_finite_and_positive(subcommand, tol):
    args = [subcommand, "--rank", "4", "--samples", "1", "--seed", "1"]
    assert cli.main(args + ["--tol", tol]) == 2


def test_numeric_runs_are_byte_identical(tmp_path):
    args = ["numeric", "--rank", "5", "--samples", "2", "--seed", "9"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_unseeded_numeric_draws_the_seed_zero_plan(tmp_path):
    # An unseeded run records seed 0 and writes the bytes of --seed 0; so
    # do repeated unseeded `all` runs, whose certificate keeps the
    # canonical order.
    def written(name, args):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    numeric = ["numeric", "--rank", "4", "--samples", "2"]
    first = written("n1.json", numeric)
    assert json.loads(first)["seed"] == 0
    assert written("n2.json", numeric) == first == written("n0.json", numeric + ["--seed", "0"])
    every = ["all", "--rank", "4", "--samples", "1"]
    first = written("a1.json", every)
    assert json.loads(first)["routes"]["certify"]["seed"] is None
    assert written("a2.json", every) == first


def test_all_rank_three(tmp_path):
    code, artifact = run_json(tmp_path, "all3.json", ["all", "--rank", "3"])
    assert code == 0
    assert artifact["passed"] is True
    assert set(artifact["routes"]) == {"enumerate", "group", "symbols"}


def test_all_rank_four(tmp_path, fresh_tables):
    code, artifact = run_json(
        tmp_path,
        "all4.json",
        ["all", "--rank", "4", "--seed", "1", "--samples", "2"],
    )
    assert code == 0
    assert set(artifact["routes"]) == {
        "enumerate",
        "group",
        "certify",
        "characters",
        "symbols",
        "numeric",
    }
    assert artifact["routes"]["numeric"]["passed"] is True
    # Every route reads the line table and the conics by rank; each is built once.
    assert incidence.enumerate_lines.cache_info().misses == 1
    assert incidence.enumerate_conics.cache_info().misses == 1


def test_route_table_covers_every_subcommand(capsys):
    actions = cli._build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.ROUTES)
    assert cli.run(cli.RunConfig("bogus")) == cli.EXIT_USAGE
    assert "unknown subcommand" in capsys.readouterr().err


def test_run_config_fields_cover_every_parser_dest():
    # main keeps only the parsed values that are RunConfig fields.
    actions = cli._build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    dests = {sub.dest}
    for parser in sub.choices.values():
        dests.update(a.dest for a in parser._actions if a.dest != "help")
    assert dests <= set(cli.RunConfig._fields)


@pytest.mark.parametrize("rank", ["4", "5"])
def test_all_matches_the_reference_artifact(tmp_path, rank):
    # The benchmark's recorded SHA-256 pins every byte of the artifact, the
    # numeric residuals and error budgets included. At r = 5, seed 2 runs six
    # paths on to 2,048 steps.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    hashes = json.loads(reference.read_text(encoding="utf-8"))
    for seed in (1, 2):
        key = f"all --rank {rank} --seed {seed}"
        out = tmp_path / f"all{seed}.json"
        assert cli.main(key.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == hashes[key]


def test_stdout_used_without_out_flag(capsys):
    assert cli.main(["enumerate", "--rank", "3"]) == 0
    captured = capsys.readouterr()
    artifact = json.loads(captured.out)
    assert artifact["lines"] == 6
    assert "enumerate" in captured.err


def test_cli_import_leaves_sympy_unloaded(tmp_path):
    # sympy is a test oracle only: neither the import nor the rank-5 route,
    # which builds the explicit ten-integral web, may load it.
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = ["numeric", "--rank", "5", "--samples", "1", "--out", str(tmp_path / "n.json")]
    probe = (
        "import sys, dp_hlog.cli; loaded = ['sympy' in sys.modules]; "
        f"code = dp_hlog.cli.main({args!r}); "
        "print(code, *loaded, 'sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "False", "False"]


def test_certificate_routes_never_load_numpy(tmp_path):
    # The Weyl group, characters and numerics are deferred modules, so routes
    # that read none of their attributes run without numpy; `all` reads them
    # and loads it. The route code is the same at every rank; r = 8 certify
    # is left to the acceptance gate for its run time. No route loads
    # hashlib, or with it OpenSSL's _hashlib: the certificate's content hash
    # comes from CPython's own SHA-256 module.
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = str(tmp_path / "out.json")
    free = [["enumerate", "--rank", str(r), "--out", out] for r in range(3, 9)]
    free.append(["symbols", "--out", out])
    for r in range(4, 8):
        cert = str(tmp_path / f"c{r}.json")
        free.append(["certify", "--rank", str(r), "--quotient", "--out", cert])
        free.append(["replay", cert, "--out", out])
    every = [["all", "--rank", "4", "--samples", "1", "--out", out]]
    for calls, loaded in ((free, "False"), (every, "True")):
        probe = (
            "import sys, dp_hlog.cli; "
            f"codes = [dp_hlog.cli.main(args) for args in {calls!r}]; "
            "print(set(codes), 'numpy' in sys.modules, "
            "','.join(sorted({'hashlib', '_hashlib'} & set(sys.modules))) or '-')"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["{0}", loaded, "-"]


# The layers (deferred modules) that each command line runs: an import alone
# runs none, and `replay` replays a rank-5 certificate.
LAYERS_RUN = {
    "import": [],
    "symbols": ["hyperlog.words"],
    "enumerate --rank 8": ["incidence"],
    "group --rank 5": ["incidence", "weyl"],
    "characters --rank 5": ["incidence", "rep_theory", "weyl"],
    "certify --rank 5": ["incidence", "wedge_kernel"],
    "replay": ["incidence", "wedge_kernel"],
}


@pytest.mark.parametrize("command", list(LAYERS_RUN))
def test_a_route_runs_only_the_layers_it_reads(tmp_path, command):
    # A layer whose attributes the route never reads stays in sys.modules as
    # an unrun _LazyModule, told apart by its type alone, since reading any
    # attribute would run it.
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [] if command == "import" else command.split() + ["--out", str(tmp_path / "o.json")]
    if command == "replay":
        cert = str(tmp_path / "c.json")
        assert cli.main(["certify", "--rank", "5", "--out", cert]) == 0
        argv.insert(1, cert)
    layers = ["incidence", "weyl", "rep_theory", "wedge_kernel"]
    layers += ["hyperlog.words", "hyperlog.dp4", "hyperlog.numeric"]
    probe = (
        "import importlib.util, json, sys, dp_hlog.cli\n"
        f"code = dp_hlog.cli.main({argv!r}) if {argv!r} else 0\n"
        f"modules = {{name: sys.modules.get('dp_hlog.' + name) for name in {layers!r}}}\n"
        "run = [name for name, module in modules.items()\n"
        "       if module is not None and type(module) is not importlib.util._LazyModule]\n"
        "print(json.dumps([code, sorted(run)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [0, LAYERS_RUN[command]]


def test_certificate_routes_never_load_fractions(tmp_path):
    # Only --gamma/--pi parse rationals, so enumerate, certify and replay
    # import neither fractions nor decimal; RunConfig names Fraction only in
    # annotations, which stay unevaluated.
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = str(tmp_path / "out.json")
    cert = str(tmp_path / "c.json")
    calls = [
        ["enumerate", "--rank", "5", "--out", out],
        ["certify", "--rank", "5", "--out", cert],
        ["replay", cert, "--out", out],
    ]
    probe = (
        "import sys, typing, dp_hlog.cli; "
        f"codes = [dp_hlog.cli.main(args) for args in {calls!r}]; "
        "hints = dp_hlog.cli.RunConfig.__annotations__; "
        "print(set(codes), sorted({'fractions', 'decimal'} & set(sys.modules)), "
        "all(isinstance(hints[k], (str, typing.ForwardRef)) for k in ('gamma', 'pi')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["{0}", "[]", "True"]


def test_cli_import_generates_no_dataclass():
    # Records are NamedTuples or plain classes, which generate no code when
    # a process imports them, nor once a deferred layer has run: the probe
    # builds the five-term web, which runs hyperlog.dp4. (Listing the defined
    # classes reads every module's namespace, which runs them all.)
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import dataclasses, inspect, json, sys\n"
        "made = []\n"
        "process = dataclasses._process_class\n"
        "def record(cls, *args, **kwargs):\n"
        "    made.append(f'{cls.__module__}.{cls.__qualname__}')\n"
        "    return process(cls, *args, **kwargs)\n"
        "dataclasses._process_class = record\n"
        "def defined():\n"
        "    return sorted(\n"
        "        f'{name}.{cls.__qualname__}'\n"
        "        for name, module in list(sys.modules.items()) if name.startswith('dp_hlog')\n"
        "        for cls in vars(module).values()\n"
        "        if inspect.isclass(cls) and cls.__module__ == name\n"
        "        and dataclasses.is_dataclass(cls)\n"
        "    )\n"
        "import dp_hlog.cli\n"
        "at_import = list(made)\n"
        "dp_hlog.cli.dp4.five_term_web()\n"
        "print(json.dumps([at_import, made, defined()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [[], [], []]


def test_the_exit_path_freezes_the_heap_and_passes_the_exit_code(tmp_path):
    # `python -m dp_hlog.cli` runs the module's __main__ block, which must
    # exit with main's code after freezing the heap.
    src = str(Path(dp_hlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "e.json"
    argv = ["dp-hlog", "enumerate", "--rank", "4", "--out", str(out)]
    probe = (
        "import gc, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "before = gc.get_freeze_count()\n"
        "try:\n"
        "    runpy.run_module('dp_hlog.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, before, gc.get_freeze_count() > 0)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["0", "0", "True"]
    assert json.loads(out.read_text(encoding="utf-8"))["lines"] == 10
    usage = subprocess.run(
        [sys.executable, "-m", "dp_hlog.cli", "enumerate", "--rank", "9"],
        env=env, capture_output=True, text=True,
    )
    assert usage.returncode == 2


def test_main_leaves_the_collector_as_it_was(tmp_path):
    before = gc.get_freeze_count()
    code, _ = run_json(tmp_path, "a.json", ["all", "--rank", "3"])
    assert code == 0
    assert gc.get_freeze_count() == before


def test_the_console_script_is_the_exit_path():
    root = Path(cli.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^dp-hlog = "(.+)"$', pyproject, re.M).group(1)
    (block,) = [
        node for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    exit_call = block.body[0].value  # sys.exit(<function>())
    assert ast.unparse(exit_call.func) == "sys.exit"
    assert script == f"dp_hlog.cli:{exit_call.args[0].func.id}"

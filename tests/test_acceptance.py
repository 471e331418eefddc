"""Acceptance gate: one test per criterion, budgets pinned.

Each test prints a single pass/fail line (visible with -s or on failure) and
asserts the criterion exactly as stated, including runtime budgets measured
around the relevant calls only.
"""

import json
import math
import random
import resource
import time
from fractions import Fraction

import pytest

from dp_hlog import cli, incidence, rep_theory, wedge_kernel, weyl
from dp_hlog.hyperlog import dp4, numeric, words
from oracles import canonical_certificate, combination_value, segment_words

EXPECTED_LINES = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
EXPECTED_CONICS = {3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}
EXPECTED_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
D5_CHI = (16, 0, 0, 8, 0, 0, 0, 4, 0, 0, 4, 0, 0, 2, 0, 2, 0, 1)
D5_WEDGE3 = (560, 0, 0, 24, 0, 0, 0, -20, 0, 0, 8, 0, 0, 0, 0, -2, 0, 0)
D5_WEDGE3_MULTS = (1, 1, 0, 4, 5, 4, 1, 1, 6, 0, 5, 6, 3, 3, 1, 2, 2, 0)


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {number:2d} {name}: {state}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def random_admissible(rng: random.Random) -> dp4.DP4Data:
    while True:
        g = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
        p = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
        try:
            return dp4.dp4_data(g, p)
        except ValueError:
            continue


def test_criterion_01_enumeration_counts():
    start = time.monotonic()
    ok = True
    for r in range(3, 9):
        lt = incidence.enumerate_lines(r)
        conics = incidence.enumerate_conics(r)
        ok = ok and len(lt) == EXPECTED_LINES[r]
        ok = ok and len(conics) == EXPECTED_CONICS[r]
    elapsed = time.monotonic() - start
    report(1, "enumeration counts", ok and elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion_02_fiber_structure():
    from dp_hlog.lattice import pair
    from oracles import combine

    start = time.monotonic()
    ok = True
    for r in range(3, 9):
        lt = incidence.enumerate_lines(r)
        covered = set()
        for c in incidence.enumerate_conics(r):
            ok = ok and len(c.fibers) == r - 1
            for a, b in c.fibers:
                ok = ok and combine(lt.lines[a], lt.lines[b]) == c.cls
                ok = ok and pair(lt.lines[a], lt.lines[b]) == 1
                covered.update((a, b))
        ok = ok and covered == set(range(len(lt)))
    elapsed = time.monotonic() - start
    report(2, "fiber structure", ok and elapsed < 30.0, f"{elapsed:.2f}s < 30s")


def test_criterion_03_kernel_certificates():
    budgets = {4: 60.0, 5: 60.0, 6: 60.0, 7: 900.0}
    ok = True
    notes = []
    for r in (4, 5, 6, 7):
        start = time.monotonic()
        cert = wedge_kernel.kernel_signs(r)
        elapsed = time.monotonic() - start
        ok = ok and cert.kernel_dimension == 1
        ok = ok and all(abs(e) == 1 for e in cert.epsilon)
        ok = ok and elapsed < budgets[r]
        notes.append(f"r={r} {elapsed:.2f}s")
    # Collected before the wedge tests that read the same certificate, so
    # this call computes it.
    start = time.monotonic()
    cert = canonical_certificate(8)
    elapsed = time.monotonic() - start
    ok = ok and cert.kernel_dimension == 1
    ok = ok and all(abs(e) == 1 for e in cert.epsilon)
    plus = sum(1 for e in cert.epsilon if e == 1)
    notes.append(f"r=8 signs {plus}/{len(cert.epsilon) - plus} in {elapsed:.1f}s")
    report(3, "kernel certificates", ok, "; ".join(notes))


def test_criterion_04_certificate_stability():
    ok = True
    for r in (4, 5, 6):
        for seed in range(5):
            cert = wedge_kernel.kernel_signs(r, seed=seed)
            ok = ok and cert.kernel_dimension == 1
            ok = ok and all(abs(e) == 1 for e in cert.epsilon)
    report(4, "certificate stability", ok, "ranks 4..6, 5 seeds each")


def test_criterion_05_group_sizes():
    ok = True
    start = time.monotonic()
    for r in range(3, 8):
        ok = ok and len(weyl.group_data(r)) == EXPECTED_ORDERS[r]
    elapsed = time.monotonic() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = ok and elapsed < 600.0 and peak_kb < 1024 * 1024
    report(
        5,
        "group sizes",
        ok,
        f"{elapsed:.1f}s < 600s, peak {peak_kb // 1024}MB < 1024MB",
    )


def test_criterion_06_d5_table_reproduction():
    chi = rep_theory.d5_chi_values()
    wedge = rep_theory.d5_wedge3_values()
    chi_parts = sorted(
        rep_theory.IRREDUCIBLE_LABELS[s]
        for s, m in enumerate(rep_theory.d5_decompose(chi))
        if m
    )
    mults = rep_theory.d5_decompose(wedge)
    ok = (
        chi == D5_CHI
        and wedge == D5_WEDGE3
        and chi_parts == ["[.5]", "[1.4]", "[2.3]"]
        and mults == D5_WEDGE3_MULTS
    )
    report(6, "d5 table reproduction", ok, "chi, wedge3, parts, multiplicities")


def test_criterion_07_signature_multiplicity():
    ok = True
    notes = []
    for r in (4, 5, 6, 7):
        start = time.monotonic()
        m = rep_theory.signature_multiplicity(r)
        elapsed = time.monotonic() - start
        ok = ok and m == 0 and elapsed < 900.0
        notes.append(f"r={r} {elapsed:.1f}s")
    report(7, "signature multiplicity", ok, "; ".join(notes))


def test_criterion_08_projection_checks():
    expected_line_norm = {4: 3, 5: 3, 6: 3, 7: 4}
    expected_conic_norm = {4: 2, 5: 3, 6: 3, 7: 5}
    ok = True
    for r in (4, 5, 6, 7):
        line = rep_theory.line_character(r)
        conic = rep_theory.conic_character(r)
        refl = rep_theory.reflection_character(r)
        triv = rep_theory.trivial_character(r)
        ok = ok and rep_theory.inner_product(line, triv) == 1
        ok = ok and rep_theory.inner_product(line, refl) == 1
        ok = ok and rep_theory.inner_product(line, line) == expected_line_norm[r]
        ok = ok and rep_theory.inner_product(conic, conic) == expected_conic_norm[r]
    report(8, "projection checks", ok, "ranks 4..7")


def test_criterion_09_symbol_identities():
    reports = words.verify_asym_shuffle_identities()
    ok = all(rep.passed for rep in reports) and len(reports) == 3
    rng = random.Random(1009)
    pairs = 0
    while pairs < 100:
        u = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        v = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        sh = words.shuffle(u, v)
        ok = ok and sh == words.shuffle(v, u)
        total = sum(sh.terms.values())
        ok = ok and total == math.comb(len(u) + len(v), len(u))
        pairs += 1
    for _ in range(25):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
        w = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3)))
        left = words.shuffle_combinations(words.shuffle(u, v), words.word(w))
        right = words.shuffle_combinations(words.word(u), words.shuffle(v, w))
        ok = ok and left == right
    report(9, "symbol identities", ok, "3 exact identities, 100 pairs, 25 triples")


def test_criterion_10_dp4_symbolic():
    rng = random.Random(20260817)
    ok = True
    for _ in range(5):
        data = random_admissible(rng)
        ok = ok and dp4.dp4_residue_check(data) == 30
        dp4.dp4_symbolic_identity(data)
        for drop in range(10):
            partial = data.residues[:drop] + data.residues[drop + 1 :]
            with pytest.raises(dp4.SymbolicIdentityViolation):
                dp4.dp4_symbolic_identity(data._replace(residues=partial))
    report(10, "dp4 symbolic identity", ok, "5 parameter pairs, 30 residue rows proved each")


def test_criterion_11_numerical_identities():
    abel = numeric.verify_identity_numeric(dp4.five_term_web(), samples=20, tol=1e-8, seed=41)
    ok = abel.passed
    notes = [f"Abel max {abel.max_residual:.2e} < 1e-8 over 20 pts"]
    rng = random.Random(977)
    worst = 0.0
    for _ in range(3):
        data = random_admissible(rng)
        rep = numeric.verify_identity_numeric(
            data, samples=10, tol=1e-6, seed=rng.randrange(1 << 30)
        )
        ok = ok and rep.passed
        worst = max(worst, rep.max_residual)
    notes.append(f"ten-term max {worst:.2e} < 1e-6 over 3x10 pts")
    values, error = segment_words(-1.0 + 1.0j, 1.5 + 2.0j, (0.0, 1.0, 2.0 - 1.0j), 5)
    pair_rng = random.Random(3)
    for _ in range(50):
        u = tuple(pair_rng.randrange(3) for _ in range(pair_rng.randrange(1, 3)))
        v = tuple(
            pair_rng.randrange(3)
            for _ in range(pair_rng.randrange(1, 6 - len(u)))
        )
        gap = abs(values[u] * values[v] - combination_value(values, words.shuffle(u, v)))
        ok = ok and gap < 10 * error
    notes.append("50 shuffle pairs within budget")
    notes.append("r=6,7 certified symbolically only (criterion 3); no printed integrals")
    report(11, "numerical identities", ok, "; ".join(notes))


def test_criterion_12_artifact_determinism(tmp_path):
    ok = True
    for name, args in [
        ("numeric", ["numeric", "--rank", "5", "--samples", "3", "--seed", "17"]),
        ("certify", ["certify", "--rank", "5", "--seed", "17"]),
        ("characters", ["characters", "--rank", "4"]),
    ]:
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        ok = ok and cli.main(args + ["--out", str(a)]) == 0
        ok = ok and cli.main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
        ok = ok and json.loads(a.read_text(encoding="utf-8")) is not None
    report(12, "artifact determinism", ok, "numeric, certify, characters x2 runs")

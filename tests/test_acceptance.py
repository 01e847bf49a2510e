"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison is equality; the only
tolerances are the per-criterion runtime ceilings, which are asserted.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import collections
import json
import math
import time

import pytest

from singerlab import (Matrix, char_poly, companion, enumerate_gl,
                       enumerate_minimal_factorizations, enumerate_reflections,
                       field_model, find_primitive_poly, fixed_space, is_irreducible,
                       is_primitive_poly, is_reflection,
                       make_field, matrix_order, normalizer_reflection,
                       reflection_length, verify_gill, verify_main1,
                       verify_main2)
from singerlab.cli import main as cli_main
from singerlab.reflect import det_subgroup, factorizations_in_det_subgroup
from singerlab.groupgen import gl_order, group_closure, reflection_distances
from singerlab.singer import singer_equivalence_report

from conftest import common_fixed_space


def _report(num: int, description: str, elapsed: float, limit: float) -> None:
    print(f"ACCEPTANCE {num:2d} PASS  {description}  [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def _run_cli_json(capsys, *args):
    code = cli_main([*args, "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_criterion_1_gl2f3_replication(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "example", "gl2f3")
    elapsed = time.monotonic() - start
    assert code == 0 and report["failed"] == 0
    names = {c["name"] for c in report["checks"]}
    assert {"singer companion matrix c", "normalizing reflection t",
            "conjugation twist t^-1 c t = c^3", "conjugate reflection t' = c^5 t c^-5",
            "second companion matrix c t'", "order of <c, c t'>",
            "<c, c t'> is the normalizer of <c>", "order of GL_2(F_3)"} <= names
    _report(1, "gl2f3 worked example (c, t, t', c t', |S|=16, normalizer, |GL|=48)",
            elapsed, 1.0)


def test_criterion_2_gl2f5_replication(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "example", "gl2f5")
    elapsed = time.monotonic() - start
    assert code == 0 and report["failed"] == 0 and report["passed"] == 5
    _report(2, "gl2f5 worked example (factorization, spans, order 480, abelian order 8)",
            elapsed, 5.0)


def test_criterion_3_main_theorem_2():
    start = time.monotonic()
    instances = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1)]
    for n, p, k in instances:
        field = make_field(p, k)
        report = verify_main2(n, field)
        assert report["violations"] == [], (n, field.q, report["violations"][:3])
        expected = field.q + 1 if (n == 2 and field.q > 2) else 0
        assert report["exceptional_per_cycle"] == expected
    elapsed = time.monotonic() - start
    _report(3, "Singer x reflection generation on 7 instances, exceptions = (q+1)/cycle "
               "exactly for n=2, q>2", elapsed, 600.0)


def test_criterion_4_main_theorem_1():
    start = time.monotonic()
    instances = [(1, 3, 1), (1, 5, 1), (2, 2, 1), (2, 3, 1), (2, 5, 1), (3, 2, 1)]
    for n, p, k in instances:
        field = make_field(p, k)
        report = verify_main1(n, field)
        assert report["violations"] == [], (n, field.q, report["violations"][:3])
        witnessed = sum(report["witnesses"].values())
        assert witnessed == report["checked"] - report["singer_cycles"]
    elapsed = time.monotonic() - start
    _report(4, "strongly quasi-Coxeter iff Singer on 6 instances, every non-Singer "
               "witnessed", elapsed, 900.0)


def test_criterion_5_corrected_gill():
    start = time.monotonic()
    for n, p in [(2, 3), (2, 5), (3, 2)]:
        field = make_field(p)
        report = verify_gill(n, field)
        assert report["violations"] == [], (n, p, report["violations"][:3])
        if (n, p) == (2, 3):
            pairs = {(e["f"], e["g"]) for e in report["exceptional_pairs"]}
            assert ("2,1,1", "1,0,1") in pairs  # x^2+x-1 with x^2+1
    elapsed = time.monotonic() - start
    _report(5, "companion-pair generation with n=2 normalizer exceptions; "
               "fix-dimension side condition on every pair", elapsed, 120.0)


def test_criterion_6_singer_equivalences():
    start = time.monotonic()
    for n, p, k, size in [(2, 3, 1, 48), (2, 2, 2, 180), (3, 2, 1, 168)]:
        report = singer_equivalence_report(n, make_field(p, k))
        assert report["violations"] == []
        assert report["checked"] == size
    elapsed = time.monotonic() - start
    _report(6, "six Singer conditions and three irreducibility conditions coincide "
               "on GL_2(F_3), GL_2(F_4), GL_3(F_2)", elapsed, 60.0)


def test_criterion_7_reflection_length_oracle():
    start = time.monotonic()
    # GL_2(F_4) builds its reflection permutations with extension-field arithmetic
    for n, p, k in [(2, 3, 1), (2, 5, 1), (3, 2, 1), (2, 2, 2), (2, 7, 1)]:
        field = make_field(p, k)
        distances = reflection_distances(n, field)
        assert len(distances) == gl_order(n, field.q)
        assert set(distances) == set(enumerate_gl(n, field))
        for g, dist in distances.items():
            assert reflection_length(g) == dist
    elapsed = time.monotonic() - start
    _report(7, "reflection length equals Cayley BFS distance on GL_2(F_3), "
               "GL_2(F_5), GL_3(F_2), GL_2(F_4), GL_2(F_7)", elapsed, 120.0)


def test_criterion_8_factorization_count():
    start = time.monotonic()
    field = make_field(5)
    g = Matrix.from_text(field, "0,1;1,3")
    assert matrix_order(g) == 12 and g.det() == 4
    x = det_subgroup(field, 4)
    assert x == frozenset({1, 4})
    # independent brute-force count over ordered reflection pairs
    brute = 0
    for t1 in enumerate_reflections(2, field):
        t2 = t1.inverse() @ g
        if is_reflection(t2) and t1.det() in x and t2.det() in x:
            brute += 1
    assert brute == 12
    restricted = factorizations_in_det_subgroup(g, 4)
    assert len(restricted) == matrix_order(g) ** (g.n - 1) == 12
    elapsed = time.monotonic() - start
    _report(8, "order-12 irreducible in GL_2(F_5): exactly |g|^(n-1) = 12 "
               "det-restricted factorizations (brute-force confirmed)", elapsed, 60.0)


def test_criterion_9_normalizer_bound_attained():
    start = time.monotonic()
    for p, k in [(3, 1), (2, 2), (5, 1)]:
        field = make_field(p, k)
        q = field.q
        c = companion(find_primitive_poly(2, field))
        t = normalizer_reflection(c)
        closure = group_closure([t, c])
        assert closure.order == 2 * (q**2 - 1)
        normal_forms = set()
        power = Matrix.identity(field, 2)
        for _ in range(q**2 - 1):
            power = power @ c
            normal_forms.add(power)
            normal_forms.add(t @ power)
        assert closure.elements == normal_forms
    elapsed = time.monotonic() - start
    _report(9, "|<t, c>| = 2(q^2-1) for q in {3,4,5} with every element of the "
               "form t^i c^j", elapsed, 60.0)


def test_criterion_10_remark_invariant():
    start = time.monotonic()
    field = make_field(3)
    count = 0
    for g in enumerate_gl(2, field):
        fix = fixed_space(g)
        for fl in enumerate_minimal_factorizations(g):
            count += 1
            if fl.factors:
                assert common_fixed_space(fl.factors) == fix
            else:
                assert fix.is_full
    assert count > 48  # several factorizations per non-trivial element
    elapsed = time.monotonic() - start
    _report(10, "intersection of factor fixed spaces equals fix(g) over every "
                "minimal factorization in GL_2(F_3)", elapsed, 120.0)


def test_criterion_11_gl5f2_reach(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main2", "--n", "5", "--p", "2")
    elapsed = time.monotonic() - start
    assert code == 0
    assert report["checked"] == 2790  # 6 Singer classes x 465 reflections
    assert report["generation_tests"] == 3  # one per key: Frobenius orbits in F_32
    assert report["exceptional_pairs"] == [] and report["violations"] == []
    gill = verify_gill(5, make_field(2))
    assert gill["checked"] == 90 and gill["violations"] == []
    _report(11, "Singer x reflection generation on all 2790 pairs of GL_5(F_2), "
                "|G| = 9999360, through the CLI", elapsed, 20.0)


def test_criterion_12_gl4f3_reach(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main2", "--n", "4", "--p", "3")
    elapsed = time.monotonic() - start
    assert code == 0
    assert report["checked"] == 16960  # 8 Singer classes x 2120 reflections
    # one table of 53 <c>-orbits of reflections, one closure per key: 15 Frobenius orbits
    assert report["generation_tests"] == 15
    assert report["exceptional_pairs"] == [] and report["violations"] == []
    _report(12, "Singer x reflection generation on all 16960 pairs of GL_4(F_3), "
                "|G| = 24261120, through the CLI", elapsed, 30.0)


def test_criterion_13_gl3f5_reach(capsys):
    start = time.monotonic()
    code, main2 = _run_cli_json(capsys, "verify", "main2", "--n", "3", "--p", "5")
    gill_code, gill = _run_cli_json(capsys, "verify", "gill", "--n", "3", "--p", "5")
    elapsed = time.monotonic() - start
    assert code == gill_code == 0
    assert main2["checked"] == 61380  # 20 Singer classes x 3069 reflections
    assert gill["checked"] == 1980  # 20 primitive cubics x 99 partners
    for report in (main2, gill):
        assert report["generation_tests"] == 35  # 5^2 * 4 - 1 = 99 orbits, 35 keys
        assert report["exceptional_pairs"] == [] and report["violations"] == []
    _report(13, "main2 on all 61380 pairs and gill on all 1980 pairs of GL_3(F_5), "
                "|G| = 1488000, through the CLI", elapsed, 20.0)


def test_criterion_14_gl3f3_main1_full(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main1", "--n", "3", "--p", "3")
    elapsed = time.monotonic() - start
    assert code == 0 and report["mode"] == "full" and report["violations"] == []
    assert report["checked"] == 11232 and report["singer_cycles"] == 1728
    assert sum(report["witnesses"].values()) == 9504
    # 7 keys shared by the rows of the 4 Singer classes, and 36 for the
    # spot checks
    assert report["generation_tests"] == 7 + 36
    _report(14, "strongly quasi-Coxeter iff Singer on every element of GL_3(F_3), "
                "|G| = 11232, through the CLI", elapsed, 60.0)


def test_criterion_15_gl3f3_singer_equiv(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "singer-equiv", "--n", "3", "--p", "3")
    elapsed = time.monotonic() - start
    assert code == 0 and report["violations"] == []
    assert report["checked"] == 11232
    # one class of |GL| / 26 = 432 elements per irreducible cubic, of which
    # phi(26) / 3 = 4 of the 8 are primitive
    assert report["singer_cycles"] == 1728
    assert report["irreducible_elements"] == 3456
    _report(15, "six Singer and three irreducibility characterizations coincide on "
                "every element of GL_3(F_3), |G| = 11232, through the CLI", elapsed, 30.0)


def test_criterion_16_gl3f7_reach(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main2", "--n", "3", "--p", "7")
    elapsed = time.monotonic() - start
    assert code == 0
    assert report["checked"] == 601236  # 36 Singer classes x 16701 reflections
    assert report["generation_tests"] == 101  # 7^2 * 6 - 1 = 293 orbits, 101 keys
    assert report["exceptional_pairs"] == [] and report["violations"] == []
    _report(16, "main2 on all 601236 pairs of GL_3(F_7), |G| = 33784128, through the CLI",
            elapsed, 30.0)


def test_criterion_17_gl2f7_main2_full(capsys):
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main2", "--full", "--n", "2", "--p", "7")
    elapsed = time.monotonic() - start
    assert code == 0 and report["mode"] == "full"
    assert report["checked"] == 110208  # 336 Singer cycles x 328 reflections
    # 8 rows, one per Singer class, share one closure per key: 23 keys for
    # 41 <c>-orbits of reflections; all 336 cycles read their class's row
    assert report["generation_tests"] == 23
    assert report["exceptional_pairs_total"] == len(report["exceptional_pairs"]) == 336 * 8
    assert report["violations"] == []
    _report(17, "main2 on every Singer cycle and reflection of GL_2(F_7), 110208 pairs, "
                "through the CLI", elapsed, 10.0)


def test_criterion_18_main2_full_gl2f9_gl3f3(capsys):
    # every Singer cycle reads its class's row through its cyclic basis
    start = time.monotonic()
    runs = [_run_cli_json(capsys, "verify", "main2", "--full", "--n", n, "--p", "3", "--k", k)
            for n, k in (("2", "2"), ("3", "1"))]
    elapsed = time.monotonic() - start
    # GL_2(F_9): 1152 Singer cycles x 710 reflections, 10 exceptional each;
    # GL_3(F_3): 1728 x 221, none
    for (code, report), checked, keys, exceptional in zip(runs, (817920, 381888), (39, 7),
                                                           (11520, 0)):
        assert code == 0 and report["mode"] == "full"
        assert report["checked"] == checked
        assert report["generation_tests"] == keys
        assert report["exceptional_pairs_total"] == len(report["exceptional_pairs"]) == exceptional
        assert report["violations"] == []
    _report(18, "main2 on every Singer cycle and reflection of GL_2(F_9) and GL_3(F_3), "
                "1199808 pairs, through the CLI", elapsed, 10.0)


def test_criterion_19_gl2f8_main1_known_failure(capsys):
    # main1's statement fails on GL_2(F_8): every violation is an
    # irreducible, non-Singer element of order 21, whose determinant
    # generates F_8^x (of order 7), so its witness search is unrestricted
    # and finds no non-generating minimal factorization.  They fill the 6
    # conjugacy classes of such elements, q(q - 1) = 56 each
    start = time.monotonic()
    code, report = _run_cli_json(capsys, "verify", "main1", "--n", "2", "--p", "2", "--k", "3")
    elapsed = time.monotonic() - start
    assert code == 1 and report["mode"] == "full" and report["checked"] == 3528
    assert len(report["violations"]) == 336 == 6 * 8 * 7
    field = make_field(2, 3)
    classes = collections.Counter()
    for v in report["violations"]:
        assert v == {"matrix": v["matrix"], "is_singer": False,
                     "error": "no non-generating witness found"}
        g = Matrix.from_text(field, v["matrix"])
        f = char_poly(g)
        assert is_irreducible(f) and not is_primitive_poly(f) and matrix_order(g) == 21
        assert len(det_subgroup(field, g.det())) == 7
        classes[f] += 1
    assert sorted(classes.values()) == [8 * 7] * 6
    # the closed-form prediction, read off the model of F_64: lambda = alpha^j
    # lies outside F_8 iff 9 does not divide j, is not primitive iff
    # gcd(j, 63) > 1, and has a primitive norm iff gcd(j, 7) = 1; each pair
    # {lambda, lambda^8} is one class, with char_poly that of alpha^j
    model, q = field_model(2, field), field.q
    predicted = {char_poly(model.multiplication(j)) for j in range(model.m)
                 if j % (q + 1) and math.gcd(j, model.m) > 1 and math.gcd(j, q - 1) == 1}
    assert set(classes) == predicted
    _report(19, "main1's known failure on GL_2(F_8): exactly 336 irreducible non-Singer "
                "elements of order 21 with no witness, through the CLI", elapsed, 5.0)

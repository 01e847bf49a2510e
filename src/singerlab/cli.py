"""Command-line front end.

Commands: field, factorize, example, verify.  Output is human-readable
text by default or a single JSON document with --output json (schema
version 1).  Exit codes: 0 success/verified, 1 theorem violation or
failed example assertion, 2 usage or budget errors.  Every enumeration,
closures included, is bounded by the one budget matrix.ENUMERATION_BUDGET;
no option or environment variable changes it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import groupgen, reflect, singer
from .errors import BudgetExceededError
from .ff import element_order, make_field
from .matrix import Matrix, fixed_space
from .poly import Poly, companion, find_primitive_poly
from .reflect import (enumerate_minimal_factorizations,
                      factorizations_in_det_subgroup, minimal_factorization,
                      reflection_length)

SCHEMA_VERSION = 1


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if key == "schema":
            continue
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for item in value:
                print(f"  {json.dumps(item, sort_keys=True)}")
        else:
            print(f"{key}: {value}")


def _check_table(checks: list[tuple[str, bool, str]], output: str) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "checks": [{"name": name, "ok": ok, "detail": detail}
                   for name, ok, detail in checks],
        "passed": sum(ok for _, ok, _ in checks),
        "failed": sum(not ok for _, ok, _ in checks),
    }
    if output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        print(f"{report['passed']} passed, {report['failed']} failed")
    return report


# --- example command -------------------------------------------------------------


def _example_gl2f3() -> list[tuple[str, bool, str]]:
    field = make_field(3)
    f = Poly.from_text(field, "2,1,1")  # x^2 + x - 1
    c = companion(f)
    checks = []

    def check(name, got, expected):
        ok = got == expected
        checks.append((name, ok, f"expected {expected}, got {got}"))
        return ok

    check("singer companion matrix c", c.to_text(), "0,1;1,2")
    t = singer.normalizer_reflection(c)
    check("normalizing reflection t", t.to_text(), "1,0;2,2")
    check("conjugation twist t^-1 c t = c^3", (t.inverse() @ c @ t).to_text(),
          (c**3).to_text())
    tp = c**5 @ t @ c**-5
    check("conjugate reflection t' = c^5 t c^-5", tp.to_text(), "1,2;0,2")
    check("second companion matrix c t'", (c @ tp).to_text(), "0,2;1,0")
    closure = groupgen.group_closure([c, c @ tp])
    check("order of <c, c t'>", closure.order, 16)
    normalizer = groupgen.normalizer_of_cyclic(c)
    check("<c, c t'> is the normalizer of <c>",
          closure.elements == normalizer.elements and normalizer.order == 16, True)
    check("order of GL_2(F_3)", groupgen.gl_order(2, 3), 48)
    return checks


def _example_gl2f5() -> list[tuple[str, bool, str]]:
    field = make_field(5)
    g = Matrix.from_text(field, "3,0;0,4")
    t1 = Matrix.from_text(field, "2,2;2,0")
    t2 = Matrix.from_text(field, "0,2;4,3")
    checks = []

    def check(name, got, expected):
        checks.append((name, got == expected, f"expected {expected}, got {got}"))

    check("displayed factorization multiplies out", (t1 @ t2).to_text(), g.to_text())
    check("both factors are reflections",
          (reflect.is_reflection(t1), reflect.is_reflection(t2)), (True, True))
    check("fixed spans are (1,2) and (1,3)",
          (fixed_space(t1).basis, fixed_space(t2).basis), (((1, 2),), ((1, 3),)))
    check("the two factors generate GL_2(F_5)",
          groupgen.group_closure([t1, t2]).order, 480)
    d1 = Matrix.from_text(field, "3,0;0,1")
    d2 = Matrix.from_text(field, "1,0;0,4")
    diag_ok = (reflect.is_reflection(d1) and reflect.is_reflection(d2)
               and (d1 @ d2) == g and (d1 @ d2) == (d2 @ d1))
    order8 = groupgen.group_closure([d1, d2]).order
    check("diagonal reflections give an abelian group of order 8",
          (diag_ok, order8), (True, 8))
    return checks


def _example_s4() -> list[tuple[str, bool, str]]:
    field = make_field(3)
    four_cycle = {1: 2, 2: 3, 3: 4, 4: 1}
    transposition = {1: 3, 3: 1, 2: 2, 4: 4}

    def perm_matrix(perm):
        entries = [0] * 16
        for j in range(1, 5):
            entries[(perm[j] - 1) * 4 + (j - 1)] = 1
        return Matrix(field, 4, entries)

    pc = perm_matrix(four_cycle)
    pt = perm_matrix(transposition)
    checks = []
    order = groupgen.group_closure([pc, pt]).order
    checks.append(("4-cycle with the (1 3) swap generates order 8", order == 8,
                   f"expected 8, got {order}"))
    checks.append(("the subgroup is proper in S_4", order < 24,
                   f"order {order} < 24"))
    return checks


def cmd_example(args) -> int:
    runner = {"gl2f3": _example_gl2f3, "gl2f5": _example_gl2f5, "s4": _example_s4}
    checks = runner[args.name]()
    report = _check_table(checks, args.output)
    return 0 if report["failed"] == 0 else 1


# --- verify command -----------------------------------------------------------------


def cmd_verify(args) -> int:
    # a mode flag is refused by every driver that does not read it
    for flag, reader, given in (("--classes", "main1", args.classes),
                                ("--full", "main2", args.full),
                                ("--seed", "main1", args.seed is not None)):
        if given and args.subcommand != reader:
            raise ValueError(f"{flag} is read only by verify {reader}, not by {args.subcommand}")
    field = make_field(args.p, args.k)
    if args.subcommand == "main1":
        seed = 0 if args.seed is None else args.seed
        report = groupgen.verify_main1(args.n, field, classes=args.classes, seed=seed)
    elif args.subcommand == "main2":
        report = groupgen.verify_main2(args.n, field, full=args.full)
    elif args.subcommand == "gill":
        report = groupgen.verify_gill(args.n, field)
    elif args.subcommand == "singer-equiv":
        report = singer.singer_equivalence_report(args.n, field)
    else:
        report = groupgen.verify_length_oracle(args.n, field)
    report = {"schema": SCHEMA_VERSION, **report}
    _emit(report, args.output)
    return 0 if not report["violations"] else 1


# --- factorize command ----------------------------------------------------------------


def cmd_factorize(args) -> int:
    field = make_field(args.p, args.k)
    g = Matrix.from_text(field, args.matrix)
    if args.n is not None and args.n != g.n:
        raise ValueError(f"--n {args.n} disagrees with a {g.n}x{g.n} matrix literal")
    if g.det() == 0:
        raise ValueError("matrix is singular; only invertible elements factor")
    if args.det_subgroup is not None:
        factorizations = factorizations_in_det_subgroup(g, args.det_subgroup)
    elif args.all:
        factorizations = list(enumerate_minimal_factorizations(g))
    else:
        factorizations = [minimal_factorization(g)]
    cache = groupgen._GenerationCache(g.n, field.q)
    entries = [{**fl.serialize(), "dets": list(fl.dets()),
                "generates": cache.generates(fl.factors)} for fl in factorizations]
    report = {
        "schema": SCHEMA_VERSION,
        "matrix": g.to_text(),
        "n": g.n,
        "q": field.q,
        "reflection_length": reflection_length(g),
        "count": len(entries),
        "factorizations": entries,
    }
    _emit(report, args.output)
    return 0


# --- field command ---------------------------------------------------------------------


def cmd_field(args) -> int:
    modulus = Poly.from_text(make_field(args.p), args.poly).coeffs if args.poly else None
    field = make_field(args.p, args.k, modulus)
    primitive = next(v for v in range(1, field.q) if element_order(field, v) == field.q - 1)
    report = {
        "schema": SCHEMA_VERSION,
        **field.serialize(),
        "q": field.q,
        "unit_group_order": field.q - 1,
        "least_primitive_element": primitive,
        "primitive_element_order": element_order(field, primitive),
    }
    if args.n:
        report["primitive_polynomial_degree_n"] = find_primitive_poly(args.n, field).to_text()
    _emit(report, args.output)
    return 0


# --- argument parsing ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of --n and --k."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singerlab",
        description="Exact computation in GL_n(F_q): Singer cycles, reflections, "
                    "and minimum-length reflection factorizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=False):
        p.add_argument("--n", type=_positive_int, required=need_n, help="matrix dimension")
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--k", type=_positive_int, default=1,
                       help="extension degree (q = p^k)")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_field = sub.add_parser("field", help="construct a field and report it")
    common(p_field)
    p_field.add_argument("--poly", help="modulus coefficients, little-endian")
    p_field.set_defaults(func=cmd_field)

    p_fact = sub.add_parser("factorize", help="minimum-length reflection factorizations")
    common(p_fact)
    p_fact.add_argument("--matrix", required=True, help="rows ';'-separated, e.g. '3,0;0,4'")
    p_fact.add_argument("--all", action="store_true", help="enumerate all factorizations")
    p_fact.add_argument("--det-subgroup", type=int, default=None, metavar="ELEM",
                        help="restrict factor determinants to the subgroup generated by ELEM")
    p_fact.set_defaults(func=cmd_factorize)

    p_ex = sub.add_parser("example", help="replicate a worked example end to end")
    p_ex.add_argument("name", choices=("gl2f3", "gl2f5", "s4"))
    p_ex.add_argument("--output", choices=("text", "json"), default="text")
    p_ex.set_defaults(func=cmd_example)

    p_ver = sub.add_parser("verify", help="run a theorem verification driver")
    p_ver.add_argument("subcommand",
                       choices=("main1", "main2", "gill", "singer-equiv", "length-oracle"))
    common(p_ver, need_n=True)
    p_ver.add_argument("--classes", action="store_true",
                       help="main1: classify one representative per conjugacy class")
    p_ver.add_argument("--full", action="store_true",
                       help="main2: sweep every Singer cycle instead of class representatives")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="main1: seed for the randomized conjugation spot checks "
                            "(default 0)")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

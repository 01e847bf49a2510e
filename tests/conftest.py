import functools
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import singerlab
from singerlab import (FieldExtension, Matrix, Poly, companion, enumerate_gl, enumerate_monic,
                       enumerate_reflections, find_primitive_poly, fixed_space, generates_full,
                       gl_order, group_closure, invmod, is_irreducible, is_primitive_poly,
                       is_singer, make_field, normalizer_of_cyclic)
from singerlab.groupgen import (SPOT_CHECKS, _GenerationCache, _witness_for_non_singer,
                                classify_qc, singer_class_count)
from singerlab.matrix import char_poly, kernel_of_rows, mul_entries
from singerlab.singer import irreducible_conditions, normalizing_reflections, singer_oracles
from singerlab.singer import _cyclic_basis as cyclic_basis


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f9():
    # the modulus x^2 + x - 1 whose companion matrix drives the worked example
    return make_field(3, 2, (2, 1, 1))


def trial_phi(m: int) -> int:
    """Euler phi by bare trial division; independent of the package."""
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def gauss_irreducible_count(n: int, q: int) -> int:
    """Gauss's count of the monic irreducible polynomials of degree n over
    F_q with nonzero constant term: (1/n) sum_(d | n) mu(d) q^(n/d), less
    one for x when n = 1, with the Moebius mu by bare trial division."""
    def mu(d):
        sign, r = 1, 2
        while d > 1:
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                sign = -sign
            r += 1
        return sign

    return sum(mu(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n - (n == 1)


def generator_minpolys_by_walk(n: int, field) -> dict:
    """Oracle: the minimal polynomial of each degree-n field generator of
    F_q[x]/(f_1), f_1 = find_primitive_poly(n, F_q), mapped to whether its
    roots are primitive, by FieldExtension.minimal_poly on every element
    whose Frobenius orbit has n members.  Every primitive element is such a
    generator, and its conjugates, the other roots, share its order."""
    ext = FieldExtension(find_primitive_poly(n, field), check=False)
    out = {}
    for a in ext.elements():
        if not a.is_zero and len(ext.frobenius_orbit(a)) == n:
            f = ext.minimal_poly(a)
            if f not in out:
                out[f] = ext.is_primitive(a)
    return out


def max_irreducible_order_by_scan(n: int, field) -> int:
    """Oracle: the largest order of x modulo a monic irreducible f of
    degree n with f(0) != 0, by the Rabin test on every monic f."""
    return max(FieldExtension(f, check=False).element_order(Poly.x(field))
               for f in enumerate_monic(n, field, nonzero_constant=True) if is_irreducible(f))


def random_invertible(n: int, field, rng):
    """A uniformly random element of GL_n(F_q), by rejection sampling."""
    while True:
        m = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
        if m.det():
            return m


def gl_by_candidate_filter(n: int, field) -> list:
    """Oracle: GL_n(F_q) as every candidate of M_n(F_q), in entry-lex order,
    kept when its determinant is nonzero; one elimination per candidate."""
    candidates = itertools.product(range(field.q), repeat=n * n)
    return [m for m in (Matrix._raw(field, n, e) for e in candidates) if m.det() != 0]


def kernel(a):
    """Oracle: the canonical basis of {v : A v = 0}, one elimination of A's rows."""
    return kernel_of_rows(a.field, a.rows(), a.n)


def common_fixed_space(mats):
    """Oracle: the intersection of the fixed spaces of the given matrices,
    one elimination of the stacked rows of every A - I."""
    if not mats:
        raise ValueError("need at least one matrix")
    field, n = mats[0].field, mats[0].n
    rows = [[field.sub(x, 1 if i == j else 0) for j, x in enumerate(row)]
            for a in mats for i, row in enumerate(a.rows())]
    return kernel_of_rows(field, rows, n)


# F_2 .. F_9, as (p, k)
SMALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def square_shapes(max_gl_order=None):
    """Strategy for (field, n): one of F_2..F_9 and n <= 3, optionally only
    where |GL_n(F_q)| <= max_gl_order."""
    shapes = [(make_field(p, k), n) for p, k in SMALL_FIELDS for n in (1, 2, 3)
              if max_gl_order is None or gl_order(n, p**k) <= max_gl_order]
    return st.sampled_from(shapes)


def matrices_over(field, n, invertible=False):
    """Strategy for n x n matrices over field, optionally only invertible ones."""
    entries = st.lists(st.integers(0, field.q - 1), min_size=n * n, max_size=n * n)
    mats = entries.map(lambda e: Matrix(field, n, e))
    return mats.filter(lambda m: m.det() != 0) if invertible else mats


def matrices(invertible=False):
    """Strategy for matrices over F_2..F_9 with n <= 3."""
    return square_shapes().flatmap(lambda shape: matrices_over(*shape, invertible))


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^n, by the product formula."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def run_python(code: str, *options: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's singerlab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(singerlab.__file__)),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def orbit_table(c, reflections, orders_by_key: dict) -> tuple[dict, list]:
    """Oracle: the <c>-orbit of every reflection, as a map from its entries
    to an orbit number, and |<c, t>| for the members t of each orbit, by
    orbit number: one closure per key missing from orders_by_key.

    For h in <c>, h <c, t> h^-1 = <c, h t h^-1>, so the order is constant
    on each orbit of <c> acting on the reflections by conjugation.  Modulo
    the scalars, which centralize t, <c> permutes the N = (q^n - 1)/(q - 1)
    hyperplanes regularly, so every orbit has exactly one member per
    hyperplane.  The orbit's key is char_poly(gamma) for its sum
    gamma = sum_x (x - I) = sum_x x - I, as N = 1 mod p.  gamma lies in
    K = F_q[c], so it commutes with c, and its trace is N (det t - 1) =
    det t - 1; both are checked.  The order of <c, t> depends only on that
    key, over every Singer cycle of GL_n(F_q): pairs (K, gamma) whose gamma
    have the same characteristic polynomial are conjugate, through the
    normalizer of K^x, which acts on gamma by the Frobenius.  So one
    orders_by_key may serve tables of several Singer cycles, and a key's
    closure runs on the first orbit that meets it.
    """
    n, field = c.n, c.field
    orbit_size = (field.q**n - 1) // (field.q - 1)
    known = {t.entries for t in reflections}
    ce, c_inverse = c.entries, c.inverse().entries
    fadd, fsub = field.add, field.sub
    diagonal = range(0, n * n, n + 1)
    orbit_of: dict[tuple, int] = {}
    orders = []
    for t in reflections:
        if t.entries in orbit_of:
            continue
        number = len(orders)
        x, members, total = t.entries, 0, (0,) * (n * n)
        while True:
            if x not in known or x in orbit_of:
                raise AssertionError("a <c>-orbit left the reflections or met another orbit")
            orbit_of[x] = number
            members += 1
            total = tuple(map(fadd, total, x))
            x = mul_entries(mul_entries(ce, x, n, field), c_inverse, n, field)
            if x == t.entries:
                break
        if members != orbit_size:
            raise AssertionError(f"a <c>-orbit of reflections has {members} members, "
                                 f"expected {orbit_size}")
        gamma = tuple(fsub(v, 1) if i in diagonal else v for i, v in enumerate(total))
        if mul_entries(ce, gamma, n, field) != mul_entries(gamma, ce, n, field):
            raise AssertionError("an orbit sum does not commute with c")
        trace = functools.reduce(fadd, (gamma[i] for i in diagonal), 0)
        if trace != fsub(t.det(), 1):
            raise AssertionError("an orbit sum's trace is not det t - 1")
        key = char_poly(Matrix._raw(field, n, gamma))
        order = orders_by_key.get(key)
        if order is None:
            order = orders_by_key[key] = group_closure([c, t]).order
        orders.append(order)
    return orbit_of, orders


def singer_conjugators(c) -> dict:
    """Oracle: for the Singer cycle c, a matrix P with P^-1 c^k P = C_f for
    every primitive f of degree n, keyed by f.

    Every such f is the characteristic polynomial of some c^k with
    gcd(k, q^n - 1) = 1, and then <c^k> = <c>; P is the checked cyclic
    basis of the first such power, so <C_f, t> = P^-1 <c, P t P^-1> P.
    """
    if not is_singer(c):
        raise ValueError("input is not a Singer cycle")
    m = c.field.q**c.n - 1
    conjugators = {}
    power = c
    for k in range(1, m + 1):  # up to k = m, for GL_1(F_2): there m = 1 and c = I
        if math.gcd(k, m) == 1:
            f = char_poly(power)
            if f not in conjugators:
                conjugators[f] = cyclic_basis(power, companion(f))
        power = power @ c
    if len(conjugators) != singer_class_count(c.n, c.field.q):
        raise AssertionError("the powers of c missed a primitive polynomial")
    return conjugators


def orbit_table_by_closures(c, reflections) -> tuple[dict, list]:
    """Oracle: orbit_table with no keys, one closure per <c>-orbit of
    reflections under conjugation.  The orbit of every reflection, as a map
    from its entries to an orbit number, and |<c, t>| for the first member
    t of each orbit, by orbit number."""
    n, field = c.n, c.field
    c_inverse = c.inverse().entries
    orbit_of = {}
    orders = []
    for t in reflections:
        if t.entries in orbit_of:
            continue
        x = t.entries
        while x not in orbit_of:
            orbit_of[x] = len(orders)
            x = mul_entries(mul_entries(c.entries, x, n, field), c_inverse, n, field)
        orders.append(group_closure([c, t]).order)
    return orbit_of, orders


def partner_keys_by_matrix(f):
    """Oracle: (g, char_poly(gamma)) for each partner g of the primitive f,
    in enumerate_monic order, with gamma = (f - g)(alpha) / (alpha f'(alpha))
    in F_q[x]/(f), alpha = x mod f, taken as its multiplication matrix and
    built with no discrete log: entry (r, j) is sum_i h_i w[i + j][r] for
    h = f - g and w[k] = alpha^k / (alpha f'(alpha)), a Hankel product.
    The trace of gamma's matrix is checked to be g(0)/f(0) - 1."""
    field, n = f.field, f.degree
    fmul, fadd = field.mul, field.add
    x = Poly.x(field)
    derivative = Poly(field, [fmul(i % field.p, c) for i, c in enumerate(f.coeffs)][1:])
    w = [invmod(x * derivative % f, f)]
    for _ in range(2 * n - 2):
        w.append(x * w[-1] % f)
    w = [v.coeffs + (0,) * (n - len(v.coeffs)) for v in w]
    hankel = [[w[i + j][r] for i in range(n)] for r in range(n) for j in range(n)]
    f0_inverse = field.inv(f[0])
    keys = []
    for g in enumerate_monic(n, field, nonzero_constant=True):
        if g == f:
            continue
        h = [field.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)]
        entries = tuple(functools.reduce(fadd, map(fmul, h, column)) for column in hankel)
        if functools.reduce(fadd, entries[::n + 1]) != field.sub(fmul(g[0], f0_inverse), 1):
            raise AssertionError("an orbit sum's trace is not g(0)/f(0) - 1")
        keys.append((g, char_poly(Matrix._raw(field, n, entries))))
    return keys


def galois_key_count(n: int, p: int, k: int = 1) -> int:
    """Oracle: the number of orbits of the Frobenius gamma -> gamma^q on
    the gamma != 0 of F_(q^n) with Tr(gamma) != -1, q = p^k, by brute force
    in make_field(p, k n); the trace is the sum of the n conjugates."""
    big = make_field(p, k * n)
    q = p**k
    minus_one = big.neg(1)

    def trace(x):
        return functools.reduce(big.add, (big.pow(x, q**i) for i in range(n)), 0)

    remaining = {x for x in range(1, big.q) if trace(x) != minus_one}
    orbits = 0
    while remaining:
        x = y = remaining.pop()
        while (y := big.pow(y, q)) != x:
            remaining.remove(y)
        orbits += 1
    return orbits


def unreduced_main2(n: int, field, full: bool = False) -> dict:
    """verify_main2's report without elapsed_ms and generation_tests, from
    one generates_full per (Singer cycle, reflection) pair: the sweep with
    no orbit reduction."""
    q = field.q
    reps = [companion(f) for f in enumerate_monic(n, field, nonzero_constant=True)
            if is_primitive_poly(f)]
    singers = [g for g in enumerate_gl(n, field) if is_singer(g)] if full else reps
    reflections = enumerate_reflections(n, field)
    per_cycle_expected = q + 1 if (n == 2 and q > 2) else 0
    singer_cycles = len(reps) * gl_order(n, q) // (q**n - 1)
    violations = []
    exceptional = []
    for c in singers:
        normalizers = set(normalizing_reflections(c)) if n == 2 else set()
        exceptional_here = 0
        for t in reflections:
            generated = generates_full([c, t])
            if generated == (n == 2 and q > 2 and t in normalizers):
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "generated": generated,
                                   "normalizing": t in normalizers})
            if not generated:
                exceptional_here += 1
                exceptional.append({"singer": c.to_text(), "reflection": t.to_text()})
        if exceptional_here != per_cycle_expected:
            violations.append({"singer": c.to_text(), "exceptional_count": exceptional_here,
                               "expected": per_cycle_expected})
    return {
        "theorem": "Singer cycle and non-normalizing reflection generate",
        "params": {"n": n, "q": q},
        "mode": "full" if full else "classes",
        "singer_classes": len(reps),
        "singer_cycles": singer_cycles,
        "singer_checked": len(singers),
        "reflections": len(reflections),
        "checked": len(singers) * len(reflections),
        "exceptional_per_cycle": per_cycle_expected,
        "exceptional_pairs_total": singer_cycles * per_cycle_expected,
        "exceptional_pairs": exceptional,
        "violations": violations,
    }


def gill_by_normalizer_scan(n: int, field) -> dict:
    """verify_gill's report without elapsed_ms and generation_tests, with
    N(<C_f>) from normalizer_of_cyclic's scan of GL_n(F_q) and a second
    closure for each exceptional pair's order.  As in unreduced_main2, the
    exception holds only for n = 2 and q > 2: N(<C_f>) is all of GL_2(F_2)."""
    q = field.q
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    targets = list(enumerate_monic(n, field, nonzero_constant=True))
    violations = []
    exceptional = []
    pairs = 0
    for f in primitives:
        cf = companion(f)
        normalizer = normalizer_of_cyclic(cf) if n == 2 else None
        for g in targets:
            if g == f:
                continue
            cg = companion(g)
            pairs += 1
            if fixed_space(cf @ cg.inverse()).dim != n - 1:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "fix-dimension side condition failed"})
            generated = generates_full([cf, cg])
            expected_fail = n == 2 and q > 2 and cg in normalizer
            if not generated:
                exceptional.append({"f": f.to_text(), "g": g.to_text(),
                                    "order": group_closure([cf, cg]).order})
            if generated == expected_fail:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "generated": generated, "in_normalizer": expected_fail})
    exceptional.sort(key=lambda e: (e["f"], e["g"]))
    return {
        "theorem": "companion matrices of primitive + nonzero-constant polynomials generate",
        "params": {"n": n, "q": q},
        "primitive_polynomials": len(primitives),
        "checked": pairs,
        "exceptional_pairs": exceptional,
        "violations": violations,
    }


def _conjugate(p, x):
    """The entries of P x P^-1, for the entries x of a matrix."""
    n, field = p.n, p.field
    return mul_entries(mul_entries(p.entries, x, n, field), p.inverse().entries, n, field)


def main2_by_pair_lookup(n: int, field, full: bool = False, own_tables: bool = False,
                         orders_by_key: dict | None = None) -> dict:
    """verify_main2's report without elapsed_ms and generation_tests, with
    every pair (c, t) read pair by pair from orbit_table, independent of
    groupgen's rows: the table of c0 = C_f0 at Q t Q^-1,
    Q = P_f P_c^-1 for c's characteristic polynomial f (P_f from
    singer_conjugators, P_c c's cyclic basis, I for c = C_f); with
    own_tables each Singer cycle reads its own table instead, Q = I.  The
    tables share orders_by_key, given or empty."""
    q = field.q
    group_order = gl_order(n, q)
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    reps = [companion(f) for f in primitives]
    singers = [g for g in enumerate_gl(n, field) if is_singer(g)] if full else reps
    reflections = enumerate_reflections(n, field)
    per_cycle_expected = q + 1 if (n == 2 and q > 2) else 0
    singer_cycles = len(reps) * group_order // (q**n - 1)
    orders_by_key = {} if orders_by_key is None else orders_by_key
    orbit_of, orders = orbit_table(reps[0], reflections, orders_by_key)
    conjugators = singer_conjugators(reps[0])
    violations = []
    exceptional = []
    for c in singers:
        if own_tables:
            orbit_of, orders = orbit_table(c, reflections, orders_by_key)
            p = Matrix.identity(field, n)
        else:
            f = char_poly(c)
            p = conjugators[f] @ cyclic_basis(c, companion(f)).inverse()
        normalizers = set(normalizing_reflections(c)) if n == 2 else set()
        exceptional_here = 0
        for t in reflections:
            number = orbit_of.get(_conjugate(p, t.entries))
            if number is None:
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "error": "no verdict in the orbit table"})
                continue
            generated = orders[number] == group_order
            if generated == (n == 2 and q > 2 and t in normalizers):
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "generated": generated,
                                   "normalizing": t in normalizers})
            if not generated:
                exceptional_here += 1
                exceptional.append({"singer": c.to_text(), "reflection": t.to_text()})
        if exceptional_here != per_cycle_expected:
            violations.append({"singer": c.to_text(), "exceptional_count": exceptional_here,
                               "expected": per_cycle_expected})
    return {
        "theorem": "Singer cycle and non-normalizing reflection generate",
        "params": {"n": n, "q": q},
        "mode": "full" if full else "classes",
        "singer_classes": len(reps),
        "singer_cycles": singer_cycles,
        "singer_checked": len(singers),
        "reflections": len(reflections),
        "checked": len(singers) * len(reflections),
        "exceptional_per_cycle": per_cycle_expected,
        "exceptional_pairs_total": singer_cycles * per_cycle_expected,
        "exceptional_pairs": exceptional,
        "violations": violations,
    }


def gill_by_pair_lookup(n: int, field, orders_by_key: dict | None = None) -> dict:
    """verify_gill's report without elapsed_ms and generation_tests, with
    every pair (C_f, C_g) read from orbit_table at P C_f^-1 C_g P^-1, pair
    by pair, independent of groupgen's rows; the table reads
    orders_by_key, given or empty."""
    full = gl_order(n, field.q)
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    targets = list(enumerate_monic(n, field, nonzero_constant=True))
    c = companion(primitives[0])
    orbit_of, orders = orbit_table(c, enumerate_reflections(n, field),
                                   {} if orders_by_key is None else orders_by_key)
    conjugators = singer_conjugators(c)
    violations = []
    exceptional = []
    pairs = 0
    for f in primitives:
        cf = companion(f)
        powers = {(cf ** k).entries for k in range(field.q**n - 1)} if n == 2 else set()
        for g in targets:
            if g == f:
                continue
            cg = companion(g)
            pairs += 1
            if fixed_space(cf @ cg.inverse()).dim != n - 1:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "fix-dimension side condition failed"})
            number = orbit_of.get(_conjugate(conjugators[f], (cf.inverse() @ cg).entries))
            if number is None:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "no verdict in the orbit table"})
                continue
            order = orders[number]
            generated = order == full
            expected_fail = n == 2 and field.q > 2 and (cg @ cf @ cg.inverse()).entries in powers
            if not generated:
                exceptional.append({"f": f.to_text(), "g": g.to_text(), "order": order})
            if generated == expected_fail:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "generated": generated, "in_normalizer": expected_fail})
    exceptional.sort(key=lambda e: (e["f"], e["g"]))
    return {
        "theorem": "companion matrices of primitive + nonzero-constant polynomials generate",
        "params": {"n": n, "q": field.q},
        "primitive_polynomials": len(primitives),
        "checked": pairs,
        "exceptional_pairs": exceptional,
        "violations": violations,
    }


def unreduced_singer_equivalence_report(n: int, field) -> dict:
    """singer_equivalence_report from the public per-element oracles: every
    element's order, orbit walk and subspace scan computed afresh, with no
    sharing across its cyclic subgroup."""
    checked = 0
    singer_count = 0
    irreducible_count = 0
    violations = []
    for g in enumerate_gl(n, field):
        sc = singer_oracles(g)
        ic = irreducible_conditions(g)
        if not sc.consistent or not ic.consistent:
            violations.append({"matrix": g.to_text(),
                               "singer": sc.as_tuple(), "irreducible": ic.as_tuple()})
        checked += 1
        singer_count += sc.order_full
        irreducible_count += ic.char_poly_irreducible
    return {
        "n": n,
        "q": field.q,
        "checked": checked,
        "singer_cycles": singer_count,
        "irreducible_elements": irreducible_count,
        "violations": violations,
    }


def without_counters(report: dict) -> dict:
    """A report without its wall time and its generation-test count."""
    return {k: v for k, v in report.items() if k not in ("elapsed_ms", "generation_tests")}


def main1_by_element(n: int, field, seed: int = 0) -> dict:
    """Oracle: verify_main1's report without elapsed_ms and generation_tests,
    with every element searched on its own and none read from its class: a
    Singer element's first non-generating factorization is its own
    singer_failure, and every other element runs its own witness search.
    The spot checks draw the same elements and classify them alike."""
    cache = _GenerationCache(n, field.q)
    elements = list(enumerate_gl(n, field))
    singer_count = 0
    witness_kinds = {"reducible": 0, "irreducible_proper_det": 0, "irreducible_full_det": 0}
    violations = []
    sample = []
    for g in elements:
        f = char_poly(g)
        if is_primitive_poly(f):
            singer_count += 1
            fl = cache.singer_failure(g, f)
            if fl is not None:
                violations.append({"matrix": g.to_text(), "is_singer": True,
                                   "non_generating": fl.serialize()})
            continue
        kind, fl = _witness_for_non_singer(g, f, cache)
        if fl is None:
            violations.append({"matrix": g.to_text(), "is_singer": False,
                               "error": "no non-generating witness found"})
            continue
        witness_kinds[kind] += 1
        if len(sample) < 3:
            sample.append({"matrix": g.to_text(), "kind": kind, "witness": fl.serialize()})
    rng = random.Random(seed)
    spot_results = []
    for _ in range(min(SPOT_CHECKS, len(elements))):
        g = rng.choice(elements)
        h = rng.choice(elements)
        spot_results.append(classify_qc(h @ g @ h.inverse(), cache) == classify_qc(g, cache))
    if not all(spot_results):
        violations.append({"spot_check": "classification not conjugation invariant"})
    return {
        "theorem": "strong quasi-Coxeter iff Singer",
        "params": {"n": n, "q": field.q},
        "mode": "full",
        "checked": len(elements),
        "singer_cycles": singer_count,
        "witnesses": witness_kinds,
        "witness_samples": sample,
        "conjugation_spot_checks": len(spot_results),
        "violations": violations,
    }

import functools
import gc
import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singerlab import (BudgetExceededError, Matrix, Poly, classify_qc,
                       companion, enumerate_gl, enumerate_minimal_factorizations,
                       enumerate_monic, enumerate_reflections, enumerate_subspaces,
                       factorizations_in_det_subgroup, field_model, find_primitive_poly,
                       generates_full, gl_order, group_closure, is_irreducible,
                       is_primitive_poly, is_singer, make_field,
                       minimal_factorization, normalizer_of_cyclic, normalizer_reflection,
                       reflection_length, verify_gill, verify_main1, verify_main2)
from singerlab import fixed_space, groupgen, matrix, poly, reflect, singer
from singerlab.groupgen import (NOT_WEAK, STRONG, WEAK_ONLY, conjugacy_classes,
                                reflection_distances, singer_class_count)
from singerlab.matrix import char_poly, mul_entries
from singerlab.reflect import reflection_from_params, reflection_params
from singerlab.singer import max_irreducible_order, normalizing_reflections

from conftest import (galois_key_count, gauss_irreducible_count, generator_minpolys_by_walk,
                      gill_by_normalizer_scan, gill_by_pair_lookup, max_irreducible_order_by_scan,
                      main1_by_element, main2_by_pair_lookup, matrices_over, orbit_table, orbit_table_by_closures,
                      partner_keys_by_matrix, random_invertible, run_python,
                      singer_conjugators, square_shapes, trial_phi, unreduced_main2,
                      without_counters)


def test_gl_order_examples():
    assert gl_order(2, 3) == 48
    assert gl_order(2, 5) == 480
    assert gl_order(1, 7) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(4, 2) == 20160
    with pytest.raises(ValueError):
        gl_order(0, 3)


def test_group_closure_worked_examples(f3, f5):
    c = companion(Poly.from_text(f3, "2,1,1"))
    t = normalizer_reflection(c)
    tp = c**5 @ t @ c**-5
    assert group_closure([c, c @ tp]).order == 16
    t1 = Matrix.from_text(f5, "2,2;2,0")
    t2 = Matrix.from_text(f5, "0,2;4,3")
    assert group_closure([t1, t2]).order == 480
    d1 = Matrix.from_text(f5, "3,0;0,1")
    d2 = Matrix.from_text(f5, "1,0;0,4")
    closure = group_closure([d1, d2])
    assert closure.order == 8
    assert all(a @ b == b @ a for a in closure.elements for b in closure.elements)


def test_group_closure_generator_order_invariance(f3):
    c = companion(Poly.from_text(f3, "2,1,1"))
    t = normalizer_reflection(c)
    orders = {group_closure(gens).order
              for gens in ([c, t], [t, c], [c, t, c], [t, t, c])}
    assert orders == {16}


def test_group_closure_budget():
    # |GL_3(F_8)| = 115,379,712 > 10^8: every closure there is refused, the
    # cyclic subgroup of order 511 included
    f8 = make_field(2, 3)
    c = companion(find_primitive_poly(3, f8))
    t = Matrix.from_text(f8, "1,1,0;0,1,0;0,0,1")
    for gens in ([c], [c, t]):
        with pytest.raises(BudgetExceededError, match="115379712"):
            group_closure(gens)
    with pytest.raises(BudgetExceededError):
        generates_full([c, t])


@pytest.mark.parametrize("driver,n,p,k", [(verify_main2, 2, 97, 1), (verify_main2, 3, 2, 3),
                                          (verify_gill, 4, 11, 1)])
def test_driver_budget_guards_come_first(monkeypatch, driver, n, p, k):
    # main2 on GL_2(F_97) sweeps 1344 classes x 912,478 reflections; main2 on
    # GL_3(F_8) and gill on GL_4(F_11) need closures in groups of order above
    # 10^8.  All are refused before the model of F_(q^n) that lists their
    # primitive polynomials is built, and before any polynomial is tested
    # for primitivity.
    calls = []
    primitive, model = poly.is_primitive_poly, groupgen.field_model
    monkeypatch.setattr(poly, "is_primitive_poly", lambda f: calls.append(f) or primitive(f))
    monkeypatch.setattr(groupgen, "field_model", lambda *args: calls.append(args) or model(*args))
    with pytest.raises(BudgetExceededError):
        driver(n, make_field(p, k))
    assert calls == []


def _refuse_work(*args, **kwargs):
    raise AssertionError("the work started before the budget guard")


@pytest.mark.parametrize("guard,size,work", [
    pytest.param(lambda: next(enumerate_gl(3, make_field(2, 3))), 8**9, (Matrix, "_raw"),
                 id="enumerate_gl-GL3F8"),
    pytest.param(lambda: next(enumerate_subspaces(12, make_field(2), 6)), 2**36,
                 (matrix, "Subspace"), id="enumerate_subspaces-F2^12"),
    pytest.param(lambda: enumerate_reflections(4, make_field(11)), 11**8,
                 (reflect, "reflection_from_params"), id="enumerate_reflections-GL4F11"),
    pytest.param(lambda: group_closure([companion(find_primitive_poly(3, make_field(2, 3)))]),
                 115379712, (groupgen, "_permutation"), id="closure-GL3F8"),
    pytest.param(lambda: reflection_distances(5, make_field(2)), 4649702400,
                 (groupgen, "enumerate_reflections"), id="length-oracle-GL5F2"),
    pytest.param(lambda: verify_main2(2, make_field(97)), 1344 * 912478,
                 (groupgen, "field_model"), id="main2-sweep-GL2F97"),
])
def test_closed_form_guards_name_their_size_before_work(monkeypatch, guard, size, work):
    # each of the six closed-form guards raises before the first step of its
    # work, and its message names the size it refused
    monkeypatch.setattr(*work, _refuse_work)
    with pytest.raises(BudgetExceededError, match=f"needs {size} .*over the budget of 100000000"):
        guard()


def test_generation_below_budget():
    # |GL_2(F_97)| = 87,607,296 is within the budget: the pair is decided
    f97 = make_field(97)
    c = companion(find_primitive_poly(2, f97))
    t = Matrix.from_text(f97, "1,1;0,1")
    assert generates_full([c, t])


def test_group_closure_rejects(f3, f5):
    with pytest.raises(ValueError):
        group_closure([])
    with pytest.raises(ZeroDivisionError):
        group_closure([Matrix(f3, 2, [1, 0, 0, 0])])
    with pytest.raises(ValueError):
        group_closure([Matrix.identity(f3, 2), Matrix.identity(f5, 2)])


def test_closure_lagrange_stop(f2, f5):
    # a walk past |G|/2 ends early with the exact order and a complete set
    t1 = Matrix.from_text(f5, "2,2;2,0")
    t2 = Matrix.from_text(f5, "0,2;4,3")
    result = group_closure([t1, t2])
    assert result.order == 480
    assert len(result.elements) == 480
    ident = Matrix.identity(f2, 1)
    trivial = group_closure([ident])
    assert trivial.order == 1
    assert trivial.elements == {ident} and generates_full([ident])
    # GL_2(F_2) has order 6; a Singer cycle closes at exactly |G|/2
    c = companion(find_primitive_poly(2, f2))
    assert group_closure([c]).order == 3 and not generates_full([c])
    whole = group_closure([c, enumerate_reflections(2, f2)[0]])
    assert whole.order == 6 and whole.elements == set(enumerate_gl(2, f2))


def _sparse_rows(g):
    """For each row i of g, the pairs (k * n, g[i, k]) with g[i, k] != 0."""
    n = g.n
    return [[(k * n, g[i, k]) for k in range(n) if g[i, k]] for i in range(n)]


def _left_product(rows, a, n, field):
    """g a on flat entry tuples, where rows = _sparse_rows(g): row i of g a
    is the combination of the rows of a that rows[i] lists."""
    out = []
    for row in rows:
        if len(row) == 1 and row[0][1] == 1:
            start = row[0][0]
            out.extend(a[start:start + n])
        elif field.k == 1:
            p = field.p
            parts = [a[s:s + n] if c == 1 else [c * x for x in a[s:s + n]] for s, c in row]
            out.extend([sum(column) % p for column in zip(*parts)])
        else:
            acc = [0] * n
            for s, c in row:
                for j in range(n):
                    acc[j] = field.add(acc[j], field.mul(c, a[s + j]))
            out.extend(acc)
    return tuple(out)


def _matrix_product_bfs(gens):
    """Reference closure: BFS over sparse flat matrix products."""
    n, field = gens[0].n, gens[0].field
    sparse = [_sparse_rows(g) for g in gens]
    ident = Matrix.identity(field, n).entries
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for rows in sparse:
                b = _left_product(rows, a, n, field)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def test_left_product_matches_mul_entries():
    rng = random.Random(5)
    for n, field in ((2, make_field(2, 3)), (3, make_field(5)), (4, make_field(2))):
        for _ in range(30):
            g, a = random_invertible(n, field, rng), random_invertible(n, field, rng)
            assert (_left_product(_sparse_rows(g), a.entries, n, field)
                    == mul_entries(g.entries, a.entries, n, field))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_closure_matches_matrix_product_bfs(n, p, k):
    field = make_field(p, k)
    q = field.q
    c = companion(find_primitive_poly(n, field))
    cyclic = group_closure([c])
    norm = normalizer_of_cyclic(c)
    h = min((m for m in norm.elements if m not in cyclic), key=lambda m: m.entries)
    t = min((t for t in enumerate_reflections(n, field) if t not in norm),
            key=lambda m: m.entries)
    # cyclic, the non-abelian normalizer of <c>, and the whole group
    for gens, size in (([c], q**n - 1), ([c, h], n * (q**n - 1)),
                       ([c, t], gl_order(n, q))):
        expected = _matrix_product_bfs(gens)
        assert len(expected) == size
        closure = group_closure(gens)
        assert closure.order == size and {m.entries for m in closure.elements} == expected


def _singer_companions(n, field):
    """One Singer cycle per class: C_f for each primitive f the model lists."""
    return [companion(f) for f in field_model(n, field).primitives]


def _main2_pairs(n, field, sample=None):
    pairs = [[c, t] for c in _singer_companions(n, field)
             for t in enumerate_reflections(n, field)]
    return pairs if sample is None else random.Random(2407).sample(pairs, sample)


def _assert_closure_is_bfs(gens):
    closure = group_closure(gens)
    expected = _matrix_product_bfs(gens)
    assert closure.order == len(expected) and {m.entries for m in closure.elements} == expected
    return closure.order


@pytest.mark.parametrize("n,p,k,sample", [(2, 3, 1, None), (2, 2, 2, None), (2, 5, 1, None),
                                          (3, 2, 1, None), (3, 3, 1, 20), (4, 2, 1, 20)])
def test_schreier_sims_matches_bfs_on_main2_pairs(n, p, k, sample):
    for gens in _main2_pairs(n, make_field(p, k), sample):
        _assert_closure_is_bfs(gens)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_schreier_sims_matches_bfs_on_random_pairs(n, p):
    # random pairs generate proper subgroups of many orders as well
    field = make_field(p)
    rng = random.Random(4)
    orders = set()
    for _ in range(50):
        gens = [random_invertible(n, field, rng), random_invertible(n, field, rng)]
        orders.add(_assert_closure_is_bfs(gens))
    assert len(orders) >= 4 and gl_order(n, p) in orders


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_shapes(max_gl_order=12_000).flatmap(
    lambda shape: st.lists(matrices_over(*shape, invertible=True), min_size=2, max_size=2)))
def test_schreier_sims_matches_bfs_property(gens):
    # the bound keeps the reference BFS small: GL_3(F_3) has 11,232 elements
    _assert_closure_is_bfs(gens)


@pytest.mark.parametrize("p", [2, 3])
def test_schreier_sims_matches_bfs_on_torus_and_borel(p):
    field = make_field(p)
    a = p - 1  # generates F_p^x for p = 2, 3
    torus = [Matrix.from_rows(field, [[a if i == j == d else int(i == j) for j in range(3)]
                                      for i in range(3)]) for d in range(3)]
    unipotent = [Matrix.from_text(field, "1,1,0;0,1,0;0,0,1"),
                 Matrix.from_text(field, "1,0,0;0,1,1;0,0,1")]
    for gens, order in ((torus, (p - 1) ** 3), (torus + unipotent, (p - 1) ** 3 * p**3)):
        assert _assert_closure_is_bfs(gens) == order


def test_closures_leave_no_cyclic_garbage():
    field = make_field(7)
    c = companion(find_primitive_poly(2, field))
    normalizing = normalizing_reflections(c)
    pairs = [[c, t] for t in enumerate_reflections(2, field) if t not in normalizing][:5]
    pairs.append([c, normalizing[0]])
    gc.disable()
    try:
        gc.collect()
        verdicts = [generates_full(gens) for gens in pairs]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdicts == [True] * 5 + [False]


def _sympy_order(combinatorics, gens):
    n, field = gens[0].n, gens[0].field
    vectors = list(itertools.product(range(field.q), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    perms = [combinatorics.Permutation([index[g.apply(v)] for v in vectors])
             for g in gens]
    return combinatorics.PermutationGroup(perms).order()


@pytest.mark.parametrize("n,p,k,sample", [(2, 2, 2, None), (3, 3, 1, 12), (2, 3, 2, 12),
                                          (4, 2, 1, 12), (5, 2, 1, 12)])
def test_closure_orders_match_sympy(n, p, k, sample):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for gens in _main2_pairs(n, make_field(p, k), sample):
        assert group_closure(gens).order == _sympy_order(combinatorics, gens)


@pytest.mark.parametrize("n", [4, 5])
def test_random_closure_orders_match_sympy(n):
    # beyond the reach of element-by-element closure for n = 5
    combinatorics = pytest.importorskip("sympy.combinatorics")
    field = make_field(2)
    rng = random.Random(5)
    for _ in range(12):
        gens = [random_invertible(n, field, rng), random_invertible(n, field, rng)]
        assert group_closure(gens).order == _sympy_order(combinatorics, gens)


@pytest.mark.parametrize("n,p,sample", [(6, 2, None), (5, 3, 4)])
def test_key_orders_match_sympy_over_the_budget(monkeypatch, n, p, sample):
    # an order oracle independent of the engine, on main2's keys where
    # |GL_n(F_q)| is over the budget: for one partner g per key, |<C_f, C_g>|
    # against sympy's order of the same two permutations of F_q^n
    combinatorics = pytest.importorskip("sympy.combinatorics")
    monkeypatch.setattr(matrix, "ENUMERATION_BUDGET", gl_order(n, p))
    field = make_field(p)
    model = field_model(n, field)
    partner = {}
    for f in model.primitives:
        for g, key_id in groupgen._partner_keys(model, f):
            partner.setdefault(key_id, (f, g))
    assert len(partner) == galois_key_count(n, p)
    pairs = [partner[key_id] for key_id in sorted(partner)]
    for f, g in pairs if sample is None else random.Random(2407).sample(pairs, sample):
        gens = [companion(f), companion(g)]
        perms = [combinatorics.Permutation(list(groupgen._permutation(m))) for m in gens]
        assert group_closure(gens).order == combinatorics.PermutationGroup(perms).order()


def test_closures_need_no_numpy():
    result = run_python("""
import sys
import singerlab.cli
from singerlab import (companion, enumerate_reflections, find_primitive_poly,
                       generates_full, make_field)
for field in (make_field(3), make_field(2, 2)):
    c = companion(find_primitive_poly(2, field))
    generates_full([c, enumerate_reflections(2, field)[0]])
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported")
""")
    assert result.returncode == 0, result.stdout + result.stderr


def test_generates_full_examples(f3):
    c = companion(Poly.from_text(f3, "2,1,1"))
    t = normalizer_reflection(c)
    powers = {c**j for j in range(1, 9)}
    non_normalizing = next(s for s in enumerate_reflections(2, f3)
                           if s @ c @ s.inverse() not in powers)
    assert generates_full([c, non_normalizing])
    assert not generates_full([c, t])


def test_normalizer_examples(f2, f3, f5):
    c3 = companion(Poly.from_text(f3, "2,1,1"))
    norm = normalizer_of_cyclic(c3)
    assert norm.order == 16
    tp = c3**5 @ normalizer_reflection(c3) @ c3**-5
    assert norm.elements == group_closure([c3, c3 @ tp]).elements
    c5 = companion(find_primitive_poly(2, f5))
    assert normalizer_of_cyclic(c5).order == 48 == 2 * (5**2 - 1)
    # no reflection normalizes a Singer cycle for n = 3
    c2 = companion(find_primitive_poly(3, f2))
    norm2 = normalizer_of_cyclic(c2)
    assert not any(t in norm2 for t in enumerate_reflections(3, f2))
    assert norm2.order == 3 * (2**3 - 1)  # n(q^n - 1), brute-forced only


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)])
def test_normalizer_closure_normal_form(p, k):
    # <t, c> attains order 2(q^2-1) and every element is t^i c^j
    field = make_field(p, k)
    q = field.q
    c = companion(find_primitive_poly(2, field))
    t = normalizer_reflection(c)
    closure = group_closure([c, t])
    assert closure.order == 2 * (q**2 - 1)
    normal_forms = set()
    ci = Matrix.identity(field, 2)
    for _ in range(q**2 - 1):
        ci = ci @ c
        normal_forms.add(ci)
        normal_forms.add(t @ ci)
    assert closure.elements == normal_forms
    if q > 2:
        assert closure.order < gl_order(2, q)  # proper subgroup


def test_classify_examples(f3, f5):
    assert classify_qc(companion(Poly.from_text(f3, "2,1,1"))) == STRONG
    assert classify_qc(Matrix.from_text(f5, "3,0;0,4")) == WEAK_ONLY
    assert classify_qc(Matrix.identity(f3, 2)) == NOT_WEAK


def test_generation_cache_holds_the_empty_set_verdict(f2):
    # the empty factor set generates the trivial group: all of GL_1(F_2),
    # a proper subgroup of GL_2(F_2)
    assert groupgen._GenerationCache(1, 2).generates(())
    assert not groupgen._GenerationCache(2, 2).generates(())
    assert classify_qc(Matrix.identity(f2, 1)) == STRONG
    assert classify_qc(Matrix.identity(f2, 2)) == NOT_WEAK
    one, two = verify_main1(1, f2), verify_main1(2, f2)
    assert (one["checked"], one["singer_cycles"], one["witness_samples"]) == (1, 1, [])
    assert (two["checked"], two["singer_cycles"], two["witnesses"]["reducible"]) == (6, 2, 4)
    assert {"matrix": "1,0;0,1", "kind": "reducible",
            "witness": {"factors": [], "product": "1,0;0,1"}} in two["witness_samples"]
    assert one["violations"] == two["violations"] == []


def test_classify_constant_on_conjugacy_classes(f3):
    rng = random.Random(19)
    gl = list(enumerate_gl(2, f3))
    for _ in range(10):
        g = rng.choice(gl)
        h = rng.choice(gl)
        assert classify_qc(h @ g @ h.inverse()) == classify_qc(g)


def test_conjugacy_classes_partition(f3):
    classes = conjugacy_classes(2, f3)
    assert sum(size for _, size in classes) == 48
    assert len(classes) == 8  # q^2 - 1 classes for GL_2


def test_model_primitives_count_the_singer_classes(f3, f5):
    assert len(field_model(2, f3).primitives) == 2
    assert len(field_model(2, f5).primitives) == 4
    for n, p, k in ((1, 7, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (3, 3, 1), (4, 2, 1)):
        q = p**k
        count = singer_class_count(n, q)
        assert count == trial_phi(q**n - 1) // n
        assert count == len(field_model(n, make_field(p, k)).primitives)


def test_verify_main1_small_instances(f2, f3):
    report = verify_main1(1, make_field(3))
    assert report["violations"] == []
    assert report["singer_cycles"] == 1  # only the primitive scalar 2
    report = verify_main1(2, f2)
    assert report["violations"] == []
    assert report["checked"] == 6 and report["singer_cycles"] == 2
    report = verify_main1(2, f3)
    assert report["violations"] == []
    assert report["witnesses"]["reducible"] == 30
    assert report["witnesses"]["irreducible_proper_det"] == 6


def test_verify_main1_fixed_space_memo_counters(f3, monkeypatch):
    # one elimination per distinct matrix: a lost memo fails here, not as a slow run
    memo = matrix._fixed_space_of_entries
    memo.cache_clear()
    seen = []

    def recorded(a):
        seen.append((a.field, a.n, a.entries))
        return fixed_space(a)

    for module in (matrix, reflect, groupgen, singer):
        monkeypatch.setattr(module, "fixed_space", recorded)
    assert verify_main1(2, f3)["violations"] == []
    info = memo.cache_info()
    # the non-Singer elements with a cyclic basis read their class's
    # witness, so only C_f, the fallback elements and the samples search;
    # the walk of the proper orbits eliminates nothing, as it carries each
    # member as its (phi, w)
    assert info.misses == len(set(seen)) == 23
    assert info.hits == len(seen) - info.misses == 24


def test_verify_main1_keeps_no_list_of_the_group():
    # full mode walks enumerate_gl lazily and keeps only the elements its
    # spot checks draw; a list of GL_2(F_7)'s 2016 elements took the warm
    # peak to 0.54 MB
    f7 = make_field(7)
    verify_main1(2, f7)  # the memos are warm for the measured call
    tracemalloc.start()
    try:
        assert verify_main1(2, f7)["checked"] == 2016
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300_000


@pytest.mark.parametrize("n,p,k", [(2, 2, 2), (3, 2, 1)])
def test_verify_main1_one_char_poly_per_element(monkeypatch, n, p, k):
    # the main loop decides Singer and the witness kind from one
    # characteristic polynomial per element; each classify_qc of the spot
    # checks decides is_singer from one of its own; the model of F_(q^n),
    # built afresh, lists the irreducible f with one each; and the rows of the Singer
    # classes run none: they key each partner by the coset-leader id of its
    # Frobenius orbit of orbit sums gamma; all counted apart, and no other
    # char_poly runs
    calls = {"main": 0, "spot": 0, "classify_qc": 0, "model": 0, "key": 0, "partners": 0}
    key_ids = set()
    context = []  # the innermost of the spot check, the row and the model being run

    def counted_char_poly(a, _fn=char_poly):
        calls[context[-1] if context else "main"] += 1
        return _fn(a)

    def within(name, fn):
        def run(*args):
            context.append(name)
            try:
                return fn(*args)
            finally:
                context.pop()
        return run

    def counted_partner_keys(model, f, _fn=groupgen._partner_keys):
        keys = list(_fn(model, f))
        calls["partners"] += len(keys)
        key_ids.update(key_id for _, key_id in keys)
        return keys

    def counted_classify_qc(g, cache=None, _fn=within("spot", classify_qc)):
        calls["classify_qc"] += 1
        return _fn(g, cache)

    field_model.cache_clear()
    for module in (matrix, groupgen, singer):
        monkeypatch.setattr(module, "char_poly", counted_char_poly)
    monkeypatch.setattr(groupgen, "classify_qc", counted_classify_qc)
    monkeypatch.setattr(groupgen, "_partner_keys", counted_partner_keys)
    monkeypatch.setattr(groupgen, "field_model", within("model", field_model))
    monkeypatch.setattr(groupgen._GenerationCache, "row",
                        within("key", groupgen._GenerationCache.row))
    report = verify_main1(n, make_field(p, k))
    q = p**k
    assert report["mode"] == "full" and report["violations"] == []
    assert calls["main"] == report["checked"] == gl_order(n, q)
    assert calls["classify_qc"] == 2 * report["conjugation_spot_checks"] > 0
    assert calls["spot"] == calls["classify_qc"]
    assert calls["model"] == gauss_irreducible_count(n, q)
    assert calls["key"] == 0 and len(key_ids) == galois_key_count(n, p, k)
    assert calls["partners"] == singer_class_count(n, q) * (q ** (n - 1) * (q - 1) - 1)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)])
def test_main1_per_element_check_matches_classify_qc(n, p, k):
    # oracle: the full classification of every element, and for the
    # irreducible witnesses the eager determinant-restricted list
    field = make_field(p, k)
    cache = groupgen._GenerationCache(n, field.q)
    lazy = 0
    for g in enumerate_gl(n, field):
        strong = classify_qc(g, cache) == STRONG
        if is_singer(g):
            assert strong == (cache.first_non_generating(
                enumerate_minimal_factorizations(g)) is None)
            continue
        kind, fl = groupgen._witness_for_non_singer(g, char_poly(g), cache)
        assert fl is not None and not strong
        assert fl.product == g and len(fl) == reflection_length(g)
        assert not cache.generates(fl.factors)
        if kind != "reducible":
            eager = factorizations_in_det_subgroup(g, g.det())
            assert fl == next(e for e in eager if not cache.generates(e.factors))
            lazy += 1
    # 2^3 - 1 is prime, so every irreducible element of GL_3(F_2) is Singer
    assert lazy > 0 or (n, field.q) == (3, 2)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)])
def test_main1_singer_tables_and_witness_certificates_match_brute_force(n, p, k):
    # oracle: generates_full on every minimal factorization of every Singer
    # cycle, on every pair of a Singer cycle and a reflection, and on every
    # witness, with no cache and no row; the empty factor set of the
    # identity generates the trivial group
    field = make_field(p, k)

    def generates(factors):
        return generates_full(factors) if factors else gl_order(n, field.q) == 1

    cache = groupgen._GenerationCache(n, field.q)
    reflections = enumerate_reflections(n, field)
    certified = 0
    for g in enumerate_gl(n, field):
        f = char_poly(g)
        if is_primitive_poly(f):
            listed = list(enumerate_minimal_factorizations(g))
            failing = [fl for fl in listed if not generates(fl.factors)]
            assert cache.singer_failure(g, f) == next(iter(failing), None)
            assert (cache.singer_failure(g, f) is None) == all(generates(fl.factors)
                                                              for fl in listed)
            # the row of f, read through g's cyclic basis: the pairs of g
            # that do not generate, labelled by <g>-orbit
            p = singer._cyclic_basis(g, companion(f))
            read = groupgen._through_basis(p, cache.proper_members(f))
            assert {x for x, _ in read} == {reflection_params(t) for t in reflections
                                            if not generates([g, t])}
            members = {}
            for x, number in read:
                members.setdefault(number, set()).add(reflection_from_params(field, *x))
            assert all(orbit == _conjugation_orbit(g, next(iter(orbit)))
                       for orbit in members.values())
            continue
        closures = cache.closures
        kind, fl = groupgen._witness_for_non_singer(g, char_poly(g), cache)
        assert fl.product == g and len(fl) == reflection_length(g)
        assert not generates(fl.factors)
        if kind != "irreducible_full_det":  # certified by the subgroup it stays in
            assert cache.closures == closures
            certified += 1
    assert certified > 0


def test_main1_reports_missing_witnesses_and_non_generating_singers(f3, monkeypatch):
    # no witness certificate holds and every factor set generates: no
    # non-Singer element has a witness
    monkeypatch.setattr(groupgen, "_stabilize_all", lambda factors, w: False)
    monkeypatch.setattr(groupgen, "_dets_within", lambda factors, x: False)
    monkeypatch.setattr(groupgen._GenerationCache, "generates", lambda self, factors: True)
    report = verify_main1(2, f3)
    assert (report["checked"], report["singer_cycles"]) == (48, 12)
    assert sum(report["witnesses"].values()) == 0
    assert len(report["violations"]) == 36
    assert all(v["is_singer"] is False and v["error"] == "no non-generating witness found"
               for v in report["violations"])
    monkeypatch.undo()
    # every entry of every Singer class's row is proper and no factor set
    # generates: each Singer element reports its first factorization
    row = groupgen._GenerationCache.row

    def all_orbits_proper(self, f):
        return dict.fromkeys(row(self, f), 1)

    monkeypatch.setattr(groupgen._GenerationCache, "row", all_orbits_proper)
    monkeypatch.setattr(groupgen._GenerationCache, "generates", lambda self, factors: False)
    report = verify_main1(2, f3)
    assert sum(report["witnesses"].values()) == 36
    assert len(report["violations"]) == 12
    for v in report["violations"]:
        assert v["is_singer"] is True
        g = Matrix.from_text(f3, v["matrix"])
        assert is_singer(g)
        assert v["non_generating"] == minimal_factorization(g).serialize()


def _identity_cyclic_bases(monkeypatch, field, n, which=lambda g: True):
    """Make the cyclic basis of every g that which(g) picks the identity,
    which is no P with P^-1 g P = C_f unless g is a companion matrix."""
    real = singer._krylov_basis
    monkeypatch.setattr(singer, "_krylov_basis",
                        lambda g: Matrix.identity(field, n) if which(g) else real(g))


def test_main1_checks_each_singer_conjugator(f3, monkeypatch):
    # a Singer element reads its class's verdict only through a checked
    # P^-1 g P = C_f; without spot checks, whose Singer cycles read their
    # class's row through their own, only the main loop's check can fail
    _identity_cyclic_bases(monkeypatch, f3, 2, which=is_singer)
    monkeypatch.setattr(groupgen, "SPOT_CHECKS", 0)
    with pytest.raises(AssertionError, match="does not conjugate g to C_f"):
        verify_main1(2, f3)


def test_main1_checks_each_non_singer_cyclic_basis(f3, monkeypatch):
    # a non-Singer element reads its class's witness verdict only through a
    # checked P^-1 g P = C_f too: identity bases for the non-Singer elements
    # alone, with no spot checks, fail in the main loop
    _identity_cyclic_bases(monkeypatch, f3, 2, which=lambda g: not is_singer(g))
    monkeypatch.setattr(groupgen, "SPOT_CHECKS", 0)
    with pytest.raises(AssertionError, match="does not conjugate g to C_f"):
        verify_main1(2, f3)


@pytest.mark.parametrize("n,p,searches,fallbacks", [(2, 5, 35, 16), (3, 2, 31, 28)])
def test_main1_runs_one_witness_search_per_class(monkeypatch, n, p, searches, fallbacks):
    # seed 0: a non-Singer element with a cyclic basis reads its class's
    # witness verdict, searched once on C_f.  Only the elements with no
    # standard cyclic vector and the three samples search their own; on
    # GL_2 those elements are the diagonal ones, scalars among them.  One
    # search per element ran 400 on GL_2(F_5) and 120 on GL_3(F_2)
    field = make_field(p)
    searched = []
    real = groupgen._witness_for_non_singer
    monkeypatch.setattr(groupgen, "_witness_for_non_singer",
                        lambda g, f, cache: searched.append(g) or real(g, f, cache))
    report = verify_main1(n, field)
    assert report["violations"] == [] and len(searched) == searches
    no_basis = {g for g in enumerate_gl(n, field) if singer._krylov_basis(g) is None}
    assert len(no_basis) == fallbacks
    if n == 2:
        assert no_basis == {g for g in enumerate_gl(n, field) if g.entries[1] == g.entries[2] == 0}
    own = {g for g in searched if g != companion(char_poly(g))}
    samples = {Matrix.from_text(field, s["matrix"]) for s in report["witness_samples"]}
    assert own == no_basis | (samples - {companion(char_poly(g)) for g in samples})


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)])
def test_main1_class_verdicts_match_each_elements_own_search(n, p, k):
    # oracle: every non-Singer element's own witness search has the kind
    # and the found-flag of C_f's, and main1's reports, in both modes, equal
    # those of a sweep where every element searches its own
    field = make_field(p, k)
    cache = groupgen._GenerationCache(n, field.q)
    verdicts = {}
    for g in enumerate_gl(n, field):
        f = char_poly(g)
        if is_primitive_poly(f):
            continue
        if f not in verdicts:
            kind, fl = groupgen._witness_for_non_singer(companion(f), f, cache)
            verdicts[f] = kind, fl is not None
        kind, fl = groupgen._witness_for_non_singer(g, f, cache)
        assert (kind, fl is not None) == verdicts[f]
    for classes in (False, True):
        assert (without_counters(verify_main1(n, field, classes=classes))
                == main1_by_element(n, field, classes=classes))


def test_main2_full_and_classify_qc_check_each_cyclic_basis(f3, monkeypatch):
    # classify_qc reads a Singer cycle's class row only through a checked
    # P_c^-1 c P_c = C_f; a companion matrix has P_c = I.  main2 derives no
    # basis from a cycle: it lists each one as P C_f P^-1 from its P, so
    # identity bases leave it unchanged (its census check is tested apart)
    _identity_cyclic_bases(monkeypatch, f3, 2)
    assert verify_main2(2, f3, full=True)["violations"] == []
    assert verify_main2(2, f3)["violations"] == []
    g = next(g for g in enumerate_gl(2, f3) if is_singer(g) and g != companion(char_poly(g)))
    assert classify_qc(companion(char_poly(g))) == STRONG
    with pytest.raises(AssertionError, match="does not conjugate"):
        classify_qc(g)


def test_main1_generation_tests_pinned(f2, f3, f4, f5):
    # seed 0: the closures main1's cache runs, the same on a second run with
    # every module memo warm; a lost reduction fails here, not as a slow run.
    # The rows of all Singer classes share one closure per key, one per
    # Frobenius orbit of orbit sums gamma; the rest are the
    # irreducible_full_det witnesses' and the spot checks'.
    keys = {(2, 3): 3, (2, 4): 7, (2, 5): 11, (3, 2): 1}
    assert keys == {(n, p**k): galois_key_count(n, p, k)
                    for n, p, k in [(2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)]}
    assert verify_main1(2, f3)["generation_tests"] == keys[2, 3] + 3 == 6
    assert verify_main1(2, f3)["generation_tests"] == 6
    assert verify_main1(2, f4)["generation_tests"] == keys[2, 4] + 36 == 43
    assert verify_main1(2, f5)["generation_tests"] == keys[2, 5] + 15 == 26
    assert verify_main1(3, f2)["generation_tests"] == keys[3, 2] == 1


def test_verify_main1_classes_mode_agrees(f3):
    full = verify_main1(2, f3)
    reduced = verify_main1(2, f3, classes=True)
    assert reduced["violations"] == []
    assert reduced["checked"] == full["checked"] == 48
    assert reduced["singer_cycles"] == full["singer_cycles"] == 12


def test_verify_main2_small_instances(f2, f3):
    report = verify_main2(2, f2)
    assert report["violations"] == []
    assert report["exceptional_per_cycle"] == 0  # q = 2 pairs still generate
    report = verify_main2(2, f3)
    assert report["violations"] == []
    assert report["exceptional_per_cycle"] == 4
    assert report["singer_cycles"] == 12
    report = verify_main2(3, f2)
    assert report["violations"] == []
    assert report["exceptional_per_cycle"] == 0


def test_verify_main2_full_mode_agrees(f3):
    classes = verify_main2(2, f3)
    full = verify_main2(2, f3, full=True)
    assert full["violations"] == []
    assert full["singer_checked"] == 12
    assert full["exceptional_per_cycle"] == classes["exceptional_per_cycle"]
    # observed total over every Singer cycle matches the census formula
    assert len(full["exceptional_pairs"]) == 12 * 4 == full["exceptional_pairs_total"]


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (2, 3, 2),
                                   (3, 2, 1), (3, 3, 1), (4, 2, 1)])
def test_main2_orbit_reduction_matches_unreduced_sweep(n, p, k):
    field = make_field(p, k)
    report = verify_main2(n, field)
    assert without_counters(report) == unreduced_main2(n, field)
    assert report["generation_tests"] == galois_key_count(n, p, k)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (3, 2, 1), (1, 5, 1), (2, 2, 1)])
def test_main2_full_mode_matches_unreduced_sweep(n, p, k):
    # n = 1 and q = 2 are the edge cases of listing the cycles by the first
    # column of their cyclic basis
    field = make_field(p, k)
    report = verify_main2(n, field, full=True)
    assert without_counters(report) == unreduced_main2(n, field, full=True)
    assert report["generation_tests"] == galois_key_count(n, p, k)  # one key dict for all


def test_main2_full_mode_matches_each_cycles_own_table():
    # beyond the brute-force instances: each of the 336 Singer cycles of
    # GL_2(F_7) reads its class's row through its cyclic basis, against its
    # own orbit table read pair by pair
    f7 = make_field(7)
    report = verify_main2(2, f7, full=True)
    assert report["singer_checked"] == 336 and report["violations"] == []
    assert without_counters(report) == main2_by_pair_lookup(2, f7, full=True, own_tables=True)


@pytest.mark.parametrize("tamper", [pytest.param(lambda bases: bases[1:], id="drop"),
                                    pytest.param(lambda bases: bases + bases[:1], id="repeat")])
def test_main2_full_checks_its_singer_census(f3, monkeypatch, tamper):
    # the listed cycles P C_f P^-1 must be distinct and as many as the
    # closed-form count; a block B of the bases [[1, u], [0, B]] dropped or
    # repeated by enumerate_gl(n - 1) fails
    real = groupgen.enumerate_gl
    monkeypatch.setattr(groupgen, "enumerate_gl",
                        lambda n, field: iter(tamper(list(real(n, field)))))
    with pytest.raises(AssertionError, match="Singer cycles, not 12 distinct ones"):
        verify_main2(2, f3, full=True)


def test_main2_full_lists_its_cycles_without_a_scan(monkeypatch):
    # GL_2(F_9): 16 Singer classes x 72 cyclic bases.  The only char_poly
    # calls list the 36 irreducible f in the model of F_81, built afresh,
    # 16 of them primitive; the rows key their 16 x 71 partners by the
    # coset-leader ids, 39 of them, with none; the only cyclic bases built are
    # normalizer_reflection's, one per class.  A scan of GL_2(F_9) would add
    # 5760 char_poly calls, and deriving each cycle's basis 1152
    calls = {"char_poly": 0, "_krylov_basis": 0}

    def counter(name, real):
        def counted(a):
            calls[name] += 1
            return real(a)
        return counted

    field_model.cache_clear()
    for module in (matrix, groupgen):  # the model reads matrix's, the rows groupgen's
        monkeypatch.setattr(module, "char_poly", counter("char_poly", groupgen.char_poly))
    monkeypatch.setattr(singer, "_krylov_basis", counter("_krylov_basis", singer._krylov_basis))
    report = verify_main2(2, make_field(3, 2), full=True)
    assert report["violations"] == [] and report["singer_checked"] == 16 * 72
    assert report["generation_tests"] == 39
    assert calls == {"char_poly": 36, "_krylov_basis": 16}
    assert galois_key_count(2, 3, 2) == 39 and gauss_irreducible_count(2, 9) == 36


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (2, 3)])
def test_main2_enumerates_no_reflections(monkeypatch, n, p):
    # main2 takes the count from reflection_count and orders the flagged
    # reflections of n = 2 by their reflection_params, in both modes
    calls = []
    real = groupgen.enumerate_reflections
    monkeypatch.setattr(groupgen, "enumerate_reflections",
                        lambda *args: calls.append(args) or real(*args))
    for full in (False, True):
        report = verify_main2(n, make_field(p), full=full)
        assert report["violations"] == [] and calls == []
        assert report["reflections"] == len(real(n, make_field(p)))


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2)])
def test_each_driver_call_walks_one_orbit_table(monkeypatch, n, p):
    # one row per Singer class, built once per call: main1's classes and
    # spot checks, main2's full mode and gill read every Singer cycle
    # through its class's row
    field = make_field(p)
    primitives = list(field_model(n, field).primitives)
    walked = []
    build = groupgen._partner_keys

    def counted(model, f):
        walked.append(f)
        return build(model, f)

    monkeypatch.setattr(groupgen, "_partner_keys", counted)
    for run in (lambda: verify_main1(n, field), lambda: verify_main1(n, field, classes=True),
                lambda: verify_main2(n, field), lambda: verify_main2(n, field, full=True),
                lambda: verify_gill(n, field)):
        assert run()["violations"] == []
        assert sorted(walked, key=primitives.index) == primitives
        walked.clear()


def test_main2_generation_tests_pinned(f3):
    # one row per Singer class: 8 classes on GL_2(F_7), 2 on GL_4(F_2), with
    # one closure per key shared by the rows; full mode's 12 cycles read them too
    assert verify_main2(2, make_field(7))["generation_tests"] == 23 == galois_key_count(2, 7)
    assert verify_main2(4, make_field(2))["generation_tests"] == 3 == galois_key_count(4, 2)
    assert verify_main2(2, f3, full=True)["generation_tests"] == 3 == galois_key_count(2, 3)


def test_main2_orbit_walk_checks_its_orbits(f3, monkeypatch):
    # the members of a row's proper orbits, as their (phi, w): the q + 1
    # normalizing reflections of C_f, and with every entry proper, every
    # reflection once, each orbit walked from its t_g = C_f^-1 C_g
    f = Poly.from_text(f3, "2,1,1")
    cf = companion(f)
    full = gl_order(2, 3)
    row = groupgen._GenerationCache(2, 3).row(f)
    members = groupgen._proper_orbits(f, row, full)
    assert {x for x, _ in members} == set(map(reflection_params, normalizing_reflections(cf)))
    reflections = enumerate_reflections(2, f3)
    every = groupgen._proper_orbits(f, dict.fromkeys(row, 1), full)
    assert sorted(x for x, _ in every) == sorted(map(reflection_params, reflections))
    assert {g for _, g in every} == row.keys()
    firsts = {}
    for x, g in every:
        firsts.setdefault(g, x)
    assert firsts == {g: reflection_params(cf.inverse() @ companion(g)) for g in row}

    class Alias:  # a second row entry for one partner: the same orbit, walked twice
        def __init__(self, g):
            self.coeffs = g.coeffs

    g = next(iter(row))
    with pytest.raises(AssertionError, match="met another orbit"):
        groupgen._proper_orbits(f, {Alias(g): 1, Alias(g): 1}, full)
    # C_f^2 splits each orbit in two
    build = groupgen.companion
    monkeypatch.setattr(groupgen, "companion",
                        lambda h: build(h) @ build(h) if h == f else build(h))
    with pytest.raises(AssertionError, match="members"):
        groupgen._proper_orbits(f, {Poly.from_text(f3, "1,1,1"): 1}, full)


_EVERY_SINGER_CYCLE = [pytest.param(2, 3, 1, id="GL2F3"), pytest.param(2, 2, 2, id="GL2F4"),
                       pytest.param(2, 5, 1, id="GL2F5"), pytest.param(3, 2, 1, id="GL3F2")]


@pytest.mark.parametrize("n,p,k,every_cycle",
                         [pytest.param(*case.values, True, id=case.id)
                          for case in _EVERY_SINGER_CYCLE]
                         + [pytest.param(2, 7, 1, False, id="GL2F7"),
                            pytest.param(2, 2, 3, False, id="GL2F8"),
                            pytest.param(3, 3, 1, False, id="GL3F3"),
                            pytest.param(4, 2, 1, False, id="GL4F2")])
def test_keyed_orbit_orders_match_one_closure_per_orbit(n, p, k, every_cycle):
    # one key dict serves every table of the group, as in a driver call;
    # each orbit's order equals its own closure's, orbit by orbit
    field = make_field(p, k)
    reflections = enumerate_reflections(n, field)
    singers = ([g for g in enumerate_gl(n, field) if is_singer(g)] if every_cycle
               else _singer_companions(n, field))
    orders_by_key = {}
    for c in singers:
        assert orbit_table(c, reflections, orders_by_key) == orbit_table_by_closures(c, reflections)
    assert len(orders_by_key) == galois_key_count(n, p, k)


@pytest.mark.parametrize("n,p,k", _EVERY_SINGER_CYCLE)
def test_singer_elements_share_their_class_verdict(n, p, k):
    # main1 reads a Singer element's verdict off its class, C_f = P^-1 g P
    field = make_field(p, k)
    q = field.q
    cache = groupgen._GenerationCache(n, q)
    classes = groupgen._GenerationCache(n, q)
    singers = [g for g in enumerate_gl(n, field) if is_singer(g)]
    assert len(singers) == singer_class_count(n, q) * gl_order(n, q) // (q**n - 1)
    for g in singers:
        f = char_poly(g)
        assert ((cache.singer_failure(g, f) is None)
                == (classes.singer_failure(companion(f), f) is None))


@pytest.mark.parametrize("n,p,k,keys", [(2, 3, 1, 3), (2, 2, 2, 7), (2, 5, 1, 11),
                                        (2, 7, 1, 23), (2, 2, 3, 31), (2, 3, 2, 39),
                                        (3, 2, 1, 1), (3, 3, 1, 7), (4, 2, 1, 3),
                                        (4, 3, 1, 15), (5, 2, 1, 3)])
def test_orbit_table_keys_count_the_frobenius_orbits(n, p, k, keys):
    # the keys of one row are the N(C)-orbits of reflections: Frobenius
    # orbits on {gamma != 0 : Tr gamma != -1} in F_(q^n), while the row has
    # q^(n-1)(q - 1) - 1 partners, one per orbit of <C_f>
    field = make_field(p, k)
    q = field.q
    cache = groupgen._GenerationCache(n, q)
    row = cache.row(field_model(n, field).primitives[0])
    assert len(row) == q ** (n - 1) * (q - 1) - 1
    assert cache.closures == galois_key_count(n, p, k) == keys


def test_orbit_table_checks_the_orbit_sum(f3):
    # the <c>-orbit of a non-reflection m with N = 4 members sums to a
    # gamma whose trace, N (tr m - 2), is not det m - 1
    c = _singer_companions(2, f3)[0]
    c_inverse = c.inverse()
    for m in enumerate_gl(2, f3):
        orbit = [m]
        while (x := c @ orbit[-1] @ c_inverse) != m:
            orbit.append(x)
        trace = f3.sub(f3.add(m[0, 0], m[1, 1]), 2)
        if len(orbit) == 4 and trace != f3.sub(m.det(), 1):
            break
    with pytest.raises(AssertionError, match="trace"):
        orbit_table(c, orbit, {})
    # the row's gamma read at a wrong root, alpha^j for the other primitive
    # polynomial's j, fails its trace check; the tampered model is a copy,
    # not the memoized one the drivers share, whose tables are read only
    f = char_poly(c)
    model = field_model(2, f3)
    with pytest.raises(TypeError):
        model.roots[f] = 0
    wrong_root = next(j for g, j in model.roots.items() if g != f)
    model = SimpleNamespace(**{**vars(model), "roots": {f: wrong_root}})
    with pytest.raises(AssertionError, match="trace"):
        list(groupgen._partner_keys(model, f))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (2, 2, 3),
                                   (2, 3, 2), (3, 2, 1), (3, 3, 1), (4, 2, 1)])
def test_row_keys_and_orders_match_the_orbit_walk(n, p, k):
    # oracle: for every primitive f and partner g, the char_poly and trace
    # of the sum of x - I over the walked <C_f>-orbit of t_g = C_f^-1 C_g,
    # against the char_poly of multiplication by alpha^id for g's key id,
    # and the order orbit_table gives that orbit
    field = make_field(p, k)
    cache = groupgen._GenerationCache(n, field.q)
    model = field_model(n, field)
    reflections = enumerate_reflections(n, field)
    orders_by_key = {}
    for c in _singer_companions(n, field):
        f = char_poly(c)
        keys = dict(groupgen._partner_keys(model, f))
        row = cache.row(f)
        assert list(keys) == list(row) == [g for g in enumerate_monic(n, field, nonzero_constant=True)
                                           if g != f]
        orbit_of, orders = orbit_table(c, reflections, orders_by_key)
        c_inverse = c.inverse()
        for g, key_id in keys.items():
            t = c_inverse @ companion(g)
            gamma = (0,) * (n * n)
            for x in _conjugation_orbit(c, t):
                gamma = tuple(map(field.add, gamma, x.entries))
            gamma = tuple(field.sub(v, 1) if i % (n + 1) == 0 else v for i, v in enumerate(gamma))
            assert char_poly(Matrix._raw(field, n, gamma)) == char_poly(
                model.multiplication(key_id))
            trace = functools.reduce(field.add, gamma[::n + 1])
            assert trace == field.sub(field.mul(g[0], field.inv(f[0])), 1)
            assert row[g] == orders[orbit_of[t.entries]]


_MODEL_INSTANCES = [pytest.param(n, p, k, id=f"GL{n}F{p**k}")
                    for n, p, k in [(1, 2, 1), (1, 5, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2),
                                    (2, 5, 1), (2, 7, 1), (2, 2, 3), (2, 3, 2), (2, 2, 4),
                                    (3, 2, 1), (3, 3, 1), (4, 2, 1), (5, 2, 1)]]


@pytest.mark.parametrize("n,p,k", _MODEL_INSTANCES)
def test_model_primitives_match_the_primitivity_scan(n, p, k):
    # oracle: is_primitive_poly on every monic polynomial; each f vanishes
    # at the root alpha^j the model names
    field = make_field(p, k)
    model = field_model(n, field)
    assert list(model.primitives) == [f for f in enumerate_monic(n, field, nonzero_constant=True)
                                      if is_primitive_poly(f)]
    assert len(model.primitives) == singer_class_count(n, field.q)
    zero = (0,) * n
    for f, j in model.roots.items():
        value = zero
        for i, c in enumerate(f.coeffs):
            term = tuple(field.mul(c, v) for v in model.powers[i * j % model.m])
            value = tuple(map(field.add, value, term))
        assert value == zero


@pytest.mark.parametrize("n,p,k", _MODEL_INSTANCES)
def test_model_irreducibles_match_the_rabin_scan(n, p, k):
    # oracle: is_irreducible on every monic polynomial with f(0) != 0, in
    # enumerate_monic order, and Gauss's count; the primitive f are those
    # whose root alpha^j has j prime to q^n - 1
    field = make_field(p, k)
    model = field_model(n, field)
    assert list(model.irreducibles) == [f for f in enumerate_monic(n, field, nonzero_constant=True)
                                        if is_irreducible(f)]
    assert len(model.irreducibles) == gauss_irreducible_count(n, field.q)
    assert model.roots == {f: j for f, j in model.irreducibles.items()
                           if math.gcd(j, model.m) == 1}


@pytest.mark.parametrize("n,p,k", _MODEL_INSTANCES)
def test_model_reads_match_the_extension_field_walk(n, p, k):
    # oracle: FieldExtension.minimal_poly on every element of F_(q^n), for
    # the minimal polynomials of the field generators and of the primitive
    # elements that singer's embedding tests look up, and the Rabin scan's
    # largest root order for max_irreducible_order
    field = make_field(p, k)
    assert field.q**n <= 256
    model = field_model(n, field)
    assert generator_minpolys_by_walk(n, field) == {f: f in model.roots
                                                    for f in model.irreducibles}
    assert max_irreducible_order(n, field) == max_irreducible_order_by_scan(n, field)


@pytest.mark.parametrize("n,p,k", _MODEL_INSTANCES)
def test_model_keys_match_the_matrix_route(n, p, k):
    # oracle: gamma's multiplication matrix in F_q[x]/(f), built with no
    # discrete log, for every partner of every primitive f; the key ids
    # name distinct char_polys, one per Frobenius orbit of the gamma
    field = make_field(p, k)
    model = field_model(n, field)
    polys = {}
    for f in model.primitives:
        by_model = list(groupgen._partner_keys(model, f))
        by_matrix = partner_keys_by_matrix(f)
        assert [g for g, _ in by_model] == [g for g, _ in by_matrix]
        for (_, key_id), (_, key) in zip(by_model, by_matrix):
            assert polys.setdefault(key_id, char_poly(model.multiplication(key_id))) == key
    assert len(set(polys.values())) == len(polys) == galois_key_count(n, p, k)


def test_model_checks_its_logs(f3, monkeypatch):
    # x^2 + 1 is irreducible over F_3 but x has order 4, not 8: its powers
    # repeat before alpha^8 and the model refuses it
    field_model.cache_clear()
    monkeypatch.setattr(poly, "find_primitive_poly", lambda n, field: Poly(f3, (1, 0, 1)))
    with pytest.raises(AssertionError, match="coincide"):
        field_model(2, f3)


def test_main2_and_gill_read_each_class_through_the_model(monkeypatch):
    # GL_2(F_7): neither driver enumerates the reflections or scans the 42
    # monic polynomials for the 8 primitive ones.  The only primitivity
    # tests are find_primitive_poly's, on x^2 + 3 and x^2 + x + 3, and the
    # model, built afresh by main2, runs one char_poly per irreducible f, 21
    # of them; gill reads the memoized model with neither.  The rows key
    # their partners by coset-leader id and run no char_poly
    f7 = make_field(7)
    field_model.cache_clear()
    calls = dict.fromkeys(["is_primitive_poly", "enumerate_reflections", "model", "row"], 0)
    context = []

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    def within(name, fn):
        def run(*args):
            context.append(name)
            try:
                return fn(*args)
            finally:
                context.pop()
        return run

    for module in (poly, groupgen):
        monkeypatch.setattr(module, "is_primitive_poly",
                            counted("is_primitive_poly", poly.is_primitive_poly))
    for module in (reflect, groupgen):
        monkeypatch.setattr(module, "enumerate_reflections",
                            counted("enumerate_reflections", reflect.enumerate_reflections))
    real_char_poly = groupgen.char_poly
    for module in (matrix, groupgen):  # the model reads matrix's, the rows groupgen's
        monkeypatch.setattr(module, "char_poly",
                            lambda a: counted(context[-1], real_char_poly)(a))
    monkeypatch.setattr(groupgen, "field_model", within("model", field_model))
    monkeypatch.setattr(groupgen._GenerationCache, "row",
                        within("row", groupgen._GenerationCache.row))
    for driver, primitivity_tests, model in ((verify_main2, 2, 21), (verify_gill, 0, 0)):
        report = driver(2, f7)
        assert report["violations"] == [] and report["generation_tests"] == 23
        assert calls == {"is_primitive_poly": primitivity_tests, "enumerate_reflections": 0,
                         "model": model, "row": 0}
        calls.update(dict.fromkeys(calls, 0))
    assert galois_key_count(2, 7) == 23 and singer_class_count(2, 7) == 8
    assert gauss_irreducible_count(2, 7) == 21


@pytest.mark.parametrize("n,p", [(2, 5), (3, 2)])
def test_through_basis_matches_the_matrix_products(n, p):
    # the rank-one update I + (P w)(phi P^-1), rescaled, against the
    # reflection_params of P x P^-1, for every reflection x and a few random
    # invertible P
    field = make_field(p)
    rng = random.Random(n * p)
    members = [(reflection_params(t), t) for t in enumerate_reflections(n, field)]
    for _ in range(4):
        pm = random_invertible(n, field, rng)
        read = groupgen._through_basis(pm, members)
        assert [label for _, label in read] == [t for _, t in members]
        assert [x for x, _ in read] == [reflection_params(pm @ t @ pm.inverse())
                                        for _, t in members]


# beyond Tier-1's enumerations: 2^16, 3^10 and 8^6 matrices, |GL| over the budget
_SAMPLED_INSTANCES = [pytest.param(8, 2, 1, id="GL8F2"), pytest.param(5, 3, 1, id="GL5F3"),
                      pytest.param(3, 2, 3, id="GL3F8")]


def _sampled_reflection(field, n, rng):
    """A random reflection I + w phi, phi leading with 1, as (phi, w)."""
    while True:
        phi = [rng.randrange(field.q) for _ in range(n)]
        w = tuple(rng.randrange(field.q) for _ in range(n))
        lead = next((v for v in phi if v), None)
        if lead is None or not any(w):
            continue
        phi = tuple(field.mul(field.inv(lead), v) for v in phi)
        if field.add(1, functools.reduce(field.add, map(field.mul, phi, w))):
            return phi, w


@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("n,p,k", _SAMPLED_INSTANCES)
def test_through_basis_matches_the_matrix_products_when_sampled(n, p, k, seed):
    # the rank-one update against the reflection_params of P x P^-1, by
    # products, for a random invertible P and random reflections x
    field = make_field(p, k)
    rng = random.Random(seed)
    pm = random_invertible(n, field, rng)
    members = [(_sampled_reflection(field, n, rng), i) for i in range(4)]
    read = groupgen._through_basis(pm, members)
    assert [label for _, label in read] == list(range(4))
    assert [x for x, _ in read] == [
        reflection_params(pm @ reflection_from_params(field, *x) @ pm.inverse())
        for x, _ in members]


@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("n,p,k", _SAMPLED_INSTANCES)
def test_orbit_walk_matches_the_matrix_products_when_sampled(n, p, k, data):
    # the walk from a sampled partner's t_g, taken as proper, against
    # C_f^i t_g C_f^-i for i < (q^n - 1)/(q - 1), by products, in order
    field = make_field(p, k)
    model = field_model(n, field)
    f = data.draw(st.sampled_from(model.primitives))
    g, _ = data.draw(st.sampled_from(list(groupgen._partner_keys(model, f))))
    cf = companion(f)
    x = cf.inverse() @ companion(g)
    expected = []
    for _ in range((field.q**n - 1) // (field.q - 1)):
        expected.append((reflection_params(x), g))
        x = cf @ x @ cf.inverse()
    assert groupgen._proper_orbits(f, {g: 1}, gl_order(n, field.q)) == expected


@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("n,p,k", _SAMPLED_INSTANCES)
def test_partner_keys_match_the_matrix_route_when_sampled(n, p, k, data):
    # every partner of a sampled primitive f: the key id's char_poly against
    # the char_poly of gamma's multiplication matrix, built with no log
    field = make_field(p, k)
    model = field_model(n, field)
    f = data.draw(st.sampled_from(model.primitives))
    by_model = [(g, char_poly(model.multiplication(key_id)))
                for g, key_id in groupgen._partner_keys(model, f)]
    assert by_model == partner_keys_by_matrix(f)


def test_gill_inverts_each_partner_once(monkeypatch):
    # no partner is inverted: t_g = C_f^-1 C_g, so gill inverts C_f once per
    # class, and each of the 8 classes of GL_2(F_7) builds its normalizing
    # reflections with one more call (C_f^-1): C_f's cyclic basis is P = I,
    # which normalizer_reflection does not invert, and the rows need no
    # inverse.  The second C_f^-1 finds gill's memoized on the same C_f, so
    # 8 inverses are computed, one C_f^-1 per class
    calls = []
    computed = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        if self._inverse is None:
            computed.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    assert verify_gill(2, make_field(7))["violations"] == []
    assert len(calls) == 8 * 2 == 16
    assert len(computed) == 8


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 7, 1), (3, 2, 1), (3, 3, 1),
                                   (4, 2, 1)])
def test_singer_conjugators_reach_every_class(n, p, k):
    # from every Singer class representative c = C_g, each primitive f gets a
    # P with P^-1 c^k P = C_f for some k prime to q^n - 1
    field = make_field(p, k)
    m = field.q**n - 1
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    for c in map(companion, primitives):
        conjugators = singer_conjugators(c)
        assert conjugators.keys() == set(primitives)
        generators = [c**e for e in range(1, m + 1) if math.gcd(e, m) == 1]
        for f, conjugator in conjugators.items():
            assert companion(f) in {conjugator.inverse() @ d @ conjugator for d in generators}


def test_singer_conjugators_need_a_singer_cycle(f3):
    c = _singer_companions(2, f3)[0]
    for not_singer in (c @ c, Matrix.identity(f3, 2), Matrix.from_text(f3, "1,1;0,1")):
        with pytest.raises(ValueError, match="not a Singer cycle"):
            singer_conjugators(not_singer)


def _conjugation_orbit(c, x):
    """The orbit of the matrix x under conjugation by the powers of c."""
    orbit = {x}
    cinv = c.inverse()
    y = c @ x @ cinv
    while y != x:
        orbit.add(y)
        y = c @ y @ cinv
    return frozenset(orbit)


@pytest.mark.parametrize("n,p,k", [(2, 7, 1), (2, 2, 3), (3, 3, 1), (3, 2, 2), (4, 2, 1)])
def test_gill_reflections_are_a_transversal_of_the_orbits(n, p, k):
    # for each primitive f, the q^(n-1)(q - 1) - 1 reflections C_f^-1 C_g,
    # conjugated by f's P, meet each <c>-orbit of reflections exactly once
    field = make_field(p, k)
    q = field.q
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    c = companion(primitives[0])
    orbits = {_conjugation_orbit(c, t) for t in enumerate_reflections(n, field)}
    assert len(orbits) == q ** (n - 1) * (q - 1) - 1
    conjugators = singer_conjugators(c)
    for f in primitives:
        cf_inverse = companion(f).inverse()
        conjugator = conjugators[f]
        hit = [_conjugation_orbit(c, conjugator @ cf_inverse @ companion(g)
                                  @ conjugator.inverse())
               for g in enumerate_monic(n, field, nonzero_constant=True) if g != f]
        assert set(hit) == orbits and len(hit) == len(orbits)


def _tamper_orbit_orders(monkeypatch, n, field, retag):
    """Seed every generation cache with the order of each key, passed
    through retag(orders, |GL_n(F_q)|) in the order of the keys'
    coefficients, and return the same seed for the oracles, whose orbit
    tables then read the tampered orders as the drivers' rows do.  The
    oracles key by char_poly(gamma), the cache by the coset-leader id of
    log gamma, whose multiplication matrix has that char_poly."""
    orders_by_key = {}
    orbit_table(_singer_companions(n, field)[0], enumerate_reflections(n, field),
                orders_by_key)
    keys = sorted(orders_by_key, key=lambda key: key.coeffs)
    tampered = dict(zip(keys, retag([orders_by_key[key] for key in keys],
                                    gl_order(n, field.q))))
    model = field_model(n, field)
    key_ids = {key_id for f in model.primitives for _, key_id in groupgen._partner_keys(model, f)}
    by_id = {key_id: tampered[char_poly(model.multiplication(key_id))] for key_id in key_ids}
    assert len(by_id) == len(tampered)
    init = groupgen._GenerationCache.__init__

    def seeded(self, n, q):
        init(self, n, q)
        self._orders_by_key.update(by_id)

    monkeypatch.setattr(groupgen._GenerationCache, "__init__", seeded)
    return tampered


def _first_generating_orbit_proper(orders, full):
    i = orders.index(full)
    orders[i] = full // 2  # |GL_n(F_q)| is even on every instance below
    return orders


def _every_orbit_generates(orders, full):
    return [full] * len(orders)  # n = 2: the normalizing orbit now generates


_TAMPERS = [pytest.param(_first_generating_orbit_proper, id="generating-orbit-proper"),
            pytest.param(_every_orbit_generates, id="normalizing-orbit-generates")]
_TAMPERED_INSTANCES = [pytest.param(2, 3, id="GL2F3"), pytest.param(2, 5, id="GL2F5"),
                       pytest.param(3, 2, id="GL3F2")]


@pytest.mark.parametrize("retag", _TAMPERS)
@pytest.mark.parametrize("n,p", _TAMPERED_INSTANCES)
def test_main2_per_orbit_reads_match_pair_lookup_on_tampered_tables(monkeypatch, retag, n, p):
    # a wrong order on one key must show up in exactly the pairs that
    # read it, as the pair-by-pair lookup reports them; GL_3(F_2) has no
    # proper orbit, so every orbit generating changes nothing there
    field = make_field(p)
    tampered = _tamper_orbit_orders(monkeypatch, n, field, retag)
    for full in (False, True):
        report = verify_main2(n, field, full=full)
        assert bool(report["violations"]) == (retag is _first_generating_orbit_proper or n == 2)
        assert without_counters(report) == main2_by_pair_lookup(n, field, full=full,
                                                                orders_by_key=dict(tampered))


@pytest.mark.parametrize("retag", _TAMPERS)
@pytest.mark.parametrize("n,p", _TAMPERED_INSTANCES)
def test_gill_per_orbit_reads_match_pair_lookup_on_tampered_tables(monkeypatch, retag, n, p):
    field = make_field(p)
    tampered = _tamper_orbit_orders(monkeypatch, n, field, retag)
    report = verify_gill(n, field)
    assert bool(report["violations"]) == (retag is _first_generating_orbit_proper or n == 2)
    assert without_counters(report) == gill_by_pair_lookup(n, field, dict(tampered))


def test_gill_pair_failing_the_side_condition_has_no_verdict(monkeypatch, f3):
    # the row decides only pairs whose C_f^-1 C_g is a reflection, which
    # the side condition certifies: a pair that fails it gets no verdict
    clean = verify_gill(2, f3)
    f, g = "2,1,1", "1,0,1"  # the worked-example pair, exceptional
    target = companion(Poly.from_text(f3, f)).inverse() @ companion(Poly.from_text(f3, g))
    real = groupgen.fixed_space
    failed = []

    def fails_once(a):  # (2,2,1), (1,2,1), later in the sweep, has the same C_f^-1 C_g
        if a == target and not failed:
            failed.append(a)
            a = Matrix.identity(a.field, a.n)
        return real(a)

    monkeypatch.setattr(groupgen, "fixed_space", fails_once)
    report = verify_gill(2, f3)
    assert report["violations"] == [
        {"f": f, "g": g, "error": "fix-dimension side condition failed"},
        {"f": f, "g": g, "error": "no verdict: the row decides only pairs whose "
                                  "C_f^-1 C_g is a reflection"}]
    assert {"f": f, "g": g, "order": 16} in clean["exceptional_pairs"]
    assert report["exceptional_pairs"] == [e for e in clean["exceptional_pairs"]
                                           if (e["f"], e["g"]) != (f, g)]


def test_main2_and_gill_conjugate_only_the_pairs_that_do_not_generate(monkeypatch, f2, f3):
    # each Singer cycle conjugates by its cyclic basis only the members of
    # its class's proper orbits and its normalizing reflections, which
    # coincide: the q + 1 normalizing reflections for n = 2, q > 2, else
    # none, also in full mode: 12 cycles x 4 on GL_2(F_3).  gill reads its
    # rows and conjugates none.  Reading every pair conjugates 2624, 210,
    # 240 and 328 matrices.
    conjugated = []
    through = groupgen._through_basis

    def counted(p, members):
        members = through(p, members)
        conjugated.append(len(members))
        return members

    monkeypatch.setattr(groupgen, "_through_basis", counted)

    def count(report):
        total = sum(conjugated)
        conjugated.clear()
        assert report["violations"] == []
        return total

    f7 = make_field(7)
    assert count(verify_main2(2, f7)) == 8 * 8 == 64  # 8 Singer classes
    assert count(verify_main2(4, f2)) == 0
    assert count(verify_main2(2, f3, full=True)) == 12 * 4 == 48
    assert count(verify_gill(2, f7)) == 0


def test_main2_builds_one_normalizer_per_singer_class(monkeypatch, f2, f3, f5):
    # main2 builds each class's normalizing reflections once, from C_f, and
    # reads them with the proper orbits through each cycle's listed cyclic
    # basis, which it never derives from the cycle; normalizer_reflection's
    # basis is C_f's own.  gill builds them once per class too, and reads no
    # other cyclic basis.  Neither builds any for q = 2 or n >= 3.  main1
    # builds no normalizer; it derives one cyclic basis per element, and one
    # per Singer cycle its spot checks classify (4 on GL_2(F_5), seed 0).
    calls = {"normalizer_reflection": 0, "_krylov_basis": 0}
    for name in calls:
        def counted(c, name=name, real=getattr(singer, name)):
            calls[name] += 1
            return real(c)

        monkeypatch.setattr(singer, name, counted)

    def count(report):
        assert report["violations"] == []
        counts = tuple(calls.values())
        calls.update(dict.fromkeys(calls, 0))
        return counts

    # GL_2(F_3): 2 Singer classes of 6 cycles each; GL_2(F_7): 8 classes
    assert count(verify_main2(2, f3, full=True)) == (2, 2)
    assert count(verify_main2(2, make_field(7))) == (8, 8)
    assert count(verify_main1(2, f5)) == (0, 480 + 4)
    assert count(verify_gill(2, make_field(7))) == (8, 8)
    assert count(verify_gill(2, f3)) == (2, 2)
    assert count(verify_main2(2, f2)) == (0, 0)
    assert count(verify_gill(2, f2)) == (0, 0)
    assert count(verify_main2(3, f2)) == (0, 0)
    assert count(verify_gill(3, f2)) == (0, 0)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (3, 2, 1)])
def test_main2_and_gill_agree_on_the_exception(n, p, k):
    # main2's exceptional reflections of each C_f are the <C_f>-orbits of
    # t_g = C_f^-1 C_g over gill's exceptional partners g, q + 1 each
    field = make_field(p, k)
    from_main2 = {}
    for e in verify_main2(n, field)["exceptional_pairs"]:
        from_main2.setdefault(e["singer"], set()).add(e["reflection"])
    from_gill = {}
    for e in verify_gill(n, field)["exceptional_pairs"]:
        cf = companion(Poly.from_text(field, e["f"]))
        orbit = _conjugation_orbit(cf, cf.inverse() @ companion(Poly.from_text(field, e["g"])))
        assert len(orbit) == field.q + 1
        from_gill.setdefault(cf.to_text(), set()).update(t.to_text() for t in orbit)
    assert from_gill == from_main2
    assert len(from_main2) == (singer_class_count(n, field.q) if n == 2 else 0)


_GILL_INSTANCES = [pytest.param(2, p, k, id=f"{p}-{k}")
                   for p, k in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 1)]]


@pytest.mark.parametrize("n,p,k", _GILL_INSTANCES + [pytest.param(3, 3, 1, id="GL3F3"),
                                                     pytest.param(4, 2, 1, id="GL4F2")])
def test_gill_matches_normalizer_scan(n, p, k):
    field = make_field(p, k)
    report = verify_gill(n, field)
    assert without_counters(report) == gill_by_normalizer_scan(n, field)
    assert report["generation_tests"] == galois_key_count(n, p, k)  # one closure per key


def test_reports_are_deterministic(f3):
    import json

    first = verify_gill(2, f3)
    second = verify_gill(2, f3)
    strip = lambda r: {k: v for k, v in r.items() if k != "elapsed_ms"}
    assert json.dumps(strip(first), sort_keys=True) == json.dumps(strip(second), sort_keys=True)
    m1 = {k: v for k, v in verify_main1(2, f3).items() if k != "elapsed_ms"}
    m2 = {k: v for k, v in verify_main1(2, f3).items() if k != "elapsed_ms"}
    assert m1 == m2


def test_verify_gill_instances(f2, f3):
    report = verify_gill(2, f3)
    assert report["violations"] == []
    pairs = {(e["f"], e["g"]) for e in report["exceptional_pairs"]}
    assert ("2,1,1", "1,0,1") in pairs  # the worked-example pair
    assert all(e["order"] == 16 for e in report["exceptional_pairs"])
    report = verify_gill(3, f2)
    assert report["violations"] == []
    assert report["exceptional_pairs"] == []
    assert report["checked"] == 6  # 2 primitive cubics x 3 partners

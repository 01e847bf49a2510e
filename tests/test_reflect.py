import itertools
import random
from collections import Counter

import pytest

from singerlab import (BudgetExceededError, Matrix, Subspace, companion,
                       enumerate_gl, enumerate_minimal_factorizations,
                       enumerate_reflections, factorizations_in_det_subgroup,
                       find_primitive_poly, fixed_space, is_irreducible_element,
                       is_reflection, make_field, minimal_factorization,
                       reflection_length, stabilizing_factorization)
from singerlab import matrix, reflect
from singerlab.groupgen import reflection_distances
from singerlab.matrix import enumerate_subspaces, stabilizes
from singerlab.reflect import (FactorizationList, det_subgroup, reflection_count,
                               reflection_from_params, reflection_params)

from conftest import common_fixed_space, random_invertible


def test_is_reflection_examples(f3, f5):
    assert is_reflection(Matrix.from_text(f3, "1,0;2,2"))
    assert is_reflection(Matrix.from_text(f5, "2,2;2,0"))
    assert not is_reflection(Matrix.identity(f3, 2))
    assert not is_reflection(Matrix(f3, 2, [0, 0, 0, 0]))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_is_reflection_matches_definition_on_all_matrices(n, p, k):
    # singular ones included: I + w*phi with 1 + phi(w) = 0 fixes a
    # hyperplane but is not a reflection
    field = make_field(p, k)
    singular_rank_one = 0
    for entries in itertools.product(range(field.q), repeat=n * n):
        m = Matrix(field, n, entries)
        hyperplane = fixed_space(m).dim == n - 1
        assert is_reflection(m) == (m.det() != 0 and hyperplane)
        singular_rank_one += hyperplane and m.det() == 0
    assert singular_rank_one > 0


@pytest.mark.parametrize("n,p,k,expected", [
    (2, 3, 1, 20), (3, 2, 1, 21), (2, 2, 1, 3), (2, 5, 1, 114), (2, 2, 2, 55),
])
def test_enumerate_reflections_counts(n, p, k, expected):
    field = make_field(p, k)
    q = field.q
    refl = enumerate_reflections(n, field)
    assert len(refl) == expected
    assert expected == (q**n - 1) // (q - 1) * (q ** (n - 1) * (q - 1) - 1)
    assert reflection_count(n, q) == expected


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (2, 2)])
def test_enumerate_reflections_matches_group_scan(n, p):
    field = make_field(p)
    scanned = {g for g in enumerate_gl(n, field) if is_reflection(g)}
    assert set(enumerate_reflections(n, field)) == scanned


def test_reflection_from_params_rejects(f3):
    with pytest.raises(ValueError):
        reflection_from_params(f3, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        reflection_from_params(f3, (1, 0), (2, 0))  # det = 1 + phi(w) = 0


@pytest.mark.parametrize("n,p,k", [(1, 3, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_reflection_params_inverts_reflection_from_params(n, p, k):
    # (phi, w) with phi leading with 1 is each reflection's key in
    # enumerate_reflections order; every other matrix, singular or not, is
    # refused
    field = make_field(p, k)
    reflections = enumerate_reflections(n, field)
    params = [reflection_params(t) for t in reflections]
    assert params == sorted(params)
    assert [reflection_from_params(field, phi, w) for phi, w in params] == list(reflections)
    listed = set(reflections)
    for entries in itertools.product(range(field.q), repeat=n * n):
        m = Matrix(field, n, entries)
        if m not in listed:
            with pytest.raises(ValueError):
                reflection_params(m)


def test_reflection_length_examples(f3, f5):
    assert reflection_length(Matrix.identity(f5, 2)) == 0
    assert reflection_length(Matrix.from_text(f3, "1,0;2,2")) == 1
    assert reflection_length(companion(find_primitive_poly(2, f3))) == 2
    assert reflection_length(companion(find_primitive_poly(3, make_field(2)))) == 3


def test_reflection_length_is_bfs_distance_small(f3):
    distances = reflection_distances(2, f3)
    assert len(distances) == 48
    for g, d in distances.items():
        assert reflection_length(g) == d


def test_minimal_factorization_basics(f3, f5):
    t = Matrix.from_text(f3, "1,0;2,2")
    assert minimal_factorization(t).factors == (t,)
    g = Matrix.from_text(f5, "3,0;0,4")
    fl = minimal_factorization(g)
    assert len(fl.factors) == 2 and fl.product == g


def test_minimal_factorization_fixes_fixed_space(f3):
    # every factor fixes every vector fixed by g, across the whole group
    for g in enumerate_gl(2, f3):
        fl = minimal_factorization(g)
        fix = fixed_space(g)
        for t in fl.factors:
            assert all(t.apply(v) == v for v in fix.basis)


def test_factorization_list_validates(f5):
    t1 = Matrix.from_text(f5, "2,2;2,0")
    t2 = Matrix.from_text(f5, "0,2;4,3")
    fl = FactorizationList((t1, t2), Matrix.from_text(f5, "3,0;0,4"))
    assert fl.dets() == (1, 2)
    assert f5.mul(*fl.dets()) == fl.product.det()
    with pytest.raises(ValueError, match="do not multiply"):
        FactorizationList((t1, t2), Matrix.identity(f5, 2))
    with pytest.raises(ValueError, match="do not multiply"):
        FactorizationList((t1, t2), t2 @ t1)
    with pytest.raises(ValueError, match="must be a reflection"):
        FactorizationList((t1, Matrix.identity(f5, 2)), t1)
    with pytest.raises(ValueError, match="must be a reflection"):
        FactorizationList((t1, t2 @ t1), t1 @ t2 @ t1)
    # the search's constructor trusts its caller
    assert FactorizationList._unchecked((t1, t2), t2).product == t2


def test_search_factorizations_pass_the_public_checks(f3):
    # the search builds its factorizations unchecked; the public constructor
    # accepts every one of them
    for g in enumerate_gl(2, f3):
        for fl in enumerate_minimal_factorizations(g):
            assert FactorizationList(fl.factors, fl.product) == fl


def test_enumerate_identity_gives_empty(f3):
    fls = list(enumerate_minimal_factorizations(Matrix.identity(f3, 2)))
    assert len(fls) == 1 and fls[0].factors == ()
    # 11^8 > ENUMERATION_BUDGET refuses GL_4(F_11)'s reflections, which the
    # identity's empty factorization never needs
    big = Matrix.identity(make_field(11), 4)
    assert [fl.factors for fl in enumerate_minimal_factorizations(big)] == [()]
    w = Subspace.from_vectors(big.field, 4, [(1, 0, 0, 0)])
    assert stabilizing_factorization(big, w).factors == ()


def test_singer_factorizations_gl2f2(f2):
    # brute-force oracle: ordered pairs of reflections multiplying to c
    c = companion(find_primitive_poly(2, f2))
    refl = enumerate_reflections(2, f2)
    oracle = sum(1 for t1 in refl for t2 in refl if t1 @ t2 == c)
    assert oracle == 3
    assert len(list(enumerate_minimal_factorizations(c))) == 3


def test_factorizations_are_ordered_tuples(f3):
    c = companion(find_primitive_poly(2, f3))
    fls = list(enumerate_minimal_factorizations(c))
    pairs = {fl.factors for fl in fls}
    # reversing a factorization of a Singer cycle need not multiply to c
    assert any((t2, t1) not in pairs or t1 @ t2 != t2 @ t1 for t1, t2 in pairs)
    reversed_products = {t2 @ t1 for t1, t2 in pairs}
    assert reversed_products != {c}


def test_enumerate_budget_guard(f5, monkeypatch):
    c = companion(find_primitive_poly(2, f5))
    enumerate_reflections(2, f5)  # cached, so the lowered budget reaches only the search
    monkeypatch.setattr("singerlab.reflect.ENUMERATION_BUDGET", 5)
    with pytest.raises(BudgetExceededError, match="factorization enumeration"):
        list(enumerate_minimal_factorizations(c))


def test_length_oracle_budget_guard(f2):
    # |GL_5(F_2)| * 465 reflections = 4,649,702,400 products, refused up front
    with pytest.raises(BudgetExceededError, match="4649702400"):
        reflection_distances(5, f2)


def test_remark_invariant_gl2f2(f2):
    for g in enumerate_gl(2, f2):
        for fl in enumerate_minimal_factorizations(g):
            if fl.factors:
                assert common_fixed_space(fl.factors) == fixed_space(g)


def test_stabilizing_factorization_diagonal(f5):
    g = Matrix.from_text(f5, "3,0;0,4")
    w = Subspace.from_vectors(f5, 2, [(1, 0)])
    fl = stabilizing_factorization(g, w)
    assert len(fl.factors) == 2 and fl.product == g
    assert all(stabilizes(t, w) for t in fl.factors)


def test_stabilizing_factorization_reflection_regression(f3):
    # a reflection whose fixed line is not W
    g = Matrix.from_text(f3, "2,1;0,1")
    w = Subspace.from_vectors(f3, 2, [(1, 0)])
    fl = stabilizing_factorization(g, w)
    assert len(fl.factors) == reflection_length(g) == 1


def test_stabilizing_factorization_identity_on_w(f5):
    g = Matrix.from_text(f5, "1,0;0,2")
    w = Subspace.from_vectors(f5, 2, [(1, 0)])
    fl = stabilizing_factorization(g, w)
    assert len(fl.factors) == 1
    assert all(stabilizes(t, w) for t in fl.factors)


def test_stabilizing_factorization_random_reducible(f2):
    rng = random.Random(31)
    gl3 = list(enumerate_gl(3, f2))
    subspaces = [w for d in (1, 2) for w in enumerate_subspaces(3, f2, d)]
    checked = 0
    while checked < 100:
        g = rng.choice(gl3)
        stabilized = [w for w in subspaces if stabilizes(g, w)]
        if not stabilized:
            continue
        w = rng.choice(stabilized)
        fl = stabilizing_factorization(g, w)
        assert fl.product == g
        assert len(fl.factors) == reflection_length(g)
        assert all(stabilizes(t, w) for t in fl.factors)
        checked += 1


def test_stabilizing_factorization_rejects(f3, f5):
    g = Matrix.from_text(f5, "0,1;1,3")  # irreducible
    w = Subspace.from_vectors(f5, 2, [(1, 0)])
    with pytest.raises(ValueError):
        stabilizing_factorization(g, w)
    with pytest.raises(ValueError):
        stabilizing_factorization(g, Subspace.full(f5, 2))
    # the same line over F_3 is stabilized by its F_3 reading, not over F_5
    with pytest.raises(ValueError, match="field"):
        stabilizing_factorization(Matrix.from_text(f5, "1,0;3,1"),
                                  Subspace.from_vectors(f3, 2, [(1, 0)]))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_stabilizing_factorization_is_first_stabilizing_entry(n, p, k):
    # oracle: the first entry of the unrestricted enumeration whose factors
    # all stabilize W, for every reducible g and every W that g stabilizes
    field = make_field(p, k)
    subspaces = [w for d in range(1, n) for w in enumerate_subspaces(n, field, d)]
    checked = 0
    for g in enumerate_gl(n, field):
        stabilized = [w for w in subspaces if stabilizes(g, w)]
        for w in stabilized:
            expected = next(fl for fl in enumerate_minimal_factorizations(g)
                            if all(stabilizes(t, w) for t in fl.factors))
            assert stabilizing_factorization(g, w) == expected
            checked += 1
    assert checked > 0


def _irreducible_sample(n, field, size, seed):
    """size distinct irreducible elements of GL_n(F_q), drawn with the seed."""
    rng = random.Random(seed)
    sample = {}
    while len(sample) < size:
        g = random_invertible(n, field, rng)
        if is_irreducible_element(g):
            sample.setdefault(g, None)
    return list(sample)


@pytest.mark.parametrize("n,p,k,sample", [(2, 3, 1, None), (2, 2, 2, None), (2, 5, 1, None),
                                          (3, 2, 1, None), (3, 3, 1, 4)],
                         ids=["2-3-1", "2-2-2", "2-5-1", "3-2-1", "3-3-1-sample"])
def test_det_restricted_search_matches_eager_filter(n, p, k, sample):
    # oracle: every minimal factorization, filtered by its factors' determinants,
    # on every irreducible element, or on a seeded sample of them
    field = make_field(p, k)
    primitive = next(u for u in range(1, field.q)
                     if len(det_subgroup(field, u)) == field.q - 1)
    elements = (enumerate_gl(n, field) if sample is None
                else _irreducible_sample(n, field, sample, seed=3))
    pruned = 0
    for g in elements:
        if not is_irreducible_element(g):
            continue
        every = list(enumerate_minimal_factorizations(g))
        for generator in (g.det(), primitive):
            x = det_subgroup(field, generator)
            eager = [fl for fl in every if all(d in x for d in fl.dets())]
            restricted = factorizations_in_det_subgroup(g, generator)
            assert restricted == eager
            pruned += len(restricted) < len(every)
    # GL_3(F_2) has only the unit 1, so no proper X prunes anything there
    assert pruned > 0 or field.q == 2


def test_det_subgroup(f5):
    assert det_subgroup(f5, 4) == frozenset({1, 4})
    assert det_subgroup(f5, 2) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        det_subgroup(f5, 0)


def test_det_restricted_count_matches_brute_force(f5):
    # order-12 irreducible with det 4; X = {1, 4}
    g = Matrix.from_text(f5, "0,1;1,3")
    refl = enumerate_reflections(2, f5)
    x = det_subgroup(f5, 4)
    brute_all = 0
    brute_x = 0
    for t1 in refl:
        t2 = t1.inverse() @ g
        if is_reflection(t2):
            brute_all += 1
            if t1.det() in x and t2.det() in x:
                brute_x += 1
    assert brute_x == 12 and brute_all == 24
    restricted = factorizations_in_det_subgroup(g, 4)
    assert len(restricted) == 12
    assert all(all(d in x for d in fl.dets()) for fl in restricted)
    unrestricted = factorizations_in_det_subgroup(g, 2)  # X = all units
    assert len(unrestricted) == 24


def test_det_restricted_rejects(f5):
    g = Matrix.from_text(f5, "3,0;0,4")  # reducible
    with pytest.raises(ValueError):
        factorizations_in_det_subgroup(g, 4)
    irr = Matrix.from_text(f5, "0,1;1,3")
    with pytest.raises(ValueError):
        factorizations_in_det_subgroup(irr, 1)  # det(g) = 4 not in {1}


def test_search_runs_one_elimination_per_fixed_space(f3, monkeypatch):
    # the memo carries over between tests, so clear it before counting
    matrix._fixed_space_of_entries.cache_clear()
    elements = list(enumerate_gl(2, f3))
    calls = Counter()
    rref_calls = Counter()  # every _rref call, det's included
    eliminations = Counter()  # _rref runs inside fixed_space, by matrix entries

    def counted(name, fn, counter=calls):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def fixed_space_counted(a):
        before = rref_calls["rref"]
        result = fixed_space(a)
        eliminations[a.entries] += rref_calls["rref"] - before
        return result

    monkeypatch.setattr(matrix, "_rref", counted("rref", matrix._rref, rref_calls))
    monkeypatch.setattr(reflect, "fixed_space", fixed_space_counted)
    for g in elements:  # cold pass; also warms the reflection cache and its (t, t^-1) table
        list(enumerate_minimal_factorizations(g))
    # the residues are group elements: one elimination per element of GL_2(F_3)
    assert len(eliminations) == len(elements) == 48
    assert set(eliminations.values()) == {1}

    calls.clear()
    eliminations.clear()
    monkeypatch.setattr(reflect, "fixed_space", counted("fixed_space", fixed_space_counted))
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    total = sum(1 for g in elements for _ in enumerate_minimal_factorizations(g))
    assert total == 249
    # every fixed space is a memo hit, and the search reads its inverses
    # from the table the cold pass built
    assert (calls["fixed_space"], calls["inverse"]) == (836, 0)
    # det's one _rref per search input runs outside fixed_space
    assert sum(eliminations.values()) == 0

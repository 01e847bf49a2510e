import random
from collections import Counter
from fractions import Fraction

import pytest

import singerlab.matrix
import singerlab.poly
import singerlab.singer
from singerlab import (Matrix, Poly, char_poly, companion, enumerate_gl,
                       find_primitive_poly, is_irreducible_element,
                       is_irreducible_oracle, is_reflection, is_singer,
                       make_field, normalizer_reflection,
                       normalizing_reflections, singer_oracles)
from singerlab.ff import element_order
from singerlab.matrix import invariant_subspace, matrix_order, stabilizes
from singerlab.poly import FieldExtension
from singerlab.singer import (_orbit_transitive, _subgroup_invariants, irreducible_conditions,
                              max_irreducible_order, singer_equivalence_report)

from conftest import trial_phi, unreduced_singer_equivalence_report


def make_ext(field, n):
    return FieldExtension(find_primitive_poly(n, field), check=False)


def coordinates(ext, a):
    """a in the power basis (1, z, ..., z^{n-1}) of F_q[x]/(f), z the class of x."""
    return tuple(a[i] for i in range(ext.degree))


def power_images(ext):
    """z^j -> C^j for 0 <= j < q^n - 1, with C the companion matrix of the
    primitive modulus f: every unit, since z is primitive, with its matrix
    of multiplication in the power basis."""
    c = companion(ext.modulus)
    images = {}
    a, m = ext.one, Matrix.identity(c.field, c.n)
    for _ in range(ext.order - 1):
        images[a] = m
        a, m = ext.mul(a, ext.x), m @ c
    return images


def test_embed_identity_is_identity(f2, f3, f4):
    # z^(q^n - 1) = 1 and C^(q^n - 1) = I, so z^j -> C^j is well defined
    for field, n in [(f3, 2), (f2, 3), (f4, 2)]:
        ext = make_ext(field, n)
        c = companion(ext.modulus)
        assert (c ** (ext.order - 1)).is_identity
        assert ext.pow(ext.x, ext.order - 1) == ext.one


def test_embed_power_basis_gives_companion(f2, f3, f4):
    # in the power basis, multiplication by z^j is C^j
    for field, n in [(f3, 2), (f2, 3), (f4, 2)]:
        ext = make_ext(field, n)
        for zj, m in power_images(ext).items():
            for a in ext.elements():
                assert m.apply(coordinates(ext, a)) == coordinates(ext, ext.mul(zj, a))


@pytest.mark.parametrize("p,k,n", [(3, 1, 2), (2, 1, 2), (2, 1, 3), (2, 2, 2),
                                   (5, 1, 2), (3, 1, 3)])
def test_embed_is_homomorphism_exhaustive(p, k, n):
    # every extension with q^n <= 81, over both prime and composite grounds
    ext = make_ext(make_field(p, k), n)
    images = power_images(ext)
    units = [a for a in ext.elements() if not a.is_zero]
    assert set(images) == set(units)
    for a in units:
        for b in units:
            assert images[a] @ images[b] == images[ext.mul(a, b)]
    # injectivity
    assert len(set(images.values())) == len(units)


def test_embed_char_poly_is_minimal_poly_power(f2, f3):
    # char poly of the multiplication matrix = minpoly^(n / deg minpoly);
    # in particular field generators embed with irreducible char poly and
    # primitive elements embed as Singer cycles
    for field, n in [(f3, 2), (f2, 3)]:
        ext = make_ext(field, n)
        for a, m in power_images(ext).items():
            mp = ext.minimal_poly(a)
            expected = mp
            for _ in range(n // mp.degree - 1):
                expected = expected * mp
            assert char_poly(m) == expected
            assert is_irreducible_element(m) == (mp.degree == n)
            assert is_singer(m) == ext.is_primitive(a)


def test_irreducible_element_examples(f3, f5):
    assert is_irreducible_element(companion(Poly.from_text(f3, "1,0,1")))
    assert not is_irreducible_element(Matrix.from_text(f5, "3,0;0,4"))
    assert not is_irreducible_element(Matrix.from_text(f3, "1,0;2,2"))  # reflection
    assert not is_irreducible_oracle(Matrix.identity(f3, 2))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1)])
def test_irreducible_conditions_agree(n, p, k):
    field = make_field(p, k)
    for g in enumerate_gl(n, field):
        cond = irreducible_conditions(g)
        assert cond.consistent, g
        assert cond.char_poly_irreducible == is_irreducible_element(g)
        assert cond.no_invariant_subspace == is_irreducible_oracle(g)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_invariant_subspace_is_proper_and_stable(n, p):
    for g in enumerate_gl(n, make_field(p)):
        w = invariant_subspace(g)
        assert (w is None) == is_irreducible_element(g)
        if w is not None:
            assert not w.is_zero and not w.is_full and stabilizes(g, w)


def test_is_singer_examples(f3):
    assert is_singer(companion(Poly.from_text(f3, "2,1,1")))
    assert not is_singer(companion(Poly.from_text(f3, "1,0,1")))  # order 4
    assert not is_singer(Matrix.identity(f3, 2))


def test_singer_oracles_orbits(f3):
    singer = companion(Poly.from_text(f3, "2,1,1"))
    rec = singer_oracles(singer)
    assert rec.consistent and rec.transitive_on_nonzero
    quarter = companion(Poly.from_text(f3, "1,0,1"))
    rec = singer_oracles(quarter)
    assert rec.consistent and not rec.transitive_on_nonzero  # orbit size 4 of 8


def test_six_conditions_agree_gl2f3(f3):
    report = singer_equivalence_report(2, f3)
    assert report["violations"] == []
    assert report["checked"] == 48
    assert report["singer_cycles"] == 12


_POLY_MEMOS = (singerlab.poly.is_irreducible, singerlab.poly.is_primitive_poly,
               singerlab.singer._eigenvalues_primitive)


def test_equivalence_report_shares_per_element_work(monkeypatch, f4):
    # one characteristic polynomial per element of GL_2(F_4), one subspace
    # scan per cyclic subgroup, and no matrix_order or _orbit_transitive at
    # all (the walk of the powers gives the order and the orbit of e_1); the
    # Rabin, primitivity and eigenvalue tests run once per distinct
    # characteristic polynomial, and a second report runs none
    elements = list(enumerate_gl(2, f4))
    # <g> has phi(ord g) generators, so it is counted once over its elements
    subgroups = sum(Fraction(1, trial_phi(matrix_order(g))) for g in elements)
    assert subgroups == 74
    singer_equivalence_report(2, f4)  # builds the memoized model of F_16
    for memo in _POLY_MEMOS:
        memo.cache_clear()
    calls = Counter()
    for module, name in ((singerlab.singer, "char_poly"),
                         (singerlab.singer, "invariant_subspace"),
                         (singerlab.singer, "matrix_order"),
                         (singerlab.singer, "_orbit_transitive"),
                         (singerlab.matrix, "matrix_order"),
                         (singerlab.poly, "powmod")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    report = singer_equivalence_report(2, f4)
    assert report["checked"] == 180 and report["violations"] == []
    assert calls["char_poly"] == 180 and calls["invariant_subspace"] == subgroups
    assert calls["matrix_order"] == 0 and calls["_orbit_transitive"] == 0
    distinct = len({char_poly(g) for g in elements})
    assert [memo.cache_info().misses for memo in _POLY_MEMOS] == [distinct] * 3
    calls.clear()
    assert singer_equivalence_report(2, f4) == report
    assert calls["powmod"] == 0


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 2, 3), (3, 2, 1)])
def test_equivalence_report_matches_unreduced_scan(n, p, k):
    # oracle: the per-element scan of the public singer_oracles and
    # irreducible_conditions; the order, orbit walk and subspace scan each
    # element reads from its cyclic subgroup equal its own
    field = make_field(p, k)
    assert singer_equivalence_report(n, field) == unreduced_singer_equivalence_report(n, field)
    visited = []
    for g, order, transitive, no_invariant_subspace in _subgroup_invariants(n, field):
        visited.append(g)
        assert order == matrix_order(g), g
        assert transitive == _orbit_transitive(g), g
        assert no_invariant_subspace == is_irreducible_oracle(g), g
    assert visited == list(enumerate_gl(n, field))


@pytest.mark.parametrize("n,p,k", [(2, 2, 2), (3, 2, 1)])
def test_equivalence_report_matches_unmemoized(monkeypatch, n, p, k):
    # the memos change no verdict: clearing them before every element, so
    # each element's polynomial tests run afresh, gives the same report
    field = make_field(p, k)
    memoized = singer_equivalence_report(n, field)

    def char_poly_afresh(g, _fn=singerlab.singer.char_poly):
        for memo in _POLY_MEMOS:
            memo.cache_clear()
        return _fn(g)
    monkeypatch.setattr(singerlab.singer, "char_poly", char_poly_afresh)
    assert singer_equivalence_report(n, field) == memoized


def test_max_irreducible_order(f2, f3):
    assert max_irreducible_order(2, f3) == 8
    assert max_irreducible_order(3, f2) == 7


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)])
def test_normalizer_reflection_properties(p, k):
    field = make_field(p, k)
    q = field.q
    eye = Matrix.identity(field, 2)
    for f in _primitive_quadratics(field):
        c = companion(f)
        t = normalizer_reflection(c)
        assert is_reflection(t)
        assert t @ t == eye
        assert t @ c @ t == c**q
        assert t.det() == field.neg(1)


def _primitive_quadratics(field):
    from singerlab import enumerate_monic, is_primitive_poly
    return [f for f in enumerate_monic(2, field, nonzero_constant=True)
            if is_primitive_poly(f)]


def test_normalizer_reflection_worked_example(f3):
    c = companion(Poly.from_text(f3, "2,1,1"))
    t = normalizer_reflection(c)
    assert t.to_text() == "1,0;2,2"
    assert (t.inverse() @ c @ t) == c**3


def test_normalizer_reflection_conjugated_input(f5):
    # a Singer cycle not in companion form: conjugate, construct, check
    c = companion(find_primitive_poly(2, f5))
    rng = random.Random(13)
    for _ in range(5):
        while True:
            h = Matrix(f5, 2, [rng.randrange(5) for _ in range(4)])
            if h.det() != 0:
                break
        cc = h @ c @ h.inverse()
        t = normalizer_reflection(cc)
        assert t @ t == Matrix.identity(f5, 2)
        assert t @ cc @ t == cc**5


def test_normalizer_reflection_rejects(f3, f5):
    with pytest.raises(ValueError):
        normalizer_reflection(Matrix.identity(f3, 2))  # not Singer
    with pytest.raises(ValueError):
        normalizer_reflection(Matrix.identity(f5, 3))  # n != 2


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_normalizing_reflections_count(p, k):
    field = make_field(p, k)
    c = companion(find_primitive_poly(2, field))
    refs = normalizing_reflections(c)
    assert len(refs) == field.q + 1
    powers = set()
    acc = Matrix.identity(field, 2)
    for _ in range(field.q**2 - 1):
        acc = acc @ c
        powers.add(acc)
    for t in refs:
        assert t @ c @ t.inverse() in powers


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)])
def test_normalizing_reflections_exhaustive(p, k):
    # a reflection normalizes <c> iff it appears in the constructed list,
    # for every Singer conjugacy-class representative
    from singerlab import enumerate_reflections

    field = make_field(p, k)
    for f in _primitive_quadratics(field):
        c = companion(f)
        powers = set()
        acc = Matrix.identity(field, 2)
        for _ in range(field.q**2 - 1):
            acc = acc @ c
            powers.add(acc)
        expected = {t for t in enumerate_reflections(2, field)
                    if t @ c @ t.inverse() in powers}
        assert set(normalizing_reflections(c)) == expected


def test_singer_determinant_generates_units(f3):
    # every Singer cycle's determinant generates F_q^x
    for g in enumerate_gl(2, f3):
        if is_singer(g):
            assert element_order(f3, g.det()) == 2
    for p, k, n in [(5, 1, 2), (2, 2, 2), (2, 1, 3)]:
        field = make_field(p, k)
        c = companion(find_primitive_poly(n, field))
        assert element_order(field, c.det()) == field.q - 1

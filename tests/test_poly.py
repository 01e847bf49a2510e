import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singerlab import (Poly, char_poly, companion, enumerate_monic,
                       find_primitive_poly, gcd, invmod, is_irreducible,
                       is_primitive_poly, make_field, powmod)
from singerlab.poly import FieldExtension

from conftest import SMALL_FIELDS, trial_phi


def brute_force_irreducible(f):
    """Trial division by every monic divisor of degree <= deg(f)/2."""
    n = f.degree
    field = f.field
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in enumerate_monic(d, field):
            if (f % g).is_zero:
                return False
    return True


def test_poly_normalization_and_text(f3):
    f = Poly(f3, (2, 1, 1, 0, 0))
    assert f.coeffs == (2, 1, 1)
    assert f.degree == 2 and f.is_monic
    assert f.to_text() == "2,1,1"
    assert Poly.from_text(f3, "2,1,1") == f
    assert Poly(f3).is_zero and Poly(f3).degree == -1


def test_poly_hash_is_computed_once(f3, monkeypatch):
    from singerlab.ff import FieldSpec

    built, raw = Poly(f3, (2, 1, 1, 0)), Poly._raw(f3, (2, 1, 1))
    assert built == raw and hash(built) == hash(raw) == hash((f3, (2, 1, 1)))
    assert len({built, raw, Poly.from_text(f3, "2,1,1")}) == 1
    field_hashes = []
    field_hash = FieldSpec.__hash__
    monkeypatch.setattr(FieldSpec, "__hash__",
                        lambda self: field_hashes.append(self) or field_hash(self))
    fresh = Poly._raw(f3, (1, 0, 1))
    for _ in range(3):
        hash(fresh)
    assert len(field_hashes) == 1  # the field is hashed on first use only
    for name in ("coeffs", "field", "_hash"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(built, name, None)


def test_ops_examples(f2, f3):
    x = Poly.x(f3)
    one = Poly.one(f3)
    assert gcd(x * x - one, x - one) == Poly.from_text(f3, "2,1")  # x + 2
    assert powmod(x, 9, Poly.from_text(f3, "2,1,1")) == x  # x^9 = x in F_9
    x2 = Poly.x(f2)
    assert (x2 + Poly.one(f2)) * (x2 + Poly.one(f2)) == Poly.from_text(f2, "1,0,1")


def test_divrem_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        field = make_field(p)
        for _ in range(60):
            f = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 7))])
            g = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            if g.is_zero:
                continue
            quot, rem = f.divrem(g)
            assert quot * g + rem == f
            assert rem.degree < g.degree


def test_divrem_by_zero(f3):
    with pytest.raises(ZeroDivisionError):
        Poly.x(f3).divrem(Poly.zero(f3))


def test_is_irreducible_examples(f3):
    assert is_irreducible(Poly.from_text(f3, "2,1,1"))  # x^2 + x - 1
    assert is_irreducible(Poly.from_text(f3, "1,0,1"))  # x^2 + 1
    assert not is_irreducible(Poly.from_text(f3, "2,0,1"))  # x^2 - 1
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(f3))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_is_irreducible_against_brute_force(p, k):
    field = make_field(p, k)
    for n in range(1, 5):
        for f in enumerate_monic(n, field):
            assert is_irreducible(f) == brute_force_irreducible(f), f


def test_is_primitive_examples(f2, f3):
    assert is_primitive_poly(Poly.from_text(f3, "2,1,1"))
    assert not is_primitive_poly(Poly.from_text(f3, "1,0,1"))  # root i has order 4
    assert is_primitive_poly(Poly.from_text(f2, "1,1,0,1"))  # x^3 + x + 1
    with pytest.raises(ValueError):
        is_primitive_poly(Poly.from_text(f3, "1,2"))  # not monic


def test_primitive_implies_irreducible(f3, f5):
    for field in (f3, f5):
        for f in enumerate_monic(2, field):
            if is_primitive_poly(f):
                assert is_irreducible(f)


def test_verdicts_still_raise_on_every_call(f3):
    # the memos cache verdicts, not errors
    for _ in range(2):
        with pytest.raises(ValueError):
            is_irreducible(Poly.one(f3))
        with pytest.raises(ValueError):
            is_primitive_poly(Poly.from_text(f3, "1,2"))


def _has_root(f):
    field = f.field
    for a in range(field.q):
        value = 0
        for c in reversed(f.coeffs):
            value = field.add(field.mul(value, a), c)
        if value == 0:
            return True
    return False


def _order_of_x(f):
    """The multiplicative order of x modulo an irreducible f, by repeated
    multiplication."""
    ext = FieldExtension(f, check=False)
    power, order = ext.x, 1
    while power != ext.one:
        power, order = ext.mul(power, ext.x), order + 1
    return order


def test_verdict_memos_are_keyed_by_the_field_model():
    # the two models of F_8 disagree on many verdicts for equal coefficient
    # tuples; each model is evaluated right after the other, through the
    # shared memos, and checked against a root test and the order of x
    models = [make_field(2, 3, (1, 0, 1, 1)), make_field(2, 3, (1, 1, 0, 1))]
    is_irreducible.cache_clear()
    is_primitive_poly.cache_clear()
    disagreements = {}
    for n in (2, 3):
        irreducible_differ = primitive_differ = 0
        for rest in itertools.product(range(8), repeat=n):
            verdicts = []
            for field in models:
                f = Poly(field, rest + (1,))
                irreducible = not _has_root(f)  # degree <= 3
                primitive = irreducible and _order_of_x(f) == 8**n - 1
                assert is_irreducible(f) == irreducible, (field, f)
                assert is_primitive_poly(f) == primitive, (field, f)
                verdicts.append((irreducible, primitive))
            (irr_a, prim_a), (irr_b, prim_b) = verdicts
            irreducible_differ += irr_a != irr_b
            primitive_differ += prim_a != prim_b
        disagreements[n] = (irreducible_differ, primitive_differ)
    assert disagreements == {2: (24, 20), 3: (188, 160)}


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 5, 1), (3, 2, 1), (4, 2, 1), (2, 2, 2)])
def test_primitive_poly_count(n, p, k):
    field = make_field(p, k)
    count = sum(is_primitive_poly(f) for f in enumerate_monic(n, field))
    assert count == trial_phi(field.q**n - 1) // n


def test_companion_examples(f3):
    assert companion(Poly.from_text(f3, "2,1,1")).to_text() == "0,1;1,2"
    assert companion(Poly.from_text(f3, "1,0,1")).to_text() == "0,2;1,0"
    assert companion(Poly.from_text(f3, "2,1")).to_text() == "1"  # x - 1
    with pytest.raises(ValueError):
        companion(Poly.from_text(f3, "1,2"))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_companion_char_poly_roundtrip(p, k):
    field = make_field(p, k)
    for n in range(1, 4):
        for f in enumerate_monic(n, field):
            assert char_poly(companion(f)) == f


def test_enumerate_monic_counts(f2, f3):
    assert len(list(enumerate_monic(2, f3, nonzero_constant=True))) == 6
    assert {f.to_text() for f in enumerate_monic(1, f2)} == {"0,1", "1,1"}
    assert {f.to_text() for f in enumerate_monic(2, f2, True)} == {"1,0,1", "1,1,1"}


def test_enumerate_monic_is_deterministic_lex(f3):
    texts = [f.to_text() for f in enumerate_monic(2, f3)]
    assert texts == sorted(texts, key=lambda s: [int(v) for v in s.split(",")])


def test_find_primitive_poly(f2, f3, f5):
    assert find_primitive_poly(2, f3).to_text() == "2,1,1"
    # both cubics x^3+x^2+1 and x^3+x+1 are primitive; lex picks the former
    assert find_primitive_poly(3, f2).to_text() == "1,0,1,1"
    assert find_primitive_poly(1, f5).to_text() == "2,1"  # x - 3, root of order 4
    count = sum(is_primitive_poly(f) for f in enumerate_monic(2, f3))
    assert count == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_find_primitive_poly_norm_filter_keeps_the_first(n, p, k):
    field = make_field(p, k)
    unfiltered = next(f for f in enumerate_monic(n, field, nonzero_constant=True)
                      if is_primitive_poly(f))
    assert find_primitive_poly(n, field) == unfiltered


def test_irreducible_roots_form_frobenius_orbit():
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        field = make_field(p, k)
        for n in (2, 3):
            for f in enumerate_monic(n, field):
                if not is_irreducible(f):
                    continue
                ext = FieldExtension(f, check=False)
                orbit = ext.frobenius_orbit(ext.x)
                assert len(orbit) == n
                assert len(set(orbit)) == n  # separable: distinct roots
                for root in orbit:
                    value = ext.zero
                    for c in reversed(f.coeffs):
                        value = ext.reduce(ext.mul(value, root) + Poly(field, (c,)))
                    assert value.is_zero


def test_field_extension_basics(f3):
    ext = FieldExtension(Poly.from_text(f3, "2,1,1"))
    z = ext.x
    assert ext.element_order(z) == 8
    assert ext.is_primitive(z)
    assert ext.mul(z, ext.inv(z)) == ext.one
    assert ext.minimal_poly(z) == ext.modulus
    with pytest.raises(ValueError):
        FieldExtension(Poly.from_text(f3, "2,0,1"))  # reducible modulus


def test_invmod_roundtrip(f5):
    m = find_primitive_poly(2, f5)
    for coeffs in itertools.product(range(5), repeat=2):
        f = Poly(f5, coeffs)
        if f.is_zero:
            continue
        assert (f * invmod(f, m)) % m == Poly.one(f5)


def test_powmod_modulo_a_constant_is_zero(f3):
    # F_3[x]/(2) is the zero ring, so every power is 0 there, x^0 included
    x = Poly.x(f3)
    for e in (0, 1, 2, 7):
        assert powmod(x, e, Poly(f3, (2,))).is_zero
        assert powmod(Poly.one(f3), e, Poly(f3, (1,))).is_zero
    assert powmod(x, 0, Poly.from_text(f3, "2,1,1")) == Poly.one(f3)
    assert powmod(x, 0, Poly.from_text(f3, "2,2")) == Poly.one(f3)


# -- the coefficient-list kernels against a test-local schoolbook oracle ------


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _school_mul(a, b, field):
    """Product of little-endian coefficient lists, term by term."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(out)


def _long_division(a, d, field):
    """(quotient, remainder) of a by a nonzero d, cancelling the leading
    term of the remainder with a multiple of d until its degree drops
    below deg d."""
    d, rem = _trim(d), _trim(a)
    quot = [0] * max(len(rem) - len(d) + 1, 0)
    inv_lead = field.inv(d[-1])
    while len(rem) >= len(d):
        c = field.mul(rem[-1], inv_lead)
        shift = len(rem) - len(d)
        quot[shift] = c
        for i, v in enumerate(d):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, v))
        rem = _trim(rem)
    return _trim(quot), rem


def _polys(field, max_size):
    return st.lists(st.integers(0, field.q - 1), max_size=max_size).map(
        lambda coeffs: Poly(field, coeffs))


def _kernel_cases(fields):
    """(f, g, m) over one of fields: f and g of degree < 7, m nonzero of
    degree < 5, so monic, non-monic and constant moduli all occur."""
    return st.sampled_from(fields).flatmap(lambda field: st.tuples(
        _polys(field, 7), _polys(field, 7), _polys(field, 5).filter(bool)))


_ALL_FIELDS = [make_field(p, k) for p, k in SMALL_FIELDS]
_PRIME_FIELDS = [field for field in _ALL_FIELDS if field.k == 1]
_F8, _F9 = make_field(2, 3), make_field(3, 2)
# (f, g, m) with a constant m over F_8 and a non-monic m over F_9
_CONSTANT_MODULUS = (Poly(_F8, (3, 5, 1)), Poly(_F8, (6, 0, 7)), Poly(_F8, (6,)))
_NON_MONIC_MODULUS = (Poly(_F9, (0, 4, 8)), Poly(_F9, (1, 2)), Poly(_F9, (5, 7, 2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases(_ALL_FIELDS), st.integers(0, 40))
@example(_CONSTANT_MODULUS, 0)
@example(_NON_MONIC_MODULUS, 13)
def test_powmod_matches_repeated_multiplication(case, e):
    f, _, m = case
    field = f.field
    expected = _long_division([1], m.coeffs, field)[1]
    for _ in range(e):
        expected = _long_division(_school_mul(expected, list(f.coeffs), field),
                                  m.coeffs, field)[1]
    assert list(powmod(f, e, m).coeffs) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases(_ALL_FIELDS))
@example(_CONSTANT_MODULUS)
@example(_NON_MONIC_MODULUS)
def test_divrem_property(case):
    a, _, d = case
    field = a.field
    quot, rem = a.divrem(d)
    assert rem.degree < d.degree
    rebuilt = _school_mul(list(quot.coeffs), list(d.coeffs), field)
    rebuilt += [0] * (len(rem.coeffs) - len(rebuilt))
    for i, c in enumerate(rem.coeffs):
        rebuilt[i] = field.add(rebuilt[i], c)
    assert _trim(rebuilt) == list(a.coeffs)
    assert (list(quot.coeffs), list(rem.coeffs)) == _long_division(a.coeffs, d.coeffs, field)
    assert a % d == rem


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases(_ALL_FIELDS))
@example(_CONSTANT_MODULUS)
@example(_NON_MONIC_MODULUS)
def test_field_extension_mul_matches_product_mod(case):
    a, b, m = case
    ext = FieldExtension(m, check=False)
    assert ext.mul(a, b) == (a * b) % m
    assert list(ext.mul(a, b).coeffs) == _long_division(
        _school_mul(list(a.coeffs), list(b.coeffs), a.field), m.coeffs, a.field)[1]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cases(_PRIME_FIELDS), st.integers(0, 40))
def test_powmod_matches_sympy_on_prime_fields(sympy, case, e):
    f, _, m = case
    p = f.field.p
    x = sympy.Symbol("x")

    def to_sympy(g):
        return sympy.Poly(list(reversed(g.coeffs)) or [0], x, modulus=p)

    expected = (to_sympy(f) ** e).rem(to_sympy(m))
    assert list(powmod(f, e, m).coeffs) == _trim(c % p for c in reversed(expected.all_coeffs()))

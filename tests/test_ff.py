import itertools
import random

import pytest

from singerlab import (element_order, factorize, frobenius, is_prime,
                       is_primitive_element, make_field)

from conftest import run_python, trial_phi


def test_make_field_prime(f3):
    assert (f3.p, f3.k, f3.q) == (3, 1, 3)
    assert f3.modulus == (0, 1)  # the identity polynomial x


def test_make_field_extension_with_modulus(f9):
    assert f9.q == 9
    assert f9.modulus == (2, 1, 1)  # x^2 + x - 1 with -1 = 2 mod 3


def test_make_field_default_modulus_unique_quadratic():
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # only irreducible quadratic over F_2


def test_make_field_default_modulus_is_lex_least():
    # over F_3 the first irreducible quadratic by (c0, c1) is x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 2, 1))  # (x+1)^2 is reducible
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_field_ops_examples(f3, f5, f9):
    assert f3.mul(2, 2) == 1
    z = f9.elem(3)  # the class of x
    assert (z * z).value == 7  # 1 - z, coefficients (1, 2)
    assert f5.inv(3) == 2


def test_pow_and_inverse(f5, f9):
    a = f5.elem(3)
    assert (a ** -1).value == 2
    assert (a ** 0).value == 1
    z = f9.elem(3)
    assert (z ** 8).value == 1
    assert z ** -3 == (z ** 3).inverse()
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f9.zero ** -1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_lagrange_and_inverses(p, k):
    field = make_field(p, k)
    for v in range(1, field.q):
        assert field.mul(v, field.inv(v)) == 1
        assert field.pow(v, field.q - 1) == 1


def _gf2_mod(a: int, m: int) -> int:
    """Remainder of GF(2) polynomials held as int bitmasks (bit i is x^i)."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def _gf2_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less product of two bitmasks, reduced modulo m."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    return _gf2_mod(prod, m)


def _gf2_least_irreducible(k: int) -> int:
    """Lex-least monic irreducible of degree k by (c_0, ..., c_{k-1}), by trial division."""
    for tail in itertools.product((0, 1), repeat=k):
        f = sum(c << i for i, c in enumerate(tail)) | 1 << k
        if all(_gf2_mod(f, d) for d in range(2, 1 << (k // 2 + 1))):
            return f
    raise AssertionError("no irreducible polynomial found")


@pytest.mark.parametrize("k", [9, 13])
def test_untabled_binary_fields_match_bitmask_oracle(k):
    # q = 512 adds without tables; q = 8192 also multiplies without them
    field = make_field(2, k)
    q = field.q
    modulus = _gf2_least_irreducible(k)
    assert field.encode(field.modulus) == modulus  # the same little-endian bitmask
    rng = random.Random(k)
    for _ in range(300):
        a, b = rng.randrange(1, q), rng.randrange(q)
        assert field.add(a, b) == a ^ b
        assert field.mul(a, b) == _gf2_mulmod(a, b, modulus)
        assert field.mul(a, field.inv(a)) == 1
        assert field.pow(a, q - 1) == 1
        power, base, e = 1, a, b
        while e:
            if e & 1:
                power = _gf2_mulmod(power, base, modulus)
            base = _gf2_mulmod(base, base, modulus)
            e >>= 1
        assert field.pow(a, b) == power


def test_field_axioms_exhaustive(f9):
    els = list(range(9))
    for a in els:
        for b in els:
            assert f9.add(a, b) == f9.add(b, a)
            assert f9.mul(a, b) == f9.mul(b, a)
            for c in els[:3]:
                lhs = f9.mul(a, f9.add(b, c))
                rhs = f9.add(f9.mul(a, b), f9.mul(a, c))
                assert lhs == rhs


def test_encoding_roundtrip():
    for p, k in [(2, 3), (3, 2), (5, 2)]:
        field = make_field(p, k)
        for v in range(field.q):
            assert field.encode(field.decode(v)) == v


def test_identity_encodings():
    # 0 and 1 encode the additive and multiplicative identities everywhere
    for p, k in [(2, 1), (3, 2), (2, 4), (5, 2)]:
        field = make_field(p, k)
        for v in range(field.q):
            assert field.add(0, v) == v
            assert field.mul(1, v) == v
            assert field.mul(0, v) == 0


def test_frobenius_fixed_points(f9):
    assert frobenius(f9.zero, 3).value == 0
    assert frobenius(f9.one, 3).value == 1
    z = f9.elem(3)
    assert frobenius(z, 3).value == 8  # z^3 = 2z + 2
    # the prime subfield sits at encodings 0..2 and is fixed pointwise
    for v in range(3):
        assert frobenius(f9.elem(v), 3).value == v


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4)])
def test_frobenius_is_field_automorphism(p, k):
    field = make_field(p, k)
    q0 = p
    for a in range(field.q):
        for b in range(field.q):
            fa, fb = field.pow(a, q0), field.pow(b, q0)
            assert field.pow(field.add(a, b), q0) == field.add(fa, fb)
            assert field.pow(field.mul(a, b), q0) == field.mul(fa, fb)
    # the fixed set of a -> a^{q0^j} is exactly the subfield of order q0^j
    for j in range(1, k):
        if k % j:
            continue
        sub = p ** j
        fixed = sum(1 for a in range(field.q) if field.pow(a, sub) == a)
        assert fixed == sub


def test_frobenius_rejects_non_power(f9):
    with pytest.raises(ValueError):
        frobenius(f9.elem(3), 2)
    with pytest.raises(ValueError):
        frobenius(f9.elem(3), 6)


def test_element_order_examples(f5, f9):
    assert element_order(f5.one) == 1
    assert element_order(f5.elem(2)) == 4
    assert element_order(f9.elem(3)) == 8
    with pytest.raises(ValueError):
        element_order(f9.zero)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 4), (3, 3), (2, 6), (3, 4), (7, 2)])
def test_order_divides_and_primitive_count(p, k):
    field = make_field(p, k)
    primitive = 0
    for v in range(1, field.q):
        order = element_order(field.elem(v))
        assert (field.q - 1) % order == 0
        primitive += order == field.q - 1
    assert primitive == trial_phi(field.q - 1)


def test_is_primitive_examples(f5, f9):
    assert is_primitive_element(f9.elem(3))
    assert not is_primitive_element(f9.one)
    assert not is_primitive_element(f5.elem(4))  # order 2
    assert not is_primitive_element(f5.zero)


def test_cross_field_mixing_is_detected(f3, f5):
    with pytest.raises(ValueError):
        f3.elem(1) + f5.elem(1)


def test_cross_field_contracts_survive_optimize():
    # python -O strips assert statements; these guards must raise regardless
    result = run_python("""
from singerlab import Matrix, make_field
f3, f5 = make_field(3), make_field(5)
for op in (lambda: f3.elem(2) + f5.elem(4),
           lambda: Matrix.identity(f3, 2) @ Matrix.identity(f5, 2)):
    try:
        op()
    except ValueError:
        continue
    raise SystemExit("cross-field operation was not rejected")
""", "-O")
    assert result.returncode == 0, result.stdout + result.stderr


def test_is_prime():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)


def test_factorize_reconstructs():
    for m in [1, 2, 80, 48, 168, 20160, 3**9 - 1, 2**16 - 1]:
        prod = 1
        for prime, exp in factorize(m):
            assert is_prime(prime)
            prod *= prime**exp
        assert prod == m


def test_factorize_large_semiprime():
    # both factors exceed the trial-division bound, forcing the rho path
    a, b = 10**9 + 7, 10**9 + 9
    assert factorize(a * b) == ((a, 1), (b, 1))


def test_serialization(f9):
    assert f9.serialize() == {"p": 3, "k": 2, "modulus": [2, 1, 1]}

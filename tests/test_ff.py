import itertools
import random

import pytest

from singerlab import Poly, element_order, factorize, is_prime, make_field, poly

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
    z = 3  # the class of x in F_9
    assert f9.mul(z, z) == 7  # 1 - z, coefficients (1, 2)
    assert f5.inv(3) == 2


def test_pow_and_inverse(f5, f9):
    assert f5.pow(3, -1) == 2
    assert f5.pow(3, 0) == 1
    z = 3
    assert f9.pow(z, 8) == 1
    assert f9.pow(z, -3) == f9.inv(f9.pow(z, 3))
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f9.pow(0, -1)


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
def test_untabled_binary_fields_match_bitmask_oracle(k, monkeypatch):
    # q = 512 adds without tables; q = 8192 also multiplies without them
    field = make_field(2, k)
    q = field.q
    modulus = _gf2_least_irreducible(k)
    assert field.encode(field.modulus) == modulus  # the same little-endian bitmask
    rng = random.Random(k)
    pairs = [(rng.randrange(1, q), rng.randrange(q)) for _ in range(300)]
    # the poly kernels' product modulo the modulus, with its reduction rule
    # computed afresh for each product
    prime, modulus_poly = make_field(2), Poly(make_field(2), field.modulus)
    by_kernels = [field.encode((Poly(prime, field.decode(a)) * Poly(prime, field.decode(b))
                                % modulus_poly).coeffs) for a, b in pairs]
    # the field computes its reduction rule once, when it is built
    monkeypatch.setattr(poly, "_tail", None)
    for (a, b), product in zip(pairs, by_kernels):
        assert field.add(a, b) == a ^ b
        assert field.mul(a, b) == _gf2_mulmod(a, b, modulus) == product
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


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4)])
def test_frobenius_is_field_automorphism(p, k, f9):
    field = make_field(p, k)
    q0 = p
    # the prime subfield sits at encodings 0..p-1 and is fixed pointwise
    assert all(field.pow(v, q0) == v for v in range(p))
    if (p, k) == (3, 2):
        assert f9.pow(3, 3) == 8  # z^3 = 2z + 2 for z the class of x
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


def test_element_order_examples(f5, f9):
    assert element_order(f5, 1) == 1
    assert element_order(f5, 2) == 4
    assert element_order(f9, 3) == 8
    with pytest.raises(ValueError):
        element_order(f9, 0)
    with pytest.raises(ValueError):
        element_order(f9, 9)  # out of range


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 4), (3, 3), (2, 6), (3, 4), (7, 2)])
def test_order_divides_and_primitive_count(p, k):
    field = make_field(p, k)
    primitive = 0
    for v in range(1, field.q):
        order = element_order(field, v)
        assert (field.q - 1) % order == 0
        primitive += order == field.q - 1
    assert primitive == trial_phi(field.q - 1)


def test_is_primitive_examples(f5, f9):
    # primitive elements are the encodings of order q - 1
    def primitive(field):
        return [v for v in range(1, field.q) if element_order(field, v) == field.q - 1]

    assert primitive(f5) == [2, 3]  # 4 has order 2
    assert primitive(f9) == [3, 4, 6, 8]  # z, z^7, z^5, z^3 for z the class of x


def test_cross_field_mixing_is_detected(f3, f5, f9):
    with pytest.raises(ValueError):
        Poly(f3, (2,)) + Poly(f5, (4,))
    with pytest.raises(ValueError):
        Poly(f3, (2, 1)) - Poly(f5, (4,))
    with pytest.raises(ValueError):
        Poly(f3, (2, 1)) * Poly(f9, (8, 1))
    with pytest.raises(ValueError):
        Poly(f9, (8, 0, 1)).divrem(Poly(f3, (2, 1)))
    with pytest.raises(ValueError):
        Poly(f9, (8, 0, 1)) % Poly(f3, (2, 1))


def test_cross_field_contracts_survive_optimize():
    # python -O strips assert statements; these guards must raise regardless
    result = run_python("""
from singerlab import Matrix, Poly, make_field
f3, f5 = make_field(3), make_field(5)
for op in (lambda: Poly(f3, (2,)) + Poly(f5, (4,)),
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

"""Exact arithmetic in the finite fields F_p and F_{p^k}.

A field element is an integer in [0, q), its encoding, and there is no
other element type: matrices, polynomials and reports all hold encodings.
The encoding is the coefficient vector of the residue polynomial,
little-endian base p, so value = sum(c_i * p**i).  0 and 1 encode the
additive and multiplicative identities.  Prime fields use direct modular
arithmetic.  An extension field is F_p[x] modulo a monic irreducible,
chosen and checked with the poly module over the prime field; fields with
q <= 4096 precompute generator-power (exp/log) tables, and larger ones
multiply with poly's coefficient-list kernels modulo the modulus.  poly
builds on this module, so it is imported inside the functions that use it.

Serialization: an element is its integer encoding; a field is the triple
{p, k, modulus coefficients little-endian} (modulus is the polynomial x
when k = 1).
"""

from __future__ import annotations

import functools
import math
import random

_TRIAL_LIMIT = 10**6

_TABLE_Q_LIMIT = 4096  # exp/log tables beyond this would dwarf desk scale
_ADD_TABLE_Q_LIMIT = 256


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_rho(m: int) -> int:
    # Brent's cycle variant; m is odd, composite, with no factor <= 10^6.
    rng = random.Random(0xC0FFEE ^ m)
    while True:
        y = rng.randrange(1, m)
        c = rng.randrange(1, m)
        f = lambda v: (v * v + c) % m
        x, d = y, 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), m)
        if d != m:
            return d


@functools.lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((prime, exponent), ...), ascending.

    Trial division up to 10^6, then Pollard rho for the cofactor.
    """
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m and d <= _TRIAL_LIMIT:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return tuple(sorted(factors.items()))


def _multiplicative_order(pow_fn, identity, bound: int) -> int:
    """Order of an element given a pow function and a multiple of the order."""
    order = bound
    for prime, _ in factorize(bound):
        while order % prime == 0 and pow_fn(order // prime) == identity:
            order //= prime
    return order


class FieldSpec:
    """The finite field F_q, q = p^k, with table-backed exact arithmetic.

    Instances are immutable and cached by make_field; all operations are
    pure and safe to share across threads.  Elements are plain integer
    encodings: add/sub/neg/mul/inv/pow take and return them, and carry no
    field tag, so the caller keeps each encoding with its field.
    """

    __slots__ = ("p", "k", "q", "modulus", "_modulus_poly", "_tail", "_exp", "_log",
                 "_add", "_neg", "_key")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self._modulus_poly = self._tail = None
        if k == 1:
            if modulus is None:
                modulus = (0, 1)
            if tuple(modulus) != (0, 1):
                raise ValueError("prime fields use the identity polynomial x as modulus")
        else:
            from .poly import (Poly, _tail, enumerate_monic,  # deferred: poly builds on ff
                               is_irreducible)

            prime = make_field(p)
            if modulus is None:
                # x divides every candidate with c_0 = 0, so skipping those
                # leaves the lex-least irreducible by (c_0, ..., c_{k-1}) unchanged
                self._modulus_poly = next(
                    f for f in enumerate_monic(k, prime, nonzero_constant=True)
                    if is_irreducible(f))
            else:
                modulus = tuple(v % p for v in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {k}")
                self._modulus_poly = Poly(prime, modulus)
                if not is_irreducible(self._modulus_poly):
                    raise ValueError("modulus is reducible over the prime field")
            modulus = self._modulus_poly.coeffs
            self._tail = _tail(modulus, prime)  # the untabled mul's reduction rule
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(modulus)
        self._key = (p, k, self.modulus)
        self._exp = self._log = self._add = self._neg = None
        if k > 1:
            if self.q <= _ADD_TABLE_Q_LIMIT:
                self._build_add_tables()
            if self.q <= _TABLE_Q_LIMIT:
                self._build_mul_tables()

    # -- encoding ----------------------------------------------------------

    def decode(self, value: int) -> tuple[int, ...]:
        """Coefficient vector (little-endian base p) of an encoding."""
        coeffs = []
        for _ in range(self.k):
            value, r = divmod(value, self.p)
            coeffs.append(r)
        return tuple(coeffs)

    def encode(self, coeffs) -> int:
        value = 0
        for c in reversed(list(coeffs)):
            value = value * self.p + c % self.p
        return value

    def _build_add_tables(self):
        q = self.q
        digits = [self.decode(v) for v in range(q)]
        self._neg = [self.encode(tuple(-d for d in ds)) for ds in digits]
        self._add = [
            self.encode(tuple(x + y for x, y in zip(digits[a], digits[b])))
            for a in range(q)
            for b in range(q)
        ]

    def _build_mul_tables(self):
        # built with the untabled mul, which serves until _exp is set
        q = self.q
        for g in range(self.p, q):
            powers = [1]
            v = g
            while v != 1:
                powers.append(v)
                v = self.mul(v, g)
            if len(powers) == q - 1:
                break
        else:
            raise AssertionError("no multiplicative generator found")  # unreachable
        self._exp = powers + powers  # doubled to skip a modulo in mul()
        log = [0] * q
        for i, v in enumerate(powers):
            log[v] = i
        self._log = log

    # -- arithmetic on encodings -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self._add is not None:
            return self._add[a * self.q + b]
        return self.encode(x + y for x, y in zip(self.decode(a), self.decode(b)))

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self._neg is not None:
            return self._neg[a]
        return self.encode(-x for x in self.decode(a))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        from .poly import _mul, _reduce  # deferred: poly builds on ff

        prime = self._modulus_poly.field
        prod = _mul(self.decode(a), self.decode(b), prime)
        _reduce(prod, self._tail, prime)
        return self.encode(prod)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("inversion of zero field element")
        e %= self.q - 1
        if self.k == 1:
            return pow(a, e, self.p)
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.k == 1:
            return f"F{self.p}"
        return f"F{self.q}"

    def serialize(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, k: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    return FieldSpec(p, k, modulus)


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Build (or fetch the cached) F_{p^k}.

    If modulus is omitted for k >= 2, the lexicographically least monic
    irreducible of degree k over F_p (by coefficient tuple) is chosen, so
    the result is reproducible.  modulus may be a little-endian coefficient
    sequence or anything with a little-endian .coeffs attribute.
    """
    if modulus is not None:
        coeffs = getattr(modulus, "coeffs", modulus)
        modulus = tuple(int(c) % p for c in coeffs)
    return _cached_field(p, k, modulus)


def element_order(field: FieldSpec, a: int) -> int:
    """Multiplicative order of the element of field encoded by a: the least
    m >= 1 with a^m = 1.  The order is q - 1 exactly when a is primitive."""
    if a == 0:
        raise ValueError("the zero element has no multiplicative order")
    if not 0 < a < field.q:
        raise ValueError(f"encoding {a} out of range for {field!r}")
    return _multiplicative_order(lambda e: field.pow(a, e), 1, field.q - 1)

"""Polynomials over F_q: arithmetic, irreducibility, primitivity, companions.

Coefficients are stored little-endian as integer encodings (coeffs[i] is
the coefficient of x^i), with no trailing zeros; the zero polynomial has
an empty coefficient tuple.  Text form is the comma-separated encoding
list, e.g. "2,1,1" for x^2 + x + 2 over F_3.

All products and reductions run on plain coefficient lists through one
product kernel (_mul) and one long-division kernel (_reduce, which reads
the divisor as its reduction rule, _tail): Poly arithmetic, powmod,
FieldExtension.mul and matrix.char_poly build a Poly only for their result,
and only the Poly constructor validates coefficients.

The Rabin and primitivity verdicts are pure functions of the polynomial, so
each is memoized by the Poly itself in a bounded LRU: a sweep over
GL_n(F_q) runs them once per distinct characteristic polynomial, not once
per element.

field_model is the one model of F_(q^n), memoized per (n, F_q): discrete
logs of a primitive alpha, which list the monic irreducible and primitive
polynomials of degree n with their roots.  FieldExtension is F_q[x]/(f)
for one given f, for the routes that must not read the model.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from types import MappingProxyType, SimpleNamespace
from typing import Iterator

from .ff import FieldSpec, _multiplicative_order, element_order, factorize

# Verdicts held by each polynomial memo (is_irreducible, is_primitive_poly and
# singer._eigenvalues_primitive).  A sweep over GL_n(F_q) meets at most
# q^(n-1)(q - 1) characteristic polynomials with c_0 != 0: 56 on GL_2(F_8) and
# 448 on GL_3(F_8).  2^12 holds them all on GL_2(F_q) up to q = 64 and on
# GL_3(F_q) up to q = 16 (GL_2(F_64) alone has 1.6*10^7 elements); a larger
# sweep only evicts the oldest verdicts, and every verdict stays correct.  An
# entry, its Poly key included, takes about 300 bytes (tracemalloc), so the
# three full memos hold under 4 MB.  Keys are Polys, which hash and compare by
# (field, coeffs), so two models of one F_q never share an entry.
_POLY_VERDICT_CACHE_SIZE = 2**12


class Poly:
    """An immutable polynomial over a fixed F_q, hashable by value; the
    hash is computed on first use and kept."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = []
        for c in coeffs:
            v = operator.index(c)  # no silent float truncation
            if not 0 <= v < field.q:
                raise ValueError(f"coefficient encoding {v} out of range for {field!r}")
            cs.append(v)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, field: FieldSpec, coeffs: tuple) -> "Poly":
        """Unchecked constructor for arithmetic results: coeffs must be a
        tuple of in-range encodings with no trailing zeros."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", coeffs)
        object.__setattr__(poly, "_hash", None)
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def from_text(cls, field: FieldSpec, text: str) -> "Poly":
        return cls(field, (int(t) for t in text.split(",")))

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.field, self.coeffs)))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}*{xs}")
        return " + ".join(terms)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        fld = _common_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = fld.add(out[i], c)
        return Poly._raw(fld, _trimmed(out))

    def __neg__(self) -> "Poly":
        fld = self.field
        return Poly._raw(fld, tuple(fld.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        fld = _common_field(self, other)
        return Poly._raw(fld, tuple(_mul(self.coeffs, other.coeffs, fld)))

    def scale(self, c: int) -> "Poly":
        fld = self.field
        return Poly._raw(fld, _trimmed([fld.mul(c, v) for v in self.coeffs]))

    def divrem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder; raises on division by the zero polynomial."""
        quot = [0] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        rem = self._remainder(divisor, quot)
        # quot divides by the monic d / lead, so the quotient by d is quot / lead
        monic_quot = Poly._raw(rem.field, _trimmed(quot))
        return monic_quot.scale(rem.field.inv(divisor.leading)), rem

    def __mod__(self, other: "Poly") -> "Poly":
        return self._remainder(other)

    def _remainder(self, divisor: "Poly", quot: list | None = None) -> "Poly":
        """self mod divisor; quot, when given, receives the quotient as in _reduce."""
        fld = _common_field(self, divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        _reduce(rem, _tail(divisor.coeffs, fld), fld, quot)
        return Poly._raw(fld, tuple(rem))

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))


def _common_field(a: Poly, b: Poly) -> FieldSpec:
    """The field of a and b; raises ValueError when they differ."""
    fld = a.field
    if b.field is not fld and b.field != fld:
        raise ValueError("polynomials over different fields")
    return fld


def _trimmed(coeffs: list) -> tuple:
    """coeffs without trailing zeros, as a tuple."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _mul(a, b, field: FieldSpec) -> list:
    """Schoolbook product of two coefficient sequences over field.

    Inputs without trailing zeros give a product without them, since the
    leading coefficients multiply to a nonzero one.
    """
    if not a or not b:
        return []
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if bj:
                    out[k] = add(out[k], mul(ai, bj))
    return out


def _tail(divisor, field: FieldSpec) -> list:
    """The reduction rule of a divisor d of degree n, given as a nonzero
    coefficient sequence without trailing zeros: x^n = sum_i tail[i] x^i
    modulo d, with tail[i] = -d_i / d_n."""
    inv_lead = field.inv(divisor[-1])
    return [field.neg(field.mul(d, inv_lead)) for d in divisor[:-1]]


def _reduce(rem: list, tail: list, field: FieldSpec, quot: list | None = None) -> None:
    """Long division in place: rem becomes its remainder, without trailing
    zeros, modulo the divisor whose _tail is tail.

    quot, when given, must hold max(len(rem) - len(tail), 0) zeros; it
    receives the quotient by the monic associate of the divisor.
    """
    add, mul = field.add, field.mul
    dn = len(tail)
    while len(rem) > dn:
        c = rem.pop()
        if c:
            shift = len(rem) - dn
            if quot is not None:
                quot[shift] = c
            for k, t in enumerate(tail, shift):
                if t:
                    rem[k] = add(rem[k], mul(c, t))
    while rem and rem[-1] == 0:
        rem.pop()


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def powmod(f: Poly, e: int, m: Poly) -> Poly:
    """f^e mod m by square-and-multiply, e >= 0; e = 0 gives 1 mod m."""
    if e < 0:
        raise ValueError("negative exponent; use invmod first")
    fld = _common_field(f, m)
    if m.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    tail = _tail(m.coeffs, fld)
    result = [1]
    _reduce(result, tail, fld)
    base = list(f.coeffs)
    _reduce(base, tail, fld)
    while e:
        if e & 1:
            result = _mul(result, base, fld)
            _reduce(result, tail, fld)
        e >>= 1
        if e:
            base = _mul(base, base, fld)
            _reduce(base, tail, fld)
    return Poly._raw(fld, tuple(result))


def invmod(f: Poly, m: Poly) -> Poly:
    """Inverse of f modulo m (extended Euclid); requires gcd(f, m) = 1."""
    fld = f.field
    r0, r1 = m, f % m
    s0, s1 = Poly.zero(fld), Poly.one(fld)
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return s0.scale(fld.inv(r0.leading)) % m


@functools.lru_cache(maxsize=_POLY_VERDICT_CACHE_SIZE)
def is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility test over F_q.

    f of degree n is irreducible iff x^{q^n} = x (mod f) and
    gcd(x^{q^{n/r}} - x, f) = 1 for every prime r dividing n.
    """
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    q = f.field.q
    x = Poly.x(f.field)
    if powmod(x, q**n, f) != x % f:
        return False
    for r, _ in factorize(n):
        if gcd(powmod(x, q ** (n // r), f) - x, f).degree != 0:
            return False
    return True


@functools.lru_cache(maxsize=_POLY_VERDICT_CACHE_SIZE)
def is_primitive_poly(f: Poly) -> bool:
    """True iff f is irreducible and the class of x generates (F_q[x]/(f))^x."""
    if not f.is_monic:
        raise ValueError("primitivity is defined for monic polynomials")
    n = f.degree
    if n < 1 or f[0] == 0 or not is_irreducible(f):
        return False
    q = f.field.q
    target = q**n - 1
    x = Poly.x(f.field)
    one = Poly.one(f.field)
    if powmod(x, target, f) != one:  # sanity: Lagrange in the residue field
        return False
    return all(powmod(x, target // r, f) != one for r, _ in factorize(target))


def companion(f: Poly):
    """Companion matrix of a monic f: subdiagonal 1s, last column -a_i."""
    from .matrix import Matrix  # deferred: matrix builds on poly

    if not f.is_monic:
        raise ValueError("companion matrix requires a monic polynomial")
    n = f.degree
    fld = f.field
    entries = [0] * (n * n)
    for i in range(n):
        entries[i * n + n - 1] = fld.neg(f[i])
        if i + 1 < n:
            entries[(i + 1) * n + i] = 1
    return Matrix(fld, n, entries)


def enumerate_monic(n: int, field: FieldSpec, nonzero_constant: bool = False) -> Iterator[Poly]:
    """All monic degree-n polynomials, lexicographic on (c_0, ..., c_{n-1})."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    first = range(1, field.q) if nonzero_constant else range(field.q)
    for c0 in first:
        for rest in itertools.product(range(field.q), repeat=n - 1):
            yield Poly(field, (c0,) + rest + (1,))


def find_primitive_poly(n: int, field: FieldSpec) -> Poly:
    """The first primitive degree-n polynomial in enumerate_monic order.

    (-1)^n c_0 is the norm of a root, and the norm maps F_{q^n}^x onto
    F_q^x, so a primitive root has a primitive norm: every c_0 whose
    (-1)^n c_0 is not a primitive element of F_q is skipped untested."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    sign = field.neg(1) if n % 2 else 1
    for c0 in range(1, q):
        if element_order(field, field.mul(sign, c0)) != q - 1:
            continue
        for rest in itertools.product(range(q), repeat=n - 1):  # enumerate_monic's order
            f = Poly(field, (c0,) + rest + (1,))
            if is_primitive_poly(f):
                return f
    raise AssertionError("primitive polynomials always exist")  # unreachable


@functools.lru_cache(maxsize=None)
def field_model(n: int, field: FieldSpec) -> SimpleNamespace:
    """F_(q^n) as K = F_q[x]/(f_1), f_1 = find_primitive_poly(n, F_q), read
    through the discrete logs of alpha = x mod f_1, with m = q^n - 1; built
    on first use and shared by every caller.

    powers[i] is alpha^i, i < m, as its coordinates in the basis 1, alpha,
    ..., alpha^(n-1), and log inverts it; the m logs are checked to be
    distinct, so alpha generates K^x.  leader[i] is the least member of
    the cyclotomic coset {i q^k mod m}: alpha^leader[i] stands for the
    Frobenius orbit of alpha^i.  trace[i] = Tr(alpha^i), read off the
    coordinates of alpha^i and the traces of the basis.  multiplication(i)
    is the matrix of multiplication by alpha^i.  A coset with n members is
    the Frobenius orbit of the n roots of one monic irreducible f of degree
    n with f(0) != 0, the characteristic polynomial of multiplication by
    alpha^j for its leader j: irreducibles maps each such f to that j, in
    enumerate_monic order.  roots keeps the f with j prime to m, whose root
    alpha^j generates K^x, and primitives lists them.
    """
    from .matrix import Matrix, char_poly  # deferred: matrix builds on poly

    q = field.q
    m = q**n - 1
    tail = [field.neg(c) for c in find_primitive_poly(n, field).coeffs[:-1]]
    v = (1,) + (0,) * (n - 1)
    powers = []
    for _ in range(m):
        powers.append(v)
        # alpha v, with x^n = sum_i tail[i] x^i
        v = tuple(field.add(a, field.mul(v[-1], t)) for a, t in zip((0,) + v[:-1], tail))
    log = MappingProxyType({v: i for i, v in enumerate(powers)})
    if len(log) != m:
        raise AssertionError("two powers alpha^i, i < q^n - 1, coincide")
    leader = [-1] * m
    full_cosets = []  # the leaders of cosets with n members
    for i in range(m):
        j, size = i, 0
        while leader[j] < 0:  # i is the least of its coset when first met
            leader[j] = i
            j = j * q % m
            size += 1
        if size == n:
            full_cosets.append(i)
    basis_traces = [functools.reduce(field.add, (powers[(i + k) % m][k] for k in range(n)))
                    for i in range(n)]
    trace = [functools.reduce(field.add, map(field.mul, v, basis_traces)) for v in powers]

    def multiplication(i: int) -> Matrix:
        """Multiplication by alpha^i, in the basis 1, alpha, ..., alpha^(n-1)."""
        columns = [powers[(i + k) % m] for k in range(n)]
        return Matrix._raw(field, n, tuple(col[r] for r in range(n) for col in columns))

    irreducibles = MappingProxyType(dict(sorted(
        ((char_poly(multiplication(j)), j) for j in full_cosets), key=lambda item: item[0].coeffs)))
    roots = MappingProxyType({f: j for f, j in irreducibles.items() if math.gcd(j, m) == 1})
    # every caller shares the memoized tables, so none of them can be written
    return SimpleNamespace(n=n, field=field, m=m, powers=tuple(powers), log=log,
                           leader=tuple(leader), trace=tuple(trace), multiplication=multiplication,
                           irreducibles=irreducibles, roots=roots, primitives=tuple(roots))


class FieldExtension:
    """The residue field F_q[x]/(f) for a monic irreducible f of degree n.

    Residues are Poly values of degree < n over the ground field, for any
    prime-power ground field: F_{q^n} built from the one f given, with no
    discrete logs, where field_model is built from f_1.
    """

    def __init__(self, modulus: Poly, check: bool = True):
        if check and (not modulus.is_monic or not is_irreducible(modulus)):
            raise ValueError("extension modulus must be monic irreducible")
        self.modulus = modulus
        self.ground = modulus.field
        self._tail = _tail(modulus.coeffs, modulus.field)
        self.degree = modulus.degree
        self.order = self.ground.q ** self.degree
        self.x = Poly.x(self.ground) % modulus
        self.one = Poly.one(self.ground)
        self.zero = Poly.zero(self.ground)

    def reduce(self, f: Poly) -> Poly:
        return f % self.modulus

    def mul(self, a: Poly, b: Poly) -> Poly:
        m = self.modulus
        prod = _mul(a.coeffs, b.coeffs, _common_field(a, m))
        _reduce(prod, self._tail, _common_field(b, m))
        return Poly._raw(m.field, tuple(prod))

    def inv(self, a: Poly) -> Poly:
        return invmod(a, self.modulus)

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return powmod(self.inv(a), -e, self.modulus)
        return powmod(a, e, self.modulus)

    def element_order(self, a: Poly) -> int:
        if a.is_zero:
            raise ValueError("the zero residue has no multiplicative order")
        return _multiplicative_order(lambda e: self.pow(a, e), self.one, self.order - 1)

    def is_primitive(self, a: Poly) -> bool:
        return not a.is_zero and self.element_order(a) == self.order - 1

    def frobenius(self, a: Poly) -> Poly:
        return self.pow(a, self.ground.q)

    def frobenius_orbit(self, a: Poly) -> list[Poly]:
        orbit = [self.reduce(a)]
        nxt = self.frobenius(orbit[0])
        while nxt != orbit[0]:
            orbit.append(nxt)
            nxt = self.frobenius(nxt)
        return orbit

    def minimal_poly(self, a: Poly) -> Poly:
        """Minimal polynomial of a residue over the ground field.

        Computed as the product of (y - s) over the Frobenius orbit of a;
        the result must have constant residues as coefficients, which are
        cast down to ground-field elements.
        """
        orbit = self.frobenius_orbit(a)
        # product over Poly-with-residue-coefficients, little-endian in y
        prod: list[Poly] = [self.one]
        for s in orbit:
            nxt = [self.zero] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - self.mul(c, s)
            prod = nxt
        coeffs = []
        for c in prod:
            if c.degree > 0:
                raise ArithmeticError("minimal polynomial coefficient failed to cast down")
            coeffs.append(c[0])
        return Poly(self.ground, coeffs)

    def elements(self) -> Iterator[Poly]:
        for coeffs in itertools.product(range(self.ground.q), repeat=self.degree):
            yield Poly(self.ground, coeffs)

    def __repr__(self):
        return f"{self.ground!r}[x]/({self.modulus!r})"

"""Singer cycles and irreducible elements of GL_n(F_q).

Implements independently computable characterizations of irreducible
elements and Singer cycles, the explicit reflections normalizing a Singer
cycle's cyclic subgroup when n = 2, and the checked cyclic basis P with
P^-1 g P = C_f, the Krylov basis of a standard vector, through which the
drivers read the class of a cyclic element g from its companion matrix.

The embedding tests and the largest irreducible order read the one model
of F_(q^n), poly.field_model: its irreducible and primitive polynomials,
the minimal polynomials of the field generators and of the primitive
elements, and their roots alpha^j, of order m / gcd(j, m).  Past the seed
f_1, the model comes from discrete logs and coset sizes, with no Rabin or
primitivity test of the f it lists, so these routes stay independent of
those two tests.  The eigenvalue test works in F_q[x]/(f), the one
FieldExtension of the package, and reads nothing of the model.

The routes that depend on the characteristic polynomial f alone (the Rabin
and primitivity tests in poly and _eigenvalues_primitive here) are memoized
by f in bounded LRUs, so a sweep runs each once per distinct f.  The
equivalence scan computes the matrix-dependent routes that are fixed by the
cyclic subgroup <g> (the order, the orbit walk and the subspace scan) once
per subgroup: g^k with gcd(k, ord g) = 1 generates <g>, so it has g's
order, g's orbits on the nonzero vectors, and g's invariant subspaces
(those of <g>).  One walk of the powers of g serves both the order and the
orbit of e_1.  Only char_poly runs per element.  The public oracles
singer_oracles and irreducible_conditions still compute every route for
the one element they are given, and the six routes stay independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .ff import FieldSpec
from .matrix import (Matrix, char_poly, enumerate_gl, fixed_space, gl_exponent,
                     invariant_subspace, matrix_order, mul_entries)
from .poly import (_POLY_VERDICT_CACHE_SIZE, FieldExtension, Poly, companion, field_model,
                   is_irreducible, is_primitive_poly)


def is_irreducible_element(g: Matrix) -> bool:
    """True iff the characteristic polynomial of g is irreducible over F_q."""
    return is_irreducible(char_poly(g))


def is_irreducible_oracle(g: Matrix) -> bool:
    """Subspace-scan check: g stabilizes no subspace of dimension 1..n-1."""
    return invariant_subspace(g) is None


def is_singer(g: Matrix) -> bool:
    """True iff the characteristic polynomial of g is primitive."""
    return is_primitive_poly(char_poly(g))


@functools.lru_cache(maxsize=None)
def max_irreducible_order(n: int, field: FieldSpec) -> int:
    """Largest root order over all monic irreducible degree-n polynomials
    with nonzero constant term: m / gcd(j, m), m = q^n - 1, for the roots
    alpha^j that field_model names."""
    model = field_model(n, field)
    return max(model.m // math.gcd(j, model.m) for j in model.irreducibles.values())


@dataclass(frozen=True)
class IrreducibleConditions:
    """The three equivalent characterizations of an irreducible element."""

    embeds_field_generator: bool   # char poly is the minimal poly of a field generator
    char_poly_irreducible: bool    # Rabin test on the characteristic polynomial
    no_invariant_subspace: bool    # exhaustive subspace scan

    def as_tuple(self) -> tuple[bool, ...]:
        return (self.embeds_field_generator, self.char_poly_irreducible,
                self.no_invariant_subspace)

    @property
    def consistent(self) -> bool:
        return len(set(self.as_tuple())) == 1


def irreducible_conditions(g: Matrix) -> IrreducibleConditions:
    return _irreducible_conditions(g, char_poly(g), is_irreducible_oracle(g))


def _irreducible_conditions(g: Matrix, f: Poly, no_invariant_subspace: bool
                            ) -> IrreducibleConditions:
    """irreducible_conditions(g) from g's characteristic polynomial f and
    the result of its subspace scan."""
    return IrreducibleConditions(
        embeds_field_generator=f in field_model(g.n, g.field).irreducibles,
        char_poly_irreducible=is_irreducible(f),
        no_invariant_subspace=no_invariant_subspace,
    )


@dataclass(frozen=True)
class SingerConditions:
    """Independently computed versions of the six Singer-cycle criteria."""

    embeds_primitive_element: bool  # char poly is the minimal poly of a primitive element
    irreducible_max_order: bool     # subspace scan + order against the irreducible maximum
    order_full: bool                # multiplicative order equals q^n - 1
    char_poly_primitive: bool       # root of the char poly generates the residue field
    transitive_on_nonzero: bool     # one g-orbit covers all nonzero vectors
    eigenvalue_primitive: bool      # every Frobenius-conjugate eigenvalue is primitive

    def as_tuple(self) -> tuple[bool, ...]:
        return (self.embeds_primitive_element, self.irreducible_max_order,
                self.order_full, self.char_poly_primitive,
                self.transitive_on_nonzero, self.eigenvalue_primitive)

    @property
    def consistent(self) -> bool:
        return len(set(self.as_tuple())) == 1


def _orbit_transitive(g: Matrix) -> bool:
    n, q = g.n, g.field.q
    start = (1,) + (0,) * (n - 1)
    v = start
    size = 0
    target = q**n - 1
    while True:
        v = g.apply(v)
        size += 1
        if v == start:
            break
        if size > target:
            raise AssertionError("orbit failed to close")  # unreachable for invertible g
    return size == target


@functools.lru_cache(maxsize=_POLY_VERDICT_CACHE_SIZE)
def _eigenvalues_primitive(f: Poly) -> bool:
    """True iff the irreducible f has n distinct Frobenius-conjugate roots in
    F_q[x]/(f), each a root of f and each primitive."""
    if not is_irreducible(f):
        return False
    ext = FieldExtension(f, check=False)
    orbit = ext.frobenius_orbit(ext.x)
    if len(orbit) != ext.degree:
        return False
    constants = [ext.one.scale(c) for c in reversed(f.coeffs)]
    # each conjugate root must actually be a root, and each must be primitive
    for root in orbit:
        image = ext.zero
        for c in constants:
            image = ext.mul(image, root) + c  # a residue plus a constant stays reduced
        if not image.is_zero:
            return False
        if not ext.is_primitive(root):
            return False
    return True


def singer_oracles(g: Matrix) -> SingerConditions:
    """Evaluate all six Singer characterizations by independent routes."""
    return _singer_conditions(g, char_poly(g), matrix_order(g), _orbit_transitive(g),
                              is_irreducible_oracle(g))


def _singer_conditions(g: Matrix, f: Poly, order: int, transitive: bool,
                       no_invariant_subspace: bool) -> SingerConditions:
    """singer_oracles(g) from g's characteristic polynomial f, its order,
    whether its orbit walk is transitive, and the result of its subspace
    scan."""
    n, field = g.n, g.field
    return SingerConditions(
        embeds_primitive_element=f in field_model(n, field).roots,
        irreducible_max_order=(no_invariant_subspace
                               and order == max_irreducible_order(n, field)),
        order_full=order == field.q**n - 1,
        char_poly_primitive=is_primitive_poly(f),
        transitive_on_nonzero=transitive,
        eigenvalue_primitive=_eigenvalues_primitive(f),
    )


# --- the n = 2 normalizer structure -------------------------------------------


def _krylov_basis(g: Matrix) -> Matrix | None:
    """P with columns (e_i, g e_i, ..., g^(n-1) e_i) for the first standard
    vector e_i with det P != 0, or None when no e_i is a cyclic vector of g.
    g e_i is column i of g."""
    n, e = g.n, g.entries
    for i in range(n):
        cols = [tuple(int(r == i) for r in range(n)), e[i::n]][:n]
        while len(cols) < n:
            cols.append(g.apply(cols[-1]))
        p = Matrix._raw(g.field, n, tuple(col[r] for r in range(n) for col in cols))
        if p.det() != 0:
            return p
    return None


def _cyclic_basis(g: Matrix, cf: Matrix) -> Matrix | None:
    """P = _krylov_basis(g) for g with characteristic polynomial f and
    cf = C_f, checked to give P^-1 g P = C_f: g P = P C_f, without an
    inverse.  None when no standard vector is cyclic for g: g is not
    cyclic, as scalars are, or its cyclic vectors miss e_1, ..., e_n, as
    those of a diagonal matrix do.  Every nonzero vector is cyclic for an
    irreducible g, so a Singer cycle takes e_1, and P = I for g = C_f."""
    p = _krylov_basis(g)
    if p is not None and (mul_entries(g.entries, p.entries, g.n, g.field)
                          != mul_entries(p.entries, cf.entries, g.n, g.field)):
        raise AssertionError("cyclic basis does not conjugate g to C_f")
    return p


def normalizer_reflection(c: Matrix) -> Matrix:
    """The reflection t with t^2 = 1 and t c t = c^q, for a Singer c in GL_2.

    In the companion basis, with f = x^2 + f_1 x + f_0 the characteristic
    polynomial of c, t is [[1, 0], [w, -1]] for w = -(z^-1 + z^-q), z an
    eigenvalue of c; as z + z^q = -f_1 and z^(q+1) = f_0, w = f_1 / f_0.
    A general c is conjugated to companion form by its checked cyclic
    basis (_cyclic_basis) and the result is conjugated back; for c = C_f
    the basis is I and t is the companion-basis one, with no inverse.
    """
    if c.n != 2:
        raise ValueError("normalizer reflections exist only for n = 2")
    f = char_poly(c)
    if not is_primitive_poly(f):  # is_singer(c), on the one characteristic polynomial
        raise ValueError("input is not a Singer cycle")
    field = c.field
    w = field.mul(f[1], field.inv(f[0]))
    t_comp = Matrix(field, 2, (1, 0, w, field.neg(1)))
    p = _cyclic_basis(c, companion(f))
    t = t_comp if p.is_identity else p @ t_comp @ p.inverse()
    if fixed_space(t).dim != 1:  # a genuine reflection, even in char 2
        raise AssertionError("normalizer reflection does not fix a line")
    if t @ t != Matrix.identity(field, 2):
        raise AssertionError("normalizer reflection is not an involution")
    if t @ c @ t != c**field.q:
        raise AssertionError("normalizer reflection does not conjugate c to c^q")
    return t


def normalizing_reflections(c: Matrix) -> list[Matrix]:
    """All q+1 reflections normalizing <c>, as conjugates c^k t c^-k."""
    conjugates = [normalizer_reflection(c)]  # raises ValueError unless n = 2
    c_inverse = c.inverse()
    for _ in range(c.field.q):
        conjugates.append(c @ conjugates[-1] @ c_inverse)
    out = list(dict.fromkeys(conjugates))
    if len(out) != c.field.q + 1:
        raise AssertionError("expected exactly q+1 normalizing reflections")
    return out


def _cyclic_powers(g: Matrix) -> list[tuple]:
    """The entries of g, g^2, ..., g^m = I, for m the order of g: the walk
    around <g> by products of flat entry tuples."""
    n, field = g.n, g.field
    exponent = gl_exponent(n, field.q)
    powers = [g.entries]
    identity = Matrix.identity(field, n).entries
    while powers[-1] != identity:
        if len(powers) == exponent:
            raise AssertionError(f"<g> has more than exp GL_{n}(F_{field.q}) = {exponent} "
                                 f"elements")
        powers.append(mul_entries(powers[-1], g.entries, n, field))
    if exponent % len(powers):
        raise AssertionError(f"the order {len(powers)} of g does not divide "
                             f"exp GL_{n}(F_{field.q}) = {exponent}")
    return powers


def _subgroup_invariants(n: int, field: FieldSpec
                         ) -> Iterator[tuple[Matrix, int, bool, bool]]:
    """(g, order, transitive, no_invariant_subspace) for each g of GL_n(F_q),
    in enumerate_gl order.

    The three values are fixed by the cyclic subgroup <g>: the order is
    |<g>|, the g-orbit of a vector is its <g>-orbit, and the subspaces g
    stabilizes are those <g> stabilizes.  They are computed once, when the
    scan meets the first generator of <g>: the walk of its powers gives the
    order and, in their first columns g^k e_1, the orbit of e_1, whose size
    is the least k with g^k e_1 = e_1.  They are filed under the entries of
    the other generators g^k, gcd(k, ord g) = 1, which alone generate
    <g>.  A visited element pops its entry, so the table holds only
    subgroups walked but not yet visited, and is empty at the end.
    """
    shared: dict[tuple, tuple[int, bool, bool]] = {}
    for g in enumerate_gl(n, field):
        invariants = shared.pop(g.entries, None)
        if invariants is None:
            powers = _cyclic_powers(g)
            order = len(powers)
            e1 = powers[-1][::n]
            orbit = next(k for k, power in enumerate(powers, 1) if power[::n] == e1)
            invariants = (order, orbit == field.q**n - 1, is_irreducible_oracle(g))
            for k in range(2, order):
                if math.gcd(k, order) == 1:
                    shared[powers[k - 1]] = invariants
        yield (g, *invariants)
    if shared:
        raise AssertionError(f"{len(shared)} generators of walked subgroups were never visited")


def singer_equivalence_report(n: int, field: FieldSpec) -> dict:
    """Scan GL_n(F_q) checking that all Singer and irreducibility
    characterizations coincide elementwise.

    Each element gets its own characteristic polynomial and the tests keyed
    by it.  Its order, its orbit walk and its subspace scan are those of
    its cyclic subgroup, which is walked once (_subgroup_invariants), so
    the report equals the per-element scan of singer_oracles and
    irreducible_conditions.
    """
    checked = 0
    singer_count = 0
    irreducible_count = 0
    violations = []
    for g, order, transitive, no_invariant_subspace in _subgroup_invariants(n, field):
        f = char_poly(g)
        sc = _singer_conditions(g, f, order, transitive, no_invariant_subspace)
        ic = _irreducible_conditions(g, f, no_invariant_subspace)
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

"""Reflections and minimum-length reflection factorizations.

A reflection is any invertible map fixing a hyperplane pointwise; this
includes the determinant-1 transvections.  Every reflection has the form
I + w*phi for a nonzero linear functional phi (a row vector) and a nonzero
column vector w with 1 + phi(w) != 0, and that parametrization drives the
exhaustive enumeration.

Factorizations are ordered tuples; all counts use ordered semantics.
Enumerations are deterministic: candidate reflections are always tried in
enumerate_reflections order.  One lazy depth-first search finds them all,
over a tuple of reflections: every reflection, or for main1's witnesses
the reflections with determinant in a subgroup X of F_q^x, or those that
stabilize a subspace W.  Each tuple is built, and paired with its
inverses, once per argument set of its builder.
The search meets the same residues again and again, within one element's
enumeration and across elements; fixed_space's memo absorbs that, so each
distinct residue costs one elimination.  It tracks the product of what it
chose, so it yields its factorizations unchecked; the public
FactorizationList constructor checks the product and every factor.  The
search has no closed-form size, so it counts its candidates against the
budget inline, in its hot loop.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetExceededError
from .ff import FieldSpec
from .matrix import (ENUMERATION_BUDGET, Matrix, Subspace, _check_budget, fixed_space,
                     mul_entries, stabilizes)
from .singer import is_irreducible_element


def reflection_length(g: Matrix) -> int:
    """Minimum number of reflections multiplying to g: n - dim fix(g)."""
    return g.n - fixed_space(g).dim


def is_reflection(m: Matrix) -> bool:
    """True iff m is invertible and fixes a hyperplane pointwise.

    The fixed space is tested first.  When it is a hyperplane, m = I + w*phi
    for nonzero w and phi, so det m = 1 + phi(w) and tr m = n + phi(w):
    det m = tr m - (n - 1), and an O(n) trace test replaces the determinant.
    """
    n, fld, e = m.n, m.field, m.entries
    if fixed_space(m).dim != n - 1:
        return False
    phi_w = 0
    for i in range(0, n * n, n + 1):
        phi_w = fld.add(phi_w, fld.sub(e[i], 1))
    return fld.add(1, phi_w) != 0


def reflection_from_params(field: FieldSpec, phi, w) -> Matrix:
    """The reflection I + w*phi; requires w != 0, phi != 0, 1 + phi(w) != 0."""
    n = len(phi)
    pw = 0
    for a, b in zip(phi, w):
        pw = field.add(pw, field.mul(a, b))
    if not any(phi) or not any(w) or field.add(1, pw) == 0:
        raise ValueError("parameters do not define a reflection")
    entries = [field.add(1 if i == j else 0, field.mul(w[i], phi[j]))
               for i in range(n) for j in range(n)]
    return Matrix(field, n, entries)


def reflection_params(x: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (phi, w) with x = I + w*phi and phi's first nonzero entry 1: the
    inverse of reflection_from_params, and the key of x in
    enumerate_reflections order.  Raises ValueError when x is no reflection.

    phi is the first nonzero row of x - I, scaled to lead with 1, and w is
    the column of x - I at that leading position; x - I must be their
    outer product, with 1 + phi(w) != 0."""
    n, field, e = x.n, x.field, x.entries
    a = [field.sub(v, 1) if i % (n + 1) == 0 else v for i, v in enumerate(e)]
    row = next((a[i:i + n] for i in range(0, n * n, n) if any(a[i:i + n])), None)
    if row is None:
        raise ValueError("the identity is not a reflection")
    lead = next(j for j, v in enumerate(row) if v)
    scale = field.inv(row[lead])
    phi = tuple(field.mul(scale, v) for v in row)
    w = tuple(a[lead::n])
    pw = 0
    for b, c in zip(phi, w):
        pw = field.add(pw, field.mul(b, c))
    if field.add(1, pw) == 0 or any(a[i * n + j] != field.mul(wi, pj)
                                    for i, wi in enumerate(w) for j, pj in enumerate(phi)):
        raise ValueError("not a reflection")
    return phi, w


def reflection_count(n: int, q: int) -> int:
    """The number of reflections in GL_n(F_q): one hyperplane for each of
    the (q^n - 1)/(q - 1) functionals phi up to scale, and for each the
    q^{n-1}(q - 1) - 1 nonzero w with phi(w) != -1."""
    return (q**n - 1) // (q - 1) * (q ** (n - 1) * (q - 1) - 1)


@functools.lru_cache(maxsize=None)
def enumerate_reflections(n: int, field: FieldSpec) -> tuple[Matrix, ...]:
    """All reflections in GL_n(F_q), each exactly once, deterministic order,
    grouped by canonical hyperplane functional phi (see reflection_count).
    """
    q = field.q
    _check_budget(f"GL_{n}(F_{q}) reflection enumeration", q ** (2 * n), "(phi, w) pairs")
    minus_one = field.neg(1)
    out = []
    for phi in itertools.product(range(q), repeat=n):
        first = next((v for v in phi if v), None)
        if first != 1:
            continue
        for w in itertools.product(range(q), repeat=n):
            if not any(w):
                continue
            pw = 0
            for a, b in zip(phi, w):
                pw = field.add(pw, field.mul(a, b))
            if pw == minus_one:
                continue
            out.append(reflection_from_params(field, phi, w))
    if not len(out) == len(set(out)) == reflection_count(n, q):
        raise AssertionError("reflection enumeration missed or repeated a reflection")
    return tuple(out)


@dataclass(frozen=True)
class FactorizationList:
    """An ordered tuple of reflections together with their product."""

    factors: tuple[Matrix, ...]
    product: Matrix

    def __post_init__(self):
        acc = Matrix.identity(self.product.field, self.product.n)
        for t in self.factors:
            acc = acc @ t
        if acc != self.product:
            raise ValueError("factors do not multiply to the stated product")
        if not all(is_reflection(t) for t in self.factors):
            raise ValueError("every factor must be a reflection")

    @classmethod
    def _unchecked(cls, factors: tuple[Matrix, ...], product: Matrix) -> "FactorizationList":
        """Unchecked constructor for the search: factors must be reflections
        multiplying to product, in that order."""
        fl = object.__new__(cls)
        object.__setattr__(fl, "factors", factors)
        object.__setattr__(fl, "product", product)
        return fl

    def __len__(self):
        return len(self.factors)

    def dets(self) -> tuple[int, ...]:
        return tuple(t.det() for t in self.factors)

    def serialize(self) -> dict:
        return {"factors": [t.to_text() for t in self.factors],
                "product": self.product.to_text()}


def enumerate_minimal_factorizations(g: Matrix) -> Iterator[FactorizationList]:
    """All ordered minimum-length reflection factorizations of g, in the
    lexicographic order of their factors' enumerate_reflections indices."""
    if g.det() == 0:
        raise ValueError("only invertible elements factor into reflections")
    yield from _search(g, enumerate_reflections, g.n, g.field)


@functools.lru_cache(maxsize=256)  # keyed like the builders; entries share their matrices
def _with_inverses(builder: Callable[..., tuple[Matrix, ...]], *args
                   ) -> tuple[tuple[Matrix, tuple], ...]:
    """builder(*args)'s reflections, each paired with its inverse's entries."""
    return tuple((t, t.inverse().entries) for t in builder(*args))


def _search(g: Matrix, builder: Callable[..., tuple[Matrix, ...]], *args
            ) -> Iterator[FactorizationList]:
    """The minimal factorizations of the invertible g whose factors are
    taken from the tuple builder(*args), lazily, in the tuple's order.  The
    tuple and its inverses come from one table per argument set, built only
    if g != 1.

    Depth-first with length pruning: a partial choice t_1..t_i survives only
    if the residual (t_1...t_i)^-1 g still has reflection length k - i.  The
    final factor is forced, so it is emitted directly.  It is one of the
    given reflections whenever they are all the reflections of a subgroup
    that contains g, as for both of main1's witnesses.  Every factorization
    multiplies to g by construction, so it is built unchecked.
    """
    k = reflection_length(g)
    if k == 0:
        yield FactorizationList._unchecked((), g)
        return
    n, field = g.n, g.field
    inv_pairs = _with_inverses(builder, *args)
    counter = itertools.count(1)

    def rec(rem_entries: tuple, depth_left: int, prefix: tuple):
        rem = Matrix._raw(field, n, rem_entries)
        if depth_left == 1:
            if is_reflection(rem):
                yield FactorizationList._unchecked(prefix + (rem,), g)
            return
        for t, tinv in inv_pairs:
            if next(counter) > ENUMERATION_BUDGET:
                raise BudgetExceededError("factorization enumeration exceeds budget")
            nxt = mul_entries(tinv, rem_entries, n, field)
            if reflection_length(Matrix._raw(field, n, nxt)) == depth_left - 1:
                yield from rec(nxt, depth_left - 1, prefix + (t,))

    yield from rec(g.entries, k, ())


def minimal_factorization(g: Matrix) -> FactorizationList:
    """One minimum-length factorization (the first in enumeration order)."""
    return next(enumerate_minimal_factorizations(g))


@functools.lru_cache(maxsize=256)
def _stabilizing_reflections(w: Subspace) -> tuple[Matrix, ...]:
    """The reflections that stabilize W, in enumerate_reflections order."""
    return tuple(t for t in enumerate_reflections(w.ambient_dim, w.field)
                 if stabilizes(t, w))


def stabilizing_factorization(g: Matrix, w: Subspace) -> FactorizationList:
    """A minimum-length factorization of g whose factors all stabilize W:
    the first one the search finds over the reflections that stabilize W,
    which with g lie in W's stabilizer subgroup."""
    if w.is_zero or w.is_full:
        raise ValueError("W must be a nontrivial proper subspace")
    if not stabilizes(g, w):
        raise ValueError("g does not stabilize W")
    if g.det() == 0:
        raise ValueError("only invertible elements factor into reflections")
    result = next(_search(g, _stabilizing_reflections, w), None)
    if result is None:
        raise AssertionError("no minimal factorization stabilizes the subspace")
    return result


def det_subgroup(field: FieldSpec, generator: int) -> frozenset[int]:
    """The cyclic subgroup of F_q^x generated by the given encoding."""
    if not 0 < generator < field.q:
        raise ValueError(f"{generator} is not a unit encoding in [1, {field.q})")
    out = {1}
    v = generator
    while v != 1:
        out.add(v)
        v = field.mul(v, generator)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _reflections_with_dets_in(n: int, field: FieldSpec, x: frozenset[int]
                              ) -> tuple[Matrix, ...]:
    """The reflections of GL_n(F_q) with determinant in X, in
    enumerate_reflections order."""
    return tuple(t for t in enumerate_reflections(n, field) if t.det() in x)


def factorizations_in_det_subgroup(g: Matrix, generator: int) -> list[FactorizationList]:
    """All minimal factorizations of g whose factors' determinants lie in
    the subgroup X generated by the given unit; g must be irreducible with
    det(g) in X.  The search runs over the reflections with determinant in
    X, which with g lie in the subgroup of elements with determinant in X."""
    x = det_subgroup(g.field, generator)
    if g.det() not in x:
        raise ValueError("det(g) must lie in the determinant subgroup")
    if not is_irreducible_element(g):
        raise ValueError("the determinant-restricted count applies to irreducible g")
    return list(_det_subgroup_search(g, x))


def _det_subgroup_search(g: Matrix, x: frozenset[int]) -> Iterator[FactorizationList]:
    """factorizations_in_det_subgroup's entries, lazily and unchecked: the
    caller vouches that g is irreducible with det(g) in X."""
    return _search(g, _reflections_with_dets_in, g.n, g.field, x)

"""Subgroup generation by exact group order, and the theorem-level drivers.

Each generator acts as a permutation of the q^n vectors of F_q^n, built
once per matrix with field arithmetic, so prime and extension fields take
the same path.  group_closure computes the order of the generated subgroup
by a deterministic Schreier-Sims on that action (Seress, Permutation Group
Algorithms, ch. 4; Holt-Eick-O'Brien, Handbook of CGT, 4.4) over the base
e_1, ..., e_n, whose pointwise stabilizer is trivial; it stops as soon as
the basic orbits prove more than half of GL_n(F_q), which by Lagrange is
then the whole group.  Element sets come from one breadth-first walk over
column-index tuples, layer by word length: a closure's element set, built
only when asked for, is the union of the layers, and the length oracle
reads each element's Cayley-graph distance over all reflections off its
layer.  Closures, like every enumeration, honour the one budget
matrix.ENUMERATION_BUDGET, checked from closed-form sizes before any work
starts: no closure runs in a GL_n(F_q) larger than it, so no subgroup
order or element set exceeds it either.

A Singer class, the Singer cycles with one primitive characteristic
polynomial f, is decided by one row: |<C_f, C_g>| for each partner g, a
monic g != f of degree n with g(0) != 0.  <C_f, C_g> = <C_f, t_g> for the
reflection t_g = C_f^-1 C_g, and the t_g meet each orbit of the
reflections under conjugation by <C_f> exactly once, so the row decides
every pair (C_f, t).  The order is constant on an orbit and depends only
on its key, the Frobenius orbit of its orbit sum gamma = sum_x (x - I) in
F_q[C_f] = F_q[x]/(f), which is (f - g)(alpha) / (alpha f'(alpha)) for
alpha = x mod f by Euler's dual basis.  So a closure runs once per key,
one per Frobenius orbit of {gamma != 0 : Tr gamma != -1} in F_(q^n), and
the rows of a driver call share them through its one generation cache,
which also holds the empty factor set's verdict and counts the closures
it runs.  The cache reads every row through the one discrete-log model
of F_(q^n), poly.field_model, memoized per (n, F_q) and shared by every
driver call: the primitive f are the characteristic polynomials of
alpha^j for the cyclotomic coset leaders j prime to q^n - 1, so f has
the root alpha^j and gamma one log, and a key is the cyclotomic coset of
log gamma, named by its leader.  A Singer cycle c with characteristic
polynomial f is P C_f P^-1 for its cyclic basis P (P = I for c = C_f),
so the pairs of c that do not generate are (c, P x P^-1) for the
members x of the <C_f>-orbits of the t_g with a proper order, walked
once per class as their reflection_params (phi, w): q + 1 reflections
for n = 2 and q > 2, none otherwise.  Every other pair generates.

verify_main1, verify_main2, verify_gill and verify_length_oracle sweep a
full desk-scale instance and report violations; they are pure per
element or pair, so reports are deterministic, and each driver's
docstring says how it reads its instance.  verify_main1 walks GL_n(F_q)
lazily and decides Singer from one characteristic polynomial f per
element; an element with a checked cyclic basis P, P^-1 g P = C_f, has
the verdict of C_f, decided once per f.  verify_main2 lists each Singer
cycle as P C_f P^-1 and reads its class's row through P, a rank-one
update per (phi, w), so it enumerates no reflections; verify_gill reads
each pair (C_f, C_g) off the row through t_g, whose (phi, w) is read off
its last column.  Both take their primitive f from the model and read
the one exception, _exceptional_reflections, built once per class: the
reflections normalizing <C_f> when n = 2 and q > 2 (for q = 2 the
normalizer is all of GL_2(F_2) = S_3).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

from .ff import FieldSpec, factorize
from .matrix import (Matrix, Subspace, _check_budget, char_poly, enumerate_gl, fixed_space,
                     gl_order, invariant_subspace, stabilizes)
from .poly import Poly, companion, field_model, is_irreducible, is_primitive_poly
from .reflect import (FactorizationList, _det_subgroup_search, det_subgroup,
                      enumerate_minimal_factorizations, enumerate_reflections, reflection_count,
                      reflection_from_params, reflection_length, reflection_params,
                      stabilizing_factorization)
from .singer import _cyclic_basis, _cyclic_powers, normalizing_reflections

SPOT_CHECKS = 3  # randomized conjugation-invariance checks per verify_main1 run

STRONG = "strong"
WEAK_ONLY = "weak_only"
NOT_WEAK = "not_weak"


class ClosureResult:
    """Result of a subgroup closure: the exact order and the element set.

    The element set is built lazily, on first use: closures driven only for
    their order (the generation sweeps) never materialize it.
    """

    __slots__ = ("order", "_element_factory", "_elements")

    def __init__(self, order: int, element_factory):
        self.order = order
        self._element_factory = element_factory
        self._elements = None

    @property
    def elements(self) -> frozenset[Matrix]:
        if self._elements is None:
            self._elements = frozenset(self._element_factory())
        return self._elements

    def __contains__(self, m: Matrix) -> bool:
        return m in self.elements


def _linear_permutation(columns: Sequence[Sequence[int]], field: FieldSpec) -> tuple[int, ...]:
    """The permutation v -> A v of the vectors of F_q^n, induced by the
    matrix A with the given columns.  A vector's index is its coordinate
    string read in base q (itertools.product order).  Each coordinate of
    A v is tabulated over all v in index order, adding one coordinate of v
    at a time, and the image index is read off in base q; over a prime
    field the sums stay unreduced integers until that last step."""
    q = field.q
    # the prime-field fork pays: the generation sweeps build one table per closure
    fmul, fadd = (operator.mul, operator.add) if field.k == 1 else (field.mul, field.add)
    images = [0] * q ** len(columns)
    for i in range(len(columns)):
        coordinate = [0]
        for col in columns:
            multiples = [fmul(c, col[i]) for c in range(q)]
            coordinate = [fadd(u, m) for u in coordinate for m in multiples]
        images = [x * q + w % q for x, w in zip(images, coordinate)]
    return tuple(images)


# every reflection of the desk-scale main1 groups (710 in GL_2(F_9)), and their Singer cycles
@functools.lru_cache(maxsize=1024)
def _permutation(g: Matrix) -> tuple[int, ...]:
    """The permutation g induces on the vector indices: v -> g v."""
    if g.det() == 0:
        raise ZeroDivisionError("generators must be invertible")
    return _linear_permutation([g.entries[j::g.n] for j in range(g.n)], g.field)


def _inverse(perm: tuple) -> tuple:
    inverse = [0] * len(perm)
    for x, y in enumerate(perm):
        inverse[y] = x
    return tuple(inverse)


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    (with their inverses) fixing the earlier base points, and the basic
    orbit as a Schreier vector, point -> (parent, generator label).

    A coset representative u_y (u_y(point) = y) is composed along the
    Schreier vector on demand, and u_y^-1 is applied by walking it back
    with the generator inverses, so no transversal table is built.  Both
    act on the base images of an element, its columns, which is all a sift
    needs.
    """

    __slots__ = ("point", "gens", "inverses", "orbit", "tree", "reps", "checked")

    def __init__(self, point: int, base: tuple):
        self.point = point
        self.gens = []
        self.inverses = []
        self.orbit = [point]
        self.tree = {point: None}
        self.reps = {point: base}  # base images of u_y, for the y Schreier generators used
        self.checked = {}  # orbit point -> generators whose Schreier generator sifted

    def add_generators(self, new: Sequence[tuple]) -> None:
        """Append strong generators, each a (permutation, inverse) pair, and
        extend the basic orbit breadth-first."""
        gens, orbit, tree = self.gens, self.orbit, self.tree
        first = len(gens)
        for g, g_inverse in new:
            gens.append(g)
            self.inverses.append(g_inverse)
        known = len(orbit)
        for x in orbit[:known]:
            for label in range(first, len(gens)):
                y = gens[label][x]
                if y not in tree:
                    tree[y] = (x, label)
                    orbit.append(y)
        for x in itertools.islice(orbit, known, None):  # also visits points appended here
            for label, g in enumerate(gens):
                y = g[x]
                if y not in tree:
                    tree[y] = (x, label)
                    orbit.append(y)

    def rep(self, y: int) -> tuple:
        """The base images of u_y, composed from its nearest memoized
        ancestor on the Schreier vector, and memoized."""
        labels = []
        x = y
        while x not in self.reps:
            x, label = self.tree[x]
            labels.append(label)
        u = self.reps[x]
        for label in reversed(labels):
            u = tuple(map(self.gens[label].__getitem__, u))
        self.reps[y] = u
        return u

    def strip(self, y: int, h: tuple) -> tuple:
        """u_y^-1 h."""
        tree, inverses = self.tree, self.inverses
        while y != self.point:
            y, label = tree[y]
            h = tuple(map(inverses[label].__getitem__, h))
        return h


def _sift(levels: list[_Level], h: tuple, start: int) -> tuple[tuple, int]:
    """Strip the base images h through the levels from start on: the
    residue's base images and the level whose basic orbit misses its
    base-point image, or len(levels) when h sifts through."""
    for depth in range(start, len(levels)):
        level = levels[depth]
        y = h[depth]
        if y not in level.tree:
            return h, depth
        h = level.strip(y, h)
    return h, len(levels)


def _unsifted_schreier_generator(levels: list[_Level], depth: int,
                                 base: tuple) -> tuple[tuple, int] | None:
    """The first unchecked Schreier generator u_{g x}^-1 g u_x of
    levels[depth] whose sift stops, as the base images of its residue and
    the level where it stopped; None once every one of them sifts
    through."""
    level = levels[depth]
    gens, tree, checked = level.gens, level.tree, level.checked
    for x in level.orbit:
        for label in range(checked.get(x, 0), len(gens)):
            checked[x] = label + 1
            g = gens[label]
            y = g[x]
            if tree[y] == (x, label):
                continue  # a Schreier-vector edge: u_y = g u_x
            h, stop = _sift(levels, level.strip(y, tuple(map(g.__getitem__, level.rep(x)))),
                            depth + 1)
            if stop < len(levels):
                return h, stop
            if h != base:
                raise AssertionError("a Schreier generator sifted to a non-identity residue")
    return None


def _schreier_sims_order(perms: list[tuple], base: tuple, full: int, field: FieldSpec) -> int:
    """|<perms>| by deterministic Schreier-Sims over base, the indices of
    e_1, ..., e_n.  Its pointwise stabilizer is trivial, so an element is
    known by its base images, its columns, which is all a Schreier
    generator is sifted as; a residue that does not sift through becomes a
    strong generator, its permutation built from those columns
    (_linear_permutation).  Base extension is never needed, and the last
    level, whose Schreier generators fix every base point, is never
    searched.

    The product of the basic orbit lengths never exceeds |<perms>|, which
    divides full = |GL_n(F_q)|; once it passes full/2 the group is the
    whole one and the search stops there.
    """
    n, q = len(base), field.q
    levels = [_Level(b, base) for b in base]
    levels[0].add_generators([(g, _inverse(g)) for g in perms])
    depth = 0
    while depth >= 0:
        if math.prod(len(level.orbit) for level in levels) > full // 2:
            return full
        found = _unsifted_schreier_generator(levels, depth, base) if depth + 1 < n else None
        if found is None:
            depth -= 1
            continue
        # a new strong generator for every level down to the one it stopped at
        residue, stop = found
        h = _linear_permutation([[y // b % q for b in base] for y in residue], field)
        new = [(h, _inverse(h))]
        for deeper in levels[depth + 1:stop + 1]:
            deeper.add_generators(new)
        depth = stop
    return math.prod(len(level.orbit) for level in levels)


def _layers(perms: list[tuple], base: tuple) -> list[list[tuple]]:
    """The elements of <perms> as column-index tuples (the images of base),
    by breadth-first search from the identity: layer d holds the elements
    whose shortest word in perms has length d."""
    seen = {base}
    layers = [[base]]
    while layers[-1]:
        nxt = []
        for a in layers[-1]:
            for perm in perms:
                b = tuple(map(perm.__getitem__, a))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        layers.append(nxt)
    return layers[:-1]


def _matrices(columns, field: FieldSpec, n: int) -> list[Matrix]:
    """The matrices whose columns are the vectors with the given indices."""
    vectors = list(itertools.product(range(field.q), repeat=n))
    return [Matrix._raw(field, n, tuple(x for row in zip(*map(vectors.__getitem__, a))
                                        for x in row))
            for a in columns]


def _closure_elements(perms: list[tuple], base: tuple, field: FieldSpec,
                      order: int) -> list[Matrix]:
    """Every element of <perms>; checks the count against order."""
    columns = [a for layer in _layers(perms, base) for a in layer]
    if len(columns) != order:
        raise AssertionError("closure size differs from the Schreier-Sims order")
    return _matrices(columns, field, len(base))


def _basis_indices(n: int, q: int) -> tuple[int, ...]:
    """The vector indices of e_1, ..., e_n: the column-index tuple of I."""
    return tuple(q ** (n - 1 - j) for j in range(n))


def _closure_budget(n: int, q: int) -> int:
    """|GL_n(F_q)|, or BudgetExceededError when it exceeds ENUMERATION_BUDGET."""
    full = gl_order(n, q)
    _check_budget(f"a closure in GL_{n}(F_{q})", full, "elements")
    return full


def group_closure(gens: Sequence[Matrix]) -> ClosureResult:
    """The subgroup generated by gens: its exact order, by Schreier-Sims,
    and its element set, by breadth-first closure when first asked for.

    Raises BudgetExceededError, before any permutation is built, when
    |GL_n(F_q)| exceeds ENUMERATION_BUDGET, whatever the subgroup: its
    order, and so its element set, is bounded only by |GL_n(F_q)|.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field, n = gens[0].field, gens[0].n
    if any(g.field != field or g.n != n for g in gens):
        raise ValueError("generators live in different groups")
    full = _closure_budget(n, field.q)
    perms = [_permutation(g) for g in gens]
    base = _basis_indices(n, field.q)
    order = _schreier_sims_order(perms, base, full, field)
    if full % order:
        raise AssertionError("closure order does not divide |GL_n(F_q)|")
    return ClosureResult(order, functools.partial(_closure_elements, perms, base, field, order))


def generates_full(gens: Sequence[Matrix]) -> bool:
    """True iff the generators produce all of GL_n(F_q)."""
    return group_closure(gens).order == gl_order(gens[0].n, gens[0].field.q)


def normalizer_of_cyclic(c: Matrix) -> ClosureResult:
    """{h in GL_n(F_q) : h c h^-1 in <c>}, by scanning the whole group."""
    powers = frozenset(_cyclic_powers(c))
    # keeps h^-1, not h: the same set, since the normalizer is a group, and
    # h^-1 holds no memoized inverse, so the kept members stay small
    members = [hinv for h in enumerate_gl(c.n, c.field)
               if (h @ c @ (hinv := h.inverse())).entries in powers]
    if gl_order(c.n, c.field.q) % len(members):
        raise AssertionError("normalizer order does not divide |GL_n(F_q)|")
    return ClosureResult(len(members), lambda: members)


def reflection_distances(n: int, field: FieldSpec) -> dict[Matrix, int]:
    """Cayley-graph distance from the identity to every element of
    GL_n(F_q), with the full reflection set as generators: the layer of
    the element in the breadth-first walk over all reflections.

    The walk forms |GL_n(F_q)| * reflection_count products, which must stay
    within ENUMERATION_BUDGET."""
    q = field.q
    _check_budget(f"length oracle on GL_{n}(F_{q})", gl_order(n, q) * reflection_count(n, q),
                  "products")
    perms = [_permutation(t) for t in enumerate_reflections(n, field)]
    layers = _layers(perms, _basis_indices(n, q))
    return {g: d for d, layer in enumerate(layers) for g in _matrices(layer, field, n)}


class _GenerationCache:
    """Memoizes generates_full verdicts in GL_n(F_q), counting the closures
    it runs: on unordered factor sets, starting with the empty set's, the
    trivial group (all of GL_1(F_2), proper elsewhere), and on the pairs
    (c, t) of a Singer cycle c and a reflection t, through one row per
    Singer class (row).  A row is rebuilt on each call; its closures are
    shared per key, one closure for each key no earlier row met.  A key is
    the coset-leader id that the one model of F_(q^n) (poly.field_model)
    gives each partner.  proper_members lists the reflections t with
    <C_f, t> proper, as their (phi, w), memoized per f, and singer_failure
    decides a Singer cycle from them, read through its cyclic basis.
    """

    def __init__(self, n: int, q: int):
        self._n = n
        self._full = gl_order(n, q)
        self._verdicts: dict[frozenset, bool] = {frozenset(): self._full == 1}
        self._orders_by_key: dict[int, int] = {}  # key id -> |<C_f, C_g>|
        self._proper: dict[Poly, list[tuple[tuple, Poly]]] = {}  # f -> _proper_orbits
        self.closures = 0

    def generates(self, factors: Sequence[Matrix]) -> bool:
        key = frozenset(f.entries for f in factors)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = generates_full(list(factors))
            self._verdicts[key] = verdict
            self.closures += 1
        return verdict

    def first_non_generating(self, factorizations: Iterable[FactorizationList],
                             certified: Callable[[tuple], bool] | None = None
                             ) -> FactorizationList | None:
        """The first factorization whose factors do not generate, or None.
        certified(factors), when given and true, proves that they do not
        without a closure; a factor set it does not certify runs one."""
        return next((fl for fl in factorizations
                     if certified is not None and certified(fl.factors)
                     or not self.generates(fl.factors)), None)

    def row(self, f: Poly) -> dict[Poly, int]:
        """|<C_f, C_g>| for each partner g of the primitive f, keyed by g:
        one closure per key id (_partner_keys) that no earlier row met."""
        cf = companion(f)
        row = {}
        for g, key in _partner_keys(field_model(self._n, f.field), f):
            order = self._orders_by_key.get(key)
            if order is None:
                order = self._orders_by_key[key] = group_closure([cf, companion(g)]).order
                self.closures += 1
            row[g] = order
        return row

    def proper_members(self, f: Poly) -> list[tuple[tuple, Poly]]:
        """The reflections t with <C_f, t> proper, the members of f's
        proper orbits (_proper_orbits), as their reflection_params labelled
        by the partner g of their orbit; built once per f.  Every other t
        generates."""
        members = self._proper.get(f)
        if members is None:
            members = self._proper[f] = _proper_orbits(f, self.row(f), self._full)
        return members

    def singer_failure(self, g: Matrix, f: Poly) -> FactorizationList | None:
        """The first minimal factorization of the Singer cycle g, with
        characteristic polynomial f, in enumeration order, whose factors do
        not generate; None when all do.

        A factorization (t_1, ..., t_l) multiplies to g, so it generates a
        group containing <g, t_1>.  Its first factors, the t with
        l(t^-1 g) = l(g) - 1, form a union of <g>-orbits: conjugating by h
        in <g> fixes g and maps t^-1 g to (h t h^-1)^-1 g, of the same
        length.  Every factorization whose first factor generates with g
        therefore generates; only those with a first factor among f's
        proper_members, read through g's cyclic basis, are enumerated, in
        order, and tested through the cache.  One member decides whether
        its orbit holds first factors.  With no such first factor, g is
        decided by its class's row alone.  The identity of GL_1(F_2), of
        length 0, keeps the empty set's verdict.
        """
        if reflection_length(g) == 0:
            return self.first_non_generating(enumerate_minimal_factorizations(g))
        length = reflection_length(g) - 1
        holds_first: dict[Poly, bool] = {}  # the partner labelling an orbit -> it holds one
        first = []
        p = _cyclic_basis(g, companion(f))
        for x, partner in _through_basis(p, self.proper_members(f)):
            t = reflection_from_params(g.field, *x)
            if partner not in holds_first:
                holds_first[partner] = reflection_length(t.inverse() @ g) == length
            if holds_first[partner]:
                first.append((x, t))
        first.sort(key=operator.itemgetter(0))  # enumerate_reflections order
        return self.first_non_generating(
            FactorizationList._unchecked((t,) + rest.factors, g)
            for _, t in first for rest in enumerate_minimal_factorizations(t.inverse() @ g))


def _conjugation(p: Matrix) -> Callable[[tuple], tuple]:
    """x -> P x P^-1 on reflections given by their reflection_params.
    x = I + w phi, so P x P^-1 = I + (P w)(phi P^-1): a rank-one update, two
    matrix-vector products, rescaled so that phi P^-1 leads with 1.  P^-1
    is memoized on P, so every class read through one P shares it."""
    n, field = p.n, p.field
    fadd, fmul = field.add, field.mul
    pe, p_inverse = p.entries, p.inverse().entries
    p_rows = [pe[i:i + n] for i in range(0, n * n, n)]
    inverse_columns = [p_inverse[j::n] for j in range(n)]

    def conjugate(x: tuple) -> tuple:
        phi, w = x
        phi_p = [functools.reduce(fadd, map(fmul, phi, column)) for column in inverse_columns]
        lead = next(v for v in phi_p if v)
        scale = field.inv(lead)
        return (tuple(fmul(scale, v) for v in phi_p),
                tuple(fmul(lead, functools.reduce(fadd, map(fmul, row, w))) for row in p_rows))
    return conjugate


def _through_basis(p: Matrix, members: Iterable[tuple[tuple, object]]
                   ) -> list[tuple[tuple, object]]:
    """(P x P^-1, label) for each (x, label) of members, x a reflection as
    C_f reads it and P x P^-1 the same reflection as c = P C_f P^-1 reads
    it, both given by their reflection_params (_conjugation)."""
    conjugate = _conjugation(p)
    return [(conjugate(x), label) for x, label in members]


def classify_qc(g: Matrix, cache: _GenerationCache | None = None) -> str:
    """Quasi-Coxeter classification over all minimal factorizations of g.

    strong: every factorization generates GL_n(F_q); weak_only: some but
    not all; not_weak: none.  The empty factorization of the identity
    generates the trivial subgroup.  A Singer cycle is read off its
    class's row first (_GenerationCache.singer_failure), and is strong
    there with no closure
    of its own; any other element, and a Singer cycle with a
    non-generating factorization, walks its factorizations.
    """
    cache = cache or _GenerationCache(g.n, g.field.q)
    f = char_poly(g)
    if is_primitive_poly(f) and cache.singer_failure(g, f) is None:
        return STRONG
    verdicts = set()
    for fl in enumerate_minimal_factorizations(g):
        verdicts.add(cache.generates(fl.factors))
        if len(verdicts) == 2:
            return WEAK_ONLY
    if not verdicts:
        raise AssertionError("every invertible element admits a minimal factorization")
    return STRONG if True in verdicts else NOT_WEAK


# --- theorem-level drivers ------------------------------------------------------


def _stabilize_all(factors: Sequence[Matrix], w: Subspace) -> bool:
    """True iff every factor stabilizes W."""
    return all(stabilizes(t, w) for t in factors)


def _dets_within(factors: Sequence[Matrix], x: frozenset[int]) -> bool:
    """True iff every factor's determinant lies in X."""
    return all(t.det() in x for t in factors)


def _witness_for_non_singer(g: Matrix, f: Poly, cache: _GenerationCache
                            ) -> tuple[str, FactorizationList | None]:
    """A non-generating minimal factorization of a non-Singer element g
    with characteristic polynomial f, or None if the search below finds
    none.

    Reducible g: the factorization stabilizing an invariant subspace W,
    which is nontrivial and proper.  Its factors, checked again to
    stabilize W, generate a subgroup of W's stabilizer, a proper subgroup,
    so no closure runs.  Irreducible g: the first factorization whose
    factor determinants stay in the subgroup X generated by det(g) and
    which does not generate, found lazily.  When X is proper, the first
    such factorization is the witness: its factors, checked again to have
    determinants in X, generate a subgroup of det^-1(X), a proper
    subgroup.  When X is the whole unit group the search is unrestricted,
    and the non-generating entry promised by the classification is
    located by closures.  A factor set that fails its check runs a closure
    instead.
    """
    if not is_irreducible(f):
        w = invariant_subspace(g)
        return "reducible", cache.first_non_generating(
            [stabilizing_factorization(g, w)], lambda factors: _stabilize_all(factors, w))
    x = det_subgroup(g.field, g.det())
    search = _det_subgroup_search(g, x)
    if len(x) < g.field.q - 1:
        return "irreducible_proper_det", cache.first_non_generating(
            search, lambda factors: _dets_within(factors, x))
    return "irreducible_full_det", cache.first_non_generating(search)


def verify_main1(n: int, field: FieldSpec, seed: int = 0) -> dict:
    """Check strongly-quasi-Coxeter == Singer over GL_n(F_q).

    Each element gets the work its verdict needs, and most read it from
    their class.  An element g with characteristic polynomial f and a
    cyclic basis P = _cyclic_basis(g, C_f), checked to satisfy
    P^-1 g P = C_f, has C_f's verdict: conjugation by P maps the minimal
    factorizations of C_f onto those of g.  C_f is built and decided once
    per f.  A Singer element must have every minimal factorization
    generate; C_f is decided from the cache's row of f
    (_GenerationCache.singer_failure): only factorizations whose first
    factor t has a proper <C_f, t> are walked.  Only when C_f has a
    non-generating factorization does g walk its own, and the first of
    them that does not generate is reported as a violation.  A non-Singer
    element is not strong as soon as one minimal factorization fails to
    generate, so C_f is given only its explicit witness
    (_witness_for_non_singer), which the subgroup it stays in certifies
    unless its determinants generate F_q^x; g takes the witness's kind and
    whether one was found, both conjugation invariants, and finding none
    is a violation.  An element with no standard cyclic vector (the
    scalars, the diagonal matrices) searches its own witness, and so do
    the non-Singer elements until three are witnessed, whose witnesses are
    sampled in the report.  All closures go through one generation cache,
    whose rows share one closure per key, and generation_tests counts
    those it ran, the rows' among them.  The randomized conjugation spot
    checks compare full classify_qc classifications, through the same
    cache, of g and h g h^-1: both are drawn by index in GL_n(F_q) before
    the one lazy sweep and kept as it reaches them, so no list of the
    group is held.
    """
    start = time.monotonic()
    q = field.q
    cache = _GenerationCache(n, q)
    group_order = gl_order(n, q)
    rng = random.Random(seed)
    spots = [(rng.choice(range(group_order)), rng.choice(range(group_order)))
             for _ in range(min(SPOT_CHECKS, group_order))]
    kept = {index for spot in spots for index in spot}
    elements = {}  # index -> the element, for the indices kept
    checked = 0
    singer_count = 0
    witness_kinds = {"reducible": 0, "irreducible_proper_det": 0,
                     "irreducible_full_det": 0}
    violations = []
    sample = []
    companions: dict[Poly, Matrix] = {}
    # f -> C_f's verdict: for Singer f, every factorization generates; for
    # any other f, the kind of its witness and whether one was found
    verdicts: dict[Poly, bool | tuple[str, bool]] = {}
    for index, g in enumerate(enumerate_gl(n, field)):
        if index in kept:
            elements[index] = g
        f = char_poly(g)  # one per element: it decides both Singer and reducible
        singer = is_primitive_poly(f)
        checked += 1
        singer_count += singer
        cf = companions.get(f)
        if cf is None:
            cf = companions[f] = companion(f)
        # with a basis, g has C_f's verdict through it
        cyclic = _cyclic_basis(g, cf) is not None
        if singer:
            if not cyclic:
                raise AssertionError("a Singer cycle has no standard cyclic vector")
            if f not in verdicts:
                verdicts[f] = cache.singer_failure(cf, f) is None
            fl = None if verdicts[f] else cache.singer_failure(g, f)
            if fl is not None:
                violations.append({"matrix": g.to_text(), "is_singer": True,
                                   "non_generating": fl.serialize()})
            continue
        if cyclic and len(sample) == 3:
            if f not in verdicts:
                kind, fl = _witness_for_non_singer(cf, f, cache)
                verdicts[f] = kind, fl is not None
            kind, found = verdicts[f]
        else:  # g searches its own: it has no basis, or it may be sampled
            kind, fl = _witness_for_non_singer(g, f, cache)
            found = fl is not None
        if not found:
            violations.append({"matrix": g.to_text(), "is_singer": False,
                               "error": "no non-generating witness found"})
            continue
        witness_kinds[kind] += 1
        if len(sample) < 3:
            sample.append({"matrix": g.to_text(), "kind": kind,
                           "witness": fl.serialize()})
    spot_results = []
    for i, j in spots:
        g, h = elements[i], elements[j]
        spot_results.append(classify_qc(h @ g @ h.inverse(), cache) == classify_qc(g, cache))
    if not all(spot_results):
        violations.append({"spot_check": "classification not conjugation invariant"})
    return {
        "theorem": "strong quasi-Coxeter iff Singer",
        "params": {"n": n, "q": q},
        "mode": "full",
        "checked": checked,
        "singer_cycles": singer_count,
        "witnesses": witness_kinds,
        "witness_samples": sample,
        "conjugation_spot_checks": len(spot_results),
        "generation_tests": cache.closures,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def singer_class_count(n: int, q: int) -> int:
    """Number of Singer conjugacy classes in GL_n(F_q): phi(q^n - 1) / n,
    one per primitive degree-n polynomial."""
    m = q**n - 1
    phi = m
    for r, _ in factorize(m):
        phi = phi // r * (r - 1)
    return phi // n


def _partner_keys(model: SimpleNamespace, f: Poly) -> Iterator[tuple[Poly, int]]:
    """(g, key id) for each partner g of the primitive f, in enumerate_monic
    order: the key of g is the Frobenius orbit of gamma = (f - g)(beta) /
    (beta f'(beta)) in the model K of F_(q^n), beta = alpha^j the root of f
    that model.roots names, and its id is the leader of log gamma's
    cyclotomic coset.  char_poly(multiplication by alpha^id) is the char_poly
    of gamma's multiplication matrix in F_q[x]/(f), which x -> beta maps
    onto K.

    gamma is the sum of x - I over the <C_f>-orbit of the reflection
    t_g = C_f^-1 C_g = I + C_f^-1 h e_n^T, h = f - g, under conjugation.
    In the basis 1, x, ..., x^(n-1) of F_q[x]/(f), where C_f multiplies by
    x, e_n^T is v -> Tr(v / f'(x)) by Euler's dual basis, and the sum of
    z Tr(v / z) over representatives z of F_(q^n)^x / F_q^x is v.  So
    log gamma = log h(beta) - j - log f'(beta).  h(beta) is the sum of two
    parts, tabulated once per f over the coefficients of g they read, so a
    partner costs one vector sum and one log.  Its trace, model.trace at
    log gamma, is checked to be N (det t_g - 1) = g(0)/f(0) - 1, as
    N = 1 mod p.
    """
    field, n, m = model.field, model.n, model.m
    fmul, fadd, fsub = field.mul, field.add, field.sub
    j = model.roots[f]
    beta = [model.powers[i * j % m] for i in range(n)]  # beta^i

    def at_beta(coeffs, start):
        """sum_i coeffs[i] beta^(start + i)."""
        value = (0,) * n
        for c, power in zip(coeffs, beta[start:]):
            value = tuple(fadd(v, fmul(c, b)) for v, b in zip(value, power))
        return value

    derivative = [fmul(i % field.p, c) for i, c in enumerate(f.coeffs)][1:]
    shift = j + model.log[at_beta(derivative, 0)]
    f0_inverse = field.inv(f[0])
    # h(beta) = low part + high part, each tabulated over g's coefficients
    # there: c_0, ..., c_(split-1), with c_0 != 0, and the rest, so the loops
    # run in enumerate_monic order
    split = (n + 1) // 2
    lows = [(low, at_beta(list(map(fsub, f.coeffs, low)), 0))
            for low in itertools.product(range(1, field.q), *[range(field.q)] * (split - 1))]
    highs = [(high, at_beta(list(map(fsub, f.coeffs[split:], high)), split))
             for high in itertools.product(range(field.q), repeat=n - split)]
    for low, low_value in lows:
        target = fsub(fmul(low[0], f0_inverse), 1)
        for high, high_value in highs:
            coeffs = low + high + (1,)
            if coeffs == f.coeffs:
                continue
            log_gamma = (model.log[tuple(map(fadd, low_value, high_value))] - shift) % m
            if model.trace[log_gamma] != target:
                raise AssertionError("an orbit sum's trace is not g(0)/f(0) - 1")
            yield Poly._raw(field, coeffs), model.leader[log_gamma]


def _proper_orbits(f: Poly, row: dict[Poly, int], full: int) -> list[tuple[tuple, Poly]]:
    """The members of the <C_f>-orbit of t_g = C_f^-1 C_g under
    conjugation, as their reflection_params labelled g, for each partner g
    in the row with |<C_f, C_g>| < full.  C_g = C_f + h e_n^T for h = f - g,
    so t_g = I + (C_f^-1 h) e_n^T is (e_n, C_f^-1 h), and the walk
    conjugates it by C_f (_conjugation).  Each orbit is checked to have one
    member per hyperplane, N = (q^n - 1)/(q - 1), that no other orbit
    meets."""
    cf = companion(f)
    n, field = cf.n, cf.field
    orbit_size = (field.q**n - 1) // (field.q - 1)
    conjugate = _conjugation(cf)
    c_inverse = cf.inverse().entries
    e_n = (0,) * (n - 1) + (1,)
    members: dict[tuple, Poly] = {}
    for g in (g for g, order in row.items() if order != full):
        h = list(map(field.sub, f.coeffs, g.coeffs))
        x = start = e_n, tuple(functools.reduce(field.add, map(field.mul, c_inverse[i:i + n], h))
                               for i in range(0, n * n, n))
        size = 0
        while True:
            if x in members:
                raise AssertionError("a <C_f>-orbit met another orbit")
            members[x] = g
            size += 1
            x = conjugate(x)
            if x == start:
                break
        if size != orbit_size:
            raise AssertionError(f"a <C_f>-orbit of reflections has {size} members, "
                                 f"expected {orbit_size}")
    return list(members.items())


def _exceptional_reflections(cf: Matrix) -> frozenset[tuple]:
    """The one exception to main2 and gill, as reflection_params, built
    once per class: the reflections normalizing the caller's C_f
    (normalizing_reflections, which reuses its memoized inverse) when n = 2
    and q > 2, and none otherwise.  For q = 2 the normalizer is all of
    GL_2(F_2), the symmetric group S_3, and every reflection generates it
    with C_f."""
    if cf.n != 2 or cf.field.q == 2:
        return frozenset()
    return frozenset(map(reflection_params, normalizing_reflections(cf)))


def verify_main2(n: int, field: FieldSpec, full: bool = False) -> dict:
    """Check <c, t> = GL_n(F_q) for Singer c and reflection t, except the
    reflections normalizing <c> when n = 2 and q > 2: for q = 2 the
    normalizer is all of GL_2(F_2), and every pair generates.

    Generation is conjugation invariant, so by default c runs over one
    representative per Singer conjugacy class, the companion matrices C_f
    of the primitive f that the model of F_(q^n) lists (field_model),
    checked against the closed-form count phi(q^n - 1)/n;
    full=True audits every Singer cycle (feasible only on the smaller
    instances).  Each cycle is c = P C_f P^-1 for its cyclic basis P: I,
    or with full=True every invertible P with first column e_1, listed
    directly as [[1, u], [0, B]] for u in F_q^(n-1) and B in GL_(n-1)(F_q),
    with no char_poly.  These are exactly the Singer cycles: the list is
    checked to be distinct and of the closed-form size, and full mode
    sorts it into enumerate_gl order.  Every verdict is read from the row
    of c's class (_GenerationCache.row), with one closure per key, counted
    in generation_tests.  Each class lists, once, the reflections x of its
    proper orbits (_GenerationCache.proper_members) and its exceptional
    ones (_exceptional_reflections), by their reflection_params, each
    flagged with both facts, which conjugation keeps.  Each cycle reads
    that list through its P (_through_basis): as many reflections as the
    exception has on a correct run, and every other pair generates.  The
    pairs are reported in enumerate_reflections order, the order of those
    (phi, w), with no reflection enumerated; reflection_from_params checks
    each to be a reflection as it renders it.  Before the model is read, |GL_n(F_q)| is
    checked against ENUMERATION_BUDGET as every closure would be, and so
    is the sweep, from the closed-form class count.
    """
    start = time.monotonic()
    q = field.q
    classes = singer_class_count(n, q)
    group_order = _closure_budget(n, q)
    singer_cycle_count = classes * (group_order // (q**n - 1))
    swept = singer_cycle_count if full else classes
    reflections = reflection_count(n, q)
    _check_budget(f"main2 sweep of {swept} Singer cycles x {reflections} reflections",
                  swept * reflections, "pairs")
    cache = _GenerationCache(n, q)
    primitives = field_model(n, field).primitives
    if len(primitives) != classes:
        raise AssertionError(f"{len(primitives)} primitive polynomials, expected "
                             f"phi(q^n - 1)/n = {classes}")
    if full:
        blocks = [b.entries for b in enumerate_gl(n - 1, field)] if n > 1 else [()]
        bases = [Matrix._raw(field, n, (1,) + u + tuple(
                     v for r in range(n - 1) for v in (0,) + b[r * (n - 1):(r + 1) * (n - 1)]))
                 for u in itertools.product(range(q), repeat=n - 1) for b in blocks]
    else:
        bases = [Matrix.identity(field, n)]
    companions = {f: companion(f) for f in primitives}
    singers = [(p @ cf @ p.inverse(), p, f) for p in bases for f, cf in companions.items()]
    if full:
        singers.sort(key=lambda s: s[0].entries)  # enumerate_gl order
    if len({c.entries for c, _, _ in singers}) != swept or len(singers) != swept:
        raise AssertionError(f"listed {len(singers)} Singer cycles, not {swept} distinct ones")
    flagged = {}  # f -> ((phi, w) of x, (<C_f, x> generates, x is exceptional)) for the x read
    for f, cf in companions.items():
        proper = {x for x, _ in cache.proper_members(f)}
        exceptions = _exceptional_reflections(cf)
        flagged[f] = [(x, (x not in proper, x in exceptions)) for x in proper | exceptions]
    # q + 1 or 0, the same for every class
    per_cycle_expected = sum(normalizing for _, (_, normalizing) in flagged[primitives[0]])
    violations = []
    exceptional = []
    texts = {}  # (phi, w) -> the text of I + w phi, built once per reflection read
    for c, p, f in singers:
        # in enumerate_reflections order; every other pair generates
        read = sorted(_through_basis(p, flagged[f]), key=operator.itemgetter(0))
        c_text = c.to_text()
        for x, (generated, normalizing) in read:
            t_text = texts.get(x)
            if t_text is None:
                t_text = texts[x] = reflection_from_params(field, *x).to_text()
            if generated == normalizing:
                violations.append({"singer": c_text, "reflection": t_text,
                                   "generated": generated, "normalizing": normalizing})
            if not generated:
                exceptional.append({"singer": c_text, "reflection": t_text})
        exceptional_here = sum(not generated for _, (generated, _) in read)
        if exceptional_here != per_cycle_expected:
            violations.append({"singer": c_text,
                               "exceptional_count": exceptional_here,
                               "expected": per_cycle_expected})
    return {
        "theorem": "Singer cycle and non-normalizing reflection generate",
        "params": {"n": n, "q": q},
        "mode": "full" if full else "classes",
        "singer_classes": len(primitives),
        "singer_cycles": singer_cycle_count,
        "singer_checked": len(singers),
        "reflections": reflections,
        "checked": len(singers) * reflections,
        "generation_tests": cache.closures,
        "exceptional_per_cycle": per_cycle_expected,
        "exceptional_pairs_total": singer_cycle_count * per_cycle_expected,
        "exceptional_pairs": exceptional,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def verify_gill(n: int, field: FieldSpec) -> dict:
    """Check the companion-matrix generation theorem: for f primitive and
    g distinct monic with nonzero constant term, <C_f, C_g> = GL_n(F_q)
    except when n = 2, q > 2 and C_g normalizes <C_f>.

    Each pair is read through t_g = C_f^-1 C_g, one product with C_f^-1
    built once per f.  Also asserts the side condition dim fix(t_g) = n - 1
    (t_g^-1 is conjugate to C_f C_g^-1), which holds because the two
    companion matrices differ only in the last column.  So t_g is a
    reflection, <C_f, C_g> = <C_f, t_g>, and the pair's order is read off
    the row of f (_GenerationCache.row), whose closures, one per key, are
    counted in generation_tests; a pair that fails the side condition has
    no verdict.  C_g = C_f t_g normalizes <C_f> iff t_g does, so the pair
    is expected to fail iff t_g is in _exceptional_reflections(f), read by
    its (phi, w) = (e_n, w): t_g differs from I only in its last column,
    e_n + w.
    The primitive f come from the model of F_(q^n) (field_model).
    |GL_n(F_q)| > ENUMERATION_BUDGET raises BudgetExceededError before the
    model is read.
    """
    start = time.monotonic()
    q = field.q
    full = _closure_budget(n, q)
    cache = _GenerationCache(n, q)
    primitives = field_model(n, field).primitives
    e_n = (0,) * (n - 1) + (1,)
    violations = []
    exceptional = []
    pairs = 0
    for f in primitives:
        cf = companion(f)
        cf_inverse = cf.inverse()
        exceptions = _exceptional_reflections(cf)
        for g, order in cache.row(f).items():  # the partners, in enumerate_monic order
            t = cf_inverse @ companion(g)
            pairs += 1
            # dim fix(t_g) = n - 1 makes t_g a reflection, the pair the row decides
            if fixed_space(t).dim != n - 1:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "fix-dimension side condition failed"})
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "no verdict: the row decides only pairs whose "
                                            "C_f^-1 C_g is a reflection"})
                continue
            generated = order == full
            expected_fail = (e_n, tuple(map(field.sub, t.entries[n - 1::n], e_n))) in exceptions
            if not generated:
                exceptional.append({"f": f.to_text(), "g": g.to_text(), "order": order})
            if generated == expected_fail:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "generated": generated,
                                   "in_normalizer": expected_fail})
    exceptional.sort(key=lambda e: (e["f"], e["g"]))
    return {
        "theorem": "companion matrices of primitive + nonzero-constant polynomials generate",
        "params": {"n": n, "q": q},
        "primitive_polynomials": len(primitives),
        "checked": pairs,
        "generation_tests": cache.closures,
        "exceptional_pairs": exceptional,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def verify_length_oracle(n: int, field: FieldSpec) -> dict:
    """Check that the reflection length n - dim fix(g) equals the
    Cayley-graph distance over all reflections, on every element of
    GL_n(F_q)."""
    start = time.monotonic()
    distances = reflection_distances(n, field)
    violations = []
    for g, dist in distances.items():
        if reflection_length(g) != dist:
            violations.append({"matrix": g.to_text(), "bfs": dist,
                               "formula": reflection_length(g)})
    return {
        "theorem": "reflection length equals Cayley-graph distance",
        "params": {"n": n, "q": field.q},
        "checked": len(distances),
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }

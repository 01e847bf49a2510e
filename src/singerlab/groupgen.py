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

An orbit table of a Singer cycle c splits the reflections into their
orbits under conjugation by <c>, on which the order of <c, t> is
constant, and keys each orbit by char_poly(gamma) for its sum
gamma = sum_x (x - I), an element of F_q[c].  The order depends only on
that key, so a closure runs once per key, one per Frobenius orbit of
{gamma != 0 : Tr gamma != -1} in F_(q^n), not once per orbit.  A
driver call walks one table, of c0 = C_f0 for the first primitive f0,
held by its one generation cache, which also holds the empty factor
set's verdict and counts the closures it runs.  Every Singer cycle c
reads that table: with f = char_poly(c), P_f from _singer_conjugators(c0)
and c's cyclic basis P_c, checked to give P_c^-1 c P_c = C_f (P_c = I for
c = C_f), c = Q^-1 c0^k Q with <c0^k> = <c0> for Q = P_f P_c^-1.  So
(c, t) has the verdict of (c0, Q t Q^-1); as t -> Q t Q^-1 permutes the
reflections, the pairs of c that do not generate are (c, Q^-1 x Q) for
the members x of the table's proper orbits, and only those are
conjugated, once per Singer cycle: every other pair generates.

verify_main1, verify_main2, verify_gill and verify_length_oracle sweep
a full desk-scale instance and report violations; they are pure per
element or pair, so reports are deterministic.  verify_main1 decides
Singer first, from the one characteristic polynomial per element that
also tells a reducible witness from an irreducible one, and proves only
what the theorem asks.  A Singer element g with characteristic
polynomial f has the verdict of its class: its cyclic basis P, checked
to give P^-1 g P = C_f, maps the minimal factorizations of C_f onto
those of g, and C_f is decided once per f.  A minimal factorization of
C_f generates a group containing <C_f, t_1>, so only the factorizations
whose first factor t_1 has a proper <C_f, t_1> are walked; the orbit
numbers carry over, so one conjugated member decides whether its orbit
holds first factors.  Only when the class has a non-generating
factorization does g walk its own, to report the first.  A non-Singer
element gets only its non-generating witness, searched lazily; the
proper subgroup it stays in, a subspace stabilizer or det^-1(X) for a
proper X < F_q^x, certifies it without a closure.  classify_qc's full
classification is left to the conjugation spot checks, which share the
cache.  verify_main2 reads every Singer cycle, a class representative
C_f by default and each one with full=True, and verify_gill each C_f,
from the one table.  gill's pair (C_f, C_g) generates what
(C_f, C_f^-1 C_g) does, and C_f^-1 C_g is a reflection fixing x_n = 0,
so C_f Q^-1 x Q = C_g names its non-generating partners.  verify_gill
tests whether C_g normalizes <C_f> by the definition, against the powers
of C_f, not by scanning GL_n(F_q) as normalizer_of_cyclic still does for
the worked example.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from typing import Callable, Iterable, Sequence

from .ff import FieldSpec, factorize
from .matrix import (Matrix, Subspace, _check_budget, char_poly, enumerate_gl, fixed_space,
                     gl_order, invariant_subspace, mul_entries, stabilizes)
from .poly import Poly, companion, enumerate_monic, is_irreducible, is_primitive_poly
from .reflect import (FactorizationList, _det_subgroup_search, det_subgroup,
                      enumerate_minimal_factorizations, enumerate_reflections,
                      reflection_count, reflection_length, stabilizing_factorization)
from .singer import _cyclic_basis_change, is_singer, normalizing_reflections

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
    act on any tuple of points: the base images of an element (its
    columns), which is all a sift needs, or a whole permutation.
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

    def compose(self, y: int, h: tuple) -> tuple:
        """u_y h."""
        labels = []
        while y != self.point:
            y, label = self.tree[y]
            labels.append(label)
        for label in reversed(labels):
            h = tuple(map(self.gens[label].__getitem__, h))
        return h

    def rep(self, y: int) -> tuple:
        """The base images of u_y, memoized."""
        u = self.reps.get(y)
        if u is None:
            u = self.reps[y] = self.compose(y, self.reps[self.point])
        return u

    def strip(self, y: int, h: tuple) -> tuple:
        """u_y^-1 h."""
        tree, inverses = self.tree, self.inverses
        while y != self.point:
            y, label = tree[y]
            h = tuple(map(inverses[label].__getitem__, h))
        return h


def _sift(levels: list[_Level], h: tuple, start: int,
          positions: Sequence[int]) -> tuple[tuple, int]:
    """Strip h through the levels from start on: the residue and the level
    whose basic orbit misses its base-point image, or len(levels) when h
    sifts through.  positions[i] is where h holds the image of the i-th
    base point: range(n) for base images, the base for a permutation."""
    for depth in range(start, len(levels)):
        level = levels[depth]
        y = h[positions[depth]]
        if y not in level.tree:
            return h, depth
        h = level.strip(y, h)
    return h, len(levels)


def _unsifted_schreier_generator(levels: list[_Level], depth: int,
                                 base: tuple) -> tuple[int, int, int] | None:
    """The first unchecked Schreier generator u_{g x}^-1 g u_x of
    levels[depth] whose sift stops, as (x, g's label, the level where it
    stopped); None once every one of them sifts through."""
    level = levels[depth]
    gens, tree, checked = level.gens, level.tree, level.checked
    positions = range(len(levels))
    for x in level.orbit:
        for label in range(checked.get(x, 0), len(gens)):
            checked[x] = label + 1
            g = gens[label]
            y = g[x]
            if tree[y] == (x, label):
                continue  # a Schreier-vector edge: u_y = g u_x
            h, stop = _sift(levels, level.strip(y, tuple(map(g.__getitem__, level.rep(x)))),
                            depth + 1, positions)
            if stop < len(levels):
                return x, label, stop
            if h != base:
                raise AssertionError("a Schreier generator sifted to a non-identity residue")
    return None


def _schreier_sims_order(perms: list[tuple], base: tuple, full: int) -> int:
    """|<perms>| by deterministic Schreier-Sims over base, the indices of
    e_1, ..., e_n.  Its pointwise stabilizer is trivial, so an element is
    known by its base images, which is all a Schreier generator is sifted
    as; base extension is never needed, and the last level, whose Schreier
    generators fix every base point, is never searched.

    The product of the basic orbit lengths never exceeds |<perms>|, which
    divides full = |GL_n(F_q)|; once it passes full/2 the group is the
    whole one and the search stops there.
    """
    n = len(base)
    identity = tuple(range(len(perms[0])))
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
        # the same Schreier generator as a whole permutation, sifted as far:
        # a new strong generator for every level down to the one it stopped at
        x, label, stop = found
        level = levels[depth]
        g = level.gens[label]
        h = level.strip(g[x], tuple(map(g.__getitem__, level.compose(x, identity))))
        h = _sift(levels, h, depth + 1, base)[0]
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
    order = _schreier_sims_order(perms, base, full)
    if full % order:
        raise AssertionError("closure order does not divide |GL_n(F_q)|")
    return ClosureResult(order, functools.partial(_closure_elements, perms, base, field, order))


def generates_full(gens: Sequence[Matrix]) -> bool:
    """True iff the generators produce all of GL_n(F_q)."""
    return group_closure(gens).order == gl_order(gens[0].n, gens[0].field.q)


def _powers(c: Matrix) -> frozenset[tuple]:
    """The entries of every element of <c>."""
    powers = set()
    acc = Matrix.identity(c.field, c.n)
    while True:
        acc = acc @ c
        powers.add(acc.entries)
        if acc.is_identity:
            return frozenset(powers)


def normalizer_of_cyclic(c: Matrix) -> ClosureResult:
    """{h in GL_n(F_q) : h c h^-1 in <c>}, by scanning the whole group."""
    powers = _powers(c)
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
    (c, t) of a Singer cycle c and a reflection t, through one orbit table
    (_orbit_table) of c0 = C_f0, f0 the first primitive polynomial, built
    on first use with one closure per key.  A Singer cycle c with
    characteristic polynomial f is c = Q^-1 c0^k Q with <c0^k> = <c0>, for
    Q = P_f P_c^-1: P_f = _singer_conjugators(c0)[f] and P_c is c's
    checked cyclic basis (_cyclic_basis), I for c = C_f.  So (c, t) has
    the verdict of (c0, Q t Q^-1), and the orbit numbers carry over:
    non_generating lists the pairs of c that do not generate from the
    table's, and singer_failure decides a Singer cycle from them.
    """

    def __init__(self, n: int, q: int):
        self._full = gl_order(n, q)
        self._verdicts: dict[frozenset, bool] = {frozenset(): self._full == 1}
        self._table: tuple[list[tuple[tuple, int | None]], dict[Poly, Matrix]] | None = None
        self.orders: list[int] = []  # |<c0, t>| by orbit number, once the table is built
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

    def non_generating(self, c: Matrix, f: Poly) -> list[tuple[tuple, int | None]]:
        """The reflections t whose pair (c, t) does not generate, or has no
        verdict, for the Singer cycle c with characteristic polynomial f:
        the entries Q^-1 x Q of each, with the orbit number of x in the
        table, None for no verdict (_non_generating).  Every other
        reflection generates with c."""
        if self._table is None:
            n, field = c.n, c.field
            c0 = companion(_primitive_polys(n, field)[0])
            reflections = enumerate_reflections(n, field)
            orders_by_key: dict[Poly, int] = {}
            orbit_of, self.orders = _orbit_table(c0, reflections, orders_by_key)
            self.closures += len(orders_by_key)
            self._table = (_non_generating(orbit_of, self.orders, reflections, self._full),
                           _singer_conjugators(c0))
        exceptions, conjugators = self._table
        return _conjugated_back(conjugators[f] @ _cyclic_basis(c, f).inverse(), exceptions)

    def singer_failure(self, g: Matrix, f: Poly) -> FactorizationList | None:
        """The first minimal factorization of the Singer cycle g, with
        characteristic polynomial f, in enumeration order, whose factors do
        not generate; None when all do.

        A factorization (t_1, ..., t_l) multiplies to g, so it generates a
        group containing <g, t_1>.  Its first factors, the t with
        l(t^-1 g) = l(g) - 1, form a union of <g>-orbits: conjugating by h
        in <g> fixes g and maps t^-1 g to (h t h^-1)^-1 g, of the same
        length.  Every factorization whose first factor generates with g
        therefore generates; only those with a first factor among
        non_generating's are enumerated, in order, and tested through the
        cache.  One member decides whether its orbit holds first factors; a
        reflection without a verdict is decided alone.  With no such first
        factor, g is decided by the table alone.  The identity of
        GL_1(F_2), of length 0, keeps the empty set's verdict.
        """
        if reflection_length(g) == 0:
            return self.first_non_generating(enumerate_minimal_factorizations(g))
        length = reflection_length(g) - 1
        holds_first: dict = {}  # orbit number, or a reflection without one -> holds a first factor
        first = set()
        for x, number in self.non_generating(g, f):
            orbit = x if number is None else number
            if orbit not in holds_first:
                t_inverse = Matrix._raw(g.field, g.n, x).inverse()
                holds_first[orbit] = reflection_length(t_inverse @ g) == length
            if holds_first[orbit]:
                first.add(x)
        return self.first_non_generating(
            FactorizationList._unchecked((t,) + rest.factors, g)
            for t in enumerate_reflections(g.n, g.field) if t.entries in first
            for rest in enumerate_minimal_factorizations(t.inverse() @ g))


def _cyclic_basis(g: Matrix, f: Poly) -> Matrix:
    """P = _cyclic_basis_change(g) for g with characteristic polynomial f,
    checked to give P^-1 g P = C_f: det P != 0 and g P = P C_f, without an
    inverse.  P = I for g = C_f."""
    p = _cyclic_basis_change(g)
    if p.det() == 0 or g @ p != p @ companion(f):
        raise AssertionError("cyclic basis does not conjugate g to C_f")
    return p


def classify_qc(g: Matrix, cache: _GenerationCache | None = None) -> str:
    """Quasi-Coxeter classification over all minimal factorizations of g.

    strong: every factorization generates GL_n(F_q); weak_only: some but
    not all; not_weak: none.  The empty factorization of the identity
    generates the trivial subgroup.  A Singer cycle is read off the
    cache's one orbit table first, through its checked cyclic basis
    (_GenerationCache.singer_failure), and is strong there with no closure
    of its own; any other element, and a Singer cycle with a
    non-generating factorization, walks its factorizations.
    """
    cache = cache or _GenerationCache(g.n, g.field.q)
    f = char_poly(g)
    if is_primitive_poly(f) and cache.singer_failure(g, f) is None:
        return STRONG
    any_gen = False
    all_gen = True
    seen_any = False
    for fl in enumerate_minimal_factorizations(g):
        seen_any = True
        verdict = cache.generates(fl.factors)
        any_gen = any_gen or verdict
        all_gen = all_gen and verdict
        if any_gen and not all_gen:
            return WEAK_ONLY
    if not seen_any:
        raise AssertionError("every invertible element admits a minimal factorization")
    if all_gen:
        return STRONG
    return WEAK_ONLY if any_gen else NOT_WEAK


def conjugacy_classes(n: int, field: FieldSpec) -> list[tuple[Matrix, int]]:
    """Brute-force conjugacy classes of GL_n(F_q) as (representative, size)."""
    elements = list(enumerate_gl(n, field))
    pairs = [(h, h.inverse()) for h in elements]
    remaining = set(elements)
    classes = []
    for g in elements:
        if g not in remaining:
            continue
        orbit = {h @ g @ hinv for h, hinv in pairs}
        remaining -= orbit
        classes.append((g, len(orbit)))
    return classes


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


def verify_main1(n: int, field: FieldSpec, classes: bool = False, seed: int = 0) -> dict:
    """Check strongly-quasi-Coxeter == Singer over GL_n(F_q).

    Each element gets the work its verdict needs.  A Singer element g,
    with characteristic polynomial f, must have every minimal
    factorization generate.  Its cyclic basis P = _cyclic_basis(g, f) is
    checked to satisfy P^-1 g P = C_f, so conjugation by P maps the
    minimal factorizations of C_f onto those of g and g has C_f's
    verdict.  C_f is decided once per f from the cache's one orbit table
    (_GenerationCache.singer_failure): only factorizations whose first
    factor t has a proper <C_f, t> are walked.  Only when C_f has a
    non-generating factorization does g walk its own, and the first of
    them that does not generate is reported as a violation.  A non-Singer
    element is not strong as soon as one minimal factorization fails to
    generate, so it is given only its explicit witness
    (_witness_for_non_singer), which the subgroup it stays in certifies
    unless its determinants generate F_q^x; finding none is a violation.
    All closures go through one generation cache, which walks one orbit
    table with one closure per key, and generation_tests counts those it
    ran, the table's among them.  With classes=True only one
    representative per conjugacy class is checked (the classification is
    conjugation invariant); the default audits every element, each Singer
    one through its own checked conjugator.  The randomized conjugation
    spot checks compare full classify_qc classifications, through the
    same cache and table.
    """
    start = time.monotonic()
    q = field.q
    cache = _GenerationCache(n, q)
    if classes:
        todo = [(rep, size) for rep, size in conjugacy_classes(n, field)]
    else:
        todo = [(g, 1) for g in enumerate_gl(n, field)]
    checked = 0
    singer_count = 0
    witness_kinds = {"reducible": 0, "irreducible_proper_det": 0,
                     "irreducible_full_det": 0}
    violations = []
    sample = []
    singer_classes: dict[Poly, bool] = {}  # f -> every factorization of C_f generates
    for g, weight in todo:
        f = char_poly(g)  # one per element: it decides both Singer and reducible
        singer = is_primitive_poly(f)
        checked += weight
        singer_count += weight * singer
        if singer:
            if f not in singer_classes:
                singer_classes[f] = cache.singer_failure(companion(f), f) is None
            _cyclic_basis(g, f)  # g has C_f's verdict through its checked cyclic basis
            fl = None if singer_classes[f] else cache.singer_failure(g, f)
            if fl is not None:
                violations.append({"matrix": g.to_text(), "is_singer": True,
                                   "non_generating": fl.serialize()})
            continue
        kind, fl = _witness_for_non_singer(g, f, cache)
        if fl is None:
            violations.append({"matrix": g.to_text(), "is_singer": False,
                               "error": "no non-generating witness found"})
            continue
        witness_kinds[kind] += weight
        if len(sample) < 3:
            sample.append({"matrix": g.to_text(), "kind": kind,
                           "witness": fl.serialize()})
    rng = random.Random(seed)
    reps = [g for g, _ in todo]
    all_elements = reps if not classes else list(enumerate_gl(n, field))
    spot_results = []
    for _ in range(min(SPOT_CHECKS, len(reps))):
        g = rng.choice(reps)
        h = rng.choice(all_elements)
        conj = h @ g @ h.inverse()
        spot_results.append(classify_qc(conj, cache) == classify_qc(g, cache))
    if not all(spot_results):
        violations.append({"spot_check": "classification not conjugation invariant"})
    return {
        "theorem": "strong quasi-Coxeter iff Singer",
        "params": {"n": n, "q": q},
        "mode": "classes" if classes else "full",
        "checked": checked,
        "singer_cycles": singer_count,
        "witnesses": witness_kinds,
        "witness_samples": sample,
        "conjugation_spot_checks": len(spot_results),
        "generation_tests": cache.closures,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def _primitive_polys(n: int, field: FieldSpec) -> list[Poly]:
    """The primitive monic polynomials of degree n, in enumerate_monic order."""
    return [f for f in enumerate_monic(n, field, nonzero_constant=True) if is_primitive_poly(f)]


def singer_class_representatives(n: int, field: FieldSpec) -> list[Matrix]:
    """One Singer cycle per conjugacy class: the companion matrices of the
    primitive degree-n polynomials."""
    return [companion(f) for f in _primitive_polys(n, field)]


def singer_class_count(n: int, q: int) -> int:
    """Number of Singer conjugacy classes in GL_n(F_q): phi(q^n - 1) / n,
    one per primitive degree-n polynomial."""
    m = q**n - 1
    phi = m
    for r, _ in factorize(m):
        phi = phi // r * (r - 1)
    return phi // n


def _orbit_table(c: Matrix, reflections: Sequence[Matrix], orders_by_key: dict[Poly, int]
                  ) -> tuple[dict[tuple, int], list[int]]:
    """The <c>-orbit of every reflection, as a map from its entries to an
    orbit number, and |<c, t>| for the members t of each orbit, by orbit
    number: one closure per key missing from orders_by_key.

    For h in <c>, h <c, t> h^-1 = <c, h t h^-1>, so the order is constant
    on each orbit of <c> acting on the reflections by conjugation.  Modulo
    the scalars, which centralize t, <c> permutes the N = (q^n - 1)/(q - 1)
    hyperplanes regularly, so every orbit has exactly one member per
    hyperplane.  The orbit's key is char_poly(gamma) for its sum
    gamma = sum_x (x - I) = sum_x x - I, as N = 1 mod p.  gamma lies in
    K = F_q[c], so it commutes with c, and its trace is N (det t - 1) =
    det t - 1; both are checked.  The order of <c, t> depends only on that
    key, over every Singer cycle of GL_n(F_q): pairs (K, gamma) whose gamma
    have the same characteristic polynomial are conjugate, through the
    normalizer of K^x, which acts on gamma by the Frobenius.  So one
    orders_by_key may serve tables of several Singer cycles, and a key's
    closure runs on the first orbit that meets it; the caller counts them
    by the keys added.
    """
    n, field = c.n, c.field
    orbit_size = (field.q**n - 1) // (field.q - 1)
    known = {t.entries for t in reflections}
    ce, c_inverse = c.entries, c.inverse().entries
    fadd, fsub = field.add, field.sub
    diagonal = range(0, n * n, n + 1)
    orbit_of: dict[tuple, int] = {}
    orders = []
    for t in reflections:
        if t.entries in orbit_of:
            continue
        number = len(orders)
        x, members, total = t.entries, 0, (0,) * (n * n)
        while True:
            if x not in known or x in orbit_of:
                raise AssertionError("a <c>-orbit left the reflections or met another orbit")
            orbit_of[x] = number
            members += 1
            total = tuple(map(fadd, total, x))
            x = mul_entries(mul_entries(ce, x, n, field), c_inverse, n, field)
            if x == t.entries:
                break
        if members != orbit_size:
            raise AssertionError(f"a <c>-orbit of reflections has {members} members, "
                                 f"expected {orbit_size}")
        gamma = tuple(fsub(v, 1) if i in diagonal else v for i, v in enumerate(total))
        if mul_entries(ce, gamma, n, field) != mul_entries(gamma, ce, n, field):
            raise AssertionError("an orbit sum does not commute with c")
        trace = functools.reduce(fadd, (gamma[i] for i in diagonal), 0)
        if trace != fsub(t.det(), 1):
            raise AssertionError("an orbit sum's trace is not det t - 1")
        key = char_poly(Matrix._raw(field, n, gamma))
        order = orders_by_key.get(key)
        if order is None:
            order = orders_by_key[key] = group_closure([c, t]).order
        orders.append(order)
    return orbit_of, orders


def _non_generating(orbit_of: dict[tuple, int], orders: Sequence[int],
                    reflections: Sequence[Matrix], full: int) -> list[tuple[tuple, int | None]]:
    """The reflections x whose pair (c, x) does not generate, or has no
    verdict, in the orbit table of c: the entries of each member of an
    orbit of order other than full with its orbit number, then of each
    reflection missing from the table with None.  Every other reflection
    generates with c."""
    exceptions = [(x, number) for x, number in orbit_of.items() if orders[number] != full]
    exceptions += [(t.entries, None) for t in reflections if t.entries not in orbit_of]
    return exceptions


def _conjugated_back(p: Matrix, exceptions: Sequence[tuple[tuple, int | None]]
                     ) -> list[tuple[tuple, int | None]]:
    """(P^-1 x P, number) for each (x, number) of exceptions, on entries.

    (c, t) reads the table of c0 at P t P^-1, so the pairs of c that do
    not generate, or have no verdict, are those of exactly these t."""
    n, field = p.n, p.field
    pe, p_inverse = p.entries, p.inverse().entries
    return [(mul_entries(mul_entries(p_inverse, x, n, field), pe, n, field), number)
            for x, number in exceptions]


def _singer_conjugators(c: Matrix) -> dict[Poly, Matrix]:
    """For the Singer cycle c, a matrix P with P^-1 c^k P = C_f for every
    primitive f of degree n, keyed by f.

    Every such f is the characteristic polynomial of some c^k with
    gcd(k, q^n - 1) = 1, and then <c^k> = <c>; P is the checked cyclic
    basis of the first such power, so <C_f, t> = P^-1 <c, P t P^-1> P.
    """
    if not is_singer(c):
        raise ValueError("input is not a Singer cycle")
    m = c.field.q**c.n - 1
    conjugators = {}
    power = c
    for k in range(1, m + 1):  # up to k = m, for GL_1(F_2): there m = 1 and c = I
        if math.gcd(k, m) == 1:
            f = char_poly(power)
            if f not in conjugators:
                conjugators[f] = _cyclic_basis(power, f)
        power = power @ c
    if len(conjugators) != singer_class_count(c.n, c.field.q):
        raise AssertionError("the powers of c missed a primitive polynomial")
    return conjugators


def verify_main2(n: int, field: FieldSpec, full: bool = False) -> dict:
    """Check <c, t> = GL_n(F_q) for Singer c and reflection t, except the
    normalizing reflections when n = 2 and q > 2.

    Generation is conjugation invariant, so by default c runs over one
    representative per Singer conjugacy class, the companion matrices C_f;
    full=True audits every Singer cycle (feasible only on the smaller
    instances).  Every verdict is read from one orbit table (_orbit_table)
    of q^(n-1)(q - 1) - 1 <c0>-orbits of reflections, c0 = C_f for the
    first primitive f, with one closure per key of the orbits, counted in
    generation_tests, while every pair is still reported on.  A Singer
    cycle c is c = Q^-1 c0^k Q (_GenerationCache), so the pair (c, t) has
    the verdict of (c0, Q t Q^-1).  The table's proper orbits and the
    reflections missing from it are listed once (_non_generating); each
    Singer cycle conjugates only those back to Q^-1 x Q
    (_conjugated_back), q + 1 reflections for n = 2 and q > 2 and none
    otherwise, and every other pair generates.  Pairs are reported in
    enumerate_reflections order.  Before any polynomial is tested for
    primitivity, |GL_n(F_q)| is checked against ENUMERATION_BUDGET as
    every closure would be, and so is the sweep, from the closed-form
    class count phi(q^n - 1)/n.
    """
    start = time.monotonic()
    q = field.q
    classes = singer_class_count(n, q)
    group_order = _closure_budget(n, q)
    singer_cycle_count = classes * (group_order // (q**n - 1))
    swept = singer_cycle_count if full else classes
    _check_budget(f"main2 sweep of {swept} Singer cycles x {reflection_count(n, q)} reflections",
                  swept * reflection_count(n, q), "pairs")
    primitives = _primitive_polys(n, field)
    if len(primitives) != classes:
        raise AssertionError(f"{len(primitives)} primitive polynomials, expected "
                             f"phi(q^n - 1)/n = {classes}")
    if full:
        singers = [(g, f) for g in enumerate_gl(n, field) if is_primitive_poly(f := char_poly(g))]
    else:
        singers = [(companion(f), f) for f in primitives]
    reflections = enumerate_reflections(n, field)
    if full and len(singers) != singer_cycle_count:
        return {
            "theorem": "Singer cycle and non-normalizing reflection generate",
            "params": {"n": n, "q": q},
            "mode": "full",
            "generation_tests": 0,
            "violations": [{"error": "Singer census mismatch",
                            "scanned": len(singers),
                            "expected": singer_cycle_count}],
            "elapsed_ms": int((time.monotonic() - start) * 1000),
        }
    violations = []
    exceptional = []
    per_cycle_expected = q + 1 if (n == 2 and q > 2) else 0
    index = {t.entries: i for i, t in enumerate(reflections)}
    cache = _GenerationCache(n, q)
    for c, f in singers:
        verdicts = {}  # reflection index -> orbit number, None for no verdict
        for x, number in cache.non_generating(c, f):
            if x not in index:
                raise AssertionError("an orbit table member, conjugated back, is not a reflection")
            verdicts[index[x]] = number
        normalizing = ({index[t.entries] for t in normalizing_reflections(c)}
                       if n == 2 else set())
        expected_fails = normalizing if per_cycle_expected else set()
        exceptional_here = 0
        for j in sorted(verdicts.keys() | expected_fails):  # every other pair generates
            t = reflections[j]
            if j in verdicts and verdicts[j] is None:
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "error": "no verdict in the orbit table"})
                continue
            generated = j not in verdicts
            if generated == (j in expected_fails):
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "generated": generated,
                                   "normalizing": j in normalizing})
            if not generated:
                exceptional_here += 1
                exceptional.append({"singer": c.to_text(), "reflection": t.to_text()})
        if exceptional_here != per_cycle_expected:
            violations.append({"singer": c.to_text(),
                               "exceptional_count": exceptional_here,
                               "expected": per_cycle_expected})
    return {
        "theorem": "Singer cycle and non-normalizing reflection generate",
        "params": {"n": n, "q": q},
        "mode": "full" if full else "classes",
        "singer_classes": len(primitives),
        "singer_cycles": singer_cycle_count,
        "singer_checked": len(singers),
        "reflections": len(reflections),
        "checked": len(singers) * len(reflections),
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
    except when n = 2 and C_g normalizes <C_f>.

    Also asserts dim fix(C_f C_g^-1) = n - 1 on every pair, which holds
    because the two companion matrices differ only in the last column.
    So t = C_f^-1 C_g is a reflection fixing x_n = 0, <C_f, C_g> = <C_f, t>,
    and the order of the pair, the exceptional order too, is read from
    the one orbit table of c0 = C_f0, as verify_main2 reads it: the
    closures of that table, one per key, counted in generation_tests,
    decide every pair.  Per f, only the proper orbits' members and the
    missing reflections x are conjugated back, and
    C_f Q^-1 x Q = C_g names the partner g; every other pair whose side
    condition holds generates, and one that fails it has no verdict, since
    C_f^-1 C_g is then not a reflection.  C_g normalizes <C_f> iff
    C_g C_f C_g^-1 is a power of C_f, tested against the powers of C_f.
    Each partner's C_g and its inverse are built once, not once per f.
    |GL_n(F_q)| > ENUMERATION_BUDGET raises BudgetExceededError before any
    polynomial is tested for primitivity.
    """
    start = time.monotonic()
    q = field.q
    full = _closure_budget(n, q)
    primitives = _primitive_polys(n, field)
    targets = list(enumerate_monic(n, field, nonzero_constant=True))
    cache = _GenerationCache(n, q)
    companions = {g: companion(g) for g in targets}
    inverses = {g: cg.inverse() for g, cg in companions.items()}  # once per partner
    partners = {cg.entries: g for g, cg in companions.items()}
    violations = []
    exceptional = []
    pairs = 0
    for f in primitives:
        cf = companion(f)
        # <C_f, C_g> = <C_f, t> for the reflection t = C_f^-1 C_g: C_f t names g
        verdicts = {}  # g -> orbit number, None for no verdict
        for t, number in cache.non_generating(cf, f):
            g = partners.get(mul_entries(cf.entries, t, n, field))
            if g is not None:
                verdicts[g] = number
        powers = _powers(cf) if n == 2 else frozenset()
        for g in targets:
            if g == f:
                continue
            cg, cg_inverse = companions[g], inverses[g]
            pairs += 1
            # dim fix(C_f C_g^-1) = n - 1 makes C_f^-1 C_g a reflection, one
            # of the pairs the table decides
            reflection = fixed_space(cf @ cg_inverse).dim == n - 1
            if not reflection:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "fix-dimension side condition failed"})
            if not reflection or g in verdicts and verdicts[g] is None:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "no verdict in the orbit table"})
                continue
            order = cache.orders[verdicts[g]] if g in verdicts else full
            generated = order == full
            expected_fail = n == 2 and (cg @ cf @ cg_inverse).entries in powers
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

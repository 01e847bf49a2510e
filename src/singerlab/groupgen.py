"""Subgroup generation by exhaustive closure, and the theorem-level drivers.

group_closure realizes every "subgroup generated by" computation as a
breadth-first closure over left-multiplication by the generators.  Each
generator acts as a permutation of the q^n vectors of F_q^n, so a group
element is the tuple of its column-vector indices and a product is a table
lookup per column, for prime and extension fields alike.  The walk stops
at the hard element cap, or as soon as it has seen more than half of
GL_n(F_q), which by Lagrange is then the whole group.  The three
verification drivers sweep a full desk-scale instance and report
violations; they are pure per pair, so reports are deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from typing import Sequence

from .errors import BudgetExceededError
from .ff import FieldSpec
from .matrix import (Matrix, enumerate_gl, enumerate_subspaces, fixed_space, gl_order,
                     stabilizes)
from .poly import companion, enumerate_monic, is_primitive_poly
from .reflect import (FactorizationList, det_subgroup,
                      enumerate_minimal_factorizations, enumerate_reflections,
                      factorizations_in_det_subgroup, stabilizing_factorization)
from .singer import is_irreducible_element, is_singer, normalizing_reflections

DEFAULT_CLOSURE_CAP = 20_000_000
SPOT_CHECKS = 3  # randomized conjugation-invariance checks per verify_main1 run

STRONG = "strong"
WEAK_ONLY = "weak_only"
NOT_WEAK = "not_weak"


class ClosureResult:
    """Result of a subgroup closure: exact order unless the cap was hit.

    The element set is produced lazily: closures driven only for their
    order (the generation sweeps) never materialize it.  A walk stopped
    early by Lagrange is completed up to the group order first, so the
    set is never partial.
    """

    __slots__ = ("order", "generators", "hit_cap", "field", "n",
                 "_entry_factory", "_entry_set", "_elements")

    def __init__(self, order, generators, hit_cap, field, n, entry_factory):
        self.order = order
        self.generators = generators
        self.hit_cap = hit_cap
        self.field = field
        self.n = n
        self._entry_factory = entry_factory
        self._entry_set = None
        self._elements = None

    @property
    def entry_set(self) -> frozenset[tuple] | None:
        if self._entry_factory is None:
            return None
        if self._entry_set is None:
            self._entry_set = frozenset(self._entry_factory())
        return self._entry_set

    @property
    def elements(self) -> frozenset[Matrix] | None:
        if self.entry_set is None:
            return None
        if self._elements is None:
            self._elements = frozenset(Matrix(self.field, self.n, e)
                                       for e in self.entry_set)
        return self._elements

    def __contains__(self, m: Matrix) -> bool:
        if self.entry_set is None:
            raise ValueError("closure elements were not retained")
        return m.field == self.field and m.n == self.n and m.entries in self.entry_set


def group_closure(gens: Sequence[Matrix], cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """BFS closure of the generated subgroup, starting from the identity,
    over left-multiplication by the generators.

    Once more than |GL_n(F_q)|/2 elements are seen the subgroup is the
    whole group (Lagrange): the walk stops there and reports the exact
    order |GL_n(F_q)|, so such a walk never hits the cap.  Otherwise, when
    the element count exceeds the cap, the result carries hit_cap=True and
    its order is only a lower bound.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field, n = gens[0].field, gens[0].n
    for g in gens:
        if g.field != field or g.n != n:
            raise ValueError("generators live in different groups")
        if g.det() == 0:
            raise ZeroDivisionError("generators must be invertible")
    full = gl_order(n, field.q)
    vectors = list(itertools.product(range(field.q), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    perms = [tuple(index[g.apply(v)] for v in vectors) for g in gens]
    ident = tuple(index[tuple(int(i == j) for i in range(n))] for j in range(n))
    seen = {ident}
    queue = deque(seen)

    def walk(limit):
        while queue and len(seen) <= limit:
            a = queue.popleft()
            for perm in perms:
                b = tuple(map(perm.__getitem__, a))
                if b not in seen:
                    seen.add(b)
                    queue.append(b)

    def entries():
        walk(full - 1)  # completes a walk cut short by the Lagrange stop
        for a in seen:
            yield tuple(x for row in zip(*map(vectors.__getitem__, a)) for x in row)

    walk(min(cap, full // 2))
    order, hit_cap = len(seen), False
    if order > full // 2:
        order = full
    elif order > cap:
        hit_cap = True
    elif full % order:
        raise AssertionError("closure order does not divide |GL_n(F_q)|")
    return ClosureResult(order, tuple(gens), hit_cap, field, n,
                         None if hit_cap else entries)


def generates_full(gens: Sequence[Matrix], cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """True iff the generators produce all of GL_n(F_q)."""
    result = group_closure(gens, cap)
    if result.hit_cap:
        raise BudgetExceededError("closure cap hit before the subgroup closed")
    return result.order == gl_order(gens[0].n, gens[0].field.q)


def normalizer_of_cyclic(c: Matrix) -> ClosureResult:
    """{h in GL_n(F_q) : h c h^-1 in <c>}, by scanning the whole group."""
    powers = set()
    acc = Matrix.identity(c.field, c.n)
    while True:
        acc = acc @ c
        powers.add(acc)
        if acc.is_identity:
            break
    members = {h.entries for h in enumerate_gl(c.n, c.field)
               if h @ c @ h.inverse() in powers}
    if gl_order(c.n, c.field.q) % len(members):
        raise AssertionError("normalizer order does not divide |GL_n(F_q)|")
    return ClosureResult(len(members), (c,), False, c.field, c.n, lambda: members)


class _GenerationCache:
    """Memoizes generates_full verdicts on unordered factor sets."""

    def __init__(self, cap: int = DEFAULT_CLOSURE_CAP):
        self.cap = cap
        self._verdicts: dict[frozenset, bool] = {}

    def generates(self, factors: Sequence[Matrix]) -> bool:
        key = frozenset(f.entries for f in factors)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = generates_full(list(factors), self.cap)
            self._verdicts[key] = verdict
        return verdict


def classify_qc(g: Matrix, cache: _GenerationCache | None = None) -> str:
    """Quasi-Coxeter classification over all minimal factorizations of g.

    strong: every factorization generates GL_n(F_q); weak_only: some but
    not all; not_weak: none.  The empty factorization of the identity
    generates the trivial subgroup.
    """
    cache = cache or _GenerationCache()
    full_is_trivial = gl_order(g.n, g.field.q) == 1
    any_gen = False
    all_gen = True
    seen_any = False
    for fl in enumerate_minimal_factorizations(g):
        seen_any = True
        if fl.factors:
            verdict = cache.generates(fl.factors)
        else:
            verdict = full_is_trivial
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


def _witness_for_non_singer(g: Matrix, cache: _GenerationCache) -> tuple[str, FactorizationList]:
    """A non-generating minimal factorization of a non-Singer element.

    Reducible g: the factorization stabilizing an invariant subspace.
    Irreducible g: a factorization whose factor determinants stay in the
    subgroup generated by det(g); when that subgroup is the whole unit
    group the list is unrestricted, and the non-generating entry promised
    by the classification is located by direct search.
    """
    if not is_irreducible_element(g):
        inv_subspace = next(w for d in range(1, g.n)
                            for w in enumerate_subspaces(g.n, g.field, d)
                            if stabilizes(g, w))
        fl = stabilizing_factorization(g, inv_subspace)
        if fl.factors and cache.generates(fl.factors):
            raise AssertionError("stabilizing factorization generated the full group")
        return "reducible", fl
    d = g.det()
    proper = len(det_subgroup(g.field, d)) < g.field.q - 1
    kind = "irreducible_proper_det" if proper else "irreducible_full_det"
    for fl in factorizations_in_det_subgroup(g, d):
        if not fl.factors or not cache.generates(fl.factors):
            return kind, fl
    raise AssertionError("no non-generating factorization found for a non-Singer element")


def verify_main1(n: int, field: FieldSpec, classes: bool = False,
                 cap: int = DEFAULT_CLOSURE_CAP, seed: int = 0) -> dict:
    """Check strongly-quasi-Coxeter == Singer over GL_n(F_q).

    Every non-Singer element must also yield an explicit non-generating
    witness factorization.  With classes=True only one representative per
    conjugacy class is classified (the classification is conjugation
    invariant); the default audits every element.
    """
    start = time.monotonic()
    q = field.q
    cache = _GenerationCache(cap)
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
    for g, weight in todo:
        verdict = classify_qc(g, cache)
        singer = is_singer(g)
        checked += weight
        singer_count += weight * singer
        if singer != (verdict == STRONG):
            violations.append({"matrix": g.to_text(), "classification": verdict,
                               "is_singer": singer})
            continue
        if not singer:
            kind, fl = _witness_for_non_singer(g, cache)
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
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def singer_class_representatives(n: int, field: FieldSpec) -> list[Matrix]:
    """One Singer cycle per conjugacy class: the companion matrices of the
    primitive degree-n polynomials."""
    return [companion(f) for f in enumerate_monic(n, field, nonzero_constant=True)
            if is_primitive_poly(f)]


def verify_main2(n: int, field: FieldSpec, full: bool = False,
                 cap: int = DEFAULT_CLOSURE_CAP) -> dict:
    """Check <c, t> = GL_n(F_q) for Singer c and reflection t, except the
    normalizing reflections when n = 2 and q > 2.

    Generation is conjugation invariant, so by default c runs over one
    representative per Singer conjugacy class; full=True audits every
    Singer cycle (feasible only on the smaller instances).
    """
    start = time.monotonic()
    q = field.q
    reps = singer_class_representatives(n, field)
    if full:
        singers = [g for g in enumerate_gl(n, field) if is_singer(g)]
    else:
        singers = reps
    class_size = gl_order(n, q) // (q**n - 1)
    singer_cycle_count = len(reps) * class_size
    reflections = enumerate_reflections(n, field)
    if full and len(singers) != singer_cycle_count:
        return {
            "theorem": "Singer cycle and non-normalizing reflection generate",
            "params": {"n": n, "q": q},
            "mode": "full",
            "violations": [{"error": "Singer census mismatch",
                            "scanned": len(singers),
                            "expected": singer_cycle_count}],
            "elapsed_ms": int((time.monotonic() - start) * 1000),
        }
    violations = []
    exceptional = []
    per_cycle_expected = q + 1 if (n == 2 and q > 2) else 0
    pairs = 0
    for c in singers:
        normalizers = set(normalizing_reflections(c)) if n == 2 else set()
        exceptional_here = 0
        for t in reflections:
            pairs += 1
            generated = generates_full([c, t], cap)
            expected_fail = n == 2 and q > 2 and t in normalizers
            if generated == expected_fail:
                violations.append({"singer": c.to_text(), "reflection": t.to_text(),
                                   "generated": generated,
                                   "normalizing": t in normalizers})
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
        "singer_classes": len(reps),
        "singer_cycles": singer_cycle_count,
        "singer_checked": len(singers),
        "reflections": len(reflections),
        "checked": pairs,
        "exceptional_per_cycle": per_cycle_expected,
        "exceptional_pairs_total": singer_cycle_count * per_cycle_expected,
        "exceptional_pairs": exceptional,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def verify_gill(n: int, field: FieldSpec, cap: int = DEFAULT_CLOSURE_CAP) -> dict:
    """Check the companion-matrix generation theorem: for f primitive and
    g distinct monic with nonzero constant term, <C_f, C_g> = GL_n(F_q)
    except when n = 2 and C_g normalizes <C_f>.

    Also asserts dim fix(C_f C_g^-1) = n - 1 on every pair, which holds
    because the two companion matrices differ only in the last column.
    """
    start = time.monotonic()
    q = field.q
    primitives = [f for f in enumerate_monic(n, field, nonzero_constant=True)
                  if is_primitive_poly(f)]
    targets = list(enumerate_monic(n, field, nonzero_constant=True))
    violations = []
    exceptional = []
    pairs = 0
    for f in primitives:
        cf = companion(f)
        normalizer = normalizer_of_cyclic(cf) if n == 2 else None
        for g in targets:
            if g == f:
                continue
            cg = companion(g)
            pairs += 1
            if fixed_space(cf @ cg.inverse()).dim != n - 1:
                violations.append({"f": f.to_text(), "g": g.to_text(),
                                   "error": "fix-dimension side condition failed"})
            generated = generates_full([cf, cg], cap)
            expected_fail = n == 2 and cg in normalizer
            if not generated:
                exceptional.append({"f": f.to_text(), "g": g.to_text(),
                                    "order": group_closure([cf, cg], cap).order})
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
        "exceptional_pairs": exceptional,
        "violations": violations,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }

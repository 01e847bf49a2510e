"""Dense exact linear algebra over F_q.

Matrices are immutable n x n arrays of integer-encoded field elements,
stored row-major, with value equality and hashing (required by the
subgroup-closure sets).  Vectors are rows; matrices act on column vectors
(A.apply(v) computes A*v), which reproduces companion matrices exactly as
conventionally displayed.

Only the Matrix constructor validates entries; arithmetic results and
enumerations build with the unchecked Matrix._raw.  A matrix computes its
hash on first use and its inverse and determinant at most once, since
all three are fixed by its entries; the elements enumerate_gl yields keep
the determinant it read off their last row's residue.  _rref, on flat
integer rows, is the one elimination: an inverse, a determinant, a
canonical subspace and a kernel cost one each (the RREF of a system with
its columns reversed yields the kernel's canonical basis directly), and
enumerate_gl runs one per linearly independent prefix of fewer than n rows,
not one per candidate.  char_poly runs on coefficient lists and builds
only its result as a Poly.  Fixed spaces are
memoized by (field, n, entries) in a bounded LRU, so each distinct matrix
costs one elimination however often its fixed space is asked for.
_check_budget is the one closed-form guard of the one budget,
ENUMERATION_BUDGET.

Text form: rows separated by ';', entries comma-separated encodings,
e.g. "0,1;1,2" for [[0,1],[1,2]].
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator, Sequence

from .errors import BudgetExceededError
from .ff import FieldSpec, _multiplicative_order, factorize
from .poly import Poly, _mul

ENUMERATION_BUDGET = 10**8


def _check_budget(what: str, size: int, unit: str) -> None:
    """The one closed-form guard: BudgetExceededError, before any work
    starts, when what needs more than ENUMERATION_BUDGET units."""
    if size > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{what} needs {size} {unit}, over the budget of {ENUMERATION_BUDGET}")


# Fixed spaces held by _fixed_space_of_entries.  2^15 holds every element of
# GL_4(F_2) (20,160) and GL_3(F_3) (11,232), the largest groups main1 is meant
# to sweep in full.  An entry, its key's entries tuple included, takes about
# 320 bytes at n = 2 and 510 at n = 4 (tracemalloc), so a full memo is under 17 MB.
_FIXED_SPACE_CACHE_SIZE = 2**15


def mul_entries(a: tuple, b: tuple, n: int, field: FieldSpec) -> tuple:
    """Row-major flat product of two n x n entry tuples."""
    # the prime-field fork pays: this is the factorization search's kernel
    if field.k == 1:
        p = field.p
        rows = [a[i * n:(i + 1) * n] for i in range(n)]
        cols = [b[j::n] for j in range(n)]
        return tuple(sum(map(operator.mul, row, col)) % p for row in rows for col in cols)
    fmul, fadd = field.mul, field.add
    out = []
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        for j in range(n):
            s = 0
            for k in range(n):
                c = row[k]
                if c:
                    s = fadd(s, fmul(c, b[k * n + j]))
            out.append(s)
    return tuple(out)


class Matrix:
    """Immutable n x n matrix over a FieldSpec."""

    __slots__ = ("field", "n", "entries", "_hash", "_inverse", "_det")

    def __init__(self, field: FieldSpec, n: int, entries: Sequence[int]):
        if n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {n}")
        entries = tuple(map(operator.index, entries))  # no silent float truncation
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        if any(not 0 <= e < field.q for e in entries):
            raise ValueError("entry encoding out of range")
        _init(self, field, n, entries)

    @classmethod
    def _raw(cls, field: FieldSpec, n: int, entries: tuple) -> "Matrix":
        """Unchecked constructor for arithmetic results: entries must be a
        tuple of n * n in-range integer encodings."""
        m = object.__new__(cls)
        _init(m, field, n, entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "Matrix":
        n = len(rows)
        return cls(field, n, [e for row in rows for e in row])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls._raw(field, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def from_text(cls, field: FieldSpec, text: str) -> "Matrix":
        rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"matrix literal {text!r} is not square")
        return cls.from_rows(field, rows)

    def to_text(self) -> str:
        n = self.n
        return ";".join(
            ",".join(str(v) for v in self.entries[i * n:(i + 1) * n]) for i in range(n)
        )

    # -- access ----------------------------------------------------------------

    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.n + j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.n == other.n
                and self.field == other.field and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.field, self.entries)))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.to_text()!r})"

    @property
    def is_identity(self) -> bool:
        n = self.n
        return all(self.entries[i * n + j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    # -- arithmetic --------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.n != other.n:
            raise ValueError("incompatible matrices")
        return Matrix._raw(self.field, self.n,
                           mul_entries(self.entries, other.entries, self.n, self.field))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """A*v for a column vector given (and returned) as a coordinate tuple."""
        n, fld = self.n, self.field
        out = []
        for i in range(n):
            s = 0
            for j in range(n):
                c = self.entries[i * n + j]
                if c and vec[j]:
                    s = fld.add(s, fld.mul(c, vec[j]))
            out.append(s)
        return tuple(out)

    def det(self) -> int:
        """Read off the RREF: the product of the pivots it divides by,
        negated once per row swap, or 0 when A has fewer than n pivots.
        Computed once per matrix."""
        if self._det is None:
            n = self.n
            _, pivots, det = _rref([list(self.entries[i * n:(i + 1) * n]) for i in range(n)],
                                   self.field)
            object.__setattr__(self, "_det", det if len(pivots) == n else 0)
        return self._det

    def inverse(self) -> "Matrix":
        """The right half of the RREF of [A | I]; A is singular iff that RREF
        has a pivot right of column n - 1.  Computed once per matrix; a
        singular matrix raises on every call."""
        if self._inverse is None:
            n, fld = self.n, self.field
            rows, pivots, _ = _rref([list(self.entries[i * n:(i + 1) * n])
                                     + [int(i == j) for j in range(n)] for i in range(n)], fld)
            if pivots[-1] >= n:
                raise ZeroDivisionError("matrix is singular")
            object.__setattr__(self, "_inverse", Matrix._raw(
                fld, n, tuple(v for row in rows for v in row[n:])))
        return self._inverse

    def __pow__(self, e: int) -> "Matrix":
        """A^e by square-and-multiply on flat entry tuples; A^-e = (A^-1)^e."""
        n, fld = self.n, self.field
        base = (self if e >= 0 else self.inverse()).entries
        e = abs(e)
        result = None
        while e:
            if e & 1:
                result = base if result is None else mul_entries(result, base, n, fld)
            e >>= 1
            if e:
                base = mul_entries(base, base, n, fld)
        return Matrix.identity(fld, n) if result is None else Matrix._raw(fld, n, result)


def _init(m: Matrix, field: FieldSpec, n: int, entries: tuple) -> None:
    object.__setattr__(m, "field", field)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "entries", entries)
    object.__setattr__(m, "_hash", None)
    object.__setattr__(m, "_inverse", None)
    object.__setattr__(m, "_det", None)


# --- reduced row echelon form and subspaces -----------------------------------


def _rref(rows: list[list[int]], field: FieldSpec) -> tuple[list[list[int]], list[int], int]:
    """In-place RREF of a list of row vectors: (nonzero rows, pivot columns, the
    product of the pivots divided by, negated once per row swap)."""
    if not rows:
        return [], [], 1
    nrows, ncols = len(rows), len(rows[0])
    inv, mul, add, neg = field.inv, field.mul, field.add, field.neg
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = neg(det)
        prow = rows[r]
        if prow[c] != 1:
            det = mul(det, prow[c])
            s = inv(prow[c])
            prow = rows[r] = [mul(s, v) for v in prow]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                f = neg(f)
                rows[i] = [add(a, mul(f, b)) for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots, det


class Subspace:
    """A subspace of F_q^n held as a canonical RREF basis.

    Two Subspace values are equal iff they are the same subspace: the RREF
    rows with strictly increasing pivot columns are a canonical form.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length does not match ambient dimension")
        basis, pivots, _ = _rref(rows, field)
        return cls(field, ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        eye = [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, eye, list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vec: Sequence[int]) -> bool:
        fld = self.field
        v = list(vec)
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = [fld.sub(a, fld.mul(c, b)) for a, b in zip(v, row)]
        return not any(v)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        rows = " ; ".join(",".join(map(str, r)) for r in self.basis)
        return f"Subspace(dim={self.dim} of F^{self.ambient_dim}: {rows})"


def kernel_of_rows(field: FieldSpec, rows: list[list[int]], ncols: int) -> Subspace:
    """Solution space {v : R v = 0} of a (possibly rectangular) system.

    One RREF of R with its columns reversed.  Each free column f then gives
    the kernel vector that is 1 at f and 0 at every other free column; its
    other nonzero entries sit at pivot columns right of f, which the
    reversed elimination cleared against f.  Sorted by f, these vectors are
    the kernel's canonical RREF basis, with the free columns as pivots.
    """
    reduced, pivots, _ = _rref([r[::-1] for r in rows], field)
    last = ncols - 1
    bound = [last - c for c in pivots]
    neg = field.neg
    free = [f for f in range(ncols) if f not in bound]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for col, row in zip(bound, reduced):
            v[col] = neg(row[last - f])
        basis.append(v)
    return Subspace(field, ncols, basis, free)


def _minus_identity_rows(field: FieldSpec, n: int, e: tuple) -> list[list[int]]:
    """The rows of A - I for A's flat entries e, subtracting 1 on the diagonal only."""
    sub = field.sub
    rows = [list(e[i * n:(i + 1) * n]) for i in range(n)]
    for i, row in enumerate(rows):
        row[i] = sub(row[i], 1)
    return rows


def fixed_space(a: Matrix) -> Subspace:
    """fix(A) = ker(A - I), memoized by A's field, size and entries.

    The factorization search asks again and again for the fixed spaces of
    the same group elements; each distinct matrix costs one elimination.
    The memo keys on entries, not on A, so it keeps no Matrix alive, and
    its Subspace results are immutable, so every caller may share them.
    """
    return _fixed_space_of_entries(a.field, a.n, a.entries)


@functools.lru_cache(maxsize=_FIXED_SPACE_CACHE_SIZE)
def _fixed_space_of_entries(field: FieldSpec, n: int, entries: tuple) -> Subspace:
    return kernel_of_rows(field, _minus_identity_rows(field, n, entries), n)


def stabilizes(a: Matrix, w: Subspace) -> bool:
    """True iff A maps every basis vector of W back into W."""
    if a.n != w.ambient_dim:
        raise ValueError("dimension mismatch")
    if a.field != w.field:
        raise ValueError("field mismatch")
    return all(w.contains(a.apply(row)) for row in w.basis)


def char_poly(a: Matrix) -> Poly:
    """Monic characteristic polynomial det(xI - A).

    Hessenberg reduction by exact similarity transforms, then the standard
    leading-minor recurrence on little-endian coefficient lists: the one
    Poly built is the result.
    """
    n, fld = a.n, a.field
    sub, mul, neg = fld.sub, fld.mul, fld.neg
    h = [list(a.entries[i * n:(i + 1) * n]) for i in range(n)]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = fld.inv(h[j + 1][j])
        for i in range(j + 2, n):
            f = mul(h[i][j], inv)
            if f:
                # row op R_i -= f*R_{j+1}, inverse column op C_{j+1} += f*C_i
                h[i] = [sub(x, mul(f, y)) for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = fld.add(row[j + 1], mul(f, row[i]))
    # p_m = (x - h[m-1][m-1]) p_{m-1} - sum_r h[r-1][m-1] (prod subdiag) p_{r-1}
    polys = [[1]]
    for m in range(1, n + 1):
        term = _mul((neg(h[m - 1][m - 1]), 1), polys[m - 1], fld)
        beta = 1
        for r in range(m - 1, 0, -1):
            beta = mul(beta, h[r][r - 1])
            coef = mul(h[r - 1][m - 1], beta)
            if coef:
                for i, c in enumerate(polys[r - 1]):
                    term[i] = sub(term[i], mul(coef, c))
        polys.append(term)
    # monic of degree n, so the list has no trailing zeros
    return Poly._raw(fld, tuple(polys[n]))


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def gl_exponent(n: int, q: int) -> int:
    """The exponent of GL_n(F_q): p^a * lcm(q - 1, q^2 - 1, ..., q^n - 1),
    where p is the characteristic and p^a the least power of p that is >= n.

    Every element's order divides it (Celler & Leedham-Green, "Calculating
    the order of an invertible matrix", DIMACS 28, 1997): the semisimple
    part has its eigenvalues in fields F_{q^d}, d <= n, so its order divides
    some q^d - 1, and the unipotent part u satisfies (u - I)^n = 0, so
    u^(p^a) - I = (u - I)^(p^a) = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = factorize(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0][0]
    unipotent = 1
    while unipotent < n:
        unipotent *= p
    return unipotent * math.lcm(*(q**d - 1 for d in range(1, n + 1)))


def matrix_order(a: Matrix) -> int:
    """Least m >= 1 with A^m = I.

    Starts from gl_exponent(n, q), a multiple of every element's order and
    far smaller than |GL_n(F_q)|, and divides out each prime r while
    A^(m / r) = I.  The order comes from matrix powers alone, never from
    the characteristic polynomial, so it stays an independent oracle.
    """
    if a.det() == 0:
        raise ZeroDivisionError("singular matrices have no multiplicative order")
    ident = Matrix.identity(a.field, a.n)
    return _multiplicative_order(a.__pow__, ident, gl_exponent(a.n, a.field.q))


def enumerate_subspaces(n: int, field: FieldSpec, dim: int | None = None) -> Iterator[Subspace]:
    """All subspaces of F_q^n of the given dimension (or all), each once.

    Subspaces are produced directly in RREF canonical form: choose pivot
    columns, then fill the free positions (right of a pivot, not above
    another pivot) with arbitrary field values.
    """
    dims = range(n + 1) if dim is None else [dim]
    q = field.q
    for r in dims:
        if not 0 <= r <= n:
            raise ValueError("dimension out of range")
        for pivots in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n)
                    if j not in pivots]
            _check_budget(f"subspace enumeration in F_{q}^{n} with pivots {pivots}",
                          q ** len(free), "bases")
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield Subspace(field, n, rows, pivots)


def invariant_subspace(a: Matrix) -> Subspace | None:
    """The first subspace of dimension 1..n-1, in enumerate_subspaces order,
    that A stabilizes; None when there is none (A is irreducible)."""
    return next((w for d in range(1, a.n) for w in enumerate_subspaces(a.n, a.field, d)
                 if stabilizes(a, w)), None)


def enumerate_gl(n: int, field: FieldSpec) -> Iterator[Matrix]:
    """All invertible n x n matrices over F_q, in entry-lex order, each
    holding its determinant.

    Row by row, depth first: each linearly independent prefix of k < n rows
    gets one _rref, and a row v extends it iff v lies outside the prefix's
    span.  A prefix of n - 1 rows has one free column f, and v completes an
    invertible matrix iff its residue r = v[f] - sum_i v[p_i] R_i[f], after
    clearing the pivots p_i of the prefix's RREF R, is nonzero.  Then
    det = (the prefix's pivot product, negated per swap) * r, negated once
    per pivot right of f: after the clearing, the last row is r e_f against
    the identity on the pivot columns.
    """
    q = field.q
    _check_budget(f"GL_{n}(F_{q}) enumeration", q ** (n * n), "candidate matrices")
    yield from _extend_gl((), n, field, list(itertools.product(range(q), repeat=n)))


def _extend_gl(prefix: tuple, n: int, field: FieldSpec, vectors: list) -> Iterator[Matrix]:
    """The invertible matrices whose leading rows are the linearly
    independent flat prefix, in entry-lex order (enumerate_gl)."""
    k = len(prefix) // n
    basis, pivots, det = _rref([list(prefix[i * n:(i + 1) * n]) for i in range(k)], field)
    if k < n - 1:
        span = Subspace(field, n, basis, pivots)
        for v in vectors:
            if not span.contains(v):
                yield from _extend_gl(prefix + v, n, field, vectors)
        return
    add, mul, neg = field.add, field.mul, field.neg
    free = next(c for c in range(n) if c not in pivots)
    if (n - 1 - free) % 2:
        det = neg(det)
    clear = [(p, neg(row[free])) for p, row in zip(pivots, basis) if row[free]]
    for v in vectors:
        r = v[free]
        for p, c in clear:
            if v[p]:
                r = add(r, mul(c, v[p]))
        if r:
            m = Matrix._raw(field, n, prefix + v)
            object.__setattr__(m, "_det", mul(det, r))
            yield m

import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singerlab import (Matrix, Poly, Subspace, char_poly, companion, enumerate_gl,
                       enumerate_subspaces, find_primitive_poly, fixed_space, gl_exponent,
                       gl_order, make_field, matrix, matrix_order, stabilizes)
from singerlab.matrix import _rref, kernel_of_rows

from conftest import (common_fixed_space, gaussian_binomial, gl_by_candidate_filter, kernel,
                      matrices, matrices_over, random_invertible, square_shapes)


def char_poly_cofactor(a):
    """Oracle: det(xI - A) by cofactor expansion over the polynomial ring."""
    n, field = a.n, a.field
    x = Poly.x(field)
    entries = [[x - Poly(field, (a[i, j],)) if i == j else -Poly(field, (a[i, j],))
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = Poly.zero(field)
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = rows[0][c] * minor
            total = total + term if pos % 2 == 0 else total - term
        return total

    return det(entries, tuple(range(n)))


def det_cofactor(a):
    """Oracle: det(A) by cofactor expansion along the first row."""
    field = a.field

    def det(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = 0
        for pos, c in enumerate(cols):
            term = field.mul(rows[0][c], det(rows[1:], cols[:pos] + cols[pos + 1:]))
            total = field.add(total, term) if pos % 2 == 0 else field.sub(total, term)
        return total

    return det(a.rows(), tuple(range(a.n)))


def naive_order(a, cap):
    acc = a
    for m in range(1, cap + 1):
        if acc.is_identity:
            return m
        acc = acc @ a
    raise AssertionError("order exceeded cap")


def test_mat_ops_examples(f3, f5):
    assert Matrix.from_text(f5, "3,0;0,4").det() == 2
    eye = Matrix.identity(f5, 2)
    assert eye.inverse() == eye
    c = Matrix.from_text(f3, "0,1;1,2")
    assert (c**8).is_identity and not (c**4).is_identity


def test_inverse_roundtrip_and_errors(f5):
    rng = random.Random(11)
    for _ in range(40):
        m = Matrix(f5, 3, [rng.randrange(5) for _ in range(9)])
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert (m @ m.inverse()).is_identity
            assert m ** -1 == m.inverse()


def test_matmul_associative_random(f4):
    rng = random.Random(5)
    mats = []
    while len(mats) < 6:
        m = Matrix(f4, 2, [rng.randrange(4) for _ in range(4)])
        mats.append(m)
    for a, b, c in itertools.permutations(mats, 3):
        assert (a @ b) @ c == a @ (b @ c)


def test_det_multiplicative(f3, f5):
    rng = random.Random(3)
    for field, n in [(f3, 3), (f5, 2)]:
        for _ in range(30):
            a = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
            b = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
            assert (a @ b).det() == field.mul(a.det(), b.det())


def test_char_poly_examples(f3, f5):
    assert char_poly(companion(Poly.from_text(f3, "2,1,1"))).to_text() == "2,1,1"
    assert char_poly(Matrix.identity(f3, 2)).to_text() == "1,1,1"  # (x-1)^2
    assert char_poly(Matrix.from_text(f5, "3,0;0,4")).to_text() == "2,3,1"


def test_char_poly_against_cofactor_oracle(f2, f3, f5):
    for m in itertools.product(range(3), repeat=4):
        a = Matrix(f3, 2, m)
        assert char_poly(a) == char_poly_cofactor(a)
    for m in itertools.product(range(2), repeat=9):
        a = Matrix(f2, 3, m)
        assert char_poly(a) == char_poly_cofactor(a)
    rng = random.Random(17)
    for _ in range(120):
        a = Matrix(f5, 3, [rng.randrange(5) for _ in range(9)])
        assert char_poly(a) == char_poly_cofactor(a)
    for _ in range(40):
        a = Matrix(f2, 4, [rng.randrange(2) for _ in range(16)])
        assert char_poly(a) == char_poly_cofactor(a)


def test_det_against_cofactor_oracle(f2, f4, f5):
    # every matrix of M_2(F_4), M_2(F_5) and M_3(F_2), singular ones included
    for field, n in [(f4, 2), (f5, 2), (f2, 3)]:
        for m in itertools.product(range(field.q), repeat=n * n):
            a = Matrix(field, n, m)
            assert a.det() == det_cofactor(a)


def test_char_poly_extension_field(f2, f4, f5, f9):
    # every matrix of M_2(F_4), seeded samples of M_2(F_8), M_2(F_9) and
    # M_3(F_4), and every 1 x 1 matrix over F_5 and F_8
    f8 = make_field(2, 3)
    for m in itertools.product(range(4), repeat=4):
        a = Matrix(f4, 2, m)
        assert char_poly(a) == char_poly_cofactor(a)
    rng = random.Random(23)
    for field, n, count in [(f8, 2, 200), (f9, 2, 200), (f4, 3, 150)]:
        for _ in range(count):
            a = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
            assert char_poly(a) == char_poly_cofactor(a)
    for field in (f5, f8):
        for c in range(field.q):
            assert char_poly(Matrix(field, 1, (c,))).coeffs == (field.neg(c), 1)


def test_char_poly_builds_one_poly(monkeypatch, f3, f4):
    # the recurrence runs on coefficient lists; the result is the only Poly
    built = []
    init, raw = Poly.__init__, Poly._raw.__func__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(Poly, "_raw", classmethod(
        lambda cls, *args: built.append(1) or raw(cls, *args)))
    rng = random.Random(31)
    for field, n in [(f3, 1), (f3, 3), (f4, 2), (f4, 4)]:
        for _ in range(10):
            a = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
            built.clear()
            f = char_poly(a)
            assert len(built) == 1 and f.degree == n and f.is_monic


def test_char_poly_similarity_invariant(f5):
    rng = random.Random(29)
    for _ in range(25):
        a = Matrix(f5, 3, [rng.randrange(5) for _ in range(9)])
        while True:
            p = Matrix(f5, 3, [rng.randrange(5) for _ in range(9)])
            if p.det() != 0:
                break
        assert char_poly(p @ a @ p.inverse()) == char_poly(a)


def test_kernel_examples(f5):
    assert kernel(Matrix.identity(f5, 2)).dim == 0
    assert kernel(Matrix(f5, 2, [0, 0, 0, 0])).is_full
    k = kernel(Matrix.from_text(f5, "0,0;4,4"))
    assert k.basis == ((1, 4),)


def test_fixed_space_examples(f3, f5):
    assert fixed_space(Matrix.from_text(f5, "2,2;2,0")).basis == ((1, 2),)
    assert fixed_space(Matrix.from_text(f5, "0,2;4,3")).basis == ((1, 3),)
    singer = Matrix.from_text(f3, "0,1;1,2")
    assert fixed_space(singer).is_zero


def test_fix_dim_plus_rank_identity(f3):
    for g in enumerate_gl(2, f3):
        n_minus_rank = kernel_of_rows(
            f3, [[f3.sub(g[i, j], 1 if i == j else 0) for j in range(2)] for i in range(2)], 2).dim
        assert fixed_space(g).dim == n_minus_rank


def test_stabilizes(f3, f5):
    a = Matrix.from_text(f5, "3,0;0,4")
    assert stabilizes(a, Subspace.zero(f5, 2))
    assert stabilizes(a, Subspace.full(f5, 2))
    assert stabilizes(a, Subspace.from_vectors(f5, 2, [(1, 0)]))
    singer = Matrix.from_text(f3, "0,1;1,2")
    lines = list(enumerate_subspaces(2, f3, 1))
    assert len(lines) == 4
    assert not any(stabilizes(singer, line) for line in lines)


def test_stabilizes_rejects_a_subspace_over_another_field(f3, f5):
    # (1,0;3,1) maps (1,0) to (1,3): off the line over F_5, while F_3
    # arithmetic reduces 3 to 0 and would put it on the line
    a = Matrix.from_text(f5, "1,0;3,1")
    assert not stabilizes(a, Subspace.from_vectors(f5, 2, [(1, 0)]))
    with pytest.raises(ValueError, match="field"):
        stabilizes(a, Subspace.from_vectors(f3, 2, [(1, 0)]))


def test_subspace_canonical_under_row_ops(f5):
    rng = random.Random(41)
    for _ in range(40):
        vecs = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        s1 = Subspace.from_vectors(f5, 4, vecs)
        # random invertible combinations of the same rows
        a, b, c, d = rng.randrange(1, 5), rng.randrange(5), rng.randrange(5), rng.randrange(1, 5)
        if (a * d - b * c) % 5 == 0:
            continue
        mixed = [[(a * x + b * y) % 5 for x, y in zip(*vecs)],
                 [(c * x + d * y) % 5 for x, y in zip(*vecs)]]
        assert Subspace.from_vectors(f5, 4, mixed) == s1


def test_subspace_membership_and_coordinates(f3):
    s = Subspace.from_vectors(f3, 3, [(1, 0, 2), (0, 1, 1)])
    assert s.contains((1, 1, 0))
    assert not s.contains((0, 0, 1))


@pytest.mark.parametrize("n,q,r,expected", [
    (2, 3, 1, 4), (3, 2, 1, 7), (2, 5, 1, 6), (4, 2, 2, 35), (3, 3, 2, 13),
])
def test_enumerate_subspaces_counts(n, q, r, expected):
    field = make_field(q) if q in (2, 3, 5) else make_field(2, 2)
    assert expected == gaussian_binomial(n, r, q)
    subs = list(enumerate_subspaces(n, field, r))
    assert len(subs) == len(set(subs)) == expected


def test_enumerate_subspaces_all_dims(f3):
    subs = list(enumerate_subspaces(2, f3))
    assert len(subs) == sum(gaussian_binomial(2, r, 3) for r in range(3))


def test_matrix_order_examples(f3):
    assert matrix_order(Matrix.from_text(f3, "0,1;1,2")) == 8
    assert matrix_order(Matrix.identity(f3, 2)) == 1
    assert matrix_order(Matrix.from_text(f3, "1,0;2,2")) == 2
    with pytest.raises(ZeroDivisionError):
        matrix_order(Matrix(f3, 2, [0, 0, 0, 0]))


def test_matrix_order_against_naive():
    # all of GL_2(F_3), GL_2(F_4), GL_3(F_2), GL_2(F_5); 300 elements each of
    # GL_2(F_8) and GL_3(F_3)
    rng = random.Random(2024)
    for n, p, k, sample in ((2, 3, 1, None), (2, 2, 2, None), (3, 2, 1, None),
                            (2, 5, 1, None), (2, 2, 3, 300), (3, 3, 1, 300)):
        field = make_field(p, k)
        elements = (enumerate_gl(n, field) if sample is None
                    else [random_invertible(n, field, rng) for _ in range(sample)])
        for g in elements:
            assert matrix_order(g) == naive_order(g, field.q**n)


def test_gl_exponent_examples():
    assert gl_exponent(1, 7) == 6
    assert gl_exponent(2, 2) == 2 * 3
    assert gl_exponent(2, 8) == 2 * 63
    assert gl_exponent(3, 3) == 3 * math.lcm(2, 8, 26)
    assert gl_exponent(5, 2) == 8 * math.lcm(1, 3, 7, 15, 31)
    for n, q in ((0, 3), (2, 6), (2, 1)):
        with pytest.raises(ValueError):
            gl_exponent(n, q)


@pytest.mark.parametrize("n,p,k", [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (2, 5, 1)])
def test_gl_exponent_is_lcm_of_element_orders(n, p, k):
    field = make_field(p, k)
    orders = [naive_order(g, field.q**n) for g in enumerate_gl(n, field)]
    assert math.lcm(*orders) == gl_exponent(n, field.q)


def test_matrix_order_powers_divide_the_exponent(monkeypatch):
    # |GL_2(F_8)| = 3528 = 2^3 3^2 7^2 but the exponent is 126 = 2 3^2 7: an
    # order search from |GL| would raise to 1764, which does not divide 126
    f8 = make_field(2, 3)
    c = companion(find_primitive_poly(2, f8))
    exponents = []
    power = Matrix.__pow__
    monkeypatch.setattr(Matrix, "__pow__", lambda a, e: exponents.append(e) or power(a, e))
    assert matrix_order(c) == 63
    assert exponents and all(gl_exponent(2, 8) % e == 0 for e in exponents)


def _prime_divisors(m):
    return [r for r in range(2, m + 1) if m % r == 0 and all(r % d for d in range(2, r))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices())
def test_char_poly_property(a):
    assert char_poly(a) == char_poly_cofactor(a)
    assert a.det() == det_cofactor(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices())
def test_rank_plus_nullity_property(a):
    rank = len(_rref([list(row) for row in a.rows()], a.field)[0])
    assert rank + kernel(a).dim == a.n
    assert (rank == a.n) == (a.det() != 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(invertible=True))
def test_inverse_property(a):
    identity = Matrix.identity(a.field, a.n)
    assert a @ a.inverse() == identity and a.inverse() @ a == identity


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(invertible=True))
def test_order_and_powers_property(a):
    order = matrix_order(a)
    assert (a**order).is_identity
    assert not any((a ** (order // r)).is_identity for r in _prime_divisors(order))
    inv = a.inverse()
    for e in range(-3, 21):
        expected = Matrix.identity(a.field, a.n)
        for _ in range(abs(e)):
            expected = expected @ (a if e > 0 else inv)
        assert a**e == expected


def test_constructor_validates_and_arithmetic_results_match_it(f5):
    for entries in ([0, 1, 2, 5], [0, 1, -1, 2], [0, 1, 2], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError):
            Matrix(f5, 2, entries)
    for n, entries in ((0, []), (-1, [1])):
        with pytest.raises(ValueError):
            Matrix(f5, n, entries)
    a = Matrix.from_text(f5, "1,2;3,4")
    b = Matrix.from_text(f5, "0,1;4,4")
    for result in (a @ b, a.inverse(), a**5, a**-2, Matrix.identity(f5, 2),
                   Matrix._raw(f5, 2, (1, 2, 3, 4))):
        checked = Matrix(f5, 2, result.entries)
        assert result == checked and hash(result) == hash(checked)


def test_text_roundtrip_and_hash(f3):
    m = Matrix.from_text(f3, "0,1;1,2")
    assert Matrix.from_text(f3, m.to_text()) == m
    assert hash(Matrix.from_text(f3, "0,1;1,2")) == hash(m)
    assert Matrix.identity(f3, 2) != Matrix.identity(make_field(5), 2)
    with pytest.raises(ValueError):
        Matrix.from_text(f3, "0,1;1")


def test_common_fixed_space(f5):
    t1 = Matrix.from_text(f5, "2,2;2,0")
    t2 = Matrix.from_text(f5, "0,2;4,3")
    assert common_fixed_space([t1]).basis == ((1, 2),)
    assert common_fixed_space([t1, t2]).is_zero


def test_constructors_reject_non_integral_entries(f5):
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(TypeError):
            Matrix(f5, 2, [bad, 0, 0, 1])
        with pytest.raises(TypeError):
            Poly(f5, (bad, 2))
    assert Matrix(f5, 2, [True, 0, 0, 1]) == Matrix.identity(f5, 2)
    assert Matrix.from_text(f5, "1,2;3,4").entries == (1, 2, 3, 4)
    assert Poly.from_text(f5, "1,2") == Poly(f5, (1, 2))


def brute_force_span(field, n, keep):
    """Oracle: the canonical subspace spanned by every v in F_q^n with keep(v)."""
    vectors = [v for v in itertools.product(range(field.q), repeat=n) if keep(v)]
    return Subspace.from_vectors(field, n, vectors)


def _annihilates(field, rows, v):
    for row in rows:
        s = 0
        for a, b in zip(row, v):
            s = field.add(s, field.mul(a, b))
        if s:
            return False
    return True


@st.composite
def linear_systems(draw):
    """(field, n, rows): up to 2n rows of length n over F_2..F_9, n <= 3."""
    field, n = draw(square_shapes())
    row = st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n)
    return field, n, draw(st.lists(row, max_size=2 * n))


def _same_subspace(got, want):
    return got == want and got.pivots == want.pivots


@settings(max_examples=150, deadline=None, derandomize=True)
@given(linear_systems())
@example((make_field(3), 2, []))
@example((make_field(2, 2), 3, [[0, 0, 0], [0, 0, 0]]))
@example((make_field(5), 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example((make_field(3, 2), 3, [[1, 2, 3], [0, 4, 5], [0, 0, 6], [1, 6, 8]]))
@example((make_field(7), 2, [[3, 4], [6, 1], [0, 0], [1, 6]]))
def test_kernel_of_rows_matches_brute_force(system):
    field, n, rows = system
    oracle = brute_force_span(field, n, lambda v: _annihilates(field, rows, v))
    assert _same_subspace(kernel_of_rows(field, rows, n), oracle)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices())
def test_fixed_space_and_kernel_match_brute_force(a):
    fixed = brute_force_span(a.field, a.n, lambda v: a.apply(v) == v)
    assert _same_subspace(fixed_space(a), fixed)
    null = brute_force_span(a.field, a.n, lambda v: not any(a.apply(v)))
    assert _same_subspace(kernel(a), null)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(square_shapes().flatmap(
    lambda shape: st.lists(matrices_over(*shape), min_size=1, max_size=3)))
def test_common_fixed_space_matches_brute_force(mats):
    field, n = mats[0].field, mats[0].n
    oracle = brute_force_span(field, n, lambda v: all(a.apply(v) == v for a in mats))
    assert _same_subspace(common_fixed_space(mats), oracle)


def test_inverse_is_computed_once(f5):
    m = Matrix.from_text(f5, "1,2;3,4")
    assert m.inverse() is m.inverse()
    assert m ** -3 == m.inverse() ** 3
    singular = Matrix.from_text(f5, "1,2;2,4")
    for _ in range(2):  # a failure is not memoized
        with pytest.raises(ZeroDivisionError):
            singular.inverse()


def test_enumerated_elements_keep_their_determinant(monkeypatch):
    # singer-equiv on GL_2(F_8) eliminates once per linearly independent
    # prefix of k < n rows that enumerate_gl extends, for the determinants,
    # and nowhere else: each cyclic subgroup is walked by entry products,
    # and the subspace scans test membership in canonical bases
    from singerlab.singer import singer_equivalence_report

    calls = []
    rref = matrix._rref
    monkeypatch.setattr(matrix, "_rref", lambda rows, field: calls.append(1) or rref(rows, field))
    singer_equivalence_report(2, make_field(2, 3))
    n, q = 2, 8
    assert len(calls) == sum(math.prod(q**n - q**i for i in range(k)) for k in range(n)) == 64
    f5 = make_field(5)
    singular = Matrix.from_text(f5, "1,2;2,4")
    for m in (Matrix.from_text(f5, "1,2;3,4"), singular):
        det = m.det()
        calls.clear()
        assert m.det() == det and calls == []
    assert singular.det() == 0


@pytest.mark.parametrize("n,p,k", [(1, 2, 1), (1, 5, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2),
                                   (2, 5, 1), (2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 1)])
def test_enumerate_gl_matches_candidate_filter(n, p, k):
    # oracle: every candidate of M_n(F_q), in entry-lex order, kept when its
    # own elimination finds it invertible; each element holds the determinant
    # that cofactor expansion gives
    field = make_field(p, k)
    elements = list(enumerate_gl(n, field))
    assert [g.entries for g in elements] == [g.entries for g in gl_by_candidate_filter(n, field)]
    assert len(elements) == gl_order(n, field.q)
    assert all(g._det == det_cofactor(g) for g in elements)


def test_enumerate_gl_is_lazy(monkeypatch, f2, f5):
    # the first element costs one elimination per prefix on the way down
    calls = []
    rref = matrix._rref
    monkeypatch.setattr(matrix, "_rref", lambda rows, field: calls.append(1) or rref(rows, field))
    first = next(enumerate_gl(4, make_field(3)))
    assert len(calls) <= 4 and first.det() != 0
    assert list(enumerate_gl(1, f2)) == [Matrix.identity(f2, 1)]
    assert [g.entries for g in enumerate_gl(1, f5)] == [(c,) for c in range(1, 5)]
    assert [g._det for g in enumerate_gl(1, f5)] == [1, 2, 3, 4]


def _minus_identity_oracle(a):
    n, field = a.n, a.field
    return [[field.sub(a[i, j], int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_fixed_space_memo_matches_direct_kernel_on_all_matrices(n, p, k):
    # singular matrices included: the memo keys on entries, not on invertibility
    field = make_field(p, k)
    memo = matrix._fixed_space_of_entries
    memo.cache_clear()
    for entries in itertools.product(range(field.q), repeat=n * n):
        a = Matrix(field, n, entries)
        direct = kernel_of_rows(field, _minus_identity_oracle(a), n)
        misses = memo.cache_info().misses
        cold = fixed_space(a)
        assert memo.cache_info().misses == misses + 1
        warm = fixed_space(Matrix(field, n, entries))
        assert memo.cache_info().misses == misses + 1
        assert warm is cold
        assert _same_subspace(cold, direct)


def test_fixed_space_memo_keys_on_the_field():
    # two models of F_9: the same entries are different matrices over each
    default, other = make_field(3, 2), make_field(3, 2, (2, 1, 1))
    assert default.modulus != other.modulus
    matrix._fixed_space_of_entries.cache_clear()
    differ = 0
    for entries in itertools.product(range(9), repeat=4):
        spaces = []
        for field in (default, other):
            a = Matrix(field, 2, entries)
            fixed = fixed_space(a)
            assert fixed.field is field
            assert _same_subspace(fixed, kernel_of_rows(field, _minus_identity_oracle(a), 2))
            spaces.append(fixed.basis)
        differ += spaces[0] != spaces[1]
    assert differ  # a key without the field would return the first model's basis


def test_fixed_space_memo_holds_no_matrix(f5):
    class Tracked(Matrix):
        __slots__ = ("__weakref__",)

    m = Tracked(f5, 2, [1, 2, 3, 4])
    m.inverse()  # a memoized inverse the memo must not keep alive either
    assert fixed_space(m).dim == 0
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_fixed_space_memo_bound():
    maxsize = matrix._fixed_space_of_entries.cache_info().maxsize
    assert maxsize is not None and maxsize >= gl_order(4, 2)

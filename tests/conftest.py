import os
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import singerlab
from singerlab import Matrix, gl_order, make_field


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f9():
    # the modulus x^2 + x - 1 whose companion matrix drives the worked example
    return make_field(3, 2, (2, 1, 1))


def trial_phi(m: int) -> int:
    """Euler phi by bare trial division; independent of the package."""
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def random_invertible(n: int, field, rng):
    """A uniformly random element of GL_n(F_q), by rejection sampling."""
    while True:
        m = Matrix(field, n, [rng.randrange(field.q) for _ in range(n * n)])
        if m.det():
            return m


# F_2 .. F_9, as (p, k)
SMALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def square_shapes(max_gl_order=None):
    """Strategy for (field, n): one of F_2..F_9 and n <= 3, optionally only
    where |GL_n(F_q)| <= max_gl_order."""
    shapes = [(make_field(p, k), n) for p, k in SMALL_FIELDS for n in (1, 2, 3)
              if max_gl_order is None or gl_order(n, p**k) <= max_gl_order]
    return st.sampled_from(shapes)


def matrices_over(field, n, invertible=False):
    """Strategy for n x n matrices over field, optionally only invertible ones."""
    entries = st.lists(st.integers(0, field.q - 1), min_size=n * n, max_size=n * n)
    mats = entries.map(lambda e: Matrix(field, n, e))
    return mats.filter(lambda m: m.det() != 0) if invertible else mats


def matrices(invertible=False):
    """Strategy for matrices over F_2..F_9 with n <= 3."""
    return square_shapes().flatmap(lambda shape: matrices_over(*shape, invertible))


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^n, by the product formula."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def run_python(code: str, *options: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's singerlab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(singerlab.__file__)),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)

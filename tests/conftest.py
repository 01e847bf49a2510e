import os
import subprocess
import sys

import pytest

import singerlab
from singerlab import Matrix, make_field


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

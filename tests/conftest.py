import pathlib
import random
import sys

import pytest
from hypothesis import HealthCheck, settings

import prufer.splitting
from prufer.orders import ZOrder, equation_order, load_order, product_order
from prufer.poly import RationalPolynomial

settings.register_profile(
    "fixed",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")

ORDERS_DIR = pathlib.Path(__file__).resolve().parent.parent / "orders"

CORPUS_FILES = (
    "cubic_index2",
    "hurwitz",
    "m2z",
    "z",
    "z_3i",
    "z_golden",
    "z_i",
    "z_sqrt5",
    "z_x_mod_x2",
    "zxz",
)


# The benchmark's `products` workload: products of equation orders, each
# field an ascending coefficient list.
GAUSS, SQRT2, SQRT5, THREE_I = (1, 0, 1), (-2, 0, 1), (-5, 0, 1), (9, 0, 1)
CBRT2, CBRT3, QRT3 = (-2, 0, 0, 1), (-3, 0, 0, 1), (-3, 0, 0, 0, 1)
PRODUCT_FAMILY = (
    (GAUSS, SQRT2),
    (SQRT5, CBRT2),
    (GAUSS, QRT3),
    (CBRT2, CBRT3),
    (QRT3, CBRT2),
    (SQRT2, THREE_I, CBRT2),
    (GAUSS, SQRT5, CBRT2),
    (GAUSS, CBRT2, QRT3),
)


def order_to_dict(order):
    """The JSON document ``load_order`` reads back as ``order``."""
    return {
        "dim": order.dim,
        "basis_names": list(order.basis_names),
        "one": list(order.one),
        "table": [[list(cell) for cell in row] for row in order.table],
    }


def base_change(order, seed):
    """The order on the basis c = U b for a seeded unimodular U, made of 3n
    moves row_i += s row_j with s in {-1, 0, 1}; V = U^-1 takes coordinates
    on b to coordinates on c."""
    n, rng = order.dim, random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 0, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        for row in v:
            row[j] -= s * row[i]

    def to_c(w):
        return tuple(sum(w[k] * v[k][m] for k in range(n)) for m in range(n))

    def product_on_b(x, y):
        return [sum(x[p] * y[q] * order.table[p][q][k] for p in range(n) for q in range(n)) for k in range(n)]

    table = tuple(tuple(to_c(product_on_b(u[i], u[j])) for j in range(n)) for i in range(n))
    return ZOrder(dim=n, table=table, one=to_c(order.one))


@pytest.fixture(scope="session")
def corpus():
    return {name: load_order(ORDERS_DIR / f"{name}.json") for name in CORPUS_FILES}


@pytest.fixture(scope="session")
def m2z(corpus):
    return corpus["m2z"]


@pytest.fixture(scope="session")
def z_i(corpus):
    return corpus["z_i"]


@pytest.fixture(scope="session")
def z_sqrt5(corpus):
    return corpus["z_sqrt5"]


@pytest.fixture(scope="session")
def z_golden(corpus):
    return corpus["z_golden"]


@pytest.fixture(scope="session")
def zxz(corpus):
    return corpus["zxz"]


@pytest.fixture(scope="session")
def z_line(corpus):
    return corpus["z"]


def product_of_equation_orders(*polys):
    """Z[X]/(f_1) x ... x Z[X]/(f_k) from ascending coefficient lists."""
    order = equation_order(RationalPolynomial(polys[0]))
    for f in polys[1:]:
        order = product_order(order, equation_order(RationalPolynomial(f)))
    return order


@pytest.fixture(scope="session")
def equation_product():
    """``product_of_equation_orders``, for tests that take it as a fixture."""
    return product_of_equation_orders


@pytest.fixture
def patch_everywhere(monkeypatch):
    """``patch_everywhere(home, name, fn)`` sets ``name`` to ``fn`` in every
    prufer module that binds ``home.name``, until the test ends."""

    def install(home, name, fn):
        original = getattr(home, name)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "prufer" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, fn)

    return install


@pytest.fixture
def calls_to(patch_everywhere):
    """``calls_to(home, name, record)`` wraps ``home.name`` in every prufer
    module that binds it and returns the list of ``record(*args)``, one entry
    per call; ``record`` defaults to the argument tuple."""

    def install(home, name, record=lambda *args: args):
        calls = []
        original = getattr(home, name)

        def counting(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        patch_everywhere(home, name, counting)
        return calls

    return install


@pytest.fixture
def search_calls(calls_to):
    """The dimension of each order ``find_primitive_element`` searches, counted
    in every prufer module that binds it."""
    return calls_to(prufer.splitting, "find_primitive_element", lambda order: order.dim)

"""Hostile input: order documents and polynomial text from outside the program.

Every case builds an order or a polynomial, or raises MalformedInputError
(subclasses included), quickly; nothing else escapes.
"""

import json
import math
import time

from hypothesis import given, settings, strategies as st

from conftest import CORPUS_FILES, ORDERS_DIR
from prufer.errors import MalformedInputError
from prufer.orders import ZOrder, load_order
from prufer.poly import RationalPolynomial

TIME_LIMIT_S = 0.5

DOCUMENTS = [json.loads((ORDERS_DIR / f"{name}.json").read_text()) for name in CORPUS_FILES]
FIELDS = ("dim", "basis_names", "one", "table")

SCALARS = (
    st.none()
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, 1.0, 0.5, 10**40, -(10**40), 10**9, 0, -1, 1, 2])
    | st.integers()
    | st.text(max_size=3)
)
HOSTILE = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _positions(value, path):
    """path, and every path below it into nested lists."""
    yield path
    if isinstance(value, list):
        for k, item in enumerate(value):
            yield from _positions(item, path + (k,))


@st.composite
def order_documents(draw):
    """A corpus document with a few fields or entries, down to single table
    entries, replaced by hostile values, and sometimes one key dropped."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(0, 3))):
        paths = [path for key in FIELDS for path in _positions(doc[key], (key,))]
        *parents, last = draw(st.sampled_from(paths))
        target = doc
        for key in parents:
            target = target[key]
        target[last] = draw(HOSTILE)
    if draw(st.integers(0, 3)) == 0:
        doc.pop(draw(st.sampled_from(FIELDS)))
    return doc


def _is_int(c):
    return isinstance(c, int) and not isinstance(c, bool)


def _entries_are_ints(doc):
    return (
        _is_int(doc["dim"])
        and all(map(_is_int, doc["one"]))
        and all(_is_int(c) for row in doc["table"] for cell in row for c in cell)
    )


def _built_or_refused(build):
    start = time.perf_counter()
    try:
        result = build()
    except MalformedInputError:
        result = None
    assert time.perf_counter() - start < TIME_LIMIT_S
    return result


@settings(max_examples=300)
@given(order_documents())
def test_hostile_order_documents_are_built_or_refused(doc):
    order = _built_or_refused(lambda: load_order(doc))
    if order is not None:
        assert _entries_are_ints(doc)
    if not {"dim", "one", "table"} <= set(doc):
        return
    fields = {"dim": doc["dim"], "table": doc["table"], "one": doc["one"], "basis_names": doc.get("basis_names")}
    built = _built_or_refused(lambda: ZOrder(**fields))
    assert (built is None) == (order is None)
    if built is not None:
        assert built == order


POLY_TEXT = st.text(alphabet="0123456789X^*/+- .eE()x", max_size=30) | st.text(max_size=30)


@settings(max_examples=300)
@given(POLY_TEXT)
def test_hostile_polynomial_text_is_parsed_or_refused(text):
    poly = _built_or_refused(lambda: RationalPolynomial.parse(text))
    assert poly is None or isinstance(poly, RationalPolynomial)


def test_a_degree_just_below_the_cap_parses_quickly():
    poly = _built_or_refused(lambda: RationalPolynomial.parse("1/7*X^999999 + 1/3"))
    assert poly.degree == 999999 and poly.denominator == 21

"""Dense univariate polynomials over Q.

A polynomial is stored as a tuple of integer coefficients (ascending powers,
no trailing zeros) plus one positive common denominator, kept coprime to the
coefficient gcd.  ``Fraction`` is left for scalars passed in and for the
views ``coefficients``, ``leading_coefficient`` and ``content_and_primitive``.
``rational_text`` writes and ``parse_rational`` reads the text of one rational
number, a coefficient or an element coordinate.  ``binary_power`` is the
package's one square-and-multiply, for polynomials here, for elements of an
order and for polynomials mod f over F_p.

The text format used by the CLI and by certificates writes ascending terms:
``-4 - 2*X + X^2``.  The parser is a little more lenient than the writer
(spaces and ``*`` optional).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import MalformedInputError, ZeroPolynomialError

Scalar = Union[int, Fraction]

# ``parse`` builds a dense coefficient list, so it refuses a degree above this
# before allocating one: far above any degree the program works with.
MAX_PARSE_DEGREE = 10**6


def rational_text(num: int, den: int) -> str:
    """num/den, den > 0, as ``n`` or ``n/d`` in lowest terms: what
    ``str(Fraction(num, den))`` prints."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational(value) -> tuple[int, int]:
    """value (a string, an int or a Fraction) as (numerator, denominator > 0)
    in lowest terms.  A string that ``int()`` reads is that integer; anything
    else goes to ``Fraction``, which reads or refuses it (ValueError or
    ZeroDivisionError).  Underscores skip ``int()``: Python 3.10's ``Fraction``
    refuses them."""
    if isinstance(value, str) and "_" not in value:
        try:
            return int(value), 1
        except ValueError:
            pass
    value = Fraction(value)
    return value.numerator, value.denominator


def binary_power(x, k: int, mul):
    """x^k for k >= 1 under the associative product ``mul``: start from x and
    square from the top bit of k down, multiplying by x at each 1 bit."""
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _normalize(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("polynomial denominator is zero")
    nums = list(nums)
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    g = den
    for c in nums:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [c // g for c in nums]
    return tuple(nums), den


class RationalPolynomial:
    """Immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        pairs = [parse_rational(c) for c in coefficients]
        den = lcm(*(d for _, d in pairs))
        self._num, self._den = _normalize([n * (den // d) for n, d in pairs], den)

    @classmethod
    def _raw(cls, nums: Sequence[int], den: int) -> "RationalPolynomial":
        p = object.__new__(cls)
        p._num, p._den = _normalize(nums, den)
        return p

    @classmethod
    def from_int_coeffs(cls, nums: Sequence[int], den: int = 1) -> "RationalPolynomial":
        return cls._raw([int(c) for c in nums], int(den))

    @classmethod
    def x_power(cls, k: int) -> "RationalPolynomial":
        return cls._raw([0] * k + [1], 1)

    zero_poly: "RationalPolynomial"
    one_poly: "RationalPolynomial"
    x_poly: "RationalPolynomial"

    # -- views ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def integer_numerators(self) -> tuple[int, ...]:
        """Coefficients of den * self; content coprime to den."""
        return self._num

    @property
    def denominator(self) -> int:
        """Smallest d >= 1 with d * self integer-coefficient."""
        return self._den

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    @property
    def has_integer_coefficients(self) -> bool:
        return self._den == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = lcm(self._den, other._den)
        sa, sb = d // self._den, d // other._den
        n = max(len(self._num), len(other._num))
        nums = [0] * n
        for i, c in enumerate(self._num):
            nums[i] += c * sa
        for i, c in enumerate(other._num):
            nums[i] += c * sb
        return RationalPolynomial._raw(nums, d)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial._raw([-c for c in self._num], self._den)

    def __sub__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalPolynomial._raw((), 1)
        a, b = self._num, other._num
        nums = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    nums[i + j] += ca * cb
        return RationalPolynomial._raw(nums, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "RationalPolynomial":
        s = Fraction(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return RationalPolynomial._raw(
            [c * s.denominator for c in self._num], self._den * s.numerator
        )

    def __pow__(self, k: int) -> "RationalPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, k, RationalPolynomial.__mul__) if k else RationalPolynomial.one_poly

    def __divmod__(self, other) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        div = other._num
        n = len(div) - 1
        dq = len(self._num) - len(div)
        if dq < 0:
            return RationalPolynomial.zero_poly, self
        # Pseudo-division on the numerators (Cohen, GTM 138, Alg. 3.1.2),
        # scaling lazily: s * self._num = quot * div + rem throughout.
        lead = div[-1]
        rem, quot, s = list(self._num), [0] * (dq + 1), 1
        for k in range(dq, -1, -1):
            top = rem[k + n]
            if not top:
                continue
            m = abs(lead) // gcd(top, lead)
            if m != 1:
                rem = [c * m for c in rem]
                quot = [c * m for c in quot]
                s, top = s * m, top * m
            c = quot[k] = top // lead
            for j, d in enumerate(div):
                rem[k + j] -= c * d
        den = s * self._den
        return (
            RationalPolynomial._raw([c * other._den for c in quot], den),
            RationalPolynomial._raw(rem[:n], den),
        )

    def __floordiv__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._raw([i * c for i, c in enumerate(self._num)][1:], self._den)

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no monic associate")
        lead = self._num[-1]
        return RationalPolynomial._raw([c * (1 if lead > 0 else -1) for c in self._num], abs(lead))

    def content_and_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write self = c * P with P primitive integer-coefficient, lc(P) > 0."""
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no primitive part")
        sign = 1 if self._num[-1] > 0 else -1
        g = 0
        for c in self._num:
            g = gcd(g, c)
        return Fraction(sign * g, self._den), tuple(sign * c // g for c in self._num)

    # -- text format ------------------------------------------------------

    _TERM_RE = re.compile(
        r"^([+-]?)(?:(\d+(?:/\d+)?))?(?:\*?(X)(?:\^(\d+))?)?$"
    )

    def __str__(self) -> str:
        pieces: list[str] = []
        for k in compress(range(len(self._num)), self._num):
            num = self._num[k]
            body = rational_text(abs(num), self._den)
            if k:
                xpart = "X" if k == 1 else f"X^{k}"
                body = xpart if abs(num) == self._den else f"{body}*{xpart}"
            sign = ("+ " if num > 0 else "- ") if pieces else ("" if num > 0 else "-")
            pieces.append(sign + body)
        return " ".join(pieces) or "0"

    @classmethod
    def parse(cls, text: str) -> "RationalPolynomial":
        if re.search(r"\d\s+[\d/]", text) or re.search(r"\^\s", text):
            # "X^2 2" must not silently glue into "X^22"
            raise MalformedInputError(f"PARSE_ERROR: ambiguous whitespace in {text!r}")
        compact = text.replace(" ", "")
        if not compact:
            raise MalformedInputError("PARSE_ERROR: empty polynomial text")
        terms = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(terms) != compact:
            raise MalformedInputError(f"PARSE_ERROR: cannot tokenize {text!r}")
        parsed: list[tuple[int, int, int]] = []  # (power, numerator, denominator)
        for term in terms:
            m = cls._TERM_RE.match(term)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise MalformedInputError(f"PARSE_ERROR: bad term {term!r} in {text!r}")
            try:
                num, den = parse_rational(m.group(2)) if m.group(2) else (1, 1)
                power = 0 if m.group(3) is None else int(m.group(4) or 1)
            except (ValueError, ZeroDivisionError) as exc:
                # ValueError: more digits than int() converts.
                raise MalformedInputError(f"PARSE_ERROR: bad number in {term!r}") from exc
            if power > MAX_PARSE_DEGREE:
                raise MalformedInputError(f"PARSE_ERROR: degree {power} exceeds the parser's cap {MAX_PARSE_DEGREE}")
            parsed.append((power, -num if m.group(1) == "-" else num, den))
        den = lcm(*(d for _, _, d in parsed))
        out = [0] * (max(k for k, _, _ in parsed) + 1)
        for k, n, d in parsed:
            out[k] += n * (den // d)
        return cls._raw(out, den)

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"

    def sort_key(self) -> tuple:
        return (self.degree, self.coefficients)


def _coerce(value) -> "RationalPolynomial":
    if isinstance(value, RationalPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPolynomial([value])
    return NotImplemented


RationalPolynomial.zero_poly = RationalPolynomial._raw((), 1)
RationalPolynomial.one_poly = RationalPolynomial._raw((1,), 1)
RationalPolynomial.x_poly = RationalPolynomial._raw((0, 1), 1)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over Q (gcd(0, 0) = 0)."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def poly_xgcd(
    a: RationalPolynomial, b: RationalPolynomial
) -> tuple[RationalPolynomial, RationalPolynomial, RationalPolynomial]:
    """(g, s, t) with s*a + t*b = g, g the monic gcd."""
    r0, r1 = a, b
    s0, s1 = RationalPolynomial.one_poly, RationalPolynomial.zero_poly
    t0, t1 = RationalPolynomial.zero_poly, RationalPolynomial.one_poly
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = r0.leading_coefficient
    return r0 / lead, s0 / lead, t0 / lead


def squarefree_decomposition(f: RationalPolynomial) -> list[tuple[RationalPolynomial, int]]:
    """Yun's algorithm: f = lc * prod g_i^i with the g_i monic, squarefree,
    pairwise coprime.  Returns the (g_i, i) with positive degree."""
    if f.is_zero:
        raise ZeroPolynomialError("squarefree decomposition of the zero polynomial")
    u = f.monic()
    if u.degree == 0:
        return []
    df = u.derivative()
    a = poly_gcd(u, df)
    b = u // a
    c = df // a
    d = c - b.derivative()
    out: list[tuple[RationalPolynomial, int]] = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
        i += 1
    return out

"""Exact arithmetic on structure constants, written apart from prufer.

The benchmark uses these helpers to make inputs and to re-check outputs, so
that no check relies on the code under test.  An order is a pair
(table, one): ``table[i][j]`` lists the coordinates of b_i * b_j and ``one``
the coordinates of the identity.  Polynomials are lists of integer
coefficients in ascending degree order.
"""

from __future__ import annotations

import json


def mul(table, x, y):
    """x * y for coordinate vectors of ints or Fractions."""
    n = len(x)
    out = [0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, t in enumerate(row[j]):
                if t:
                    out[k] += c * t
    return out


def power(table, one, x, k):
    out = list(one)
    for _ in range(k):
        out = mul(table, out, x)
    return out


def evaluate(table, one, coeffs, x):
    """g(x) by Horner for a polynomial g with rational coefficients."""
    acc = [0] * len(one)
    for c in reversed(coeffs):
        acc = mul(table, acc, x)
        acc = [a + c * o for a, o in zip(acc, one)]
    return acc


def evaluate_mod(table, one, coeffs, x, d):
    """g(x) mod d for an integer polynomial g and an integer point x."""
    acc = [0] * len(one)
    for c in reversed(coeffs):
        acc = [(a + c * o) % d for a, o in zip(mul(table, acc, x), one)]
    return acc


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def equation_table(f):
    """Structure constants of Z[X]/(f) on 1, x, ..., x^(n-1); f monic."""
    n = len(f) - 1
    powers = []
    current = [1] + [0] * (n - 1)
    for _ in range(2 * n - 1):
        powers.append(current)
        # Multiply by x, then replace x^n by -(f_0 + ... + f_(n-1) x^(n-1)).
        top = current[-1]
        current = [0] + current[:-1]
        current = [c - top * f[k] for k, c in enumerate(current)]
    table = [[powers[i + j] for j in range(n)] for i in range(n)]
    return table, [1] + [0] * (n - 1)


def product_table(parts):
    """Direct product of orders, the basis of each part in turn."""
    dim = sum(len(one) for _, one in parts)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    one = []
    offset = 0
    for part_table, part_one in parts:
        n = len(part_one)
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(part_table[i][j]):
                    table[offset + i][offset + j][offset + k] = c
        one.extend(part_one)
        offset += n
    return table, one


def read_order(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["table"], doc["one"]


def left_regular_matrix(table, x):
    """M with M[i][j] = coordinate i of x * b_j."""
    n = len(x)
    cols = [mul(table, x, [1 if k == j else 0 for k in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]

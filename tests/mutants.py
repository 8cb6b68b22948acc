#!/usr/bin/env python3
"""A table of mutants of the program, and a runner that checks the tests
treat each one as the table says.

    python3 tests/mutants.py              # every entry
    python3 tests/mutants.py NAME ...     # the named entries

Each entry replaces one exact snippet of one file and names the tests to run
against the result.  Its status says what must happen:

- ``kill``: some named test fails;
- ``equivalent``: the change cannot alter any output, and the named tests,
  which compare outputs, all pass;
- ``survivor``: a known gap, a change the tests should catch and do not yet.

For each entry the runner copies the repository, without ``.git`` and
caches, into a temporary directory, applies the entry there and runs its
tests with ``pytest -x`` on that copy's ``src``; the repository itself is
never edited.  The tests of all the chosen entries run once first on an
unchanged copy, so a failure under a mutant is the mutant's doing.

It exits 1 if a snippet does not occur exactly once in its file, or if an
entry's outcome is not its status: a ``kill`` that survives, and also an
``equivalent`` or ``survivor`` that is killed, so the table stays true as
the code and the tests change.  Standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    status: str
    reason: str


PRODUCT_BYTES = "tests/test_decision.py::test_product_certificate_bytes"
WALK_PIN = "tests/test_splitting.py::test_walk_matches_the_flat_walk_on_products"
CAP_PIN = "tests/test_splitting.py::test_skipped_subtrees_count_toward_the_cap"
SPAN_PIN = "tests/test_linalg.py::test_echelon_span_matches_the_eager_reduced_form"
FACTOR_GOLDENS = "tests/test_factor_goldens.py::test_factor_goldens"
SYMPY_FACTORS = "tests/test_oracle.py::test_poly_factor_matches_sympy"
# Outputs only: the skew-basis test also pins which blocks reach the CRT.
EQUIVALENCE = (
    "tests/test_splitting.py::test_decompose_matches_factoring_mu_whole",
    "tests/test_splitting.py::test_decompose_of_z_power_matches_factoring_mu_whole",
    "tests/test_splitting.py::test_decompose_of_corpus_matches_factoring_mu_whole",
)

MUTANTS = (
    Mutant(
        name="cut-not-normalised",
        path="src/prufer/splitting.py",
        snippet="cuts[AlgebraElement(h_b, relation[1])] = None",
        replacement="cuts[AlgebraElement(h_b)] = None",
        tests=(PRODUCT_BYTES, *EQUIVALENCE),
        status="kill",
        reason="h(b) without the division by h(0) = c_1 is an idempotent only "
        "when c_1 = 1; for mu_b = X^2 - X it is -(1 - b), and the blocks cut by "
        "it are not idempotents",
    ),
    Mutant(
        name="pairs-unsorted",
        path="src/prufer/splitting.py",
        snippet="    pairs.sort(key=lambda pair: pair[0].sort_key())\n",
        replacement="",
        tests=(PRODUCT_BYTES,),
        status="kill",
        reason="the blocks come out in the order the cuts refine them, not by "
        "factor, so component numbering and the certificate bytes would change",
    ),
    Mutant(
        name="one-block",
        path="src/prufer/splitting.py",
        snippet="    for e in cuts:\n",
        replacement="    for e in ():\n",
        tests=(PRODUCT_BYTES, *EQUIVALENCE),
        status="equivalent",
        reason="without cuts the one block is all of A, which factors mu_a whole "
        "and splits it by one CRT: primitive idempotents are unique, so the "
        "factors, idempotents and certificates are the same; only the work grows",
    ),
    Mutant(
        name="linear-factor-lifting-bound",
        path="src/prufer/factor.py",
        snippet="bound = comb(top, top // 2) * norm2 + 1",
        replacement="bound = norm2 + 1",
        tests=("tests/test_factor.py::test_lift_target_is_the_landau_mignotte_bound",),
        status="kill",
        reason="the bound of a linear factor is too small for a factor of higher "
        "degree; the modulus p^(2^k) overshoots it on every input the tests "
        "factor, so the lift's target, the Landau-Mignotte figure itself, is "
        "pinned: 7 in place of 11 for X^4 + 1",
    ),
    Mutant(
        name="eisenstein-square-test-dropped",
        path="src/prufer/factor.py",
        snippet="low % p == 0 and prim[0] % (p * p)",
        replacement="low % p == 0",
        tests=(FACTOR_GOLDENS, SYMPY_FACTORS),
        status="kill",
        reason="without p^2 not dividing the constant term, every P whose lower "
        "coefficients share a prime below 100 is called irreducible: "
        "X^4 + 4 = (X^2 + 2X + 2)(X^2 - 2X + 2) among them",
    ),
    Mutant(
        name="eisenstein-constant-only",
        path="src/prufer/factor.py",
        snippet="low = gcd(*prim[:-1])",
        replacement="low = abs(prim[0])",
        tests=(FACTOR_GOLDENS, SYMPY_FACTORS),
        status="kill",
        reason="a prime that divides the constant term once need not divide the "
        "other lower coefficients: X^2 + 3X + 2 = (X + 1)(X + 2) would be called "
        "irreducible",
    ),
    Mutant(
        name="no-eisenstein",
        path="src/prufer/factor.py",
        snippet="low > 1 and any(",
        replacement="False and any(",
        tests=(FACTOR_GOLDENS, SYMPY_FACTORS),
        status="equivalent",
        reason="Eisenstein's criterion only proves irreducible what the modular "
        "path also proves irreducible, and the factor is P made monic either "
        "way; only the work grows",
    ),
    Mutant(
        name="own-lattice-any-rows",
        path="src/prufer/orders.py",
        snippet="tuple(rows) == order.unit_basis",
        replacement="len(rows) == order.dim",
        tests=("tests/test_orders.py::test_embedded_order_of_a_sublattice_is_a_new_order",),
        status="kill",
        reason="any n rows with the identity would be taken for the order's "
        "own unit basis: Z[2i] would come back as Z[i]",
    ),
    Mutant(
        name="own-lattice-any-identity",
        path="src/prufer/orders.py",
        snippet=" and one == order.identity():",
        replacement=":",
        tests=("tests/test_orders.py::test_embedded_order_of_the_own_lattice_needs_the_identity",),
        status="kill",
        reason="the order's own lattice would be returned with the order's "
        "identity whatever identity was asked for: Z x Z's lattice with "
        "identity (1, 0) would be accepted",
    ),
    Mutant(
        name="power-span-ignores-start",
        path="src/prufer/orders.py",
        snippet="list(order.one if start is None else start)",
        replacement="list(order.one)",
        tests=(PRODUCT_BYTES, *EQUIVALENCE),
        status="kill",
        reason="every block would take mu_a for its own minimal polynomial and "
        "split by all of mu_a's factors, so a factor would come back once per "
        "block, with a zero idempotent outside its own",
    ),
    Mutant(
        name="binary-power-skips-odd-bits",
        path="src/prufer/poly.py",
        snippet='        if bit == "1":\n            result = mul(result, x)\n',
        replacement="",
        tests=(FACTOR_GOLDENS,),
        status="kill",
        reason="x^k would become x^(2^(bit length - 1)) at every site of the one "
        "square-and-multiply: the powers mod f in distinct-degree and "
        "Cantor-Zassenhaus splitting among them",
    ),
    Mutant(
        name="binary-power-extra-square",
        path="src/prufer/poly.py",
        snippet="for bit in bin(k)[3:]:",
        replacement="for bit in bin(k)[2:]:",
        tests=(FACTOR_GOLDENS,),
        status="kill",
        reason="walking the top bit too squares x once more than k asks: x^k "
        "becomes x^(k + 2^(bit length - 1))",
    ),
    Mutant(
        name="first-non-integral-none",
        path="src/prufer/closure.py",
        snippet="return next((x for x in closure.basis if not x.is_integral_vector), None)",
        replacement="return None",
        tests=("tests/test_decision.py::test_corpus_verdicts",),
        status="kill",
        reason="a round-2 step that enlarges the order would yield no "
        "element outside it, so a NO verdict has no witness: deciding Z[3i] "
        "fails",
    ),
    Mutant(
        name="crt-drops-an-idempotent",
        path="src/prufer/splitting.py",
        snippet="return tuple(idempotents)",
        replacement="return tuple(idempotents[1:])",
        tests=("tests/test_ivp.py::test_pointwise_escaping_witness",),
        status="kill",
        reason="the first component of every split is lost: the pointwise "
        "test at [[0,4],[1,2]] in M_2(Z) no longer finds its escaping witness "
        "and calls the point closed",
    ),
    Mutant(
        name="search-accepts-rank-n-minus-1",
        path="src/prufer/splitting.py",
        snippet="if span.rank == n:",
        replacement="if span.rank >= n - 1:",
        tests=(PRODUCT_BYTES,),
        status="kill",
        reason="an element whose powers span only a hyperplane would be taken "
        "for primitive, with a minimal polynomial of degree n - 1",
    ),
    Mutant(
        name="walk-skip-ignores-fixed-part",
        path="src/prufer/splitting.py",
        snippet="prefix >= k and not any(sum(map(operator.mul, vec, f)) for f in fs)",
        replacement="prefix >= k",
        tests=("tests/test_splitting.py::test_find_primitive_element", WALK_PIN),
        status="kill",
        reason="a subtree would be skipped whenever a rejected span holds the "
        "unit vectors of its free coordinates, though its fixed part lies "
        "outside the span: on Z[i] the span Q[1] of the first vector holds "
        "e_0, every later subtree (c, x) is skipped, and the search exhausts",
    ),
    Mutant(
        name="walk-cap-ignores-skipped",
        path="src/prufer/splitting.py",
        snippet="            seen += (2 * m + 1) ** k - (0 if on_shell else (2 * m - 1) ** k)\n",
        replacement="",
        tests=(CAP_PIN,),
        status="kill",
        reason="the walk would count only the vectors it hands out, and go on "
        "past the SEARCH_CAP-th shell vector: with the cap at 6644 the "
        "dimension-12 product finds its element, the 6645th vector",
    ),
    Mutant(
        name="span-keeps-stale-reduced-form",
        path="src/prufer/linalg.py",
        snippet="        self.kept.append(list(v))\n        self._reduced = None\n",
        replacement="        self.kept.append(list(v))\n",
        tests=("tests/test_linalg.py::test_echelon_span_agrees_with_lattice_rank", SPAN_PIN),
        status="kill",
        reason="a membership question asked before an add would fix the "
        "reduced form and its annihilators, and the span would answer from "
        "them after it grew",
    ),
    Mutant(
        name="span-row-without-content",
        path="src/prufer/linalg.py",
        snippet="self._echelon.append([x // content for x in w])",
        replacement="self._echelon.append(list(w))",
        tests=(PRODUCT_BYTES, SPAN_PIN),
        status="equivalent",
        reason="the content only keeps the echelon rows small: the pivots do "
        "not depend on it, and the reduced form over one positive denominator "
        "with content 1 is unique",
    ),
)


def check_snippets(mutants) -> list[str]:
    """A message for each entry whose snippet does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return problems


def run_tests(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit status for ``tests`` on a fresh copy, with the mutant
    applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="prufer-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown entries: {', '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = check_snippets(chosen)
    if problems:
        print("\n".join(problems))
        return 1
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    if run_tests(tests) != 0:
        print("the named tests fail on the unchanged program")
        return 1
    failed = False
    for m in chosen:
        start = time.perf_counter()
        code = run_tests(m.tests, m)
        # pytest exits 1 on a failed test and 2 on a collection error (a
        # mutant that breaks an import); anything else is a usage error.
        if code not in (0, 1, 2):
            outcome, ok = f"error (pytest exit {code})", False
        else:
            outcome = "survived" if code == 0 else "killed"
            ok = (outcome == "killed") == (m.status == "kill")
        failed |= not ok
        mismatch = "" if ok else " -- MISMATCH"
        print(f"{m.name}: {outcome}, listed as {m.status}{mismatch} ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact-arithmetic toolkit for integer-valued polynomials on Z-orders.

Given an order A (a ring that is a finitely generated torsion-free Z-module)
presented by integer structure constants, is the ring of polynomials f in
Q[X] with f(A) contained in A a Prufer domain?  The answer comes with a
certificate that can be re-verified independently of the decision procedure.
Everything is exact and runs on integers: an element or a polynomial is an
integer vector over one positive denominator, elimination is fraction-free,
lattices are kept in Hermite normal form and polynomials are factored from
scratch over Q.  Rational text is read and written in integers, and
``fractions.Fraction`` is left only for scalars passed in and for the
``coords`` and ``coefficients`` views; no floating point enters any verdict.

The package root re-exports nothing: import each name from its module.
``orders`` builds and loads orders (``load_order``, ``equation_order``,
``product_order``, ``ZOrder``) and holds element arithmetic; ``poly`` holds
``RationalPolynomial``; ``decision`` holds ``decide_pruefer`` and
``verify_certificate``; ``ivp`` the membership tests, ramification profiles
and transforms; ``splitting`` and ``closure`` the field components and round
2; ``factor``, ``lattice`` and ``linalg`` the arithmetic underneath;
``quaternions`` the Hurwitz case study; ``errors`` every exception; and
``cli`` the ``prufer`` command.
"""

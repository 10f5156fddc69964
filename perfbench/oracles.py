"""Independent answers the benchmark checks every output against.

Nothing here calls the program's arithmetic.  Polynomials are read through
their printed form into ``sympy``, brackets are taken with ``sympy.diff``,
and ideal membership is decided by a ``sympy`` Groebner basis.  Importing
this module loads ``sympy``, so the benchmark imports it only after the
timed batch and after reading the peak resident set.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp


def symbols(space) -> list[sp.Symbol]:
    return [sp.Symbol(name) for name in space.identifiers]


def to_sympy(poly) -> sp.Expr:
    """The printed polynomial read back by sympy.

    Every identifier of the phase space is bound to a plain symbol, so that
    the energy ``E`` (or a parameter named like ``I`` or ``S``) does not turn
    into one of sympy's constants.
    """
    names = {str(s): s for s in symbols(poly.space)}
    return sp.sympify(str(poly).replace("^", "**"), locals=names, rational=True)


class Oracle:
    def __init__(self):
        self._groebner: dict[int, sp.GroebnerBasis] = {}
        self._so3: dict | None = None

    @staticmethod
    def bracket(f, g) -> sp.Expr:
        """{f, g} of two program polynomials, computed by sympy."""
        space = f.space
        fs, gs = to_sympy(f), to_sympy(g)
        total = sp.Integer(0)
        for i in range(1, space.n_dof + 1):
            q, p = sp.Symbol(f"q{i}"), sp.Symbol(f"p{i}")
            total += sp.diff(fs, q) * sp.diff(gs, p) - sp.diff(fs, p) * sp.diff(gs, q)
        return sp.expand(total)

    @staticmethod
    def same(poly, expr: sp.Expr) -> bool:
        return sp.expand(to_sympy(poly) - expr) == 0

    @staticmethod
    def reexpands(coefficients, generators, target) -> bool:
        """sum_k coefficients[k] * generators[k] == target, expanded by sympy."""
        total = sum(
            (to_sympy(c) * to_sympy(g) for c, g in zip(coefficients, generators)),
            sp.Integer(0),
        )
        expected = target if isinstance(target, sp.Expr) else to_sympy(target)
        return sp.expand(total - expected) == 0

    @staticmethod
    def max_degree(polys) -> int:
        """Highest total degree, in every identifier of the space, E included."""
        degrees = [
            sp.Poly(to_sympy(poly), *symbols(poly.space)).total_degree()
            for poly in polys
            if not poly.is_zero()
        ]
        return max(degrees, default=0)

    def outside_ideal(self, target, ideal) -> bool:
        """True iff the Groebner normal form of target is nonzero."""
        basis = self._groebner.get(ideal.n)
        if basis is None:
            basis = sp.groebner([to_sympy(g) for g in ideal.generators], *symbols(ideal.space),
                                order="grevlex")
            self._groebner[ideal.n] = basis
        _, remainder = basis.reduce(to_sympy(target))
        return sp.expand(remainder) != 0

    def so3_constants(self) -> dict:
        """{(k, i, j): C} with {L_i, L_j} = sum_k C[k][i][j] L_k, solved by sympy."""
        if self._so3 is None:
            q1, q2, q3, p1, p2, p3 = sp.symbols("q1 q2 q3 p1 p2 p3")
            qs, ps = (q1, q2, q3), (p1, p2, p3)
            gens = {"Lx": q2 * p3 - q3 * p2, "Ly": q3 * p1 - q1 * p3, "Lz": q1 * p2 - q2 * p1}
            names = list(gens)
            unknowns = sp.symbols("c0:3")
            constants = {}
            for i in names:
                for j in names:
                    if i == j:
                        continue
                    bracket = sp.expand(sum(
                        sp.diff(gens[i], q) * sp.diff(gens[j], p)
                        - sp.diff(gens[i], p) * sp.diff(gens[j], q)
                        for q, p in zip(qs, ps)
                    ))
                    residual = sp.expand(bracket - sum(c * gens[k] for c, k in zip(unknowns, names)))
                    equations = sp.Poly(residual, *qs, *ps).coeffs()
                    solution = sp.solve(equations, unknowns, dict=True)[0]
                    for c, k in zip(unknowns, names):
                        value = Fraction(str(solution.get(c, 0)))
                        if value:
                            constants[(k, i, j)] = value
            self._so3 = constants
        return self._so3

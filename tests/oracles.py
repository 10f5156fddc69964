"""Independent sympy-based oracle for cross-checking exact results.

The oracle never touches the package's arithmetic: expressions are built as
sympy objects, brackets are computed with sympy.diff, and package results
are only converted for comparison (via their printed canonical form, with
'^' mapped to sympy's '**').
"""

from __future__ import annotations

import sympy as sp


def sympy_space(n_dof: int, parameters=("E",)):
    qs = sp.symbols(" ".join(f"q{i}" for i in range(1, n_dof + 1)))
    ps = sp.symbols(" ".join(f"p{i}" for i in range(1, n_dof + 1)))
    if n_dof == 1:
        qs, ps = (qs,), (ps,)
    params = sp.symbols(" ".join(parameters)) if parameters else ()
    if len(parameters) == 1:
        params = (params,)
    return tuple(qs), tuple(ps), tuple(params)


def sympy_bracket(f, g, qs, ps):
    total = sp.Integer(0)
    for q, p in zip(qs, ps):
        total += sp.diff(f, q) * sp.diff(g, p) - sp.diff(f, p) * sp.diff(g, q)
    return sp.expand(total)


def to_sympy(poly) -> sp.Expr:
    """Re-interpret a package polynomial through its printed form.

    Every identifier of its phase space is read as a plain symbol, so the
    energy parameter ``E`` is not taken for Euler's number.
    """
    names = {name: sp.Symbol(name) for name in poly.space.identifiers}
    return sp.sympify(str(poly).replace("^", "**"), locals=names, rational=True)


def same_polynomial(package_poly, sympy_expr) -> bool:
    return sp.expand(to_sympy(package_poly) - sympy_expr) == 0

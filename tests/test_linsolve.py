import random
from fractions import Fraction
from math import lcm

import sympy as sp

from dirac_symmetry.linsolve import (
    Columns, Echelon, RationalSpan, Shifted, rational_rank, solve_sparse,
)

F = Fraction


def random_rows(rng, n_rows, n_cols, keys=None):
    keys = keys or list(range(n_cols))
    rows = []
    for _ in range(n_rows):
        support = rng.sample(keys, rng.randint(0, n_cols))
        row = {k: F(rng.randint(-3, 3), rng.randint(1, 3)) for k in support}
        rows.append({k: v for k, v in row.items() if v})
    return rows


def dense(rows, keys):
    return sp.Matrix([[row.get(k, 0) for k in keys] for row in rows])


def check(equations, solution):
    for row, rhs in equations:
        assert sum(c * solution.get(k, F(0)) for k, c in row.items()) == rhs


def integer_equation(row, rhs):
    """The equation row . x = rhs scaled by the lcm of its denominators."""
    scale = lcm(F(rhs).denominator, *(F(c).denominator for c in row.values()))
    return {k: int(c * scale) for k, c in row.items()}, int(rhs * scale)


def columns_of(equations):
    """The integer equations transposed: one (column, unknown) pair per
    unknown, in unknown order, and the target, both keyed by equation."""
    columns, target = {}, {}
    for i, (row, rhs) in enumerate(equations):
        for k, c in row.items():
            columns.setdefault(k, {})[i] = c
        if rhs:
            target[i] = rhs
    return [(columns[k], k) for k in sorted(columns)], target


def solve(equations):
    return solve_sparse(*columns_of(equations))


class TestSolveSparse:
    def test_unique_solution(self):
        eqs = [
            ({0: 2, 1: 1}, 5),
            ({0: 1, 1: -1}, 1),
        ]
        assert columns_of(eqs) == ([({0: 2, 1: 1}, 0), ({0: 1, 1: -1}, 1)], {0: 5, 1: 1})
        assert solve(eqs) == {0: F(2), 1: F(1)}

    def test_non_integral_solution(self):
        # 2x = 5
        assert solve_sparse([({0: 2}, 0)], {0: 5}) == {0: F(5, 2)}

    def test_inconsistent(self):
        eqs = [
            ({0: 1}, 1),
            ({0: 2}, 3),
        ]
        assert solve(eqs) is None

    def test_no_columns_or_zero_columns(self):
        assert solve_sparse([], {0: 1}) is None
        assert solve_sparse([({}, 0)], {0: 1}) is None
        assert solve_sparse([], {}) == {}
        assert solve_sparse([({}, 0)], {}) == {}

    def test_dependent_column_gets_zero(self):
        # x0 + x1 = 3: x1's column repeats x0's, so x1 is pinned to 0 ...
        assert solve_sparse([({0: 1}, 0), ({0: 1}, 1)], {0: 3}) == {0: F(3)}
        # ... and the insertion order, not the unknowns' names, decides.
        assert solve_sparse([({0: 1}, 1), ({0: 1}, 0)], {0: 3}) == {1: F(3)}

    def test_redundant_rows(self):
        eqs = [
            ({0: 1, 1: 2}, 3),
            ({0: 2, 1: 4}, 6),
        ]
        solution = solve(eqs)
        assert solution == {0: F(3)}
        check(eqs, solution)

    def test_randomized_consistent_systems(self):
        rng = random.Random(7)
        for _ in range(200):
            n_unknowns = rng.randint(1, 6)
            planted = {
                k: F(rng.randint(-5, 5), rng.randint(1, 3))
                for k in range(n_unknowns)
            }
            eqs = []
            for _ in range(rng.randint(1, 8)):
                row = {
                    k: F(rng.randint(-4, 4))
                    for k in rng.sample(range(n_unknowns), rng.randint(1, n_unknowns))
                }
                row = {k: v for k, v in row.items() if v}
                rhs = sum(c * planted[k] for k, c in row.items())
                eqs.append(integer_equation(row, F(rhs)))
            solution = solve(eqs)
            assert solution is not None
            check(eqs, solution)

    def test_consistency_matches_sympy(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = random_rows(rng, rng.randint(1, 6), n)
            rhss = [F(rng.randint(-2, 2)) for _ in rows]
            a = dense(rows, range(n))
            augmented = a.row_join(sp.Matrix(rhss))
            eqs = [integer_equation(row, rhs) for row, rhs in zip(rows, rhss)]
            solution = solve(eqs)
            if a.rank() == augmented.rank():
                check(eqs, solution)
                # supported on the pivot columns, where the solution is unique
                assert set(solution) <= set(a.rref()[1])
            else:
                assert solution is None

    def test_deterministic(self):
        eqs = [
            ({0: 1, 2: 3}, 2),
            ({1: 2, 2: -1}, 0),
        ]
        assert solve(eqs) == solve(list(eqs))

    def test_kept_echelon_answers_every_target_as_a_fresh_one(self):
        rng = random.Random(11)
        equations = [integer_equation(row, 0) for row in random_rows(rng, 8, 6)]
        pairs, _ = columns_of(equations)
        columns = Columns(pairs)
        echelon = columns.echelon
        outcomes = []
        for _ in range(20):
            # a combination of the columns, half the time moved off their span
            target = {}
            for column, _ in pairs:
                x = rng.randint(-2, 2)
                for i, v in column.items():
                    target[i] = target.get(i, 0) + x * v
            if rng.random() < 0.5:
                i = rng.randrange(8)
                target[i] = target.get(i, 0) + 1
            target = {i: v for i, v in target.items() if v}
            solution = solve_sparse(columns, target)
            assert solution == solve_sparse(list(pairs), target)
            outcomes.append(solution is None)
        assert columns.echelon is echelon  # built once, then kept
        assert True in outcomes and False in outcomes


class TestShiftedViews:
    def test_a_view_leaves_out_its_skipped_keys(self):
        view = Shifted(2, (0, 1, 3, 4), (5, -1, 2, 7), {3, 6})
        assert list(view) == [2, 5] and len(view) == 2
        assert view.row() == {2: 5, 5: 2}
        assert list(Shifted(2, (0, 1), (1, 1), {2, 3})) == [] and not Shifted(0, (), (), ())
        assert Shifted(1, (0, 2), (4, 3), ()).row() == {1: 4, 3: 3}

    def test_shifted_views_give_the_eager_echelon(self):
        # Views of a few base rows at random shifts, with and without a set
        # of keys left out: once read, every stored row and tag is the one
        # the built columns give, and so is every solution.
        rng = random.Random(33)
        for _ in range(60):
            keys = list(range(10))
            skipped = {k for k in keys if rng.random() < 0.4}
            for skip in (skipped, frozenset()):
                views = []
                for j in range(8):
                    base = tuple(sorted(rng.sample(range(6), rng.randint(0, 3))))
                    values = tuple(rng.choice((-2, -1, 1, 3)) for _ in base)
                    view = Shifted(rng.randrange(5), base, values, skip)
                    assert list(view) == sorted(view.row()) and len(view) == len(view.row())
                    views.append((view, j))
                lazy = Columns(views)
                eager = Columns([(view.row(), j) for view, j in views])
                for _ in range(5):
                    target = integer_equation(random_rows(rng, 1, 10, keys)[0], 0)[0]
                    target = {k: v for k, v in target.items() if k not in skip}
                    assert solve_sparse(lazy, target) == solve_sparse(eager, target)
                for col in list(lazy.echelon.pivots):
                    lazy.echelon.reduce({col: 1}, {})  # builds a deferred row
                assert lazy.echelon.pivots == eager.echelon.pivots

    def test_leaving_out_the_keys_of_unit_columns_is_a_projection(self):
        # Unit columns on the skipped keys, inserted before the full views,
        # take exactly those keys as pivots; the views without those keys
        # take the other pivots of that echelon.
        rng = random.Random(29)
        for _ in range(40):
            keys = list(range(12))
            skip = {k for k in keys if rng.random() < 0.4}
            units = [({k: rng.choice((-3, 1, 2))}, ("unit", k)) for k in sorted(skip)]
            views = []
            for j in range(8):
                base = tuple(sorted(rng.sample(range(7), rng.randint(0, 4))))
                values = tuple(rng.choice((-2, -1, 1, 3)) for _ in base)
                views.append((Shifted(rng.randrange(5), base, values, skip), j))
            full = [({v.shift + k: c for k, c in zip(v.keys, v.values)}, j) for v, j in views]
            whole = Columns(units + full)
            projected = Columns(views).echelon.pivots
            assert whole.echelon.pivots.keys() == skip | projected.keys()
            assert not skip & projected.keys()


class TestRationalRank:
    def test_basic(self):
        rows = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
        assert rational_rank(rows) == 2

    def test_empty(self):
        assert rational_rank([]) == 0
        assert rational_rank([{}]) == 0

    def test_tuple_keys(self):
        rows = [{(0, 1): F(2)}, {(0, 1): F(4)}, {(1, 0): F(1)}]
        assert rational_rank(rows) == 2

    def test_matches_sympy(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = random_rows(rng, rng.randint(0, 7), n)
            expected = dense(rows, range(n)).rank() if rows else 0
            assert rational_rank(rows) == expected


MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]


class TestRationalSpan:
    def test_add_skips_dependent(self):
        span = RationalSpan()
        x, y = (1, 0), (0, 1)
        # x = (1, 0) leads y = (0, 1) in graded-lex order
        span.add({x: F(2), y: F(4)})
        span.add({x: F(-1), y: F(-2)})
        assert len(span) == 1
        span.add({x: F(3)})
        assert len(span) == 2
        assert span.reduce({x: F(5), y: F(7)}) == {}

    def test_residual_is_canonical(self):
        rng = random.Random(9)
        for _ in range(40):
            basis = random_rows(rng, rng.randint(1, 5), 6, keys=MONOMIALS)
            queries = random_rows(rng, 4, 6, keys=MONOMIALS)
            spans = []
            for order in (basis, basis[::-1]):
                span = RationalSpan()
                for row in order:
                    span.add(row)
                spans.append(span)
            assert len(spans[0]) == len(spans[1]) == rational_rank(basis)
            for query in queries:
                residual = spans[0].reduce(query)
                # independent of insertion order, and linear in the query
                assert residual == spans[1].reduce(query)
                scaled = spans[0].reduce({m: F(-3, 2) * c for m, c in query.items()})
                assert scaled == {m: F(-3, 2) * c for m, c in residual.items()}
                # query - residual lies in the span; the residual is reduced
                difference = dict(query)
                for m, c in residual.items():
                    difference[m] = difference.get(m, 0) - c
                assert rational_rank(basis + [difference]) == rational_rank(basis)
                assert spans[0].reduce(residual) == residual

    def test_split_untagged_keys_are_insertion_positions(self):
        span = RationalSpan()
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        span.add({x: F(2), y: F(4)})  # key 0
        span.add({x: F(-1), y: F(-2)})  # key 1, dependent: no pivot
        span.add({y: F(1, 3)})  # key 2
        residual, coordinates = span.split({x: F(1), y: F(1), z: F(5)})
        # x + y + 5z = 1/2 * (2x + 4y) - 3 * (1/3 y) + 5z
        assert residual == {z: F(5)}
        assert coordinates == {0: F(1, 2), 2: F(-3)}
        assert None not in coordinates
        assert span.reduce({x: F(1), y: F(1), z: F(5)}) == residual
        assert span.split({}) == ({}, {})

    def test_split_tagged_by_the_callers_keys(self):
        span = RationalSpan()
        x, y = (1, 0), (0, 1)
        span.add({x: F(1), y: F(1)}, ("primary", 0))
        span.add({y: F(-2)}, ("secondary", 0))
        residual, coordinates = span.split({x: F(3), y: F(-1)})
        # 3x - y = 3 * (x + y) + 2 * (-2y)
        assert residual == {}
        assert coordinates == {("primary", 0): F(3), ("secondary", 0): F(2)}

    def test_split_re_expands_on_random_spans(self):
        rng = random.Random(31)
        for _ in range(40):
            inputs = random_rows(rng, rng.randint(1, 5), 6, keys=MONOMIALS)
            keyed = rng.random() < 0.5
            span = RationalSpan()
            for position, row in enumerate(inputs):
                span.add(row, f"g{position}" if keyed else None)
            for query in random_rows(rng, 4, 6, keys=MONOMIALS):
                residual, coordinates = span.split(query)
                assert residual == span.reduce(query)
                total = dict(residual)
                for position, row in enumerate(inputs):
                    c = coordinates.get(f"g{position}" if keyed else position, 0)
                    for m, v in row.items():
                        total[m] = total.get(m, 0) + c * v
                # Over independent inputs these are the unique coordinates.
                assert {m: v for m, v in total.items() if v} == query


def test_span_add_returns_the_residual_over_the_span_before_it():
    rng = random.Random(47)
    for _ in range(40):
        span = RationalSpan()
        for row in random_rows(rng, rng.randint(1, 6), 6, keys=MONOMIALS):
            before = span.reduce(row)
            assert span.add(row) == before

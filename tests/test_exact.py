import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    _clear_denominators,
    as_exact,
    det,
    hermite_normal_form,
    identity_matrix,
    integer_solution,
    kernel_basis,
    mat_vec,
    primitive_vector,
    rank,
    row_space_equal,
    solve_linear,
    to_int_vector,
    transpose,
    unimodular_inverse,
)
from fanoscaffold.fixtures import fixture
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.laurent import (
    LaurentPolynomial,
    algebraic_mutation,
    classical_period,
    classical_period_naive,
    monomial_substitution,
)
from fanoscaffold.mutations import mutate_polytope, mutate_scaffolding
from fanoscaffold.nefpart import FanoNefPartition, check_nef_partition
from fanoscaffold.polyhedra import Cone, Fan, Polytope, dd_cone
from fanoscaffold.scaffolding import Scaffolding, Strut
from fanoscaffold.toric import GitData, StackyFan

from helpers import random_unimodular_matrix


def mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, c)) for c in cols) for row in A)


def test_hnf_known_cases():
    H, U = hermite_normal_form([[1, 1], [0, 1]])
    assert H == ((1, 0), (0, 1))
    assert mat_mul(U, ((1, 1), (0, 1))) == H

    H, U = hermite_normal_form([[2, 4], [1, 3]])
    assert H == ((1, 1), (0, 2))

    # zero rows sink to the bottom
    H, _ = hermite_normal_form([[0, 0], [3, 6]])
    assert H == ((3, 6), (0, 0))


def test_hnf_properties_random():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H, U = hermite_normal_form(A)
        assert mat_mul(U, A) == H
        assert det(U) in (1, -1)
        # idempotence and canonical form
        H2, _ = hermite_normal_form(H)
        assert H2 == H
        assert row_space_equal(A, H)
        # pivots positive, entries above reduced
        for i, row in enumerate(H):
            piv = next((j for j in range(n) if row[j] != 0), None)
            if piv is None:
                continue
            assert row[piv] > 0
            for k in range(i):
                assert 0 <= H[k][piv] < row[piv]


def test_kernel_basis():
    K = kernel_basis([[1, 1, 1]])
    assert K == [(1, 0, -1), (0, 1, -1)]
    for v in K:
        assert sum(v) == 0

    # saturation: the integer kernel of (2 4) is generated by (2, -1)
    assert kernel_basis([[2, 4]]) == [(2, -1)]

    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert kernel_basis([], ncols=2) == [(1, 0), (0, 1)]


def test_kernel_basis_random():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        K = kernel_basis(A)
        for v in K:
            assert all(x == 0 for x in mat_vec(A, v))
        assert len(K) == n - rank(A)


def test_unimodular_inverse():
    assert unimodular_inverse(identity_matrix(3)) == identity_matrix(3)
    assert unimodular_inverse([[1, 1], [0, 1]]) == ((1, -1), (0, 1))
    with pytest.raises(DomainError):
        unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(DomainError):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]])


def test_solve_and_det():
    assert solve_linear([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))
    assert solve_linear([[1, 1], [1, 1]], [1, 2]) is None
    assert det([[1, 2], [3, 4]]) == -2
    assert det([]) == 1
    assert rank([[1, 2], [2, 4]]) == 1


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector([0, -3, 2]) == (0, -3, 2)
    assert primitive_vector([0, -3, 0]) == (0, -1, 0)
    with pytest.raises(DomainError):
        primitive_vector((0, 0))


def test_transpose_empty():
    assert transpose(()) == ()


def test_integer_solution_basic():
    x = integer_solution([(1, 0), (0, 1)], (3, -2))
    assert x == (3, -2)
    # 2a + b = 1 has no solution with b = 0, but (0, 1) works
    x = integer_solution([(2, 1)], (1,))
    assert x is not None and 2 * x[0] + x[1] == 1
    # even sum cannot hit an odd target
    assert integer_solution([(2, 2)], (1,)) is None
    # inconsistent over the rationals already
    assert integer_solution([(1, 1), (1, 1)], (0, 1)) is None


def test_integer_solution_random():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)]
        x0 = tuple(rng.randint(-4, 4) for _ in range(n))
        b = mat_vec(A, x0)
        x = integer_solution(A, b)
        assert x is not None
        assert mat_vec(A, x) == tuple(b)


# Oracles for the row reduction that use no elimination at all: cofactor
# expansion for determinants, and minors for ranks.

def cofactor_det(A):
    if not A:
        return Fraction(1)
    return Fraction(sum(
        (-1) ** j * A[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(len(A))
        if A[0][j]
    ))


def minor_rank(A):
    m, n = len(A), len(A[0])
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                if cofactor_det([[A[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def greedy_columns(A):
    """The column basis picked greedily from the left."""
    basis = []
    for j in range(len(A[0])):
        if minor_rank([[row[c] for c in basis + [j]] for row in A]) > len(basis):
            basis.append(j)
    return basis


ENTRIES = st.one_of(
    st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)
)


@st.composite
def rational_matrices(draw, square=False):
    m = draw(st.integers(0 if square else 1, 4))
    n = m if square else draw(st.integers(1, 5))
    if square and m and draw(st.booleans()):
        A = [list(row) for row in random_unimodular_matrix(m, draw(st.randoms()))]
        if m >= 2 and draw(st.booleans()):
            # Still determinant +-1, but the inverse may not be integral.
            q = draw(st.sampled_from([2, 3, Fraction(1, 2)]))
            A[0] = [q * c for c in A[0]]
            A[1] = [Fraction(c) / q for c in A[1]]
        return A
    A = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        # Force a row that depends on the others.
        i = draw(st.integers(0, m - 1))
        j, k = (draw(st.sampled_from([t for t in range(m) if t != i])) for _ in "jk")
        a, b = draw(ENTRIES), draw(ENTRIES)
        A[i] = [a * x + b * y for x, y in zip(A[j], A[k])]
    return A


@given(st.lists(ENTRIES, max_size=6))
def test_clear_denominators_against_the_lcm_formula(vec):
    m = lcm(*(Fraction(c).denominator for c in vec))
    want = tuple(Fraction(c).numerator * (m // Fraction(c).denominator) for c in vec)
    assert _clear_denominators(vec) == want
    ints = [Fraction(c).numerator for c in vec]
    out = _clear_denominators(ints)
    assert type(out) is tuple and out == tuple(ints)


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_and_solve_against_minors(A, data):
    m, n = len(A), len(A[0])
    r = minor_rank(A)
    assert rank(A) == r
    b = data.draw(st.one_of(
        st.lists(ENTRIES, min_size=m, max_size=m),
        st.lists(ENTRIES, min_size=n, max_size=n).map(lambda x0: list(mat_vec(A, x0))),
    ))
    x = solve_linear(A, b)
    if minor_rank([row + [v] for row, v in zip(A, b)]) > r:
        assert x is None
    else:
        # An entry is an int exactly when it is integral.
        assert all((type(c) is int) == (c.denominator == 1) for c in x)
        assert mat_vec(A, x) == tuple(b)
        basis = greedy_columns(A)
        assert all(x[j] == 0 for j in range(n) if j not in basis)
    if m != n:
        with pytest.raises(DomainError) as err:
            det(A)
        assert err.value.kind == "not_square"
        with pytest.raises(DomainError) as err:
            unimodular_inverse(A)
        assert err.value.kind == "not_unimodular"


@settings(max_examples=300, deadline=None)
@given(rational_matrices(square=True))
def test_det_and_inverse_against_cofactors(A):
    n = len(A)
    d = cofactor_det(A)
    assert det(A) == d and (type(det(A)) is int) == (d.denominator == 1)
    if d not in (1, -1):
        with pytest.raises(DomainError) as err:
            unimodular_inverse(A)
        assert err.value.kind == "not_unimodular"
        return
    def minor(i, j):
        return [row[:j] + row[j + 1:] for t, row in enumerate(A) if t != i]

    adjugate = [[(-1) ** (i + j) * cofactor_det(minor(j, i)) for j in range(n)]
                for i in range(n)]
    if any(c.denominator != 1 for row in adjugate for c in row):
        with pytest.raises(DomainError) as err:
            unimodular_inverse(A)
        assert err.value.kind == "not_integral"
        return
    X = unimodular_inverse(A)
    assert all(type(c) is int for row in X for c in row)
    assert mat_mul(A, X) == identity_matrix(n)


# Integer data enters the package through exact.to_int_vector: each entry
# point raises instead of truncating a non-integral entry, and a float, a
# string or a bool is not a number at all.
SEGMENT = Polytope.from_points([(0, 0), (0, 1)])
SQUARE = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
LINE = Fan(1, [(1,), (-1,)], [(0,), (1,)])
X = LaurentPolynomial(1, {(1,): 1})
ONE = LaurentPolynomial(1, {(0,): 1})

INTEGER_ENTRY_POINTS = {
    "GitData characters": lambda x: GitData(1, 2, [(x,), (1,)], (1,)),
    "StackyFan rays": lambda x: StackyFan(1, [(x,), (-1,)], [(0,), (1,)]),
    "Fan rays": lambda x: Fan(1, [(x,), (-1,)], [(0,), (1,)]),
    "Fan cone indices": lambda x: Fan(1, [(1,), (-1,)], [(x,), (1,)]),
    "StackyFan cone indices": lambda x: StackyFan(1, [(1,), (-1,)], [(x,), (1,)]),
    "Strut coeffs": lambda x: Strut((x, 1)),
    "Strut chi": lambda x: Strut((0, 1), (x,)),
    "Scaffolding u": lambda x: Scaffolding(LINE, x, [Strut((0, 0), (0,))], SEGMENT),
    "LaurentPolynomial exponents": lambda x: LaurentPolynomial(1, {(x,): 1}),
    "monomial_substitution matrix": lambda x: monomial_substitution(X, [[x]]),
    "algebraic_mutation weight": lambda x: algebraic_mutation(X, (x,), ONE),
    "mutate_polytope weight": lambda x: mutate_polytope(SQUARE, (x, 0), SEGMENT),
    "mutate_scaffolding weight": lambda x: mutate_scaffolding(
        fixture("dp6-squares")["scaffolding"], (x, 0), SEGMENT
    ),
    "GitData r": lambda x: GitData(x, 2, [(1,), (1,)], (1,)),
    "GitData R": lambda x: GitData(1, x, [(1,)], (1,)),
    "Fan dim": lambda x: Fan(x, [(1,), (-1,)], [(0,), (1,)]),
    "StackyFan dim": lambda x: StackyFan(x, [(1,), (-1,)], [(0,), (1,)]),
    "LaurentPolynomial nvars": lambda x: LaurentPolynomial(x, {(1,): 1}),
    "ConvexPartitionWithBasis": lambda x: ConvexPartitionWithBasis((0,), [(1, x)]),
    "FanoNefPartition parts": lambda x: FanoNefPartition(
        GitData(1, 2, [(1,), (1,)], (1,)), [(0,)], (x,)
    ),
    "check_nef_partition parts": lambda x: check_nef_partition(SQUARE, [(0, x), (2, 3)]),
}


@pytest.mark.parametrize("build", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize(
    "x, kind",
    [(Fraction(3, 2), "not_integral"), (1.5, "not_exact"), ("1", "not_exact"), (True, "not_exact")],
)
def test_integer_entry_points_reject_non_integers(build, x, kind):
    with pytest.raises(DomainError) as err:
        build(x)
    assert err.value.kind == kind
    build(Fraction(1))


@pytest.mark.parametrize("period", [classical_period, classical_period_naive])
@pytest.mark.parametrize("d", [-1, 2.0, Fraction(3, 2), Fraction(2), "2"])
def test_period_depths_reject_non_integers(period, d):
    # A depth is a count of factors: it is a nonnegative int, and the
    # oracle checks it exactly as classical_period does.
    with pytest.raises(DomainError) as err:
        period(X + ONE, d)
    assert err.value.kind == "bad_exponent"


BOOL_SCALARS = {
    "LaurentPolynomial coefficient": (
        lambda: LaurentPolynomial(1, {(1,): 1, (-1,): True}), "bad_coefficient"),
    "LaurentPolynomial power": (lambda: (X + ONE) ** True, "bad_exponent"),
    "classical_period depth": (lambda: classical_period(X + ONE, True), "bad_exponent"),
    "classical_period_naive depth": (
        lambda: classical_period_naive(X + ONE, True), "bad_exponent"),
    "LaurentPolynomial scalar product": (lambda: X * True, "bad_coefficient"),
    "LaurentPolynomial reflected scalar product": (lambda: True * X, "bad_coefficient"),
}


@pytest.mark.parametrize("build, kind", BOOL_SCALARS.values(), ids=BOOL_SCALARS)
def test_bools_are_not_integer_scalars(build, kind):
    # A bool compares and multiplies as 0 or 1, but the encoders would write
    # it as JSON true, which no decoder reads as a number.
    with pytest.raises(DomainError) as err:
        build()
    assert err.value.kind == kind


def test_rational_entry_points_reject_floats():
    with pytest.raises(DomainError) as err:
        Polytope.from_points([(0.5, 0), (0, 1), (0, 0)])
    assert err.value.kind == "not_exact"
    with pytest.raises(DomainError) as err:
        GitData(1, 2, [(1,), (1,)], (0.5,))
    assert err.value.kind == "not_exact"
    assert GitData(1, 2, [(1,), (1,)], (Fraction(1, 2),)).omega == (Fraction(1, 2),)


NOT_EXACT_ENTRY_POINTS = {
    "Fan float ray": lambda: Fan(1, [(1.5,), (-1,)], [(0,), (1,)]),
    "Cone.from_rays float ray": lambda: Cone.from_rays([(1.5, 0), (0, 1)]),
    "dd_cone float generator": lambda: dd_cone([(1.5, 0), (0, 1)], dim=2),
    "GitData string omega": lambda: GitData(1, 2, [(2,), (1,)], ("1/2",)),
    "GitData string character": lambda: GitData(1, 2, [("2",), (1,)], (1,)),
    "Polytope.from_points string": lambda: Polytope.from_points([("1e3", 0), (0, 1), (0, 0)]),
    "Polytope.from_points bool": lambda: Polytope.from_points([(True, 0), (0, 1), (0, 0)]),
    "to_int_vector bool": lambda: to_int_vector((True, 2)),
    "as_exact string": lambda: as_exact("1"),
}


@pytest.mark.parametrize("build", NOT_EXACT_ENTRY_POINTS.values(), ids=NOT_EXACT_ENTRY_POINTS)
def test_entries_that_are_not_int_or_fraction_raise_not_exact(build):
    # The geometry constructors clear denominators through as_exact_vector,
    # so a float reaches the same check as everywhere else.
    with pytest.raises(DomainError) as err:
        build()
    assert err.value.kind == "not_exact"

import random
from fractions import Fraction

import pytest

from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    det,
    hermite_normal_form,
    identity_matrix,
    integer_solution,
    kernel_basis,
    mat_mul,
    mat_vec,
    primitive_vector,
    rank,
    row_space_equal,
    solve_linear,
    transpose,
    unimodular_inverse,
)


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

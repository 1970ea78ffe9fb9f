"""Exact integer/rational linear algebra.

Everything downstream (polytopes, fans, GIT data) reduces to a handful of
primitives implemented here: Hermite normal form, saturated integer kernels,
and one fraction-free (Bareiss) Gauss-Jordan elimination behind ``rank``,
``det``, ``unimodular_inverse`` and ``solve_linear``.  ``integer_solution``
combines the two: the Hermite form gives a lattice basis, ``solve_linear``
the coordinates in it.

This module is the package's one number boundary.  Vectors are tuples of
``int`` or ``fractions.Fraction``, matrices are tuples of row tuples, and a
number is an ``int`` exactly when it is integral, so integral data never
pays for Fraction arithmetic.  Every result here, and every number that the
geometry stores, is ``as_exact``; integer input goes through ``to_int_vector``,
which raises ``not_integral`` instead of truncating; anything that is neither
an ``int`` nor a ``Fraction`` (a float, a string, a bool) raises ``not_exact``
in both.  The two forms compare, hash and sort alike.  HNF is
the single canonicalisation primitive: every "equal up to basis change"
comparison routes through it.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import mul

from .errors import DomainError


# ---------------------------------------------------------------------------
# vector / matrix helpers
# ---------------------------------------------------------------------------

def dot(u, v):
    assert len(u) == len(v)
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


@cache
def identity_matrix(n):
    """The n x n identity, built once per n; its rows are shared tuples."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def primitive_vector(v):
    """v divided by the gcd of its entries.  v must be a nonzero integer vector."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise DomainError("zero_vector", "primitive_vector of the zero vector")
    return tuple(a // g for a in v)


def as_exact(x):
    """x as an ``int`` if it is integral, else a ``Fraction``.

    Raises not_exact on anything that is neither an ``int`` nor a
    ``Fraction``: a float, a string, a bool.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise DomainError("not_exact", f"entry {x!r} is not an int or a Fraction")
    return x.numerator if x.denominator == 1 else x


def as_exact_vector(v):
    """The tuple of ``as_exact`` of each entry of v."""
    return tuple(map(as_exact, v))


def exact_ratio(c, d):
    """c / d for ints c and d != 0: an ``int`` when d divides c, else a ``Fraction``."""
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


def to_int_vector(v):
    """v as a tuple of ints; not_integral on a non-integral Fraction.

    Any entry that ``as_exact`` rejects raises not_exact.
    """
    v = tuple(v)
    for a in v:
        if type(a) is not int:
            break
    else:
        return v
    out = as_exact_vector(v)
    for a, f in zip(v, out):
        if type(f) is not int:
            raise DomainError("not_integral", f"entry {a} is not an integer")
    return out


# ---------------------------------------------------------------------------
# Hermite normal form and friends
# ---------------------------------------------------------------------------

def hermite_normal_form(A):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and H = U @ A.  H is the canonical HNF of
    the row lattice of A: pivots positive, entries above each pivot reduced
    into [0, pivot), zero rows at the bottom.  HNF(H) = H.
    """
    A = tuple(tuple(row) for row in A)
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = [list(row) for row in identity_matrix(m)]
    row = 0
    for col in range(n):
        if row == m:
            break
        # gcd-reduce the entries of this column at or below `row`
        while True:
            nz = [i for i in range(row, m) if H[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][col]), i))
            if i0 != row:
                H[row], H[i0] = H[i0], H[row]
                U[row], U[i0] = U[i0], U[row]
            clean = True
            for i in range(row + 1, m):
                if H[i][col] != 0:
                    q = H[i][col] // H[row][col]
                    H[i] = [a - q * b for a, b in zip(H[i], H[row])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[row])]
                    if H[i][col] != 0:
                        clean = False
            if clean:
                break
        if H[row][col] == 0:
            continue
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
            U[row] = [-a for a in U[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p  # floor division puts the entry into [0, p)
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[row])]
                U[i] = [a - q * b for a, b in zip(U[i], U[row])]
        row += 1
    return tuple(tuple(r) for r in H), tuple(tuple(r) for r in U)


def kernel_basis(A, ncols=None):
    """Canonical basis of the saturated integer kernel {v : A @ v = 0}.

    The result is in HNF, so two equal kernels give identical bases.  ``ncols``
    is only needed when A has no rows.
    """
    A = tuple(tuple(row) for row in A)
    if not A:
        if ncols is None:
            raise ValueError("kernel_basis of an empty matrix needs ncols")
        return list(identity_matrix(ncols))
    H, U = hermite_normal_form(transpose(A))
    vectors = [U[i] for i in range(len(H)) if not any(H[i])]
    if not vectors:
        return []
    HK, _ = hermite_normal_form(vectors)
    return [row for row in HK if any(row)]


def row_space_equal(A, B):
    """Do two integer matrices span the same row lattice?"""
    HA, _ = hermite_normal_form(A)
    HB, _ = hermite_normal_form(B)
    HA = tuple(r for r in HA if any(r))
    HB = tuple(r for r in HB if any(r))
    return HA == HB


def _clear_denominators(vec):
    """vec times the least positive integer that makes it integral.

    An all-int vector is already integral and comes back as a tuple of
    the same entries, with no denominator read; any other goes through
    ``as_exact_vector``, so an entry that is not exact raises not_exact.
    """
    if all(type(c) is int for c in vec):
        return tuple(vec)
    vec = as_exact_vector(vec)
    m = lcm(*(c.denominator for c in vec))
    return tuple(c.numerator * (m // c.denominator) for c in vec)


def _row_reduce(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Each row is first scaled to integers by ``_clear_denominators``.  The
    pivot of each column is its first nonzero entry at or below the current
    row.  Every other row is updated as (p * row - f * pivot_row) // prev,
    where p is the new pivot and prev the one before it; the division is
    exact.  Returns (M, pivots, sign, p): M is the reduced integer matrix,
    pivots its pivot columns, sign the sign of the row swaps and p the last
    pivot (1 when there is none).  Every pivot entry of M equals p and every
    other entry of a pivot column is 0; for a square invertible matrix,
    sign * p is the determinant of the scaled rows.
    """
    M = [_clear_denominators(row) for row in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    sign = prev = 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[col]
        for i in range(m):
            if i != r:
                f = M[i][col]
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], top)]
        prev = p
        pivots.append(col)
        if len(pivots) == m:
            break
    return M, pivots, sign, prev


def _determinant(A, reduced):
    """det A read off ``_row_reduce`` of the square A, or of [A | I]."""
    _, pivots, sign, p = reduced
    if pivots != list(range(len(A))):
        return 0
    scale = prod(lcm(*(c.denominator for c in row)) for row in A)
    return exact_ratio(sign * p, scale)


def rank(A):
    return len(_row_reduce(A)[1])


def det(A):
    """Exact determinant of a square matrix."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("not_square", "determinant of a non-square matrix")
    return _determinant(A, _row_reduce(A))


def unimodular_inverse(A):
    """Integer inverse of a square matrix with determinant +-1."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("not_unimodular", "matrix is not square")
    # One reduction of [A | I] gives [p I | p A^-1] and the determinant.
    reduced = _row_reduce(
        [tuple(row) + e for row, e in zip(A, identity_matrix(n))]
    )
    d = _determinant(A, reduced)
    if d not in (1, -1):
        raise DomainError("not_unimodular", f"determinant is {d}, not +-1")
    M, _, _, p = reduced
    return tuple(to_int_vector(exact_ratio(c, p) for c in row[n:]) for row in M)


def solve_linear(A, b):
    """One exact solution x of A x = b, or None if the system is inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    M, pivots, _, p = _row_reduce([tuple(row) + (v,) for row, v in zip(A, b)])
    n = len(M[0]) - 1 if M else 0
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for i, col in enumerate(pivots):
        x[col] = exact_ratio(M[i][n], p)
    return tuple(x)


def integer_solution(A, b):
    """One integer solution x of A x = b, or None if none exists.

    With H = U A^T in Hermite normal form, the nonzero rows of H are a basis
    of the lattice the columns of A span.  A solution exists exactly when
    the coordinates y of b in that basis (solve_linear) are integers, and
    then x = sum_i y_i U_i.  Unlike rounding a rational solution, this
    cannot miss solutions that need nonzero free variables.
    """
    m = len(A)
    if m == 0:
        return ()
    n = len(A[0])
    h, u = hermite_normal_form(transpose([to_int_vector(row) for row in A]))
    basis = [row for row in h if any(row)]
    y = solve_linear([[v[i] for v in basis] for i in range(m)], to_int_vector(b))
    if y is None or any(type(c) is not int for c in y):
        return None
    return tuple(sum(c * w[i] for c, w in zip(y, u)) for i in range(n))

"""Exact integer/rational linear algebra.

Everything downstream (polytopes, fans, GIT data) reduces to a handful of
primitives implemented here: Hermite normal form, saturated integer kernels,
unimodular inverses and rational Gaussian elimination.

Floats are banned throughout the package; vectors are tuples of ``int`` or
``fractions.Fraction``, matrices are tuples of row tuples.  HNF is the single
canonicalisation primitive: every "equal up to basis change" comparison routes
through it.
"""

from fractions import Fraction
from math import gcd

from .errors import DomainError


# ---------------------------------------------------------------------------
# vector / matrix helpers
# ---------------------------------------------------------------------------

def dot(u, v):
    assert len(u) == len(v)
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vector(u):
    return all(a == 0 for a in u)


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def gcd_list(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def primitive_vector(v):
    """v divided by the gcd of its entries.  v must be a nonzero integer vector."""
    g = gcd_list(v)
    if g == 0:
        raise DomainError("zero_vector", "primitive_vector of the zero vector")
    return tuple(a // g for a in v)


def to_int_vector(v):
    """Cast a vector of integral Fractions to ints; error if any entry is not integral."""
    out = []
    for a in v:
        f = Fraction(a)
        if f.denominator != 1:
            raise DomainError("not_integral", f"entry {a} is not an integer")
        out.append(f.numerator)
    return tuple(out)


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
    vectors = [U[i] for i in range(len(H)) if is_zero_vector(H[i])]
    if not vectors:
        return []
    HK, _ = hermite_normal_form(vectors)
    return [row for row in HK if not is_zero_vector(row)]


def row_space_equal(A, B):
    """Do two integer matrices span the same row lattice?"""
    HA, _ = hermite_normal_form(A)
    HB, _ = hermite_normal_form(B)
    HA = tuple(r for r in HA if not is_zero_vector(r))
    HB = tuple(r for r in HB if not is_zero_vector(r))
    return HA == HB


def rank(A):
    A = [list(map(Fraction, row)) for row in A]
    if not A:
        return 0
    m, n = len(A), len(A[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][col]
        A[r] = [a * inv for a in A[r]]
        for i in range(m):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return r


def det(A):
    """Exact determinant (Fraction) of a square matrix."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("not_square", "determinant of a non-square matrix")
    M = [list(map(Fraction, row)) for row in A]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        d *= M[col][col]
        inv = 1 / M[col][col]
        for i in range(col + 1, n):
            if M[i][col] != 0:
                f = M[i][col] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    return d * sign


def unimodular_inverse(A):
    """Integer inverse of a square matrix with determinant +-1."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("not_unimodular", "matrix is not square")
    d = det(A)
    if d not in (1, -1):
        raise DomainError("not_unimodular", f"determinant is {d}, not +-1")
    # Solve A X = I exactly; entries are integral because det = +-1.
    M = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next(i for i in range(col, n) if M[i][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [a * inv for a in M[col]]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    return tuple(to_int_vector(M[i][n:]) for i in range(n))


def solve_linear(A, b):
    """One exact solution x of A x = b, or None if the system is inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    A = [list(map(Fraction, row)) for row in A]
    b = [Fraction(v) for v in b]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        b[r], b[piv] = b[piv], b[r]
        inv = 1 / A[r][col]
        A[r] = [a * inv for a in A[r]]
        b[r] *= inv
        for i in range(m):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * v for a, v in zip(A[i], A[r])]
                b[i] -= f * b[r]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if b[i] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = b[i]
    return tuple(x)


def integer_solution(A, b):
    """One integer solution x of A x = b, or None if none exists.

    Column-style Hermite reduction: with V unimodular, A V is in column
    echelon form, so A V y = b can be solved column by column with exact
    divisions, and x = V y.  Unlike rounding a rational solution, this
    cannot miss solutions that need nonzero free variables.
    """
    m = len(A)
    if m == 0:
        return ()
    n = len(A[0])
    rows = [to_int_vector(row) for row in A]
    rhs = to_int_vector(b)
    h, u = hermite_normal_form(transpose(rows))
    # h = u @ rows^T, so rows @ u^T has the columns of h as its columns.
    echelon = transpose(h)
    y = [0] * n
    resid = list(rhs)
    for k in range(n):
        col = [echelon[i][k] for i in range(m)]
        p = next((i for i in range(m) if col[i] != 0), None)
        if p is None:
            continue
        if resid[p] % col[p] != 0:
            return None
        t = resid[p] // col[p]
        if t:
            for i in range(m):
                resid[i] -= t * col[i]
        y[k] = t
    if any(resid):
        return None
    v = transpose(u)
    return tuple(sum(v[i][k] * y[k] for k in range(n)) for i in range(n))


def random_unimodular_matrix(n, rng, steps=8):
    """A random determinant +-1 integer matrix built from elementary moves.

    rng is a random.Random instance; steps controls how many row shears,
    swaps and sign flips are applied to the identity.
    """
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-c for c in m[i]]
    return tuple(tuple(row) for row in m)

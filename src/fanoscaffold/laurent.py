"""Integer Laurent polynomials, classical periods and algebraic mutations.

A Laurent polynomial is stored as a dict from exponent tuples to nonzero
integer coefficients.  The classical period is the sequence of constant
terms ct(f^d).  classical_period builds f^k only up to k = ceil(d / 2) and
reads ct(f^(a+b)) = sum_e [f^a]_e * [f^b]_(-e) off pairs of neighbouring
powers; its terms are keyed by single ints that pack the exponent and its
facet values (Kronecker substitution), and pruned against the Newton
polytope.  classical_period_naive powers in full and is the oracle.
Mutations are performed by exact division of the graded pieces, inside
the coordinate box that bounds the quotient's exponents.
"""

from math import prod

from .errors import DomainError
from .exact import det, dot, identity_matrix, mat_vec, to_int_vector, vadd, vsub
from .polyhedra import MAX_LATTICE_BOX, Polytope, dd_cone


class LaurentPolynomial:
    """A Laurent polynomial with integer coefficients.

    terms maps exponent tuples (length nvars, entries any sign) to nonzero
    int coefficients.  Instances are immutable in spirit; all operations
    return fresh objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        (nvars,) = to_int_vector((nvars,))
        clean = {}
        for e, c in terms.items():
            e = to_int_vector(e)
            if len(e) != nvars:
                raise DomainError("dimension_mismatch", "exponent length differs from nvars")
            if type(c) is not int:
                raise DomainError("bad_coefficient", "coefficients must be integers")
            if c:
                clean[e] = clean.get(e, 0) + c
                if clean[e] == 0:
                    del clean[e]
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {tuple(0 for _ in range(nvars)): 1})

    @classmethod
    def monomial(cls, exponent):
        return cls(len(exponent), {tuple(exponent): 1})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(tuple(0 for _ in range(self.nvars)), 0)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __neg__(self):
        return LaurentPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(
                self.nvars, {tuple(0 for _ in range(self.nvars)): other}
            )
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise DomainError("dimension_mismatch", "mixed variable counts")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = vadd(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise DomainError("bad_exponent", "powers must be nonnegative integers")
        out = LaurentPolynomial.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(0)"
        bits = []
        for e in sorted(self.terms):
            bits.append(f"{self.terms[e]}*x^{e}")
        return "LaurentPolynomial(" + " + ".join(bits) + ")"

    def newton_polytope(self):
        if not self.terms:
            raise DomainError("zero_polynomial", "Newton polytope of 0 is undefined")
        return Polytope.from_points(list(self.terms))


def _bracket_sum(nvars, terms):
    """The sum over terms (e, brackets) of x^e * prod (1 + sum_(p in P) x_p)^k.

    Each bracket is a pair (P, k) of variable positions and a power k >= 0.
    Przyjalkowski's models and the polynomials of scaffoldings on products
    of projective spaces are both such sums.
    """
    eye = identity_matrix(nvars)
    out = LaurentPolynomial.zero(nvars)
    for e, brackets in terms:
        term = LaurentPolynomial.monomial(e)
        for positions, k in brackets:
            base = LaurentPolynomial(nvars, {eye[p]: 1 for p in positions})
            term = term * (base + 1) ** k
        out = out + term
    return out


def monomial_substitution(f, matrix):
    """Apply the exponent change e -> matrix * e.

    matrix must be unimodular so the substitution is invertible on the
    torus.
    """
    rows = tuple(map(to_int_vector, matrix))
    if len(rows) != f.nvars or any(len(r) != f.nvars for r in rows):
        raise DomainError("dimension_mismatch", "matrix shape differs from nvars")
    if abs(det(rows)) != 1:
        raise DomainError("not_unimodular", "substitution matrix must have det +-1")
    out = {}
    for e, c in f.terms.items():
        new = mat_vec(rows, e)
        out[new] = out.get(new, 0) + c
    return LaurentPolynomial(f.nvars, out)


MAX_PERIOD_DEPTH = 64

# Most term products one step of classical_period may form: the terms of
# the power built so far times the terms of f.
MAX_PERIOD_PRODUCTS = 5 * 10 ** 5

# Largest |<w, e>| a mutation reaches.  Each level costs one slice of the
# polytope or one power of the factor, so the cap is checked before any.
MAX_MUTATION_LEVEL = 64


def _packing(f, inequalities, d_max):
    """Pack the exponents of classical_period's powers into single ints.

    Returns (weights, mask, base, step).  key(e) = dot(weights, e) is linear
    in e, so key(e1 + e2) = key(e1) + key(e2), key(-e) = -key(e) and key 0 is
    the constant term.  Its low n*w bits hold e as signed base-2^w digits,
    which is injective on every exponent of f^k for k <= ceil(d_max / 2).
    Above them sits one field of B = width bits per facet inequality
    <a, x> >= b, holding <a, e>.  A term of f^k with at most r further
    factors passes every facet test (<a, e> <= r * max(-b, 0)) exactly when
    (base + r * step - key) & mask == mask: each field of that difference
    is the slack plus 2^(B-1), kept in [1, 2^B) by the choice of B, and its
    top bit is set exactly when the slack is nonnegative.
    """
    n = f.nvars
    top = (d_max + 1) // 2 * max(abs(x) for e in f.terms for x in e)
    w = top.bit_length() + 1
    low = n * w
    # Every slack is at most d_max * mx in absolute value.
    mx = max(
        [abs(b) for _, b in inequalities]
        + [abs(dot(a, e)) for a, _ in inequalities for e in f.terms],
        default=0,
    )
    width = (d_max * mx).bit_length() + 1
    weights = [1 << (w * i) for i in range(n)]
    mask = step = 0
    for j, (a, b) in enumerate(inequalities):
        shift = low + width * j
        for i in range(n):
            weights[i] += a[i] << shift
        mask += 1 << (shift + width - 1)
        step += max(-b, 0) << shift
    return weights, mask, mask + (1 << (low - 1)), step


def _next_power(power, terms, cap, mask):
    """The terms of power * f that pass the facet test against cap.

    Each key is tested once, when first formed; rejected keys are kept so
    that they are neither accumulated nor tested again.
    """
    out = {}
    get = out.get
    rejected = set()
    for t, c in terms:
        for key, a in power.items():
            key += t
            v = get(key)
            if v is not None:
                out[key] = v + a * c
            elif key not in rejected:
                if (cap - key) & mask == mask:
                    out[key] = a * c
                else:
                    rejected.add(key)
    return out


def _pair(p, q):
    """Constant term of p * q: sum over e of p[e] * q[-e], over the smaller."""
    if len(q) < len(p):
        p, q = q, p
    get = q.get
    return sum(c * get(-key, 0) for key, c in p.items())


def classical_period(f, d_max):
    """Constant terms of f^0, f^1, ..., f^d_max; equal to naive powering.

    Only the powers P_k = f^k with k <= ceil(d_max / 2) are built.  Once P_k
    is ready it gives ct(f^(2k-1)) = sum_e P_k[e] * P_(k-1)[-e] and, when
    2k <= d_max, ct(f^(2k)) = sum_e P_k[e] * P_k[-e].  A term e of P_k meets
    at most d_max - k further factors, from later powers or from its
    pairing partner, so it is dropped unless -e could lie in j * Newton(f)
    for some 0 <= j <= d_max - k, tested one facet at a time (sound, not
    sharp).  Exponents are packed into single ints (_packing): a product of
    terms is one addition and the facet test one subtraction and one mask.
    When the affine hull of Newton(f) misses the origin, every term of f^k
    with k >= 1 lies on <a, x> = k * rhs with rhs != 0, so those constant
    terms are 0.  Depths above MAX_PERIOD_DEPTH raise degree_too_large, and
    a step that would form more than MAX_PERIOD_PRODUCTS term products
    raises period_too_large before it starts.
    """
    if f.is_zero():
        raise DomainError("zero_polynomial", "period of the zero polynomial")
    if type(d_max) is not int or d_max < 0:
        raise DomainError("bad_exponent", "d_max must be a nonnegative integer")
    if d_max > MAX_PERIOD_DEPTH:
        raise DomainError(
            "degree_too_large", f"period depth capped at {MAX_PERIOD_DEPTH}"
        )
    # The dual of the cone over Newton(f) x {1}: its rays (a, -b) are the
    # facets <a, x> >= b, and its lineality holds the hull's equations.
    n = f.nvars
    facets, hull = dd_cone([e + (1,) for e in f.terms], dim=n + 1)
    out = [1] + [0] * d_max
    if any(e[n] for e in hull):
        return tuple(out)
    weights, mask, base, step = _packing(f, [(a[:n], -a[n]) for a in facets], d_max)
    terms = [(dot(weights, e), c) for e, c in f.terms.items()]
    power = {0: 1}
    for k in range(1, (d_max + 1) // 2 + 1):
        if len(power) * len(terms) > MAX_PERIOD_PRODUCTS:
            raise DomainError(
                "period_too_large",
                f"period steps capped at {MAX_PERIOD_PRODUCTS} term products",
            )
        prev, power = power, _next_power(power, terms, base + (d_max - k) * step, mask)
        out[2 * k - 1] = _pair(power, prev)
        if 2 * k <= d_max:
            out[2 * k] = _pair(power, power)
    return tuple(out)


def classical_period_naive(f, d_max):
    """Reference implementation of the period with no pruning."""
    if f.is_zero():
        raise DomainError("zero_polynomial", "period of the zero polynomial")
    out = [1]
    power = LaurentPolynomial.one(f.nvars)
    for _ in range(d_max):
        power = power * f
        out.append(power.constant_term())
    return tuple(out)


def _exact_divide(num, den):
    """Exact quotient num / den in the Laurent ring, or None.

    den must be nonzero.  Works by lex leading-term elimination inside a
    coordinate box.  If num = q * den then Newton(num) = Newton(q) +
    Newton(den), so Newton(q) = Newton(num) - Newton(den) by the
    cancellation law of Minkowski sums, and a coordinate's least and
    greatest values over a Minkowski sum are the sums of those over its
    summands: coordinate i of the exponents of q spans exactly [lo_i, hi_i]
    with lo_i = min_i(num) - min_i(den) and hi_i = max_i(num) - max_i(den).
    Each step divides the lex largest remaining term by the lex largest
    term of den, which can only produce a term of q, so an exponent outside
    the box or a coefficient that does not divide means there is no q.  The
    remainder's largest exponent falls strictly in lex order at every step,
    so the quotient exponents do too: none repeats, and the loop ends within
    the box.  A box of more than MAX_LATTICE_BOX points raises
    lattice_box_too_large before the loop starts.
    """
    if num.is_zero():
        return LaurentPolynomial.zero(num.nvars)
    columns = list(zip(zip(*num.terms), zip(*den.terms)))
    lo = [min(a) - min(b) for a, b in columns]
    hi = [max(a) - max(b) for a, b in columns]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    size = prod(b - a + 1 for a, b in zip(lo, hi))
    if size > MAX_LATTICE_BOX:
        raise DomainError(
            "lattice_box_too_large",
            f"the quotient's coordinate box holds {size} lattice points; "
            f"exact division runs only in boxes of at most {MAX_LATTICE_BOX}",
        )
    den_lead = max(den.terms)
    den_lead_coeff = den.terms[den_lead]
    current = dict(num.terms)
    quotient = {}
    while current:
        e_max = max(current)
        q_exp = vsub(e_max, den_lead)
        if not all(a <= x <= b for a, x, b in zip(lo, q_exp, hi)):
            return None
        c = current[e_max]
        if c % den_lead_coeff:
            return None
        q_c = c // den_lead_coeff
        quotient[q_exp] = q_c
        for e, dc in den.terms.items():
            e2 = vadd(q_exp, e)
            current[e2] = current.get(e2, 0) - q_c * dc
            if current[e2] == 0:
                del current[e2]
    return LaurentPolynomial(num.nvars, quotient)


def algebraic_mutation(f, w, factor):
    """Mutate f along the weight w with the given orthogonal factor.

    f splits into graded pieces f_h by the pairing <w, exponent> = h; the
    result is sum over h of f_h * factor^h, where negative h demand exact
    divisibility by factor^|h|.  The inverse mutation uses -w with the same
    factor.  Levels beyond MAX_MUTATION_LEVEL raise level_too_large.
    """
    w = to_int_vector(w)
    if len(w) != f.nvars:
        raise DomainError("dimension_mismatch", "weight length differs from nvars")
    if not any(w):
        raise DomainError("zero_vector", "mutation weight must be nonzero")
    if factor.nvars != f.nvars:
        raise DomainError("dimension_mismatch", "factor variable count differs")
    if factor.is_zero():
        raise DomainError("zero_polynomial", "mutation factor must be nonzero")
    for e in factor.terms:
        if dot(w, e) != 0:
            raise DomainError(
                "factor_not_orthogonal", f"factor exponent {e} pairs to {dot(w, e)}"
            )
    levels = {}
    for e, c in f.terms.items():
        h = dot(w, e)
        levels.setdefault(h, {})[e] = c
    if max(map(abs, levels), default=0) > MAX_MUTATION_LEVEL:
        raise DomainError(
            "level_too_large", f"mutation levels capped at {MAX_MUTATION_LEVEL}"
        )
    out = LaurentPolynomial.zero(f.nvars)
    for h in sorted(levels):
        piece = LaurentPolynomial(f.nvars, levels[h])
        if h >= 0:
            out = out + piece * factor ** h
        else:
            quotient = _exact_divide(piece, factor ** (-h))
            if quotient is None:
                raise DomainError(
                    "not_divisible",
                    f"level {h} is not divisible by the factor to the power {-h}",
                )
            out = out + quotient
    return out

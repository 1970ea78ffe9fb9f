"""Integer Laurent polynomials, classical periods and algebraic mutations.

A Laurent polynomial is stored as a dict from exponent tuples to nonzero
integer coefficients.  The classical period is the sequence of constant
terms ct(f^d).  classical_period builds f^k only up to k = ceil(d / 2) and
reads ct(f^(a+b)) = sum_e [f^a]_e * [f^b]_(-e) off pairs of neighbouring
powers.  It first narrows the exponents by unimodular shears, then keeps
each power as lines along one coordinate: a dict from an int that packs
the line's other coordinates and their facet values to one int that holds
the line's coefficients in fixed-width slots (Kronecker substitution both
times), so one int product multiplies two whole lines.  Lines are pruned
by the facets of the hull of f's line prefixes and the origin.
classical_period_naive powers in full and is the oracle.
Mutations are performed by exact division of the graded pieces, inside
the coordinate box that bounds the quotient's exponents.
"""

from itertools import permutations, repeat
from math import prod
from operator import mul, neg

from .errors import DomainError
from .exact import (
    det,
    dot,
    identity_matrix,
    mat_vec,
    solve_linear,
    to_int_vector,
    vadd,
    vsub,
)
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
        if type(other) is int:
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
        products = 0
        for _ in range(k):
            products += len(out.terms) * len(self.terms)
            if products > MAX_POWER_PRODUCTS:
                raise DomainError(
                    "power_too_large",
                    f"powers capped at {MAX_POWER_PRODUCTS} term products",
                )
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

# Most slot products one step of classical_period may form: the slots of
# the power built so far times the slots of f's lines (_slots).
MAX_PERIOD_PRODUCTS = 5 * 10 ** 5

# Most term products one power f^k may form: the terms of f times those of
# f^(j-1), summed over its steps j <= k, counted before each step.  Model
# brackets and mutation factors are raised only through __pow__, and a
# mutation's product f_h * factor^h is held to the same number.
MAX_POWER_PRODUCTS = 2 * 10 ** 5

# Largest |<w, e>| a mutation reaches.  Each level costs one slice of the
# polytope or one power of the factor, so the cap is checked before any.
MAX_MUTATION_LEVEL = 64


def _width(column):
    return max(column) - min(column)


def _ends(column):
    """The positions of the greatest and of the least entries of column."""
    hi, lo = max(column), min(column)
    return (
        [k for k, v in enumerate(column) if v == hi],
        [k for k, v in enumerate(column) if v == lo],
    )


def _shear(x, y, wx, wy, sign):
    """The s of the given sign that minimises the width of x + s * y, and
    that width.

    wx and wy are the widths of x and y, with 0 < wy < 2 * wx.  The width
    is convex in s and at least |s| * wy - wx, so only 0 < |s| < 2 * wx / wy
    can beat s = 0; bisection finds the least width on the given side in
    about log2(wx / wy) steps.
    """

    def width(s):
        s *= sign
        return _width([a + s * b for a, b in zip(x, y)])

    lo, hi = 1, (2 * wx - 1) // wy
    while lo < hi:
        mid = (lo + hi) // 2
        if width(mid + 1) < width(mid):
            lo = mid + 1
        else:
            hi = mid
    return sign * lo, width(lo)


def _reduce_widths(exponents):
    """The exponents after shears col_i += s * col_j that narrow a column.

    Column i of the exponents is coordinate i of every term.  A shear is
    the unimodular change of coordinates e -> e + s * e_j * unit_i, which
    maps every power of f termwise and fixes the exponent 0, so it keeps
    every constant term.  The width of col_i + s * col_j is convex in s;
    its slopes on either side of s = 0 are read off the entries of col_j
    at the ends of col_i, and a pair is sheared (_shear) only on a side
    where the width falls.  A move is made only when it narrows col_i.
    Every move lowers the summed width, so the loop ends, once a whole
    round of pairs has made no move.
    """
    columns = [list(c) for c in zip(*exponents)]
    if not columns:
        return list(exponents)
    widths = [_width(c) for c in columns]
    ends = [_ends(c) for c in columns]
    pairs = list(permutations(range(len(columns)), 2))
    tried = quiet = 0
    while quiet < len(pairs):
        i, j = pairs[tried % len(pairs)]
        tried += 1
        quiet += 1
        if not 0 < widths[j] < 2 * widths[i]:
            continue
        top, bottom = ends[i]
        y = columns[j].__getitem__
        if max(map(y, top)) < min(map(y, bottom)):
            sign = 1
        elif min(map(y, top)) > max(map(y, bottom)):
            sign = -1
        else:
            continue
        s, w = _shear(columns[i], columns[j], widths[i], widths[j], sign)
        if w < widths[i]:
            columns[i] = [a + s * b for a, b in zip(columns[i], columns[j])]
            widths[i] = w
            ends[i] = _ends(columns[i])
            quiet = 0
    return list(zip(*columns))


def _line_axis(exponents):
    """The coordinate along which f's terms form lines, or None.

    Leaving out coordinate i groups the terms into lines by the rest of
    their exponent.  Coordinate i qualifies when it makes at most three
    lines for every four terms and the lines are at least half full: their
    summed spans are at most twice the number of terms.  Of the qualifying
    ones the one with fewest lines wins, then the one with the smaller
    summed span, then the lower index.  None means every line is one slot.
    Lines save products only when they hold several terms each; with
    nearly one term per line, the cap test on a whole line keeps more
    terms than the test on each term would.
    """
    best = None
    for i in range(len(exponents[0])):
        lines = {}
        for e in exponents:
            lines.setdefault(e[:i] + e[i + 1:], []).append(e[i])
        span = sum(_width(z) + 1 for z in lines.values())
        if 4 * len(lines) <= 3 * len(exponents) and span <= 2 * len(exponents):
            best = min(best or (len(lines), span, i), (len(lines), span, i))
    return None if best is None else best[2]


def _packing(prefixes, caps, d_max):
    """Pack the line prefixes of classical_period's powers into single ints.

    Returns (weights, mask, base, step).  key(p) = dot(weights, p) is linear
    in p, so key(p1 + p2) = key(p1) + key(p2), key(-p) = -key(p) and key 0 is
    the line through the constant term.  Its low m*w bits hold the m
    coordinates of p as signed base-2^w digits, which is injective on every
    prefix of f^k for k <= ceil(d_max / 2).  Above them sits one field of
    B = width bits per cap test <a, p> <= r * h, holding <a, p>.  A prefix
    of f^k with at most r further factors passes every test exactly when
    (base + r * step - key) & mask == mask: each field of that difference
    is the slack plus 2^(B-1), kept in [1, 2^B) by the choice of B, and its
    top bit is set exactly when the slack is nonnegative.
    """
    m = len(prefixes[0])
    big = max((abs(x) for p in prefixes for x in p), default=0)
    w = ((d_max + 1) // 2 * big).bit_length() + 1
    low = m * w
    # |<a, p>| <= big * sum |a_i| for a prefix p of f, so every slack is at
    # most d_max * mx in absolute value.
    mx = max((max(h, big * sum(map(abs, a))) for a, h in caps), default=0)
    width = (d_max * mx).bit_length() + 1
    weights = [1 << (w * i) for i in range(m)]
    mask = step = 0
    for j, (a, h) in enumerate(caps):
        shift = low + width * j
        for i in range(m):
            weights[i] += a[i] << shift
        mask += 1 << (shift + width - 1)
        step += h << shift
    return weights, mask, mask + (1 << low >> 1), step


def _next_power(power, terms, cap, mask):
    """The lines of power * f whose prefixes pass the cap test.

    Each prefix key is tested once, when first formed; rejected keys are
    kept so that they are neither accumulated nor tested again.
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
    """The lines of p * q through the constant term, summed: sum over
    prefixes e of p[e] * q[-e], over the smaller."""
    if len(q) < len(p):
        p, q = q, p
    return sum(map(mul, p.values(), map(q.get, map(neg, p), repeat(0))))


def _self_pair(p):
    """_pair(p, p), with each product of opposite lines formed once: key 0
    pairs with itself, and each key k > 0 with -k twice over."""
    half = [key for key in p if key > 0]
    return p.get(0, 0) ** 2 + 2 * sum(
        map(mul, map(p.__getitem__, half), map(p.get, map(neg, half), repeat(0)))
    )


def _slot(line, index, width):
    """Slot index of a line of signed width-bit slots.

    Every slot lies strictly between -2^(width-2) and 2^(width-2), so the
    slots below index sum to less than half a slot of that weight: the bias
    of 2^(width-1) at index and half a unit below it leaves that slot plus
    2^(width-1) in the low width bits of the shifted sum, with no borrow.
    """
    shift = index * width
    half = 1 << (width - 1)
    return (((line + (half << shift) + (1 << shift >> 1)) >> shift) & (2 * half - 1)) - half


def _slots(lines, width):
    """The width-bit slots the lines occupy, each line up to its highest
    nonzero slot: the size of the ints that one step multiplies."""
    return sum(v.bit_length() // width for v in lines) + len(lines)


def _check_period_input(f, d_max):
    if f.is_zero():
        raise DomainError("zero_polynomial", "period of the zero polynomial")
    if type(d_max) is not int or d_max < 0:
        raise DomainError("bad_exponent", "d_max must be a nonnegative integer")


def classical_period(f, d_max):
    """Constant terms of f^0, f^1, ..., f^d_max; equal to naive powering.

    Only the powers P_k = f^k with k <= ceil(d_max / 2) are built.  Once P_k
    is ready it gives ct(f^(2k-1)) = sum_e P_k[e] * P_(k-1)[-e] and, when
    2k <= d_max, ct(f^(2k)) = sum_e P_k[e] * P_k[-e].

    The exponents are first narrowed by unimodular shears (_reduce_widths),
    which keep every constant term.  Then one coordinate z is picked along
    which f's terms fall on few, well-filled lines (_line_axis), and each
    power P_k is a dict from the packed prefix key of a line (its other
    n - 1 coordinates, _packing) to one signed int that holds the line's
    coefficients in W-bit slots, the term with coordinate z in slot
    z - k * z0, where z0 = min(0, least z of f).  Multiplying two lines is
    one int product (Kronecker substitution), exact in int arithmetic.
    A slot of a power or of a pair sum for degree j <= d_max is a sum of
    some of the products that make up one coefficient of |f|^j, so its
    absolute value is at most ||f||_1^d_max < 2^(W-2) for
    W = bitlen(||f||_1^d_max) + 2; the constant term of degree d is slot
    d * -z0 of the pair sum, read through one bias (_slot).  When no
    coordinate qualifies every line is one slot and this is the pruned
    term-by-term product.

    A term e of P_k meets at most r = d_max - k further factors, from later
    powers or from its pairing partner, so it matters only if -e lies in
    j * Newton(f) for some 0 <= j <= r.  That set lies in j * Q, for
    Q = conv(Newton(f) and 0), and so in r * Q, since Q is convex and holds
    0: the cap is -e in r * Q (sound, not sharp).  A term outside the cap
    has only descendants outside the caps of later powers, as
    (r - 1) * Q + Newton(f) lies in r * Q, and a nonzero product
    P_a[e] * P_b[-e] has e in a * Newton(f) and -e in b * Newton(f), hence
    both inside their caps.  Leaving out the line axis maps Q onto the
    prefix hull conv(prefixes of f and 0), so a line meets the cap exactly
    when its prefix p has -p in r times that hull: <a, p> <= r * h for each
    facet <a, x> >= -h, h >= 0, of the hull, read off one conversion.  A
    line that fails holds no point of the cap and is dropped; the cap
    points of a kept line keep exact coefficients while its other slots
    never reach a cap point or the constant term.

    When a functional is 1 on every exponent of f (the affine hull of
    Newton(f) misses the origin), it is k on every term of f^k, so the
    constant terms with k >= 1 are 0.  Depths above MAX_PERIOD_DEPTH raise
    degree_too_large, and a step that would form more than
    MAX_PERIOD_PRODUCTS slot products (the slots of the lines of P_(k-1)
    times those of f, each line counted from its origin to its highest
    nonzero slot: _slots) raises period_too_large before it starts, so the
    int work stays bounded.
    """
    _check_period_input(f, d_max)
    if d_max > MAX_PERIOD_DEPTH:
        raise DomainError(
            "degree_too_large", f"period depth capped at {MAX_PERIOD_DEPTH}"
        )
    exponents = _reduce_widths(list(f.terms))
    out = [1] + [0] * d_max
    if solve_linear(exponents, (1,) * len(exponents)) is not None:
        return tuple(out)
    axis = _line_axis(exponents)
    if axis is None:
        prefixes, zs = exponents, [0] * len(exponents)
    else:
        prefixes = [e[:axis] + e[axis + 1:] for e in exponents]
        zs = [e[axis] for e in exponents]
    # The rays (a, h) of the dual of the cone over (prefixes and 0) x {1}
    # are the facets <a, x> >= -h of the prefix hull.
    m = len(prefixes[0])
    facets, _ = dd_cone([p + (1,) for p in prefixes] + [(0,) * m + (1,)], dim=m + 1)
    caps = [(a[:m], a[m]) for a in facets if any(a[:m])]
    z0 = min(0, *zs)
    span = max(zs) - z0
    width = (sum(map(abs, f.terms.values())) ** d_max).bit_length() + 2
    weights, mask, base, step = _packing(prefixes, caps, d_max)
    lines = {}
    for p, z, c in zip(prefixes, zs, f.terms.values()):
        key = dot(weights, p)
        lines[key] = lines.get(key, 0) + (c << width * (z - z0))
    terms = list(lines.items())
    slots = _slots(lines.values(), width)
    power = {0: 1}
    for k in range(1, (d_max + 1) // 2 + 1):
        # A line of P_(k-1) has at most (k - 1) * span + 1 slots, so the
        # exact count is needed only when that bound is over the cap.
        if (
            len(power) * ((k - 1) * span + 1) * slots > MAX_PERIOD_PRODUCTS
            and _slots(power.values(), width) * slots > MAX_PERIOD_PRODUCTS
        ):
            raise DomainError(
                "period_too_large",
                f"period steps capped at {MAX_PERIOD_PRODUCTS} slot products",
            )
        prev, power = power, _next_power(power, terms, base + (d_max - k) * step, mask)
        out[2 * k - 1] = _slot(_pair(power, prev), (2 * k - 1) * -z0, width)
        if 2 * k <= d_max:
            out[2 * k] = _slot(_self_pair(power), 2 * k * -z0, width)
    return tuple(out)


def classical_period_naive(f, d_max):
    """Reference implementation of the period with no pruning."""
    _check_period_input(f, d_max)
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
    factor.  Levels beyond MAX_MUTATION_LEVEL raise level_too_large, and a
    product f_h * factor^h of more than MAX_POWER_PRODUCTS term products
    raises power_too_large.
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
            power = factor ** h
            if len(piece.terms) * len(power.terms) > MAX_POWER_PRODUCTS:
                raise DomainError(
                    "power_too_large",
                    f"the mutation product of level {h} and the factor's power "
                    f"is capped at {MAX_POWER_PRODUCTS} term products",
                )
            out = out + piece * power
        else:
            quotient = _exact_divide(piece, factor ** (-h))
            if quotient is None:
                raise DomainError(
                    "not_divisible",
                    f"level {h} is not divisible by the factor to the power {-h}",
                )
            out = out + quotient
    return out

import random
import time
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoscaffold import laurent, polyhedra
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import dot
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.laurent import (
    MAX_PERIOD_DEPTH,
    MAX_PERIOD_PRODUCTS,
    MAX_POWER_PRODUCTS,
    LaurentPolynomial,
    _exact_divide,
    _line_axis,
    _reduce_widths,
    algebraic_mutation,
    classical_period,
    classical_period_naive,
    monomial_substitution,
)

from helpers import count_calls, random_unimodular_matrix

L = LaurentPolynomial


def poly(nvars, *terms):
    return L(nvars, {tuple(e): c for e, c in terms})


def test_arithmetic():
    x = L.monomial((1, 0))
    y = L.monomial((0, 1))
    f = (1 + x) * (1 + y)
    assert f.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert (f - f).is_zero()
    g = (1 + x) ** 3
    assert g.terms.get((2, 0), 0) == 3
    assert (x * y).terms.get((1, 1), 0) == 1
    inv = L.monomial((-1, -1))
    assert (x * y * inv).constant_term() == 1
    assert (2 * x - x - x).is_zero()


def test_coefficients_must_be_integers():
    from fractions import Fraction

    with pytest.raises(DomainError):
        L(1, {(0,): Fraction(1, 2)})


def test_newton_polytope():
    f = poly(2, ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))
    p = f.newton_polytope()
    assert set(p.vertices) == {(1, 0), (0, 1), (-1, -1)}
    with pytest.raises(DomainError) as ei:
        L.zero(2).newton_polytope()
    assert ei.value.kind == "zero_polynomial"


def test_period_p2():
    # x + y + 1/(xy): period coefficients (3d)!/(d!)^3 at steps 3d.
    f = poly(2, ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))
    assert classical_period(f, 6) == (1, 0, 0, 6, 0, 0, 90)
    assert classical_period_naive(f, 6) == (1, 0, 0, 6, 0, 0, 90)


def test_period_pruned_equals_naive():
    rng = random.Random(4242)
    for _ in range(8):
        n = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randint(3, 6)):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[e] = rng.randint(-3, 3)
        f = L(n, terms)
        if f.is_zero():
            continue
        assert classical_period(f, 5) == classical_period_naive(f, 5)
    # Newton polytope without the origin inside is still handled.
    g = poly(1, ((0,), 1), ((1,), 1))
    assert classical_period(g, 4) == classical_period_naive(g, 4) == (1, 1, 1, 1, 1)


@st.composite
def small_laurent(draw, n=None):
    """1-6 terms in n variables (up to 4 if not given), coefficients in +-3
    so that terms of powers cancel; a third lie on a hyperplane (last
    exponent 0 or 1), so the Newton polytope has equations, through the
    origin or not."""
    if n is None:
        n = draw(st.integers(1, 4))
    level = draw(st.sampled_from([None, None, None, None, 0, 1]))
    exponent = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    terms = {}
    for e in draw(st.lists(exponent, min_size=1, max_size=6)):
        if level is not None:
            e[-1] = level
        terms[tuple(e)] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return L(n, terms)


@settings(max_examples=200, deadline=None)
@given(small_laurent(), st.integers(0, 7))
def test_period_equals_naive(f, d):
    assert classical_period(f, d) == classical_period_naive(f, d)


@settings(max_examples=150, deadline=None)
@given(small_laurent(), st.integers(0, 7), st.randoms(use_true_random=False))
def test_period_after_a_skewing_substitution_equals_naive(f, d, rng):
    # Twelve random shears, swaps and sign flips spread the exponents; the
    # period narrows them again before it packs lines.
    g = monomial_substitution(f, random_unimodular_matrix(f.nvars, rng, steps=12))
    assert classical_period(g, d) == classical_period_naive(g, d)


@settings(max_examples=100, deadline=None)
@given(small_laurent(), st.integers(0, 6), st.data())
def test_period_with_huge_coefficients_equals_naive(f, d, data):
    # Mixed signs of magnitude at least 2^64: every slot of a line is a
    # signed number far wider than a machine word.
    g = L(f.nvars, {e: c * data.draw(st.integers(2**64, 2**80)) for e, c in f.terms.items()})
    assert classical_period(g, d) == classical_period_naive(g, d)


def test_huge_coefficients_on_lines():
    a, b = 3**45, 2**70 + 1
    f = poly(2, ((1, 0), a), ((-1, 0), -b), ((0, 1), -a), ((0, -1), b), ((0, 0), -(2**64)))
    assert _line_axis(_reduce_widths(list(f.terms))) is not None
    assert classical_period(f, 10) == classical_period_naive(f, 10)


@pytest.mark.parametrize("nvars, terms, lines", [
    (1, {(1,): 1, (-1,): 1}, True),
    (1, {(1,): 2, (0,): -1, (-2,): 3}, True),
    (1, {(40,): 1, (-40,): 1}, False),
    (1, {(40,): 1, (0,): 3, (-40,): -2}, False),
    (1, {(40,): 1, (-1,): 5}, False),
    (2, {(40, 0): 1, (-40, 0): 1, (0, 40): 1, (0, -40): 1}, False),
    (2, {(40, 0): 1, (-40, 0): 1, (0, 1): 1, (0, -1): 1}, True),
    (2, {(40, 1): 2, (-40, 1): 1, (0, -1): -1, (1, 0): 1}, False),
])
def test_one_variable_and_wide_gaps(nvars, terms, lines):
    # A line is packed only when f's terms fill at least half its slots;
    # x^40 + x^-40 would fill 2 of 81, so each line is one slot.  With
    # y + 1/y beside it the lines run along y instead.
    f = L(nvars, terms)
    assert (_line_axis(_reduce_widths(list(f.terms))) is not None) == lines
    assert classical_period(f, 8) == classical_period_naive(f, 8)


def test_period_in_no_variables():
    f = L(0, {(): 3})
    assert classical_period(f, 3) == classical_period_naive(f, 3) == (1, 3, 9, 27)
    assert classical_period(f, 0) == (1,)


def test_period_of_exponents_near_a_trillion():
    # Two shears by about 10^12 hide a five-term model; the greedy shears
    # take them out again in a few moves.
    t = 10**12
    f = poly(2, ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1), ((-1, 0), 1))
    g = monomial_substitution(f, ((1, t), (0, 1)))
    g = monomial_substitution(g, ((1, 0), (t + 1, 1)))
    assert all(max(map(abs, e)) > t for e in g.terms)
    expected = classical_period_naive(f, 14)
    start = time.perf_counter()
    assert classical_period(g, 14) == expected
    assert time.perf_counter() - start < 1
    assert all(max(c) - min(c) <= 2 for c in zip(*_reduce_widths(list(g.terms))))


@pytest.mark.parametrize("name, depth, skew, work", [
    # circulant-three at its benchmark depth, skewed by a fixed unimodular
    # matrix: the shears undo the skew and the lines along either
    # coordinate hold five terms on average.  With every line one slot the
    # same steps form 61,175 products.
    ("circulant-three", 16, ((3, 7), (2, 5)), 870),
    # shifted-fourfold's lines in four variables: tested against only the
    # 4 of the prefix hull's 6 facets that are images of cap facets
    # parallel to the line axis, 1,210.
    ("shifted-fourfold", 12, None, 1185),
])
def test_period_work_is_pinned(monkeypatch, name, depth, skew, work):
    f = fixture(name)["laurent"]
    g = f if skew is None else monomial_substitution(f, skew)
    expected = classical_period(f, depth)
    products = count_calls(
        monkeypatch, "_next_power", laurent,
        record=lambda power, terms, *_: len(power) * len(terms),
    )
    assert classical_period(g, depth) == expected
    assert sum(products) == work


def assert_cap_tests_are_hull_facets(packed):
    # Each cap test (a, h) of a call, <a, p> <= r * h, must be a facet
    # <a, x> >= -h of conv(prefixes and 0) with a != 0, and each facet
    # must come once: the tight sets of the tests are those of the hull's
    # facets (the inequalities of Polytope.from_points that are tight at
    # some but not all points; a hull in no coordinates has none).
    for prefixes, caps in packed:
        points = sorted(set(prefixes) | {(0,) * len(prefixes[0])})
        got = []
        for a, h in caps:
            slack = [dot(a, p) + h for p in points]
            assert any(a) and h >= 0 and min(slack) == 0 < max(slack)
            got.append(frozenset(i for i, v in enumerate(slack) if v == 0))
        facets = set()
        if points[0]:
            for a, rhs in polyhedra.Polytope.from_points(points).inequalities:
                tight = frozenset(i for i, p in enumerate(points) if dot(a, p) == rhs)
                if 0 < len(tight) < len(points):
                    facets.add(tight)
        assert len(got) == len(set(got)) and set(got) == facets


def record_cap_tests(monkeypatch):
    return count_calls(
        monkeypatch, "_packing", laurent, record=lambda prefixes, caps, _: (prefixes, caps)
    )


def test_cap_tests_of_the_corpus_are_hull_facets(monkeypatch):
    packed = record_cap_tests(monkeypatch)
    names = [name for name in fixture_names() if "laurent" in fixture(name)]
    for name in names:
        classical_period(fixture(name)["laurent"], 6)
    assert len(packed) == len(names)
    assert_cap_tests_are_hull_facets(packed)


@settings(max_examples=150, deadline=None)
@given(small_laurent(), st.randoms(use_true_random=False))
def test_cap_tests_are_hull_facets(f, rng):
    g = monomial_substitution(f, random_unimodular_matrix(f.nvars, rng))
    with pytest.MonkeyPatch.context() as monkeypatch:
        packed = record_cap_tests(monkeypatch)
        classical_period(f, 4)
        classical_period(g, 4)
    assert_cap_tests_are_hull_facets(packed)


def closed_form_period(d, step, coeff):
    """Period that is coeff(m) at degree step * m and 0 elsewhere."""
    return tuple(coeff(k // step) if k % step == 0 else 0 for k in range(d + 1))


def test_period_deep_closed_forms():
    # x + y + 1/(xy): (3m)!/(m!)^3 at degree 3m.
    p2 = poly(2, ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))
    assert classical_period(p2, 30) == closed_form_period(
        30, 3, lambda m: factorial(3 * m) // factorial(m) ** 3
    )
    # x + y + z + 1/(xyz): (4m)!/(m!)^4 at degree 4m.
    p3 = poly(3, ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1))
    assert classical_period(p3, 24) == closed_form_period(
        24, 4, lambda m: factorial(4 * m) // factorial(m) ** 4
    )
    # x + 1/x + y + 1/y: C(2m, m)^2 at degree 2m.
    p1p1 = poly(2, ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1))
    assert classical_period(p1p1, 30) == closed_form_period(
        30, 2, lambda m: comb(2 * m, m) ** 2
    )


def test_period_depth_cap():
    f = poly(2, ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1))
    coeffs = classical_period(f, MAX_PERIOD_DEPTH)
    assert MAX_PERIOD_DEPTH == 64
    assert coeffs[64] == comb(64, 32) ** 2 and coeffs[63] == 0
    with pytest.raises(DomainError) as ei:
        classical_period(f, MAX_PERIOD_DEPTH + 1)
    assert ei.value.kind == "degree_too_large"


def test_period_work_cap():
    # The 1331 points of the box [-5, 5]^3: one step forms 1331 products,
    # and a second would form 1331^2 > 5 * 10^5, so it raises before it
    # starts.
    box = poly(3, *((e, 1) for e in product(range(-5, 6), repeat=3)))
    assert MAX_PERIOD_PRODUCTS == 5 * 10**5
    assert classical_period(box, 2) == (1, 1, 1331)
    with pytest.raises(DomainError) as ei:
        classical_period(box, 3)
    assert ei.value.kind == "period_too_large"


def test_power_work_cap():
    # (1 + x + y)^k forms k(k+1)(k+2)/2 term products: 194,472 for k = 72,
    # while k = 73 would take the total to 202,575 > 2 * 10^5 and raises.
    f = poly(2, ((0, 0), 1), ((1, 0), 1), ((0, 1), 1))
    assert MAX_POWER_PRODUCTS == 2 * 10**5
    assert len((f ** 72).terms) == 73 * 74 // 2
    with pytest.raises(DomainError) as ei:
        f ** 73
    assert ei.value.kind == "power_too_large"


@pytest.mark.parametrize("h", [8, 64])
def test_mutation_factor_power_is_capped(h):
    # The factor is the 121 lattice points of [0, 10]^2 at z = 0: the
    # mutation took 3 s at h = 8 and, by extrapolation, half an hour at
    # h = 64.  The 5th step of the power would take it over the cap, so it
    # raises after about 0.3 s.
    factor = L(3, {(i, j, 0): 1 for i in range(11) for j in range(11)})
    f = poly(3, ((0, 0, h), 1), ((1, 0, 0), 1))
    start = time.perf_counter()
    with pytest.raises(DomainError) as ei:
        algebraic_mutation(f, (0, 0, 1), factor)
    assert ei.value.kind == "power_too_large"
    assert time.perf_counter() - start < 2


def test_mutation_product_is_capped():
    # The level z^4 has the 961 points of [0, 30]^2 and the factor's 4th
    # power the 1,681 of [0, 40]^2, which formed 1.6 * 10^6 term products
    # in 1.5 s; the power stays under the cap, the product does not.
    factor = L(3, {(i, j, 0): 1 for i in range(11) for j in range(11)})
    f = L(3, {(i, j, 4): 1 for i in range(31) for j in range(31)}) + L.monomial((1, 0, 0))
    start = time.perf_counter()
    with pytest.raises(DomainError) as ei:
        algebraic_mutation(f, (0, 0, 1), factor)
    assert ei.value.kind == "power_too_large"
    assert "mutation product" in ei.value.detail
    assert time.perf_counter() - start < 2


def test_period_zero_error():
    with pytest.raises(DomainError) as ei:
        classical_period(L.zero(2), 3)
    assert ei.value.kind == "zero_polynomial"


def test_substitution_invariance():
    f = poly(2, ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))
    rng = random.Random(99)
    for _ in range(10):
        u = random_unimodular_matrix(2, rng)
        g = monomial_substitution(f, u)
        assert classical_period(g, 6) == classical_period(f, 6)
    with pytest.raises(DomainError) as ei:
        monomial_substitution(f, ((2, 0), (0, 1)))
    assert ei.value.kind == "not_unimodular"


def test_mutation_round_trip():
    # f = (1+y)/x + 1 + x mutates along w=(1,0) with factor 1+y.
    x = L.monomial((1, 0))
    y = L.monomial((0, 1))
    xinv = L.monomial((-1, 0))
    f = xinv * (1 + y) + 1 + x
    factor = 1 + y
    g = algebraic_mutation(f, (1, 0), factor)
    assert g == xinv + 1 + x * (1 + y)
    back = algebraic_mutation(g, (-1, 0), factor)
    assert back == f


def test_mutation_not_divisible():
    x = L.monomial((1, 0))
    y = L.monomial((0, 1))
    xinv = L.monomial((-1, 0))
    f = xinv + 1 + x * (1 + y) ** 2
    with pytest.raises(DomainError) as ei:
        algebraic_mutation(f, (1, 0), 1 + y)
    assert ei.value.kind == "not_divisible"
    assert "-1" in ei.value.detail
    # The other direction is fine: the negative piece is x(1+y)^2.
    g = algebraic_mutation(f, (-1, 0), 1 + y)
    assert g == xinv * (1 + y) + 1 + x * (1 + y)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[small_laurent(n)] * 3)))
def test_exact_divide(polys):
    q, den, num = polys
    assert _exact_divide(q * den, den) == q
    quotient = _exact_divide(num, den)
    assert quotient is None or quotient * den == num


def test_mutation_quotient_box_is_capped():
    # The level -1 piece x^-1 (1 + y)(1 + y^N) divides by 1 + y, but the
    # coordinate box of its quotient holds N + 1 > 10^6 points.
    x = L.monomial((1, 0))
    y = L.monomial((0, 1))
    xinv = L.monomial((-1, 0))
    f = xinv * (1 + y) * (1 + L.monomial((0, 2 * 10**6))) + 1 + x
    with pytest.raises(DomainError) as ei:
        algebraic_mutation(f, (1, 0), 1 + y)
    assert ei.value.kind == "lattice_box_too_large"
    assert "2000001" in ei.value.detail


def test_mutation_makes_no_conversions(monkeypatch):
    # Every model of the period-depth benchmark corpus, along every weight
    # w and factor 1 + x^v with entries in [-2, 2] ([-1, 1] in four
    # variables), which includes every mutation in the benchmark's
    # reference data: exact division is bounded by a coordinate box, not
    # by a Newton polytope.  Every conversion, through dd_cone or a
    # Polytope constructor, goes through polyhedra._dd_core.
    calls = []
    dd_core = polyhedra._dd_core

    def counted(*args, **kwargs):
        calls.append(args)
        return dd_core(*args, **kwargs)

    models = [
        fixture(name)["laurent"]
        for name in (
            "circulant-three", "circulant-two", "cubic-surface", "dp6-squares",
            "dp6-triangles", "projective-bundle", "rank-three-threefold",
            "shifted-fourfold",
        )
    ]
    monkeypatch.setattr(polyhedra, "_dd_core", counted)
    mutated = 0
    for f in models:
        n = f.nvars
        entries = range(-2, 3) if n <= 3 else range(-1, 2)
        vectors = [v for v in product(entries, repeat=n) if any(v)]
        for w in vectors:
            for v in vectors:
                if dot(w, v):
                    continue
                try:
                    g = algebraic_mutation(f, w, L(n, {(0,) * n: 1, v: 1}))
                except DomainError as err:
                    assert err.kind == "not_divisible"
                    continue
                mutated += g != f
    assert mutated and calls == []


def test_mutation_factor_orthogonality():
    f = L.monomial((1, 0)) + L.monomial((-1, 0))
    with pytest.raises(DomainError) as ei:
        algebraic_mutation(f, (1, 0), 1 + L.monomial((1, 0)))
    assert ei.value.kind == "factor_not_orthogonal"


def test_mutation_preserves_period():
    x = L.monomial((1, 0))
    y = L.monomial((0, 1))
    xinv = L.monomial((-1, 0))
    f = xinv * (1 + y) + 1 + x
    g = algebraic_mutation(f, (1, 0), 1 + y)
    assert classical_period(f, 8) == classical_period(g, 8)

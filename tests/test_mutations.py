from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoscaffold import polyhedra
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import kernel_basis
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.laurent import MAX_MUTATION_LEVEL, LaurentPolynomial, algebraic_mutation
from fanoscaffold.mutations import (
    mutate_polytope,
    mutate_scaffolding,
    mutate_shape,
    segment_factor,
    strut_mutability,
)
from fanoscaffold.polyhedra import Fan, Polytope, lattice_isomorphic, normal_fan
from fanoscaffold.scaffolding import (
    Scaffolding,
    Strut,
    product_fan,
    scaffolding_from_forward,
    strut_polytope,
    validate_scaffolding,
)
from fanoscaffold.toric import GitData

from helpers import count_calls, mutate_polytope_per_level


def hexagon():
    return Polytope.from_points(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    )


def square():
    return Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def vertical_unit():
    return Polytope.from_points([(0, 0), (0, 1)])


def dp6_square_scaffolding():
    shape = product_fan([(0,), (1,)])
    struts = [Strut((0, 1, 0, 1)), Strut((1, 0, 1, 0))]
    return Scaffolding(shape, 0, struts, hexagon())


def quintic_scaffolding():
    # Five struts on the fan of the degree-7 del Pezzo surface; each one
    # doubles the coefficient on a single ray on top of the all-ones divisor.
    base = Polytope.from_points([(0, 1), (-1, 1), (-1, 0), (0, -1), (2, -1)])
    shape = normal_fan(base)
    struts = [
        Strut(tuple(1 + (1 if k == b else 0) for k in range(5)))
        for b in range(5)
    ]
    target = Polytope.from_points(
        [(-1, 2), (1, 1), (3, -1), (3, -2), (1, -2), (-1, -1), (-2, 1)]
    )
    return Scaffolding(shape, 0, struts, target)


def cubic_scaffolding():
    git = GitData(1, 4, [(1,), (1,), (1,), (1,)], (1,))
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    return scaffolding_from_forward(git, part)


def test_hexagon_mutates_to_pentagon():
    result = mutate_polytope(hexagon(), (1, 0), vertical_unit())
    assert result.vertices == (
        (-1, 0),
        (0, -1),
        (0, 1),
        (1, -1),
        (1, 1),
    )
    other = Polytope.from_points([(-1, 1), (1, 1), (1, 0), (0, -1), (-1, 0)])
    assert lattice_isomorphic(result, other) is not None


def test_inverse_weight_restores_the_hexagon():
    factor = vertical_unit()
    pentagon = mutate_polytope(hexagon(), (1, 0), factor)
    back = mutate_polytope(pentagon, (-1, 0), factor)
    assert back == hexagon()


def test_origin_factor_is_the_identity():
    origin = Polytope.from_points([(0, 0)])
    assert mutate_polytope(square(), (1, 0), origin) == square()


def test_point_factor_shears():
    point = Polytope.from_points([(0, 1)])
    result = mutate_polytope(square(), (1, 0), point)
    assert result == Polytope.from_points([(-1, -2), (-1, 0), (1, 0), (1, 2)])


def test_wide_factor_turns_square_into_triangle():
    # The level -1 slice has lattice length two, so it sheds the length-two
    # factor exactly and leaves a single point.
    factor = Polytope.from_points([(0, 0), (0, 2)])
    result = mutate_polytope(square(), (1, 0), factor)
    assert result == Polytope.from_points([(-1, -1), (1, -1), (1, 3)])


def test_too_wide_factor_fails():
    factor = Polytope.from_points([(0, 0), (0, 3)])
    with pytest.raises(DomainError) as exc:
        mutate_polytope(square(), (1, 0), factor)
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "summand failure at level -1"


def test_point_slice_cannot_shed_a_segment():
    diamond = Polytope.from_points([(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(DomainError) as exc:
        mutate_polytope(diamond, (1, 0), vertical_unit())
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "summand failure at level -1"


def test_mutation_data_is_validated():
    with pytest.raises(DomainError) as exc:
        mutate_polytope(square(), (0, 0), vertical_unit())
    assert exc.value.kind == "zero_vector"

    with pytest.raises(DomainError) as exc:
        mutate_polytope(square(), (1, 0, 0), vertical_unit())
    assert exc.value.kind == "dimension_mismatch"

    slanted = Polytope.from_points([(0, 0), (1, 1)])
    with pytest.raises(DomainError) as exc:
        mutate_polytope(square(), (1, 0), slanted)
    assert exc.value.kind == "factor_not_orthogonal"

    half = Polytope.from_points([(0, 0), (0, Fraction(1, 2))])
    with pytest.raises(DomainError) as exc:
        mutate_polytope(square(), (1, 0), half)
    assert exc.value.kind == "not_lattice"


def test_mutation_levels_are_capped():
    top = MAX_MUTATION_LEVEL
    factor = LaurentPolynomial.one(2) + LaurentPolynomial.monomial((0, 1))
    segment = Polytope.from_points([(0, 0), (top, 0)])
    assert mutate_polytope(segment, (1, 0), vertical_unit()) == Polytope.from_points(
        [(0, 0), (top, 0), (top, top)])
    x_top = LaurentPolynomial.monomial((top, 0))
    assert algebraic_mutation(x_top, (1, 0), factor) == x_top * factor ** top
    # Both directions are checked before any slice or power is formed.
    for h in (top + 1, -top - 1):
        with pytest.raises(DomainError) as exc:
            mutate_polytope(Polytope.from_points([(0, 0), (h, 0)]), (1, 0), vertical_unit())
        assert exc.value.kind == "level_too_large"
        with pytest.raises(DomainError) as exc:
            algebraic_mutation(LaurentPolynomial.monomial((h, 0)), (1, 0), factor)
        assert exc.value.kind == "level_too_large"


def test_shape_transport_gives_hirzebruch_fan():
    shape = product_fan([(0,), (1,)])
    moved = mutate_shape(shape, (1, 0), vertical_unit(), 0)
    assert moved.rays == ((-1, 0), (0, 1), (1, -1), (1, 0))
    assert moved.is_complete()


def test_shape_transport_detects_crease():
    # Two cones of the product fan straddle the crease of this transport,
    # so the images of the rays no longer span a complete fan.
    shape = product_fan([(0,), (1,)])
    factor = Polytope.from_points([(0, 0), (1, -1)])
    with pytest.raises(DomainError) as exc:
        mutate_shape(shape, (1, 1), factor, 0)
    assert exc.value.kind == "not_mutable"
    assert "not complete" in exc.value.detail


def test_mutate_scaffolding_rejects_a_folded_shape():
    # The transported P^2 fan has the rays (0, 1), (1, -3) and (1, 0), all
    # in the half plane x >= 0: every ridge lies on two cones, but the two
    # cones on (0, 1) lie on the same side of it.  Before ridges were
    # checked for sides, the point strut's sections polytope on that fan
    # raised unbounded.
    shape = product_fan([(0, 1)])
    scaf = Scaffolding(shape, 0, [Strut((0, 0, 0))], Polytope.from_points([(0, 0)]))
    factor = Polytope.from_points([(0, 0), (1, 1)])
    for mutate in (mutate_scaffolding, lambda s, w, f: mutate_shape(s.shape, w, f, 0)):
        with pytest.raises(DomainError) as exc:
            mutate(scaf, (1, -1), factor)
        assert (exc.value.kind, exc.value.detail) == (
            "not_mutable", "transported shape fan is not complete")


def test_mutate_scaffolding_passes_on_a_strut_error_of_another_kind():
    # The target triangle is a lattice polygon, but the strut's piece has
    # the vertex (-1, 1/2), so mutating it raises not_lattice, unchanged.
    fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    target = Polytope.from_points([(-1, 0), (-1, 1), (0, 0)])
    scaf = Scaffolding(fan, 0, [Strut((0, 0, 1))], target)
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (0, 1), segment_factor((0, 1)))
    assert (exc.value.kind, exc.value.detail) == (
        "not_lattice", "mutation needs a lattice polytope")


def test_mutate_scaffolding_dp6_squares():
    moved = mutate_scaffolding(dp6_square_scaffolding(), (1, 0), vertical_unit())
    assert moved.shape.rays == ((-1, 0), (0, 1), (1, -1), (1, 0))
    assert [s.coeffs for s in moved.struts] == [(0, 0, 1, 1), (1, 1, 0, 0)]
    assert all(s.chi == () for s in moved.struts)
    assert moved.target.vertices == ((-1, 0), (0, -1), (0, 1), (1, -1), (1, 1))
    ok, report = validate_scaffolding(moved)
    assert ok, report["failures"]


def test_mutate_scaffolding_identity():
    scaf = dp6_square_scaffolding()
    origin = Polytope.from_points([(0, 0)])
    moved = mutate_scaffolding(scaf, (1, 0), origin)
    assert moved.shape == scaf.shape
    assert [s.coeffs for s in moved.struts] == [s.coeffs for s in scaf.struts]
    assert moved.target == scaf.target


def test_mutate_scaffolding_round_trip():
    scaf = dp6_square_scaffolding()
    factor = vertical_unit()
    moved = mutate_scaffolding(scaf, (1, 0), factor)
    back = mutate_scaffolding(moved, (-1, 0), factor)
    assert back.shape == scaf.shape
    assert [s.coeffs for s in back.struts] == [s.coeffs for s in scaf.struts]
    assert [s.chi for s in back.struts] == [s.chi for s in scaf.struts]
    assert back.target == scaf.target


def test_mutate_scaffolding_reports_failing_strut():
    # The hull is wide enough to mutate but the first strut has a short
    # slice at level -2.
    shape = product_fan([(0,), (1,)])
    struts = [Strut((0, 1, 0, 2)), Strut((2, 0, 1, 0)), Strut((0, 1, 1, 2))]
    target = Polytope.from_points(
        [(-2, 1), (0, 1), (2, 0), (2, -1), (-2, -1)]
    )
    scaf = Scaffolding(shape, 0, struts, target)
    ok, _ = validate_scaffolding(scaf)
    assert ok
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (1, 0), vertical_unit())
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "strut 0: summand failure at level -2"


def test_mutate_scaffolding_rejects_a_strut_that_leaves_its_shift():
    # The factor moves along the shift coordinate, so the strut {0} x [0, 1]
    # on the P^1 fan gains points with shift 1 at its level 1.
    p1 = Fan(1, [(1,), (-1,)], [(0,), (1,)])
    struts = [Strut((1, 0), (0,)), Strut((0, 0), (1,))]
    target = Polytope.from_points([(0, 0), (0, 1), (1, 0)])
    scaf = Scaffolding(p1, 1, struts, target)
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (0, 1), Polytope.from_points([(0, 0), (1, 0)]))
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "strut 0 loses its single shift"


def test_mutate_scaffolding_rejects_a_strut_off_the_moved_shape():
    # The point strut sits at level 2 through its shift alone, so it grows
    # into the segment from (0, 0) to (0, 2) in the shape coordinates, which
    # is not a sections polytope of the transported P^2 fan.
    shape = product_fan([(0, 1)])
    point = Polytope.from_points([(-2, 0, 0)])
    scaf = Scaffolding(shape, 1, [Strut((0, 0, 0), (-2,))], point)
    factor = Polytope.from_points([(0, 0, 0), (0, 0, 1)])
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (-1, -1, 0), factor)
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "strut 0 is not a sections polytope"


def test_mutate_scaffolding_reports_the_failed_validation():
    # The dp6 struts do not fill the square, and their moved pieces do not
    # fill the moved square either.
    scaf = dp6_square_scaffolding()
    scaf = Scaffolding(scaf.shape, 0, scaf.struts, square())
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (1, 0), vertical_unit())
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "strut hull differs from the target"


def test_mutate_scaffolding_checks_the_shape_before_slicing_the_target(monkeypatch):
    # w = (1, 0) folds the ray (-1, -1) of the P^2 fan onto (0, -1), so the
    # transported fan is not complete; the target triangle spans 7 levels.
    shape = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    target = Polytope.from_points([(-2, -2), (4, -2), (-2, 4)])
    scaf = Scaffolding(shape, 0, [Strut((2, 2, 2))], target)
    assert validate_scaffolding(scaf)[0]
    factor = segment_factor((1, 0))
    calls = count_calls(monkeypatch, "_dd_core", polyhedra)
    with pytest.raises(DomainError):
        mutate_shape(shape, (1, 0), factor, 0)
    transport = len(calls)
    del calls[:]
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (1, 0), factor)
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "transported shape fan is not complete"
    # The failed transport's own cone conversions are all there is.
    assert len(calls) == transport
    # The data checks still come first: this wider triangle reaches level
    # 80 and its transport fails as well.
    wide = Polytope.from_points([(-40, -40), (80, -40), (-40, 80)])
    wide_scaf = Scaffolding(shape, 0, [Strut((40, 40, 40))], wide)
    del calls[:]
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(wide_scaf, (1, 0), factor)
    assert exc.value.kind == "level_too_large"
    assert calls == []
    # A transport that succeeds: 4 cones to check the moved shape and 4 to
    # mutate the hexagon (see below).  Each strut takes 3: the sections
    # polytope of its piece, the piece's hull and the sections polytope
    # that checks the moved piece.  The square on levels -1 and 0 mutates
    # with 3 conversions, the one on levels 0 and 1 with 1.  The
    # validation rebuilds no piece and takes 1 hull.
    dp6 = dp6_square_scaffolding()
    unit = vertical_unit()
    del calls[:]
    mutate_scaffolding(dp6, (1, 0), unit)
    assert len(calls) == 4 + 4 + 2 * 3 + 3 + 1 + 1


def test_mutation_conversions_read_the_polytope(monkeypatch):
    # The levels 0 to 2 of the triangle take no slice: level 0 is its left
    # edge, read off its vertices, and above it the vertex (2, 0) moves
    # along twice the factor.  The one conversion is the hull.
    triangle = Polytope.from_points([(0, 0), (2, 0), (0, 2)])
    hexa = hexagon()
    unit = vertical_unit()
    calls = count_calls(monkeypatch, "_dd_core", polyhedra)
    result = mutate_polytope(triangle, (1, 0), unit)
    assert result.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert len(calls) == 1
    # The hexagon's level -1 is its left edge: one conversion erodes it
    # and one adds the factor back.  Level 0 is a slice, and then the hull.
    del calls[:]
    mutate_polytope(hexa, (1, 0), unit)
    assert len(calls) == 2 + 1 + 1


@st.composite
def mutation_data(draw):
    """A lattice polytope in dims 2-4 with a weight and a factor.

    Half the polytopes lie in the hyperplane x_n = 0, so they have an
    equation.  The factor is the hull of 1-3 small combinations of a
    lattice basis of the weight's kernel.
    """
    n = draw(st.integers(2, 4))
    flat = draw(st.booleans())
    coords = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coords] * (n - flat)), min_size=1, max_size=7))
    polytope = Polytope.from_points([p + (0,) * flat for p in pts])
    w = draw(st.tuples(*[coords] * n).filter(any))
    basis = kernel_basis([w], ncols=n)
    steps = st.tuples(*[st.integers(-1, 1)] * len(basis))
    combos = draw(st.lists(steps, min_size=1, max_size=3))
    factor = [tuple(sum(c * b[k] for c, b in zip(combo, basis)) for k in range(n))
              for combo in combos]
    return polytope, w, Polytope.from_points(factor)


def outcome(mutate, polytope, w, factor):
    try:
        return mutate(polytope, w, factor).vertices
    except DomainError as exc:
        return exc.kind, exc.detail


@settings(max_examples=300, deadline=None)
@given(mutation_data())
def test_mutation_against_the_per_level_oracle(data):
    # The same vertices, or the same error kind and detail.
    assert outcome(mutate_polytope, *data) == outcome(mutate_polytope_per_level, *data)


def test_segment_factor():
    assert segment_factor((1, 0)) == vertical_unit()
    assert segment_factor((1, 1)) == Polytope.from_points([(0, 0), (1, -1)])
    with pytest.raises(DomainError) as exc:
        segment_factor((0, 0))
    assert exc.value.kind == "zero_vector"
    with pytest.raises(DomainError) as exc:
        segment_factor((1, 0, 0))
    assert exc.value.kind == "unsupported_dimension"


def test_strut_mutability_quintic():
    scaf = quintic_scaffolding()
    ok, report = validate_scaffolding(scaf)
    assert ok, report["failures"]
    assert scaf.target.is_lattice() and scaf.target.has_interior_origin()
    good, table = strut_mutability(scaf, [(0, 1), (-1, -1)])
    assert good
    assert table == ((True, True),) * 5


def test_strut_mutability_quintic_bad_weight():
    # Doubling the coefficient on the ray (1, 0) pushes that strut two
    # steps out, where the slice is a single vertex.
    scaf = quintic_scaffolding()
    good, table = strut_mutability(scaf, [(1, 0)])
    assert not good
    assert table[3] == (False,)


def test_strut_mutability_cubic_mixed():
    scaf = cubic_scaffolding()
    good, table = strut_mutability(scaf, [(1, 0), (1, 1)])
    assert not good
    assert table == ((True, False),)


def test_strut_mutability_point_strut_is_vacuous():
    shape = product_fan([(0,), (1,)])
    struts = [Strut((0, 1, 0, 1)), Strut((1, 0, 1, 0)), Strut((0, 0, 0, 0))]
    scaf = Scaffolding(shape, 0, struts, hexagon())
    good, table = strut_mutability(scaf, [(1, 0)])
    assert good
    assert table == ((True,), (True,), (True,))


def test_strut_mutability_passes_a_strut_with_no_sections():
    # The divisor -1 on every ray of P^1 x P^1 has no sections, so its row
    # holds True for every weight, like a point strut's.
    shape = product_fan([(0,), (1,)])
    struts = [Strut((0, 1, 0, 1)), Strut((1, 0, 1, 0)), Strut((-1, -1, -1, -1))]
    scaf = Scaffolding(shape, 0, struts, hexagon())
    assert strut_polytope(scaf, 2) is None
    assert strut_mutability(scaf, [(1, 0), (1, 1)]) == (
        False, ((True, False), (True, False), (True, True)))


def test_strut_mutability_raises_in_the_order_of_its_loop():
    # The strut's piece has the vertex (-1, 1/2), so mutating it by the
    # first weight raises before the second weight's factor is built.
    fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    piece = Polytope.from_points([(-1, 0), (-1, Fraction(1, 2)), (0, 0)])
    scaf = Scaffolding(fan, 0, [Strut((0, 0, 1))], piece)
    for weights, kind in (([(1, 0), (0, 0)], "not_lattice"),
                          ([(0, 0), (1, 0)], "zero_vector")):
        with pytest.raises(DomainError) as exc:
            strut_mutability(scaf, weights)
        assert exc.value.kind == kind


def test_newton_polytope_tracks_algebraic_mutation():
    x = LaurentPolynomial.monomial((1, 0))
    y = LaurentPolynomial.monomial((0, 1))
    one = LaurentPolynomial.monomial((0, 0))
    inv_xy = LaurentPolynomial.monomial((-1, -1))
    f = (one + x) ** 2 * (one + y) ** 2 * inv_xy
    assert f.newton_polytope() == square()
    g = algebraic_mutation(f, (1, 0), one + y)
    assert g.newton_polytope() == mutate_polytope(square(), (1, 0), vertical_unit())

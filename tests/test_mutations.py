from fractions import Fraction

import pytest

from fanoscaffold import mutations, polyhedra
from fanoscaffold.errors import DomainError
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.laurent import MAX_MUTATION_LEVEL, LaurentPolynomial, algebraic_mutation
from fanoscaffold.mutations import (
    _slice_at_level,
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
    validate_scaffolding,
)
from fanoscaffold.toric import GitData


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


def test_mutate_scaffolding_checks_the_shape_before_slicing_the_target(monkeypatch):
    # w = (1, 0) folds the ray (-1, -1) of the P^2 fan onto (0, -1), so the
    # transported fan is not complete; the target triangle spans 7 levels.
    shape = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    target = Polytope.from_points([(-2, -2), (4, -2), (-2, 4)])
    scaf = Scaffolding(shape, 0, [Strut((2, 2, 2))], target)
    assert validate_scaffolding(scaf)[0]
    slices = []

    def counted(*args):
        slices.append(args)
        return _slice_at_level(*args)

    monkeypatch.setattr(mutations, "_slice_at_level", counted)
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (1, 0), segment_factor((1, 0)))
    assert exc.value.kind == "not_mutable"
    assert exc.value.detail == "transported shape fan is not complete"
    assert slices == []
    # The data checks still come first: this wider triangle reaches level
    # 80 and its transport fails as well.
    wide = Polytope.from_points([(-40, -40), (80, -40), (-40, 80)])
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(Scaffolding(shape, 0, [Strut((40, 40, 40))], wide),
                           (1, 0), segment_factor((1, 0)))
    assert exc.value.kind == "level_too_large"
    assert slices == []
    # A transport that succeeds slices the hexagon at its 3 levels and each
    # of the two struts at its 2.
    mutate_scaffolding(dp6_square_scaffolding(), (1, 0), vertical_unit())
    assert len(slices) == 7


def test_nonnegative_levels_take_one_conversion_per_slice(monkeypatch):
    # Levels 0, 1 and 2 each take the conversion of their slice and no
    # hull of their own; the result is the one conversion of the sums.
    triangle = Polytope.from_points([(0, 0), (2, 0), (0, 2)])
    factor = vertical_unit()
    calls = []
    core = polyhedra._dd_core

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(polyhedra, "_dd_core", counted)
    result = mutate_polytope(triangle, (1, 0), factor)
    assert result.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert len(calls) == 4


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


def test_newton_polytope_tracks_algebraic_mutation():
    x = LaurentPolynomial.monomial((1, 0))
    y = LaurentPolynomial.monomial((0, 1))
    one = LaurentPolynomial.monomial((0, 0))
    inv_xy = LaurentPolynomial.monomial((-1, -1))
    f = (one + x) ** 2 * (one + y) ** 2 * inv_xy
    assert f.newton_polytope() == square()
    g = algebraic_mutation(f, (1, 0), one + y)
    assert g.newton_polytope() == mutate_polytope(square(), (1, 0), vertical_unit())

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanoscaffold import exact, polyhedra
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    as_exact,
    as_exact_vector,
    det,
    dot,
    exact_ratio,
    kernel_basis,
    mat_vec,
    primitive_vector,
    rank,
    solve_linear,
    unimodular_inverse,
    vadd,
    vneg,
    vscale,
)
from fanoscaffold.fixtures import fixture
from fanoscaffold.polyhedra import (
    MAX_LATTICE_BOX,
    Cone,
    Fan,
    Polytope,
    dd_cone,
    lattice_isomorphic,
    normal_fan,
    placing_triangulation,
    spanning_fan,
)

from fanoscaffold.mutations import _transport_ray
from fanoscaffold.scaffolding import _pieces, dual_cone_check
from fanoscaffold.toric import StackyFan

from helpers import (
    _det2,
    affine_rank,
    angular_order,
    cone_from_hrep_by_maximal_sets,
    cone_from_rays_by_meets,
    contains,
    count_calls,
    dehomogenized,
    erode,
    polar_by_fractions,
    proper_faces,
    random_unimodular_matrix,
    restrict_fan_pairwise,
    triangulate_2d,
)


def in_cone(gens, target):
    """Caratheodory: target lies in the cone of gens iff some linearly
    independent subset of at most d generators writes it with coefficients
    >= 0."""
    d = len(target)
    if not any(target):
        return True
    for size in range(1, min(d, len(gens)) + 1):
        for sub in combinations(gens, size):
            if rank(sub) != size:
                continue
            coeffs = solve_linear([[g[k] for g in sub] for k in range(d)], target)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def brute_extreme_rays(gens):
    """A generator is extreme iff it is not a nonnegative combination of the others."""
    out = set()
    for i, g in enumerate(gens):
        others = [h for j, h in enumerate(gens) if j != i]
        if not in_cone(others, g):
            out.add(primitive_vector(g))
    return out


def brute_facets(gens, d):
    """Facet normals of a full dimensional cone by scanning (d-1)-subsets."""
    normals = set()
    for comb in combinations(range(len(gens)), d - 1):
        sub = [gens[i] for i in comb]
        if rank(sub) != d - 1:
            continue
        # Want v with <v, g> = 0 for all g in sub.
        ker = kernel_basis(list(sub))
        if len(ker) != 1:
            continue
        v = ker[0]
        vals = [dot(v, g) for g in gens]
        if all(x >= 0 for x in vals):
            normals.add(primitive_vector(v))
        elif all(x <= 0 for x in vals):
            normals.add(primitive_vector(tuple(-c for c in v)))
    return normals


def random_pointed_gens(rng, d, k):
    # Points lifted to height 1 always generate a pointed cone.
    gens = set()
    while len(gens) < k:
        gens.add(tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (1,))
    gens = sorted(gens)
    if rank(gens) < d:
        return None
    return gens


def test_dd_cone_basics():
    rays, lin = dd_cone([(1, 0), (0, 1)])
    assert rays == ((0, 1), (1, 0))
    assert lin == ()
    rays, lin = dd_cone([(1, 0)])
    assert rays == ((1, 0),)
    assert lin == ((0, 1),)
    rays, lin = dd_cone([], [(1, 1)], dim=2)
    assert rays == ()
    assert lin == ((1, -1),)
    rays, lin = dd_cone([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert rays == () and lin == ()
    rays, lin = dd_cone([], dim=3)
    assert rays == () and len(lin) == 3


def test_dd_cone_equation_slice():
    # Slice the positive orthant by x + y + z = 0: only the origin survives.
    rays, lin = dd_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 1)])
    assert rays == () and lin == ()
    # Slice x >= 0, y >= 0 by z free: lineality in z.
    rays, lin = dd_cone([(1, 0, 0), (0, 1, 0)])
    assert lin == ((0, 0, 1),)
    assert rays == ((0, 1, 0), (1, 0, 0))


def test_cone_from_rays_against_bruteforce():
    rng = random.Random(20240811)
    done = 0
    while done < 40:
        d = rng.choice([2, 3, 4])
        gens = random_pointed_gens(rng, d, rng.randint(d, d + 4))
        if gens is None:
            continue
        done += 1
        cone = Cone.from_rays(gens)
        assert cone.lineality == ()
        assert set(cone.rays) == brute_extreme_rays(gens)
        assert set(cone.ineq_normals) == brute_facets(gens, d)
        # Double conversion is stable.
        again = Cone.from_hrep(cone.ineq_normals, cone.eq_normals, dim=d)
        assert again == cone


def integral_row(row):
    m = math.lcm(*(Fraction(c).denominator for c in row))
    return tuple(int(Fraction(c) * m) for c in row)


def reduce_mod_lattice(v, basis):
    """v with every pivot coordinate of the Hermite basis cleared by adding
    basis rows and scaling by positive integers, then made primitive."""
    for row in basis:
        p = next(k for k, c in enumerate(row) if c)
        if v[p]:
            v = tuple(row[p] * x - v[p] * y for x, y in zip(v, row))
    return primitive_vector(v) if any(v) else v


def brute_cone(inequalities, equations, n):
    """dd_cone by subsets: the lineality is the kernel of all constraints,
    and a feasible vector outside it is an extreme ray exactly when its
    tight inequalities and the equations have rank n - dim(lineality) - 1;
    some subset of at most that many tight rows already has that rank."""
    ineqs = [integral_row(a) for a in inequalities]
    eqs = [integral_row(e) for e in equations]
    lineality = kernel_basis(ineqs + eqs, ncols=n)
    target = n - len(lineality) - 1
    rays = set()
    for size in range(min(len(ineqs), target) + 1):
        for sub in combinations(ineqs, size):
            rows = list(sub) + eqs
            if rank(rows) != target:
                continue
            reduced = [reduce_mod_lattice(k, lineality) for k in kernel_basis(rows, ncols=n)]
            v = next(r for r in reduced if any(r))
            for r in (v, tuple(-c for c in v)):
                if all(dot(a, r) >= 0 for a in ineqs):
                    rays.add(r)
    return tuple(sorted(rays)), tuple(lineality)


@st.composite
def constraint_systems(draw, max_dim=4):
    """Cone constraints in dims 1 to max_dim with lineality, implicit
    equalities, duplicate, negated, zero and Fraction rows, and equations,
    in any order."""
    n = draw(st.integers(1, max_dim))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.fractions(-2, 2, max_denominator=3)
    # Rows supported on t coordinates leave the other n - t free; a
    # unimodular change of coordinates tilts that lineality off the axes.
    t = draw(st.integers(1, n))
    mix = random_unimodular_matrix(n, random.Random(draw(st.integers(0, 2**16))))
    # Rows with a positive last entry cut out a cone over a polytope, which
    # has many rays and facets with many rays.
    last = st.integers(1, 3) if draw(st.booleans()) else entry

    def vec():
        row = draw(st.tuples(*[entry] * (t - 1), last)) + (0,) * (n - t)
        return tuple(sum(row[i] * mix[i][j] for i in range(n)) for j in range(n))

    ineqs = [vec() for _ in range(draw(st.integers(0, 7)))]
    for kind in draw(st.lists(st.sampled_from(["negated", "scaled", "zero"]), max_size=3)):
        if kind == "zero":
            ineqs.append((0,) * n)
        elif ineqs:
            a = draw(st.sampled_from(ineqs))
            c = draw(st.sampled_from([Fraction(1, 2), 1, 3]))
            ineqs.append(tuple((-c if kind == "negated" else c) * x for x in a))
    eqs = [vec() for _ in range(draw(st.integers(0, 2)))]
    return n, draw(st.permutations(ineqs)), eqs


SQUARE_CONE = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0)]
PYRAMID_CONE = [(1, 0, 1, 1), (-1, 0, 1, 1), (0, 1, 1, 1), (0, -1, 1, 1)]


# Both examples cut a square face on a diagonal; its two diagonal rays
# share two tight inequalities (an implicit equality, a doubled facet), so
# only the adjacency scan keeps them from being combined.
@example((4, [(0, 0, 0, 1), (0, 0, 0, -1)] + SQUARE_CONE + [(1, 1, 0, 0)], []))
@example((4, [(0, 0, 0, 1), (0, 0, 0, 2)] + PYRAMID_CONE + [(1, 1, 0, 0)], []))
@settings(max_examples=300, deadline=None)
@given(constraint_systems())
def test_dd_cone_against_subset_enumeration(system):
    n, ineqs, eqs = system
    rays, lineality = dd_cone(ineqs, eqs, dim=n)
    assert (rays, lineality) == brute_cone(ineqs, eqs, n)
    assert all(type(c) is int for v in rays + lineality for c in v)


# A pointed cone with a zero row, and a cone with lineality along z.
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (1, 1, -1)], []))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)], []))
@settings(max_examples=300, deadline=None)
@given(constraint_systems())
def test_dd_core_masks_are_the_tight_sets(system):
    # _dd_core reads the clean rows the conversion door gives it, and each
    # mask is the tight set of the ray among those rows.
    n, ineqs, eqs = system
    rows, clean_eqs, dim = polyhedra._conversion_input(ineqs, eqs, n)
    rays, masks, lineality = polyhedra._dd_core(rows, clean_eqs, dim)
    assert (rays, lineality) == dd_cone(ineqs, eqs, dim=n)
    assert masks == tuple(
        sum(1 << j for j, a in enumerate(rows) if not dot(a, r)) for r in rays
    )


def test_each_row_is_made_primitive_once(monkeypatch):
    # A zero row, a repeated row, a Fraction row and one equation: the
    # conversion door scales each given row and equation once, and nothing
    # after it scales them again.
    calls = count_calls(monkeypatch, "_clear_denominators", polyhedra)
    ineqs = [(1, 0, 0), (0, 0, 0), (0, 2, 0), (0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 3))]
    cone = Cone.from_hrep(ineqs, [(0, 0, 1)], dim=3)
    assert len(calls) == len(ineqs) + 1
    assert (cone.rays, cone.ineq_normals, cone.eq_normals) == (
        ((0, 1, 0), (1, 0, 0)), ((0, 1, 0), (1, 0, 0)), ((0, 0, 1),))


@pytest.mark.parametrize(
    "build", [lambda: dd_cone([]), lambda: Cone.from_rays([]), lambda: Cone.from_hrep([])],
    ids=["dd_cone", "Cone.from_rays", "Cone.from_hrep"],
)
def test_no_rows_and_no_dim_is_one_error(build):
    with pytest.raises(DomainError) as ei:
        build()
    assert (ei.value.kind, ei.value.detail) == (
        "dimension_unknown", "no constraints and no dim given")


def two_pass_cone_from_rays(generators, n):
    """(rays, lineality, normals, equations) as the former Cone.from_rays
    found them: one dd_cone pass over the generators for the facets, and a
    second over the facets for the rays."""
    normals, eq_normals = dd_cone(generators, dim=n)
    rays, lineality = dd_cone(normals, eq_normals, dim=n)
    return rays, lineality, normals, eq_normals


def two_pass_cone_from_hrep(ineqs, eqs, n):
    """The same four as the former Cone.from_hrep found them: one dd_cone
    pass over the constraints for the rays, and a second over the rays
    for the facets."""
    rays, lineality = dd_cone(ineqs, eqs, dim=n)
    normals, eq_normals = dd_cone(rays, lineality, dim=n)
    return rays, lineality, normals, eq_normals


def incidences_by_dot_products(cone):
    return tuple(
        sum(1 << i for i, r in enumerate(cone.rays) if not dot(a, r)) for a in cone.ineq_normals
    )


# Opposite, doubled and zero generators (a lineality, a scaled ray and
# nothing); a flat cone given by an equation; {0} and the whole space.
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 2, 2), (0, 0, 0)], []))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 0, 1)]))
@example((2, [], []))
@settings(max_examples=300, deadline=None)
@given(constraint_systems())
def test_one_pass_cones_against_two_passes(system):
    # The rows span one cone and cut out another (with the equations).
    n, rows, eqs = system
    for cone, oracle in (
        (Cone.from_rays(rows, dim=n), two_pass_cone_from_rays(rows, n)),
        (Cone.from_hrep(rows, eqs, dim=n), two_pass_cone_from_hrep(rows, eqs, n)),
    ):
        assert (cone.rays, cone.lineality, cone.ineq_normals, cone.eq_normals) == oracle
        assert cone.incidence == incidences_by_dot_products(cone)


def cone_fields(cone):
    return (cone.dim, cone.rays, cone.lineality, cone.ineq_normals, cone.eq_normals,
            cone.incidence)


# Opposite, doubled and zero rows; a flat cone given by an equation, and a
# zero equation; {0} and the whole space.
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 2, 2), (0, 0, 0)], []))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 0, 1), (0, 0, 0)]))
@example((2, [], []))
@settings(max_examples=300, deadline=None)
@given(constraint_systems(max_dim=5))
def test_one_reading_of_the_pass_against_the_former_constructors(system):
    # The rows span one cone and cut out another with the equations, and
    # the two are polar when there is no equation: both constructors read
    # one pass, and polar() swaps the sides with no conversion.
    n, rows, eqs = system
    spanned = Cone.from_rays(rows, dim=n)
    cut = Cone.from_hrep(rows, eqs, dim=n)
    assert cone_fields(spanned) == cone_fields(cone_from_rays_by_meets(rows, n))
    assert cone_fields(cut) == cone_fields(cone_from_hrep_by_maximal_sets(rows, eqs, n))
    for cone in (spanned, cut):
        assert cone_fields(cone.polar().polar()) == cone_fields(cone)
    assert cone_fields(spanned) == cone_fields(Cone.from_hrep(rows, dim=n).polar())
    both_signs = rows + eqs + [vneg(e) for e in eqs]
    assert cone_fields(cut.polar()) == cone_fields(Cone.from_rays(both_signs, dim=n))


def test_rows_of_the_wrong_length_raise_with_the_callers_lengths():
    # A zero row or an equation of the wrong length is checked as any other
    # row is, and Polytope.from_hrep names the lengths it was given, not
    # those of the homogenized rows.
    triangle = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]
    for build, length in (
        (lambda: Cone.from_hrep([(0, 0, 0), (1, 0)], dim=2), 3),
        (lambda: dd_cone([(1, 0), (0, 0, 0, 0)]), 4),
        (lambda: Polytope.from_hrep(triangle, [((0, 0, 0), 0)]), 3),
        (lambda: Polytope.from_hrep([((1, 0), 0), ((0, 0, 0), -1)]), 3),
    ):
        with pytest.raises(DomainError) as ei:
            build()
        detail = f"constraint has length {length}, expected 2"
        assert (ei.value.kind, ei.value.detail) == ("dimension_mismatch", detail)


@st.composite
def pointed_cones_and_cuts(draw):
    """A full-dimensional pointed cone of rank r <= 4 and up to four cuts.

    The cone is spanned by points at height 1; each cut is a nonzero
    normal h and the side (+1 or -1) of h that the next cut starts from.
    """
    r = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(-3, 3)] * (r - 1))
    gens = [p + (1,) for p in draw(st.lists(point, min_size=r, max_size=r + 4, unique=True))]
    assume(rank(gens) == r)
    normal = st.tuples(*[st.integers(-3, 3)] * r).filter(any)
    cuts = draw(st.lists(st.tuples(normal, st.sampled_from((1, -1))), min_size=1, max_size=4))
    return r, gens, cuts


def tight_masks(rays, ineqs):
    return [(v, sum(1 << j for j, a in enumerate(ineqs) if not dot(a, v))) for v in rays]


@settings(max_examples=200, deadline=None)
@given(pointed_cones_and_cuts())
def test_dd_step_splits_a_cone_as_from_hrep_does(case):
    # Each half of a cut is the cone of the inequalities so far plus +-h,
    # which Cone.from_hrep converts from scratch; the section is the cone
    # with h as an equation.  The masks stay the tight sets of the rays.
    r, gens, cuts = case
    cone = Cone.from_rays(gens, dim=r)
    ineqs = list(cone.ineq_normals)
    cell = tight_masks(cone.rays, ineqs)
    for h, side in cuts:
        pos, neg, on = polyhedra._dd_step(cell, [dot(h, v) for v, _ in cell], 1 << len(ineqs), r - 2)
        if pos and neg:
            halves = {1: pos + on, -1: neg + on}
            for s, half in halves.items():
                assert sorted(v for v, _ in half) == list(
                    Cone.from_hrep(ineqs + [vscale(s, h)], dim=r).rays)
            assert sorted(v for v, _ in on) == list(Cone.from_hrep(ineqs, [h], dim=r).rays)
        else:
            side = 1 if pos else -1
            halves = {side: pos + neg + on}
            assert sorted(v for v, _ in halves[side]) == list(cone.rays)
        ineqs.append(vscale(side, h))
        cell = halves[side]
        assert cell == tight_masks([v for v, _ in cell], ineqs)
        cone = Cone.from_hrep(ineqs, dim=r)


def test_dd_cone_of_a_pointed_cone_computes_no_kernel(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel_basis(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "kernel_basis", counted)
    assert dd_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]) == (
        ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)), ())
    assert len(calls) == 0
    assert dd_cone([(1, 0, 0), (0, 1, 0)]) == (((0, 1, 0), (1, 0, 0)), ((0, 0, 1),))
    assert len(calls) == 1


def test_cone_lower_dimensional():
    cone = Cone.from_rays([(1, 1, 0), (1, 2, 0)])
    assert cone.dim - len(cone.eq_normals) == 2
    assert ((0, 0, 1),) == tuple(cone.eq_normals) or (0, 0, 1) in cone.eq_normals
    assert cone.contains((2, 3, 0))
    assert not cone.contains((2, 3, 1))
    assert not cone.contains((-1, -1, 0))


def test_cone_zero_and_intersection():
    z = Cone.from_rays([], dim=2)
    assert z.rays == () and z.lineality == ()
    a = Cone.from_rays([(1, 0), (0, 1)])
    b = Cone.from_rays([(1, 1), (-1, 1)])
    c = Cone.from_hrep(a.ineq_normals + b.ineq_normals)
    assert c.rays == ((0, 1), (1, 1))
    d = Cone.from_rays([(1, 2), (-1, 1)])
    e = Cone.from_rays([(1, 0), (1, 1)])
    disjoint = Cone.from_hrep(d.ineq_normals + e.ineq_normals)
    assert disjoint.rays == () and disjoint.lineality == ()


def test_polytope_square():
    p = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert len(p.vertices) == 4
    assert p.is_full_dimensional() and p.is_lattice()
    assert len(p.inequalities) == 4
    assert contains(p, (0, 0)) and not contains(p, (2, 0))
    d = p.dual()
    assert set(d.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert d.dual() == p
    assert p.is_reflexive()


def test_polytope_vertices_against_bruteforce():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.choice([2, 3])
        pts = sorted(
            set(
                tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(rng.randint(d + 1, d + 6))
            )
        )
        try:
            p = Polytope.from_points(pts)
        except DomainError:
            continue
        brute_verts = set()
        lifted = [q + (1,) for q in pts]
        for i, q in enumerate(pts):
            others = [lifted[j] for j in range(len(pts)) if j != i]
            if not in_cone(others, lifted[i]):
                brute_verts.add(tuple(Fraction(c) for c in q))
        assert set(p.vertices) == brute_verts
        # Every input point satisfies the H-rep.
        for q in pts:
            assert contains(p, q)
        # Facets are supported: each has affine rank dim-1 worth of vertices.
        for s in p.facet_vertex_sets():
            assert len(s) >= p.dim - len(p.equations)


COORDS = st.fractions(-2, 2, max_denominator=3)


def translate(p, v):
    """The polytope p moved by the vector v."""
    return Polytope.from_points([vadd(q, v) for q in p.vertices])


SLOPES = st.fractions(-1, 1, max_denominator=2)


@st.composite
def point_sets(draw):
    """Rational points in dims 1-4, often repeated, often on an affine subspace.

    A lower-dimensional set is drawn in m < n coordinates and mapped by
    x -> (x, A x + t) with rational A and t.  Its affine hull equations,
    scaled to primitive integer rows (a, -rhs), store an int rhs, but the
    normal a need not be primitive, nor rhs a multiple of gcd(a).
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, n)) if draw(st.booleans()) else n
    pts = draw(st.lists(st.tuples(*[COORDS] * m), min_size=1, max_size=6))
    if m < n:
        rows = [draw(st.tuples(*[SLOPES] * m)) for _ in range(n - m)]
        shift = draw(st.tuples(*[COORDS] * (n - m)))
        pts = [p + tuple(dot(a, p) + t for a, t in zip(rows, shift)) for p in pts]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2))


def box_filter(p):
    """The lattice points of p, by testing every point of its bounding box."""
    lo = [math.ceil(min(v[i] for v in p.vertices)) for i in range(p.dim)]
    hi = [math.floor(max(v[i] for v in p.vertices)) for i in range(p.dim)]
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return tuple(x for x in box if contains(p, x))


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.data())
def test_integral_points_against_the_box_filter(pts, data):
    p = Polytope.from_points(pts)
    assert p.integral_points() == box_filter(p)
    # A translate by a fraction keeps the normals' directions; scaled to
    # primitive integer rows (a, -rhs), its facets have an int rhs, but a
    # need not be primitive, nor rhs a multiple of gcd(a).
    shift = data.draw(st.tuples(*[COORDS] * p.dim))
    q = translate(p, shift)
    assert q.integral_points() == box_filter(q)


HALVES = st.fractions(-1, 1, max_denominator=2)


@st.composite
def walk_polytopes(draw):
    """Polytopes beyond point_sets for the lattice point walk.

    Point sets in dims 5 and 6 in the box [-1, 1]^n; from_hrep polytopes
    whose right-hand sides are fractions, cut from a box around a
    rational center that every inequality keeps, with at times an
    equation through it; and point_sets polytopes dilated by a fraction.
    """
    kind = draw(st.sampled_from(["high", "hrep", "dilate"]))
    if kind == "high":
        n = draw(st.integers(5, 6))
        pts = draw(st.lists(st.tuples(*[HALVES] * n), min_size=1, max_size=5))
        if draw(st.booleans()):
            # a simplex around the origin makes the hull full-dimensional
            pts += [tuple(int(i == j) for j in range(n)) for i in range(n)]
            pts.append((-1,) * n)
        return Polytope.from_points(pts)
    if kind == "dilate":
        k = draw(st.fractions(-3, 3, max_denominator=3))
        return Polytope.from_points(draw(point_sets())).dilate(k)
    n = draw(st.integers(1, 4))
    center = draw(st.tuples(*[COORDS] * n))
    ineqs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        r = draw(st.fractions(0, 2, max_denominator=3))
        ineqs += [(e, center[i] - r), (tuple(-c for c in e), -center[i] - r)]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.tuples(*[st.integers(-2, 2)] * n))
        ineqs.append((a, dot(a, center) - draw(st.fractions(0, 2, max_denominator=3))))
    eqs = []
    if draw(st.booleans()):
        a = draw(st.tuples(*[st.integers(-2, 2)] * n))
        eqs.append((a, dot(a, center)))
    return Polytope.from_hrep(ineqs, eqs, dim=n)


@settings(max_examples=60, deadline=None)
@given(walk_polytopes())
def test_integral_points_walk_against_the_box_filter(p):
    assert p.integral_points() == box_filter(p)


def two_pass_vertices(inequalities, equations, n):
    """The vertices of {x : Ax >= b, Cx = d} as the former from_hrep found
    them, or the DomainError kind it raised: one dd_cone pass over the
    homogenized constraints and t >= 0."""
    hom_ineqs = [tuple(a) + (-rhs,) for a, rhs in inequalities]
    hom_ineqs.append((0,) * n + (1,))
    hom_eqs = [tuple(a) + (-rhs,) for a, rhs in equations]
    rays, lineality = dd_cone(hom_ineqs, hom_eqs, dim=n + 1)
    if lineality:
        return "unbounded"
    verts = []
    for r in rays:
        if r[n] == 0:
            return "unbounded" if any(r2[n] > 0 for r2 in rays) else "empty_polytope"
        verts.append(tuple(exact_ratio(c, r[n]) for c in r[:n]))
    return tuple(sorted(verts)) or "empty_polytope"


def hull_by_dd_cone(points):
    """The former convex_hull: (inequalities, equations) of the hull of the
    points, as the rays and lineality of one dd_cone pass over the lifted
    points (p, 1), each split as (r[:n], -r[n])."""
    pts = [as_exact_vector(q) for q in points]
    n = len(pts[0])
    rays, lineality = dd_cone([q + (1,) for q in pts], dim=n + 1)
    return tuple((r[:n], -r[n]) for r in rays), tuple((r[:n], -r[n]) for r in lineality)


def two_pass_from_hrep(inequalities, equations, n):
    """The former Polytope.from_hrep: its vertices from one conversion, its
    facets from a second (hull_by_dd_cone of the vertices), and its
    incidences by Fraction dot products.  Returns (described string,
    incidences), or the DomainError kind."""
    ineqs = [(as_exact_vector(a), as_exact(rhs)) for a, rhs in inequalities]
    eqs = [(as_exact_vector(a), as_exact(rhs)) for a, rhs in equations]
    verts = two_pass_vertices(ineqs, eqs, n)
    if isinstance(verts, str):
        return verts
    cineqs, ceqs = hull_by_dd_cone(verts)
    incidence = tuple(
        frozenset(i for i, v in enumerate(verts) if dot(a, v) == rhs) for a, rhs in cineqs
    )
    return repr((n, verts, cineqs, ceqs)), incidence


@st.composite
def hrep_systems(draw):
    """H-descriptions in dims 1-4, in any order.

    A box around a rational center, or the center alone as pairs of
    opposite rows, or neither (the set may be unbounded); rows kept by the
    center with Fraction slacks, rows with an arbitrary Fraction
    right-hand side (redundant, or cutting the set empty); duplicated,
    scaled and opposite copies of rows (an opposite copy is an implicit
    equation); zero-normal rows; and, half the time, equations through
    the center.
    """
    n = draw(st.integers(1, 4))
    center = draw(st.tuples(*[COORDS] * n))
    normal = st.tuples(*[st.integers(-2, 2)] * n)
    slack = st.fractions(0, 2, max_denominator=3)
    half_width = st.fractions(Fraction(1, 3), 2, max_denominator=3)
    kind = draw(st.sampled_from(["box", "point", "free"]))
    ineqs = []
    for i in range(n if kind != "free" else 0):
        e = tuple(int(j == i) for j in range(n))
        low, high = (0, 0) if kind == "point" else (draw(half_width), draw(half_width))
        ineqs += [(e, center[i] - low), (tuple(-c for c in e), -center[i] - high)]
    for _ in range(draw(st.integers(0, 4))):
        a = draw(normal)
        ineqs.append((a, dot(a, center) - draw(slack)))
    for _ in range(draw(st.integers(0, 2))):
        ineqs.append((draw(normal), draw(COORDS)))
    for op in draw(st.lists(st.sampled_from(["copy", "scaled", "opposite", "zero"]), max_size=3)):
        if op == "zero":
            ineqs.append(((0,) * n, draw(st.sampled_from([0, -1, Fraction(-1, 2), Fraction(1, 3)]))))
        elif ineqs:
            a, rhs = draw(st.sampled_from(ineqs))
            c = -1 if op == "opposite" else 1
            if op == "scaled":
                c = draw(st.sampled_from([2, Fraction(1, 2)]))
            ineqs.append((tuple(c * x for x in a), c * rhs))
    eqs = [(a, dot(a, center)) for a in draw(st.lists(normal, max_size=2))]
    return n, draw(st.permutations(ineqs)), eqs if draw(st.booleans()) else []


# A single point cut out by opposite rows, with a redundant row.
@example((2, [((1, 0), 1), ((-1, 0), -1), ((0, 1), Fraction(1, 2)),
              ((0, -1), Fraction(-1, 2)), ((1, 1), 0)], []))
# A segment: an explicit equation and a duplicated row.
@example((2, [((1, 0), 0), ((1, 0), 0), ((-1, 0), -2)], [((1, 1), 1)]))
@settings(max_examples=300, deadline=None)
@given(hrep_systems())
def test_from_hrep_against_the_two_pass_build(system):
    n, ineqs, eqs = system
    try:
        p = Polytope.from_hrep(ineqs, eqs, dim=n)
    except DomainError as err:
        assert err.kind == two_pass_from_hrep(ineqs, eqs, n)
    else:
        assert (described(p), p.facet_vertex_sets()) == two_pass_from_hrep(ineqs, eqs, n)


def test_from_hrep_makes_one_conversion(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return core(*args)

    core = polyhedra._dd_core
    monkeypatch.setattr(polyhedra, "_dd_core", counted)
    square = [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1), ((1, 1), -5)]
    p = Polytope.from_hrep(square)
    assert len(calls) == 1 and len(p.vertices) == 4
    p.facet_vertex_sets()
    p.dual().facet_vertex_sets()
    normal_fan(p), spanning_fan(p), proper_faces(p)
    assert len(calls) == 1


def test_each_constructor_makes_one_conversion(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return core(*args)

    triangle = Polytope.from_points([(1, 0), (0, 1), (-1, -1)])
    cone = Cone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 2, 1)])
    scaf = fixture("cubic-surface")["scaffolding"]
    _pieces(scaf)
    core = polyhedra._dd_core
    monkeypatch.setattr(polyhedra, "_dd_core", counted)
    # The cone over the dual is the triangle's own cone with rays and
    # normals swapped, and a polar cone is any cone's, so neither takes a
    # conversion; once its pieces are known, dual_cone_check converts only
    # the strut side.
    builds = [
        (lambda: Cone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 2, 1), (0, 1, 1)]), 1),
        (lambda: Cone.from_hrep([(0, 1, 0), (0, 0, 1), (0, 1, -1)], [(1, 1, 1)]), 1),
        (lambda: Polytope.from_points([(0, 0), (2, 0), (0, 2), (1, 1), (Fraction(1, 2), 0)]), 1),
        (lambda: Polytope.from_hrep([((1, 0), 0), ((0, 1), 0), ((-2, -1), Fraction(-3, 2))]), 1),
        (lambda: triangle.dual().cone, 0),
        (lambda: cone.polar(), 0),
        (lambda: dual_cone_check(scaf), 1),
    ]
    for build, conversions in builds:
        del calls[:]
        build()
        assert len(calls) == conversions


def test_dual_makes_no_conversion_and_no_fraction(monkeypatch):
    # A lattice polytope whose dual has rational vertices: the dual and its
    # dual are read off the kept cone, with no conversion and no Fraction,
    # and the dual's vertices are still the Fractions of a / -rhs.
    p = Polytope.from_points([(2, 0), (1, 2), (-1, 1), (-1, -1), (1, -2), (0, 0)])
    expected = polar_by_fractions(p.dim, dehomogenized(p.dim, p.cone))
    calls = count_calls(monkeypatch, "_dd_core", polyhedra)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    d = p.dual()
    assert d.dual() == p
    monkeypatch.setattr(Fraction, "__new__", new)
    assert (calls, made) == ([], [])
    assert (d.vertices, d.inequalities, d.equations, d.incidence) == expected
    assert any(type(c) is Fraction for v in d.vertices for c in v)


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_from_points_against_a_second_conversion(pts):
    p = Polytope.from_points(pts)
    ineqs, eqs = hull_by_dd_cone(pts)
    assert p.vertices == two_pass_vertices(ineqs, eqs, p.dim)
    assert (p.inequalities, p.equations) == (ineqs, eqs)


def test_lattice_point_box_cap():
    # The box of the diagonal holds exactly MAX_LATTICE_BOX points.
    side = math.isqrt(MAX_LATTICE_BOX) - 1
    diagonal = Polytope.from_points([(0, 0), (side, side)])
    assert diagonal.integral_points() == tuple((i, i) for i in range(side + 1))
    wider = Polytope.from_points([(0, 0), (side + 1, side)])
    with pytest.raises(DomainError) as ei:
        wider.integral_points()
    assert ei.value.kind == "lattice_box_too_large"


def test_polytope_from_hrep_and_unbounded():
    cube = Polytope.from_hrep(
        [((1, 0, 0), 0), ((-1, 0, 0), -2), ((0, 1, 0), 0), ((0, -1, 0), -2),
         ((0, 0, 1), 0), ((0, 0, -1), -2)]
    )
    assert len(cube.vertices) == 8
    assert len(cube.integral_points()) == 27
    with pytest.raises(DomainError) as ei:
        Polytope.from_hrep([((1, 0), 0), ((0, 1), 0)])
    assert ei.value.kind == "unbounded"
    with pytest.raises(DomainError) as ei:
        Polytope.from_hrep([((1,), 1), ((-1,), 0)])
    assert ei.value.kind == "empty_polytope"


def test_polytope_lower_dimensional():
    seg = Polytope.from_points([(0, 0, 1), (2, 0, 1)])
    assert len(seg.equations) == 2
    assert contains(seg, (1, 0, 1))
    assert not contains(seg, (1, 1, 1))
    assert seg.integral_points() == ((0, 0, 1), (1, 0, 1), (2, 0, 1))


def test_faces_of_cube():
    cube = Polytope.from_points(list(__import__("itertools").product([0, 1], repeat=3)))
    faces = proper_faces(cube)
    by_dim = {}
    for d, s in faces:
        by_dim.setdefault(d, 0)
        by_dim[d] += 1
    assert by_dim == {0: 8, 1: 12, 2: 6}


def test_minkowski_sum_and_erode():
    sq = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = Polytope.from_points([(0, 0), (2, 0)])
    s = sq.minkowski_sum(seg)
    assert len(s.vertices) == 4
    back, exact = erode(s, seg)
    assert exact and back == sq
    tri = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    eroded, exact = erode(sq, tri)
    assert eroded is not None and not exact
    nothing, exact = erode(tri, seg)
    assert nothing is None and not exact


def test_erode_lower_dimensional():
    seg = Polytope.from_points([(0, 0), (4, 0)])
    sub = Polytope.from_points([(0, 0), (1, 0)])
    diff, exact = erode(seg, sub)
    assert exact and diff == Polytope.from_points([(0, 0), (3, 0)])
    off = Polytope.from_points([(0, 0), (0, 1)])
    gone, exact = erode(seg, off)
    assert gone is None and not exact


def test_dilate():
    p = Polytope.from_points([(1, 0), (0, 1), (-1, -1)])
    q = p.dilate(2)
    assert set(q.vertices) == {(2, 0), (0, 2), (-2, -2)}
    assert p.dilate(-1).vertices == Polytope.from_points([(-1, 0), (0, -1), (1, 1)]).vertices


def test_spanning_and_normal_fans():
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    sf = spanning_fan(square)
    assert len(sf.rays) == 4 and len(sf.max_cones) == 4
    assert sf.is_complete()
    nf = normal_fan(square)
    assert set(nf.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert nf.is_complete()
    tri = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    nt = normal_fan(tri)
    assert set(nt.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert nt.is_complete()


def test_is_complete_rejects_a_folded_fan():
    # w = (1, -1) and the factor from (0, 0) to (1, 1) move the P^2 fan's
    # rays to (0, 1), (1, -3) and (1, 0), all in the half plane x >= 0.
    # Every ridge still lies on two cones, but the cones on (0, 1) lie on
    # the same side of it.
    p2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    factor = Polytope.from_points([(0, 0), (1, 1)])
    folded = Fan(2, [_transport_ray(r, (1, -1), factor, 0) for r in p2.rays], p2.max_cones)
    assert folded.rays == ((0, 1), (1, -3), (1, 0))
    assert p2.is_complete()
    assert not folded.is_complete()


def complete_by_angles(fan):
    """Whether a plane fan is complete: its cones are the consecutive pairs
    of the angular order of its rays, each turning by less than pi."""
    order = angular_order(fan.rays)
    pairs = [(order[t - 1], order[t]) for t in range(len(order))]
    return (
        len(order) >= 3
        and set(fan.max_cones) == {tuple(sorted(pair)) for pair in pairs}
        and all(_det2(fan.rays[i], fan.rays[j]) > 0 for i, j in pairs)
    )


@st.composite
def moved_plane_fans(draw):
    """Normal or spanning fans of lattice polygons around the origin, moved
    by the piecewise linear map of a random mutation, some with a cone
    dropped."""
    small = st.integers(-3, 3)
    pts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    pts += draw(st.lists(st.tuples(small, small), max_size=5))
    p = Polytope.from_points(pts)
    fan = spanning_fan(p) if draw(st.booleans()) else normal_fan(p)
    w = draw(st.tuples(small, small).filter(any))
    g = primitive_vector((-w[1], w[0]))
    a, b = sorted(draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    factor = Polytope.from_points([vscale(a, g), vscale(b, g)])
    rays = [_transport_ray(r, w, factor, 0) for r in fan.rays]
    cones = list(fan.max_cones)
    if draw(st.booleans()):
        del cones[draw(st.integers(0, len(cones) - 1))]
    return Fan(2, rays, cones)


@settings(max_examples=200, deadline=None)
@given(moved_plane_fans())
@example(Fan(2, [(0, 1), (1, -3), (1, 0)], [(0, 1), (0, 2), (1, 2)]))
def test_plane_is_complete_against_the_angular_order(fan):
    assert fan.is_complete() == complete_by_angles(fan)


def test_lattice_isomorphism_is_capped_at_12_vertices():
    # The points (i, i^2) are in convex position.
    big = Polytope.from_points([(i, i * i) for i in range(13)])
    assert len(big.vertices) == 13
    for p, q in ((big, big), (big, Polytope.from_points([(0, 0), (1, 0), (0, 1)]))):
        with pytest.raises(DomainError) as exc:
            lattice_isomorphic(p, q)
        assert (exc.value.kind, exc.value.detail) == (
            "too_many_vertices", "lattice comparison capped at 12 vertices")


RADII = st.fractions(1, 2, max_denominator=3)
SMALL_SHIFTS = st.fractions(-Fraction(1, 5), Fraction(1, 5), max_denominator=5)


@st.composite
def rational_origin_polytopes(draw):
    """Rational full-dimensional polytopes in dims 1-4 with 0 inside.

    A cross polytope of radius c >= 1 plus a few rational points; half of
    them are translated by t with |t_i| <= 1/5, so sum |t_i| < 1 <= c keeps
    the origin inside.  Every rhs is stored as an int, from a primitive
    integer row (a, -rhs) whose normal a need not be primitive.
    """
    n = draw(st.integers(1, 4))
    c = draw(RADII)
    pts = [tuple(s * c if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    pts += draw(st.lists(st.tuples(*[COORDS] * n), max_size=4))
    p = Polytope.from_points(pts)
    if draw(st.booleans()):
        p = translate(p, draw(st.tuples(*[SMALL_SHIFTS] * n)))
    return p


def described(p):
    """Both descriptions of p with the type of every entry, as a string."""
    return repr((p.dim, p.vertices, p.inequalities, p.equations))


def facet_vertex_sets_by_fractions(p):
    return tuple(
        frozenset(i for i, v in enumerate(p.vertices) if dot(a, v) == rhs)
        for a, rhs in p.inequalities
    )


def normal_fan_by_fractions(p):
    normals = [primitive_vector(tuple(int(c) for c in a)) for a, _ in p.inequalities]
    cones = [
        [normals[i] for i, (a, rhs) in enumerate(p.inequalities) if dot(a, v) == rhs]
        for v in p.vertices
    ]
    fan_rays = sorted(set(normals))
    lookup = {r: i for i, r in enumerate(fan_rays)}
    return Fan(p.dim, fan_rays, [tuple(sorted(lookup[r] for r in c)) for c in cones])


@settings(max_examples=200, deadline=None)
@given(rational_origin_polytopes())
def test_dual_against_the_hull_of_the_dual_vertices(p):
    # The facet <a, x> >= rhs is the vertex a / -rhs of the dual.
    points = [tuple(Fraction(c) / -rhs for c in a) for a, rhs in p.inequalities]
    d = p.dual()
    assert described(d) == described(Polytope.from_points(points))
    assert d.dual() == p
    assert d.dual().dual() == d
    assert normal_fan(d) == normal_fan_by_fractions(d)


@settings(max_examples=200, deadline=None)
@given(point_sets(), rational_origin_polytopes(), st.data())
def test_facet_vertex_sets_against_fraction_dot_products(pts, origin_polytope, data):
    # The incidences every constructor stores, against dot products.
    p = Polytope.from_points(pts)
    n = p.dim
    other = Polytope.from_points(
        data.draw(st.lists(st.tuples(*[COORDS] * n), min_size=1, max_size=3)))
    grown = p.minkowski_sum(other)
    built = [
        p,
        Polytope.from_hrep(p.inequalities, p.equations, dim=n),
        p.dilate(data.draw(st.fractions(-3, 3, max_denominator=3))),
        grown,
        erode(grown, other)[0],
        origin_polytope,
        origin_polytope.dual(),
    ]
    shrunk, _ = erode(p, other)
    if shrunk is not None:
        built.append(shrunk)
    for r in built:
        assert type(r.facet_vertex_sets()) is tuple
        assert r.facet_vertex_sets() == facet_vertex_sets_by_fractions(r)
        if r.is_full_dimensional():
            assert normal_fan(r) == normal_fan_by_fractions(r)


def is_canonical(x):
    """Whether x is an int when it is integral and a Fraction otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def stores_canonical_numbers(p):
    rhs = [b for _, b in p.inequalities + p.equations]
    return all(is_canonical(c) for v in p.vertices for c in v) and all(map(is_canonical, rhs))


def fractions_of(v):
    return tuple(Fraction(c) for c in v)


@settings(max_examples=150, deadline=None)
@given(point_sets(), rational_origin_polytopes(), st.data())
def test_stored_numbers_are_int_exactly_when_integral(pts, origin_polytope, data):
    # point_sets coordinates have denominators dividing 6, so the same
    # points times 6 are integral: given as ints, as integral Fractions, and
    # as drawn.  Each build is compared, types included, with the build
    # from the same numbers converted to Fraction.
    n = len(pts[0])
    lattice = [tuple(int(6 * c) for c in q) for q in pts]
    factors = [data.draw(st.integers(-2, 2)), data.draw(st.fractions(-3, 3, max_denominator=3))]
    built = []
    for points in (lattice, [fractions_of(q) for q in lattice], pts):
        p = Polytope.from_points(points)
        built.append((p, Polytope.from_points([fractions_of(q) for q in points])))
        hrep = (p.inequalities, p.equations)
        by_fractions = [[(fractions_of(a), Fraction(b)) for a, b in h] for h in hrep]
        built.append((Polytope.from_hrep(*hrep, dim=n), Polytope.from_hrep(*by_fractions, dim=n)))
        for k in factors:
            built.append((p.dilate(k), p.dilate(Fraction(k))))
    d = origin_polytope.dual()
    built.append((d, Polytope.from_points([fractions_of(v) for v in d.vertices])))
    built.append((d.dual(), Polytope.from_points(
        [fractions_of(v) for v in origin_polytope.vertices])))
    for p, q in built:
        assert stores_canonical_numbers(p)
        assert described(p) == described(q)


def test_fan_canonicalization_and_equality():
    f1 = Fan(2, [(0, 1), (1, 0), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    f2 = Fan(2, [(2, 0), (0, 3), (-1, -1)], [(1, 0), (0, 2), (1, 2)])
    assert f1 == f2
    assert f1.is_complete()
    assert f1.ray_index((5, 0)) == f1.rays.index((1, 0))
    incomplete = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not incomplete.is_complete()
    for rays, cones, kind in (
        ([(1, 0), (0, 1, 1)], [(0, 1)], "dimension_mismatch"),
        ([(1, 0), (0, 1)], [(0, 2)], "bad_index"),
        ([(1, 0), (0, 1)], [(-1, 0)], "bad_index"),
    ):
        with pytest.raises(DomainError) as ei:
            Fan(2, rays, cones)
        assert ei.value.kind == kind


@st.composite
def fan_inputs(draw):
    """(dim, rays, cones) for a fan, often bad: a dim of 1 to 3, rays of
    any length from 0 to 4 with integer, integral Fraction, 3/2 or float
    entries, zero rays among them, and cones that may index past the
    rays or below 0."""
    dim = draw(st.integers(1, 3))
    entry = st.one_of(
        st.integers(-2, 2), st.just(Fraction(2, 1)), st.just(Fraction(3, 2)), st.just(1.5))
    length = st.integers(0, 4) if draw(st.booleans()) else st.just(dim)
    rays = draw(st.lists(length.flatmap(lambda k: st.tuples(*[entry] * k)), max_size=4))
    index = st.integers(-1, len(rays))
    cones = draw(st.lists(st.lists(index, max_size=3), max_size=3))
    return dim, rays, cones


@settings(max_examples=300, deadline=None)
@given(fan_inputs())
def test_fan_and_stacky_fan_check_their_input_alike(case):
    # Both read their input through one door, so on the same input they
    # raise the same kind with the same detail, or both build.
    dim, rays, cones = case

    def outcome(build):
        try:
            build(dim, rays, cones)
        except DomainError as e:
            return e.kind, e.detail
        return None

    assert outcome(Fan) == outcome(StackyFan)


@settings(max_examples=200, deadline=None)
@given(fan_inputs())
def test_fan_cones_come_back_sorted_and_distinct(case):
    # _fan_input keeps the cones as given; Fan sorts them once after
    # re-indexing them by its sorted primitive rays, StackyFan as they are.
    dim, rays, cones = case
    try:
        stacky = StackyFan(dim, rays, cones)
    except DomainError:
        return
    assert stacky.max_cones == tuple(sorted({tuple(sorted(set(c))) for c in cones}))
    fan = Fan(dim, rays, cones)
    index = [fan.ray_index(r) for r in rays]
    assert fan.max_cones == tuple(sorted({tuple(sorted({index[i] for i in c})) for c in cones}))


def test_fan_input_checks_the_cones_in_order():
    # Each cone is read and range checked before the next one.
    for build in (Fan, StackyFan):
        with pytest.raises(DomainError) as ei:
            build(1, [(1,), (-1,)], [(2, 0), (0.5,)])
        assert ei.value.kind == "bad_index"
        with pytest.raises(DomainError) as ei:
            build(1, [(1,), (-1,)], [(0.5,), (2, 0)])
        assert ei.value.kind == "not_exact"


def test_ray_index_reads_its_query_as_a_fan_ray():
    # The query is integer input, as a ray is (INTEGER_ENTRY_POINTS in
    # test_exact checks the rays), and the zero vector is no ray.
    fan = Fan(1, [(2,), (-1,)], [(0,), (1,)])
    assert fan.ray_index((Fraction(4),)) == 1
    with pytest.raises(DomainError) as ei:
        fan.ray_index((Fraction(3, 2),))
    assert ei.value.kind == "not_integral"
    with pytest.raises(DomainError) as ei:
        fan.ray_index((0,))
    assert ei.value.kind == "unknown_ray"


@st.composite
def origin_polytopes(draw):
    """Lattice polytopes in dims 2-3 with the origin inside: the cross
    polytope plus a few points of a small box, so facets and vertex cones
    are often not simplicial."""
    n = draw(st.integers(2, 3))
    box = st.integers(-2, 2) if draw(st.booleans()) else st.integers(-1, 1)
    pts = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    pts += draw(st.lists(st.tuples(*[box] * n), max_size=5))
    return Polytope.from_points(pts)


def project(p, basis):
    """The image of p under x -> (<b, x>) over the basis rows."""
    return Polytope.from_points([tuple(dot(b, v) for b in basis) for v in p.vertices])


def test_normal_fan_of_a_projection():
    # The square's normal fan is that of P1 x P1, pulled back along the
    # diagonal; the triangle's is that of P2, pulled back along an axis.
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    triangle = Polytope.from_points([(-1, -1), (2, -1), (-1, 2)])
    assert normal_fan(square) == Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                                     [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert normal_fan(triangle) == Fan(2, [(1, 0), (0, 1), (-1, -1)],
                                       [(0, 1), (0, 2), (1, 2)])
    for p, basis in ((square, [(1, 1)]), (triangle, [(1, 0)])):
        line = normal_fan(project(p, basis))
        assert line.rays == ((-1,), (1,)) and len(line.max_cones) == 2
        assert line.is_complete()
        assert restrict_fan_pairwise(normal_fan(p), basis) == line


@settings(max_examples=80, deadline=None)
@given(origin_polytopes(), st.integers(0, 2**32 - 1), st.data())
def test_pulled_back_normal_fan_is_the_normal_fan_of_the_projection(p, seed, data):
    # The preimage of the normal cone of p at v is the normal cone of the
    # image at the image of v, the lemma behind verify_embedding's check (b).
    # The first k rows of a unimodular matrix span a saturated sublattice.
    u = random_unimodular_matrix(p.dim, random.Random(seed), steps=12)
    k = data.draw(st.integers(1, p.dim))
    assert restrict_fan_pairwise(normal_fan(p), u[:k]) == normal_fan(project(p, u[:k]))


def test_cone_over():
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    c = square.cone
    assert c.dim == 3 and c.eq_normals == ()
    assert c.contains((0, 0, 1)) and not c.contains((3, 0, 1))
    assert set(c.rays) == {(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)}


def oracle_cells(points):
    return tuple(sorted(tuple(sorted(cell)) for cell in triangulate_2d(points)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=3, max_size=40, unique=True))
@example([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
@example([(0, 0), (16, 1), (1, 16), (15, 15), (8, 8), (7, 9)])
def test_placing_triangulation_matches_the_incremental_hull(points):
    # The lifted conversion's lower facets are the cells of the lex placing
    # triangulation built by hand, collinear starts included.
    assume(affine_rank(points) == 2)
    assert placing_triangulation(points) == oracle_cells(points)


def test_placing_triangulation_of_points_on_a_line():
    # Unevenly spaced points are cut into consecutive pairs.
    assert placing_triangulation([(3,), (0,), (1,), (7,)]) == ((0, 2), (0, 3), (1, 2))


def test_lattice_isomorphic_linear():
    pent1 = Polytope.from_points([(-1, 0), (0, 1), (1, 1), (1, -1), (0, -1)])
    pent2 = Polytope.from_points([(-1, 1), (1, 1), (1, 0), (0, -1), (-1, 0)])
    u = lattice_isomorphic(pent1, pent2)
    assert u is not None
    imgs = {tuple(dot(row, tuple(int(c) for c in v)) for row in u) for v in pent1.vertices}
    assert imgs == {tuple(int(c) for c in v) for v in pent2.vertices}
    square = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert lattice_isomorphic(square, tri) is None
    skew = Polytope.from_points([(0, 0), (1, 0), (1, 1), (2, 1)])
    assert lattice_isomorphic(square, skew) is not None


def search_by_solving(p, q):
    """Oracle: the isomorphism search that solves for every candidate.

    Same candidate order as lattice_isomorphic, but each ordered d-tuple bq
    costs d exact solves unless bp is unimodular.
    """
    d = p.dim
    pv = [tuple(int(c) for c in v) for v in p.vertices]
    qv = [tuple(int(c) for c in v) for v in q.vertices]
    bp = [pv[i] for i in solving_base(p)]
    try:
        bp_inv = unimodular_inverse(bp)
    except DomainError:
        bp_inv = None
    for perm in permutations(range(len(qv)), d):
        bq = [qv[i] for i in perm]
        if bp_inv is not None:
            u = [[sum(bp_inv[k][i] * bq[i][j] for i in range(d)) for k in range(d)]
                 for j in range(d)]
        else:
            u = [solve_linear(bp, [bq[i][j] for i in range(d)]) for j in range(d)]
        if any(Fraction(c).denominator != 1 for row in u for c in row):
            continue
        urows = tuple(tuple(int(c) for c in row) for row in u)
        if abs(det(urows)) == 1 and {mat_vec(urows, v) for v in pv} == set(qv):
            return urows
    return None


def solving_base(p):
    """Indices of the first independent d-tuple of p's vertices."""
    return next(c for c in combinations(range(len(p.vertices)), p.dim)
                if rank([p.vertices[i] for i in c]) == p.dim)


@st.composite
def full_lattice_polytopes(draw):
    """Full dimensional lattice polytopes of dimension 2-3, at most 12 vertices."""
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n + 1, max_size=12))
    p = Polytope.from_points(pts)
    assume(p.is_full_dimensional())
    return p


# The first independent pair or triple of vertices of these cubes spans a
# sublattice of index 2 or 4: the branch that divides by det bp.
SQUARE = Polytope.from_points(list(product((-1, 1), repeat=2)))
CUBE = Polytope.from_points(list(product((-1, 1), repeat=3)))


def test_the_examples_have_a_non_unimodular_base():
    for p in (SQUARE, CUBE):
        assert abs(det([p.vertices[i] for i in solving_base(p)])) > 1


@settings(max_examples=40, deadline=None)
@given(full_lattice_polytopes(), st.integers(0, 2**32 - 1))
@example(SQUARE, 3)
@example(CUBE, 5)
def test_lattice_isomorphic_finds_the_oracles_map(p, seed):
    rng = random.Random(seed)
    u = random_unimodular_matrix(p.dim, rng)
    q = Polytope.from_points([mat_vec(u, v) for v in p.vertices])
    found = lattice_isomorphic(p, q)
    assert found == search_by_solving(p, q)
    assert abs(det(found)) == 1
    assert {mat_vec(found, v) for v in p.vertices} == set(q.vertices)
    assert lattice_isomorphic(p, p.dilate(2)) is None


def random_lattice_polytope(rng, n, vertices):
    """A full dimensional lattice polytope in [-2, 2]^n with the given
    number of vertices, from the first of 200 draws that has it, or None."""
    for _ in range(200):
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, 12))]
        p = Polytope.from_points(pts)
        if p.is_full_dimensional() and len(p.vertices) == vertices:
            return p
    return None


@settings(max_examples=60, deadline=None)
@given(full_lattice_polytopes(), st.integers(0, 2**32 - 1))
@example(CUBE, 7)
def test_vertex_keys_are_invariant_under_unimodular_maps(p, seed):
    # U sends the facet <a, x> >= rhs to <a U^-1, y> >= rhs, and
    # gcd(a U^-1) = gcd(a): each vertex v of p has the key of U v in U p.
    u = random_unimodular_matrix(p.dim, random.Random(seed))
    q = Polytope.from_points([mat_vec(u, v) for v in p.vertices])
    qkeys = dict(zip(q.vertices, polyhedra._vertex_keys(q)))
    for v, key in zip(p.vertices, polyhedra._vertex_keys(p)):
        assert qkeys[mat_vec(u, v)] == key


@settings(max_examples=60, deadline=None)
@given(full_lattice_polytopes(), st.integers(0, 2**32 - 1))
@example(SQUARE, 1)
@example(CUBE, 2)
def test_lattice_isomorphic_matches_the_oracle_on_other_pairs(p, seed):
    # Pairs with equal vertex counts that are mostly not isomorphic: an
    # independent draw, a translate by a unit vector, and the dilate.  The
    # search gives the oracle's answer, a matrix or None, on each.
    rng = random.Random(seed)
    unit = tuple(int(i == rng.randrange(p.dim)) for i in range(p.dim))
    others = [
        random_lattice_polytope(rng, p.dim, len(p.vertices)),
        Polytope.from_points([vadd(v, unit) for v in p.vertices]),
        p.dilate(2),
    ]
    for q in others:
        if q is not None:
            assert len(q.vertices) == len(p.vertices)
            assert lattice_isomorphic(p, q) == search_by_solving(p, q)


HEXAGON = Polytope.from_points([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
OCTAHEDRON = Polytope.from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (-1, 0, 0), (0, -1, 0), (0, 0, -1)])


@pytest.mark.parametrize("p", [CUBE, OCTAHEDRON, HEXAGON], ids=["cube", "octahedron", "hexagon"])
@pytest.mark.parametrize("seed", range(4))
def test_lattice_isomorphic_when_every_vertex_has_one_key(p, seed):
    # Nothing is pruned: every ordered d-tuple is tried, in the oracle's order.
    assert len(set(polyhedra._vertex_keys(p))) == 1
    u = random_unimodular_matrix(p.dim, random.Random(seed))
    q = Polytope.from_points([mat_vec(u, v) for v in p.vertices])
    found = lattice_isomorphic(p, q)
    assert found is not None
    assert found == search_by_solving(p, q)


# A simplex around the origin with three more points: its keys prune the
# search, which made 7 eliminations on it when it tried every d-tuple.
PRUNED = Polytope.from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
                               (2, -1, 0), (0, 2, -2), (-2, 1, 1)])
FIXED_U = ((1, 2, 0), (0, 1, -1), (1, 1, 0))


@pytest.mark.parametrize("p, eliminations", [(CUBE, 3), (PRUNED, 3)], ids=["cube", "pruned"])
def test_lattice_isomorphic_counts_its_eliminations(monkeypatch, p, eliminations):
    # Counts do not depend on the machine.  A pair whose sorted keys differ
    # takes no elimination; a match takes the rank of p's base, the
    # reduction of [bp | I], and one det per integral candidate tried.
    q = Polytope.from_points([mat_vec(FIXED_U, v) for v in p.vertices])
    dilate = p.dilate(2)
    expected = search_by_solving(p, q)
    calls = count_calls(monkeypatch, "_row_reduce", exact, polyhedra)
    assert lattice_isomorphic(p, dilate) is None
    assert calls == []
    assert lattice_isomorphic(p, q) == expected
    assert len(calls) <= eliminations


def built_from_hrep(system):
    """The polytope of an hrep_systems draw, or None when it raises."""
    n, ineqs, eqs = system
    try:
        return Polytope.from_hrep(ineqs, eqs, dim=n)
    except DomainError:
        return None


LATTICE_POINT_SETS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=8)
)


def assert_fields(p, described):
    """p's first-read properties and the queries on them against described,
    types included, and its cone field by field against a conversion of
    its vertices."""
    vertices, inequalities, equations, incidence = described
    assert repr((p.vertices, p.inequalities, p.equations, p.incidence)) == repr(described)
    assert p.facet_vertex_sets() == tuple(
        frozenset(i for i in range(len(vertices)) if mask >> i & 1) for mask in incidence
    )
    assert p.is_lattice() == all(type(c) is int for v in vertices for c in v)
    assert p.has_interior_origin() == (not equations and all(b < 0 for _, b in inequalities))
    cone = Cone.from_rays([v + (1,) for v in p.vertices], dim=p.dim + 1)
    for field in Cone.__slots__:
        assert getattr(p.cone, field) == getattr(cone, field), field


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    LATTICE_POINT_SETS.map(Polytope.from_points),
    point_sets().map(Polytope.from_points),
    hrep_systems().map(built_from_hrep),
    origin_polytopes(),
    rational_origin_polytopes(),
    st.builds(lambda: Polytope.from_hrep([], dim=0)),
))
def test_polytope_fields_against_the_eager_oracles(p):
    # Every property a Polytope dehomogenizes on first read, and its polar
    # dual read off the kept cone, against the former eager builds.
    assume(p is not None)
    expected = dehomogenized(p.dim, p.cone)
    assert_fields(p, expected)
    if not p.has_interior_origin():
        assert not p.is_reflexive()
        return
    polar = polar_by_fractions(p.dim, expected)
    lattice_dual = all(type(c) is int for v in polar[0] for c in v)
    assert p.is_reflexive() == (p.is_lattice() and lattice_dual)
    d = p.dual()
    assert_fields(d, polar)
    assert polar_by_fractions(p.dim, polar) == expected
    assert_fields(d.dual(), expected)
    assert d.dual() == p

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoscaffold.errors import DomainError
from fanoscaffold.exact import dot, kernel_basis, solve_linear, transpose, vneg, vsub
from fanoscaffold.inversion import anticanonical_scaffolding, laurent_inversion
from fanoscaffold.laurent import LaurentPolynomial
from fanoscaffold.mutations import mutate_scaffolding, segment_factor
from fanoscaffold.nefpart import (
    FanoNefPartition,
    cayley,
    check_fano_nef_partition,
    check_nef_partition,
    fano_nef_partition_from_inversion,
    mutation_chain_check,
    p_s_polytope,
    p_tilde,
    p_tilde_one,
)
from fanoscaffold.polyhedra import (
    Cone,
    _fan_face,
    Polytope,
    lattice_isomorphic,
    normal_fan,
    spanning_fan,
)
from fanoscaffold.scaffolding import Scaffolding, Strut, product_fan
from fanoscaffold.toric import GitData, git_to_stacky_fan

HEX_VERTICES = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def square():
    return Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def p2_triangle():
    return Polytope.from_points([(1, 0), (0, 1), (-1, -1)])


def mono(exponent):
    return LaurentPolynomial.monomial(exponent)


def dp6_triangle_scaffolding():
    shape = product_fan([(0, 1)])
    struts = [Strut((1, 0, 0)), Strut((0, 1, 0)), Strut((0, 0, 1))]
    return Scaffolding(shape, 0, struts, Polytope.from_points(HEX_VERTICES))


def dp6_square_scaffolding():
    shape = product_fan([(0,), (1,)])
    struts = [Strut((0, 1, 0, 1)), Strut((1, 0, 1, 0))]
    return Scaffolding(shape, 0, struts, Polytope.from_points(HEX_VERTICES))


def product_square_scaffolding():
    shape = product_fan([(0,), (1,)])
    target = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return Scaffolding(shape, 0, [Strut((1, 1, 1, 1))], target)


def cubic_scaffolding():
    shape = product_fan([(0, 1)])
    target = Polytope.from_points([(-1, -1), (2, -1), (-1, 2)])
    return Scaffolding(shape, 0, [Strut((1, 1, 1))], target)


# ---------------------------------------------------------------------------
# nef partitions of reflexive polytopes
# ---------------------------------------------------------------------------

def test_square_diagonal_partition_is_valid():
    delta = square()
    # vertices in storage order: (-1,-1), (-1,1), (1,-1), (1,1)
    report = check_nef_partition(delta, [(0, 3), (1, 2)])
    assert report["pl_ok"]
    assert report["minkowski_ok"]
    assert report["valid"]
    half = Fraction(1, 2)
    assert report["nablas"][0] == Polytope.from_points([(-half, -half), (half, half)])
    assert report["nablas"][1] == Polytope.from_points([(-half, half), (half, -half)])
    assert report["points"] == ((0, 0), (0, 0))
    # the section polytopes are genuinely fractional here
    assert not report["cartier"]


def test_square_adjacent_partition_is_also_valid():
    delta = square()
    report = check_nef_partition(delta, [(1, 3), (0, 2)])
    assert report["valid"]
    half = Fraction(1, 2)
    assert report["nablas"][0] == Polytope.from_points(
        [(-half, -half), (0, -1), (0, 0), (half, -half)]
    )
    assert report["points"] == ((0, -1), (0, 1))


def test_hexagon_opposite_pair_fails_the_minkowski_sum():
    hexagon = Polytope.from_points(HEX_VERTICES)
    # vertices in storage order: (-1,0), (-1,1), (0,-1), (0,1), (1,-1), (1,0)
    report = check_nef_partition(hexagon, [(0, 5), (1, 2, 3, 4)])
    assert report["pl_ok"]
    assert not report["minkowski_ok"]
    assert not report["valid"]
    # sections still exist, they are just too small to sum to the dual
    assert report["nablas"][0] == Polytope.from_points([(0, 0)])
    assert report["points"] == ((0, 0), (0, 0))


def test_triangle_partitions():
    delta = p2_triangle()
    # vertices in storage order: (-1,-1), (0,1), (1,0)
    report = check_nef_partition(delta, [(2,), (0, 1)])
    assert report["valid"]
    assert report["nablas"][0] == Polytope.from_points([(0, 0), (-1, 0), (-1, 1)])
    assert report["nablas"][1] == Polytope.from_points([(0, -1), (2, -1), (0, 1)])
    whole = check_nef_partition(delta, [(0, 1, 2)])
    assert whole["valid"]
    assert whole["nablas"][0] == delta.dual()


def test_partition_input_is_validated():
    delta = p2_triangle()
    for bad in ([(0,), (1,)], [(0, 1), (1, 2)], [(0, 1, 2), ()], []):
        with pytest.raises(DomainError) as exc:
            check_nef_partition(delta, bad)
        assert exc.value.kind == "bad_partition"
        assert exc.value.detail == "parts must partition the vertex indices"
    wide = Polytope.from_points([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    with pytest.raises(DomainError) as exc:
        check_nef_partition(wide, [(0, 1, 2, 3)])
    assert exc.value.kind == "not_reflexive"


def test_cube_partition_without_linear_pieces():
    cube = Polytope.from_points(list(product((-1, 1), repeat=3)))
    top = tuple(i for i, v in enumerate(cube.vertices) if v[2] == 1)
    part = top[:3]
    rest = tuple(i for i in range(len(cube.vertices)) if i not in part)
    report = check_nef_partition(cube, [part, rest])
    assert not report["pl_ok"]
    assert not report["valid"]


# ---------------------------------------------------------------------------
# ray partitions on the ambient side
# ---------------------------------------------------------------------------

def test_fano_partition_of_the_triangle_scaffolding():
    inv = laurent_inversion(dp6_triangle_scaffolding())
    fnp = fano_nef_partition_from_inversion(inv)
    assert fnp.f_part == (0, 1, 2)
    assert fnp.e_parts == ((3, 4, 5),)
    report = check_fano_nef_partition(fnp)
    assert report["ample_base"]
    assert report["nef_parts"] == (True,)
    assert report["gorenstein_cone"]
    assert report["valid"]


def test_fano_partition_of_the_square_scaffolding():
    inv = laurent_inversion(dp6_square_scaffolding())
    fnp = fano_nef_partition_from_inversion(inv)
    assert fnp.f_part == (0, 1)
    assert fnp.e_parts == ((2, 5), (3, 4))
    report = check_fano_nef_partition(fnp)
    assert report["valid"]


def test_fano_partition_is_lost_under_mutation():
    mutated = mutate_scaffolding(
        dp6_square_scaffolding(), (1, 0), segment_factor((1, 0))
    )
    inv = laurent_inversion(mutated)
    assert inv.recovered is None
    with pytest.raises(DomainError) as exc:
        fano_nef_partition_from_inversion(inv)
    assert exc.value.kind == "unsupported_shape"


def test_fano_partition_synthetic_checks():
    git = GitData(2, 4, [(1, 0), (0, 1), (1, 0), (0, 1)], (1, 1))
    good = check_fano_nef_partition(FanoNefPartition(git, [(0, 1)], (2, 3)))
    assert good["valid"]
    # opposite rays span no cone of the fan, and the leftover pair is not ample
    bad = check_fano_nef_partition(FanoNefPartition(git, [(0, 2)], (1, 3)))
    assert not bad["gorenstein_cone"]
    assert not bad["ample_base"]
    assert bad["nef_parts"] == (True,)
    assert not bad["valid"]


def all_fan_cones(fan):
    """Every cone of the fan, by enumerating the facets of each cone found."""
    queue = [Cone.from_rays([fan.rays[i] for i in c], dim=fan.dim) for c in fan.max_cones]
    out = set()
    while queue:
        cone = queue.pop()
        if cone not in out:
            out.add(cone)
            lines = list(cone.lineality) + [vneg(l) for l in cone.lineality]
            for a in cone.ineq_normals:
                gens = [r for r in cone.rays if dot(a, r) == 0] + lines
                queue.append(Cone.from_rays(gens, dim=cone.dim))
    return out


@st.composite
def polytope_fans(draw):
    """Spanning or normal fans of lattice polytopes in dims 2-3 around the
    origin; points of the cube {-1, 0, 1}^n make many of them non-simplicial."""
    n = draw(st.integers(2, 3))
    pts = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    pts += draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), max_size=6))
    p = Polytope.from_points(pts)
    return spanning_fan(p) if draw(st.booleans()) else normal_fan(p)


@settings(max_examples=60, deadline=None)
@given(polytope_fans(), st.data())
def test_face_test_against_face_enumeration(fan, data):
    cones = all_fan_cones(fan)
    index = st.integers(0, len(fan.rays) - 1)
    for _ in range(8):
        if data.draw(st.booleans()):
            # a subset of a maximal cone's rays is often a face
            pool = data.draw(st.sampled_from(fan.max_cones))
            subset = data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        else:
            subset = data.draw(st.lists(index, min_size=1, max_size=4, unique=True))
        sigma = Cone.from_rays([fan.rays[i] for i in subset], dim=fan.dim)
        in_fan = sigma.is_pointed() and _fan_face(fan, sigma.rays) == sigma.rays
        assert in_fan == (sigma in cones)


def test_fano_partition_struct_is_validated():
    # P^1 x P^1: four coordinates.
    git = GitData(2, 4, [(1, 0), (0, 1), (1, 0), (0, 1)], (1, 1))
    for e_parts, f_part in [
        ([(0,)], (1,)),
        ([(0, 1), (1, 2)], (3,)),
        ([()], (0, 1, 2, 3)),
        ([], (0, 1, 2, 3)),
    ]:
        with pytest.raises(DomainError) as exc:
            FanoNefPartition(git, e_parts, f_part)
        assert exc.value.kind == "bad_partition"
        assert exc.value.detail == "parts must partition the ray indices"


# ---------------------------------------------------------------------------
# Cayley polytopes
# ---------------------------------------------------------------------------

def full_dim_model(polytope):
    """Rewrite a lattice polytope in coordinates on its own affine lattice."""
    if polytope.is_full_dimensional():
        return polytope
    base = polytope.vertices[0]
    diffs = [vsub(v, base) for v in polytope.vertices[1:]]
    normals = kernel_basis(diffs, ncols=polytope.dim)
    basis = transpose(kernel_basis(normals, ncols=polytope.dim))
    return Polytope.from_points([solve_linear(basis, vsub(v, base)) for v in polytope.vertices])


def is_gorenstein(polytope, index):
    """Whether the index-th dilate is reflexive in the polytope's own lattice.

    The dilate must be a lattice polytope with a single interior lattice
    point, and translating that point to the origin must leave a reflexive
    polytope.  Lower dimensional polytopes are measured inside the lattice
    of their affine span.  The oracle for the Gorenstein Cayley polytopes
    of nef partitions (Batyrev and Borisov).
    """
    q = polytope.dilate(index)
    if not q.is_lattice():
        return False
    model = full_dim_model(q)
    inner = [
        p
        for p in model.integral_points()
        if all(dot(a, p) > rhs for a, rhs in model.inequalities)
    ]
    if len(inner) != 1:
        return False
    return Polytope.from_points([vsub(v, inner[0]) for v in model.vertices]).is_reflexive()


def test_cayley_of_one_polytope_is_a_slice():
    poly, cone = cayley([p2_triangle()])
    assert poly == Polytope.from_points([(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    assert all(cone.contains(tuple(v)) for v in poly.vertices)
    assert is_gorenstein(poly, 1)


def test_cayley_of_the_diagonal_sections():
    report = check_nef_partition(square(), [(0, 3), (1, 2)])
    poly, cone = cayley(report["nablas"])
    assert poly.dim - len(poly.equations) == 3
    assert len(poly.vertices) == 4
    assert not poly.is_lattice()
    assert is_gorenstein(poly, 2)
    assert cone.is_pointed()


def test_valid_partitions_give_gorenstein_cayley_polytopes():
    cases = [
        (square(), [(0, 3), (1, 2)]),
        (p2_triangle(), [(2,), (0, 1)]),
        (p2_triangle(), [(0, 1, 2)]),
    ]
    for delta, parts in cases:
        report = check_nef_partition(delta, parts)
        assert report["valid"]
        poly, _ = cayley(report["nablas"])
        assert is_gorenstein(poly, len(parts))


def test_cayley_input_is_validated():
    with pytest.raises(DomainError) as exc:
        cayley([])
    assert exc.value.kind == "dimension_unknown"
    seg = Polytope.from_points([(0,), (1,)])
    with pytest.raises(DomainError) as exc:
        cayley([seg, square()])
    assert exc.value.kind == "dimension_mismatch"


# ---------------------------------------------------------------------------
# height models and the mutation chain
# ---------------------------------------------------------------------------

def test_height_model_of_the_product_square():
    scaf = product_square_scaffolding()
    model = p_tilde(scaf)
    corners = [(x, y, -2, -2) for x in (-1, 1) for y in (-1, 1)]
    assert model == Polytope.from_points(corners)
    one = mono((0, 0, 0, 0))
    g = (
        mono((0, 0, 1, 0))
        + mono((0, 0, 0, 1))
        + (one + mono((1, 0, 0, 0))) ** 2
        * (one + mono((0, 1, 0, 0))) ** 2
        * mono((-1, -1, -2, -2))
    )
    assert p_tilde_one(scaf) == g.newton_polytope()


def test_height_model_default_heights():
    scaf = dp6_square_scaffolding()
    assert p_tilde(scaf) == Polytope.from_points([v + (-1, -1) for v in HEX_VERTICES])


def test_chain_for_the_product_square():
    scaf = product_square_scaffolding()
    ps = p_s_polytope(scaf)
    f4 = (
        mono((1, 0, 0, 0))
        + mono((0, 1, 0, 0))
        + mono((0, 0, 1, 0))
        + mono((0, 0, 0, 1))
        + mono((-1, -1, -1, -1))
    )
    assert ps == f4.newton_polytope()
    assert mutation_chain_check(scaf)
    one = mono((0, 0, 0, 0))
    h = (
        mono((0, 0, 1, 0)) * (one + mono((1, 0, 0, 0)))
        + mono((0, 0, 0, 1)) * (one + mono((0, 1, 0, 0)))
        + mono((-1, -1, -2, -2))
    )
    assert lattice_isomorphic(h.newton_polytope(), f4.newton_polytope()) is not None


def test_chain_for_the_hexagon_scaffoldings():
    tri = dp6_triangle_scaffolding()
    ps = p_s_polytope(tri)
    octahedron = Polytope.from_points(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    )
    assert ps == octahedron
    assert mutation_chain_check(tri)
    assert mutation_chain_check(dp6_square_scaffolding())
    assert mutation_chain_check(cubic_scaffolding())


def test_ambient_ray_hull_spans_the_ambient_fan():
    for scaf in [
        product_square_scaffolding(),
        dp6_triangle_scaffolding(),
        cubic_scaffolding(),
    ]:
        inv = laurent_inversion(scaf)
        stacky = git_to_stacky_fan(inv.git)
        assert spanning_fan(p_s_polytope(scaf)) == stacky.fan()


def test_chain_needs_a_product_shape():
    dp7 = Polytope.from_points([(0, 1), (-1, 1), (-1, 0), (0, -1), (2, -1)])
    scaf = anticanonical_scaffolding(dp7)
    with pytest.raises(DomainError) as exc:
        mutation_chain_check(scaf)
    assert exc.value.kind == "unsupported_shape"

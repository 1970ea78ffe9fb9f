import random
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoscaffold import exact, forward, inversion, polyhedra, scaffolding, toric
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    dot,
    identity_matrix,
    mat_vec,
    primitive_vector,
    transpose,
    vscale,
)
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.inversion import (
    _ray_relations,
    _relation_basis,
    ambient_rays,
    anticanonical_scaffolding,
    binomial_equations,
    ci_data,
    laurent_inversion,
    verify_embedding,
)
from fanoscaffold.polyhedra import (
    Fan,
    Polytope,
    dd_cone,
    normal_fan,
    spanning_fan,
)
from fanoscaffold.scaffolding import (
    Scaffolding,
    Strut,
    dual_cone_check,
    product_fan,
    product_structure,
    scaffolding_from_forward,
    validate_scaffolding,
)
from fanoscaffold.toric import GitData

from helpers import (
    _det2,
    angular_order,
    count_calls,
    proper_faces,
    random_unimodular_matrix,
    restrict_fan_pairwise,
    triangulate_2d,
)


def cubic_scaffolding():
    git = GitData(1, 4, [(1,), (1,), (1,), (1,)], (1,))
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    return scaffolding_from_forward(git, part)


def bundle_scaffolding():
    rows = [(1, 0, 0, 1, -1, 1, 1), (0, 1, 1, 0, 1, 0, 0)]
    chars = [tuple(row[j] for row in rows) for j in range(7)]
    git = GitData(2, 7, chars, (1, 1))
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    return scaffolding_from_forward(git, part)


def dp6_triangle_scaffolding():
    shape = product_fan([(0, 1)])
    struts = [
        Strut(tuple(1 if k == i else 0 for k in range(3))) for i in range(3)
    ]
    hexagon = Polytope.from_points(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    )
    return Scaffolding(shape, 0, struts, hexagon)


def fourfold_scaffolding():
    rows = [(1, 0, 1, 0, 1, 1, 1), (0, 1, 0, 1, 0, 1, -1)]
    chars = [tuple(row[j] for row in rows) for j in range(7)]
    git = GitData(2, 7, chars, (3, 2))
    part = ConvexPartitionWithBasis((0, 1), [(5, 6)], (2, 3, 4), (5,))
    return scaffolding_from_forward(git, part)


def circulant2_scaffolding():
    rows = [(1, 0, 2, 1, 1), (0, 1, 1, 2, -1)]
    chars = [tuple(row[j] for row in rows) for j in range(5)]
    git = GitData(2, 5, chars, (1, 1))
    part = ConvexPartitionWithBasis((0, 1), [(2, 3, 4)], (), (4,))
    return scaffolding_from_forward(git, part)


def test_cubic_inversion():
    scaf = cubic_scaffolding()
    inv = laurent_inversion(scaf)
    assert inv.matrix == ((1, 1, 1, 1),)
    assert inv.git.omega == (1,)
    assert inv.recovered.B == (0,)
    assert inv.recovered.S == ((1, 2, 3),)
    assert inv.recovered.U == ()
    qs = inversion._q_s_polytope(scaf, ambient_rays(scaf))
    assert qs.vertices == Polytope.from_points(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ).vertices


def test_bundle_inversion_recovers_weights():
    scaf = bundle_scaffolding()
    inv = laurent_inversion(scaf)
    assert inv.matrix == (
        (1, 0, 1, 0, -1, 1, 1),
        (0, 1, 0, 1, 1, 0, 0),
    )
    assert inv.recovered.B == (0, 1)
    assert inv.recovered.U == (2,)
    assert inv.recovered.S == ((3, 6), (4, 5))
    # original normalised weights, columns reordered: basis, U, then the
    # shape's rays (negative ray of each factor plays the chosen column)
    original = [(1, 0, 0, 1, -1, 1, 1), (0, 1, 1, 0, 1, 0, 0)]
    perm = [0, 1, 6, 2, 4, 5, 3]
    assert inv.matrix == tuple(
        tuple(row[j] for j in perm) for row in original
    )


def test_dp6_triangles_inversion():
    scaf = dp6_triangle_scaffolding()
    inv = laurent_inversion(scaf)
    assert inv.matrix == (
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
    )
    assert inv.git.omega == (1, 1, 1)


def test_fourfold_inversion_matrix():
    scaf = fourfold_scaffolding()
    inv = laurent_inversion(scaf, omega=(3, 2))
    assert inv.matrix == (
        (1, 0, 1, 0, 1, 1, 1),
        (0, 1, 0, 1, 0, 1, -1),
    )
    assert inv.git.omega == (3, 2)
    assert inv.recovered.U == (2, 3, 4)
    assert inv.recovered.S == ((5, 6),)


def test_ambient_rays_bundle():
    scaf = bundle_scaffolding()
    rays = ambient_rays(scaf)
    assert rays == (
        (-1, 0, 1, -1, -1),
        (0, -1, -1, 0, 0),
        (1, 0, 0, 0, 0),
    )


def test_binomials_dp6_triangles():
    inv = laurent_inversion(dp6_triangle_scaffolding())
    bins = binomial_equations(inv)
    assert bins == (((0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0)),)


def test_binomials_circulant2():
    inv = laurent_inversion(circulant2_scaffolding())
    bins = binomial_equations(inv)
    assert bins == (((0, 0, 1, 1, 1), (4, 2, 0, 0, 0)),)


def test_binomials_product_shape():
    inv = laurent_inversion(bundle_scaffolding())
    bins = binomial_equations(inv)
    # one relation per factor of the shape
    assert len(bins) == 2
    for plus, minus in bins:
        assert sum(plus[3:]) == 2 and sum(minus[3:]) == 0


def test_binomials_of_a_three_dimensional_shape():
    # The cube's anticanonical shape is the fan of P^1 x P^1 x P^1, whose
    # relations are the canonical basis: one pair of opposite rays each.
    # Each binomial trades that pair for two copies of the strut column.
    cube = Polytope.from_points(list(product((-1, 1), repeat=3)))
    bins = binomial_equations(laurent_inversion(anticanonical_scaffolding(cube)))
    strut = (2, 0, 0, 0, 0, 0, 0)
    assert bins == (
        ((0, 0, 0, 1, 1, 0, 0), strut),
        ((0, 0, 1, 0, 0, 1, 0), strut),
        ((0, 1, 0, 0, 0, 0, 1), strut),
    )


def test_binomials_put_a_strut_against_its_wall_on_the_plus_side():
    # The second strut is 2 on the ray (1, 0), which the wall relation
    # (0, -1) + (1, 1) - (1, 0) = 0 takes with coefficient -1, so its column
    # gets exponent 2 next to the relation's positive rays.
    scaf = anticanonical_scaffolding(dp7())
    scaf = Scaffolding(scaf.shape, 0, scaf.struts + (Strut((0, 0, 0, 2, 0)),), scaf.target)
    bins = binomial_equations(laurent_inversion(scaf))
    assert ((0, 2, 0, 1, 0, 0, 1), (1, 0, 0, 0, 0, 1, 0)) in bins


def test_wall_relations_start_with_a_positive_entry():
    # The rays in lex order are (-2, -3), (-2, -1), (-1, 0), (0, 1), (1, 0).
    # The minors of the wall at (-2, -3), between (-2, -1) and (1, 0), give
    # -(-2, -3) + 3 (-2, -1) + 4 (1, 0) = 0, which is negated.
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (-2, -1), (-2, -3)],
              [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert fan.is_complete()
    rels = _ray_relations(fan)
    assert rels == [
        (0, 0, 1, 0, 1),
        (0, 1, -2, 1, 0),
        (1, -3, 0, 0, -4),
        (1, -3, 4, 0, 0),
        (1, 0, 0, 3, 2),
    ]
    for w in rels:
        assert [dot(w, col) for col in zip(*fan.rays)] == [0, 0]


def wall_relations_by_angles(fan):
    """The wall relation of each ray of a complete plane fan, with the ray's
    neighbours in the angular order of the rays, first nonzero entry
    positive, sorted."""
    rays = fan.rays
    order = angular_order(rays)
    n = len(order)
    rels = set()
    for t in range(n):
        i, j, k = order[t - 1], order[t], order[(t + 1) % n]
        w = [0] * n
        w[i] = _det2(rays[j], rays[k])
        w[j] = -_det2(rays[i], rays[k])
        w[k] = _det2(rays[i], rays[j])
        if next(c for c in w if c) < 0:
            w = [-c for c in w]
        rels.add(tuple(w))
    return sorted(rels)


@st.composite
def complete_plane_fans(draw):
    """The normal or the spanning fan of a lattice polygon around the origin."""
    small = st.integers(-3, 3)
    pts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    pts += draw(st.lists(st.tuples(small, small), max_size=6))
    p = Polytope.from_points(pts)
    return spanning_fan(p) if draw(st.booleans()) else normal_fan(p)


@settings(max_examples=200, deadline=None)
@given(complete_plane_fans())
def test_wall_relations_against_the_angular_order(fan):
    assert _ray_relations(fan) == wall_relations_by_angles(fan)


def test_wall_relations_need_two_cones_on_each_ray():
    # Without the cone (0, 4), the rays (1, 0) and (-2, -3) lie on one
    # 2-cone each.
    rays = [(1, 0), (0, 1), (-1, 0), (-2, -1), (-2, -3)]
    open_fan = Fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(DomainError) as exc:
        _ray_relations(open_fan)
    assert (exc.value.kind, exc.value.detail) == (
        "unsupported_shape",
        "ray (-2, -3) of the plane shape does not lie on exactly two 2-cones",
    )


def test_verify_embedding_fixtures():
    for scaf in (
        cubic_scaffolding(),
        bundle_scaffolding(),
        dp6_triangle_scaffolding(),
    ):
        ok, report = verify_embedding(scaf)
        assert report["ambient_rays"]
        assert report["restricted_fan"]
        assert report["face_cones"]
        assert ok


def test_verify_embedding_dilated_target_fails_only_the_face_cones():
    # Doubling the target keeps its spanning fan, but halves its facet
    # normals, so no strut ray pairs to -1 with their lifts any more.
    scaf = fixture("cubic-surface")["scaffolding"]
    dilated = Scaffolding(scaf.shape, scaf.u, scaf.struts, scaf.target.dilate(2))
    assert verify_embedding(dilated) == (
        False,
        {"ambient_rays": True, "restricted_fan": True, "face_cones": False},
    )


def test_verify_embedding_dropped_strut_fails_the_fan_and_face_cones():
    scaf = fixture("circulant-two")["scaffolding"]
    dropped = Scaffolding(scaf.shape, scaf.u, scaf.struts[:-1], scaf.target)
    assert verify_embedding(dropped) == (
        False,
        {"ambient_rays": True, "restricted_fan": False, "face_cones": False},
    )


@pytest.mark.parametrize("name", fixture_names())
def test_verify_embedding_reports_a_zero_strut(name):
    # A strut whose coefficients and shift are all 0 is vertexless, which
    # validate_scaffolding accepts.  Its ambient ray is 0: never a fan ray,
    # so check (a) fails, and tight at no facet, so check (c) ignores it.
    scaf = fixture(name)["scaffolding"]
    zero = Strut((0,) * len(scaf.shape.rays), (0,) * scaf.u)
    padded = Scaffolding(scaf.shape, scaf.u, list(scaf.struts) + [zero], scaf.target)
    assert validate_scaffolding(padded)[0]
    assert verify_embedding(padded) == (
        False,
        {"ambient_rays": False, "restricted_fan": True, "face_cones": True},
    )


SHIFTED_FIXTURES = [
    name for name in fixture_names() if fixture(name)["scaffolding"].u
]


def change_shift_lattice(scaf, g):
    """The scaffolding moved by g on N_U: chi goes to chi g on every strut
    and on the N_U block of every target vertex."""
    u = scaf.u

    def move(chi):
        return mat_vec(transpose(g), chi)

    struts = [Strut(s.coeffs, move(s.chi)) for s in scaf.struts]
    target = Polytope.from_points(
        [move(v[:u]) + tuple(v[u:]) for v in scaf.target.vertices]
    )
    return Scaffolding(scaf.shape, u, struts, target)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", SHIFTED_FIXTURES)
def test_inversion_is_invariant_under_a_change_of_the_shift_lattice(name, seed):
    # The ambient shift block is written in the unit struts' basis, so a
    # change of N_U moves neither the weight matrix nor any embedding check.
    scaf = fixture(name)["scaffolding"]
    moved = change_shift_lattice(
        scaf, random_unimodular_matrix(scaf.u, random.Random(seed))
    )
    assert laurent_inversion(moved).matrix == laurent_inversion(scaf).matrix
    assert verify_embedding(moved) == verify_embedding(scaf)


def face_cones_per_face(scaf, basis, rhos, theta, preimages=None):
    """The reference for _face_cones_check: check (c) face by face, with
    two dd_cone passes for every proper face of the target and none of
    check (b)'s preimages reused."""
    u = scaf.u
    nrays = len(scaf.shape.rays)
    dim = u + nrays
    target = scaf.target
    lifts = []
    for a, rhs in target.inequalities:
        lifted = inversion._lift_facet_normal(
            scaf, basis, vscale(Fraction(-1) / rhs, a))
        if lifted is None:
            return False
        lifts.append(lifted)
    tight = [
        (rho, frozenset(k for k, lift in enumerate(lifts) if dot(rho, lift) == -1))
        for rho in rhos
    ]
    for j in range(nrays):
        unit = tuple(1 if p == u + j else 0 for p in range(dim))
        tight.append((unit, frozenset(k for k, lift in enumerate(lifts) if not lift[u + j])))
    facet_sets = target.facet_vertex_sets()
    for _, indices in proper_faces(target):
        members = set(indices)
        cover = {k for k, fset in enumerate(facet_sets) if members <= fset}
        if not cover:
            return False
        gens = [g for g, at in tight if cover <= at]
        normals, eq_normals = dd_cone(gens, dim=dim)
        rays, lineality = dd_cone(
            [tuple(dot(a, b) for b in theta) for a in normals],
            [tuple(dot(e, b) for b in theta) for e in eq_normals],
            dim=len(theta),
        )
        face_rays = tuple(sorted(
            primitive_vector(tuple(int(c) for c in target.vertices[i]))
            for i in indices
        ))
        if lineality or rays != face_rays:
            return False
    return True


def embedding_outcome(scaf):
    """verify_embedding's result, or the kind of the error it raises."""
    try:
        return verify_embedding(scaf)
    except DomainError as exc:
        return exc.kind


def face_cones_arguments(scaf):
    """The arguments verify_embedding passes to _face_cones_check."""
    seen = []
    check = inversion._face_cones_check

    def spy(*args):
        seen.append(args)
        return check(*args)

    with mock.patch.object(inversion, "_face_cones_check", spy):
        verify_embedding(scaf)
    return seen[0]


def facets_pass_vertex_fails():
    """circulant-two with two more struts and one target vertex cut off.
    Every facet's preimage is its cone, though the generators of three of
    the four facets are not the rays of an ambient maximal cone.  At the
    vertex (1, -2) only the strut ray (-1, -1, -2) is tight at both facets,
    and it does not span the vertex's image (1, -2, 1)."""
    scaf = fixture("circulant-two")["scaffolding"]
    struts = [Strut(c) for c in ((1, 1, 2), (-1, 2, 1), (1, 0, 0), (0, 2, -1))]
    target = Polytope.from_points([(-2, -1), (-2, 3), (1, -2), (2, -1)])
    return Scaffolding(scaf.shape, scaf.u, struts, target)


@st.composite
def perturbed_scaffoldings(draw):
    """A corpus scaffolding, as it is or with one change that may break
    some of the embedding checks."""
    scaf = fixture(draw(st.sampled_from(fixture_names())))["scaffolding"]
    shape, u, struts, target = scaf.shape, scaf.u, list(scaf.struts), scaf.target
    kind = draw(st.sampled_from(
        ["none", "dilate", "drop", "coefficient", "add", "enlarge", "shift"]))
    if kind == "dilate":
        target = target.dilate(draw(st.integers(2, 3)))
    elif kind == "drop" and len(struts) > 1:
        del struts[draw(st.integers(0, len(struts) - 1))]
    elif kind == "coefficient":
        i = draw(st.integers(0, len(struts) - 1))
        coeffs = list(struts[i].coeffs)
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(st.sampled_from([-1, 1]))
        struts[i] = Strut(coeffs, struts[i].chi)
    elif kind == "add":
        coeffs = draw(st.lists(st.integers(-1, 2), min_size=len(shape.rays),
                               max_size=len(shape.rays)))
        chi = draw(st.lists(st.integers(-1, 1), min_size=u, max_size=u))
        struts.append(Strut(coeffs, chi))
    elif kind == "enlarge":
        point = draw(st.tuples(*[st.integers(-2, 2)] * target.dim))
        target = Polytope.from_points(list(target.vertices) + [point])
    elif kind == "shift" and u:
        g = random_unimodular_matrix(u, random.Random(draw(st.integers(0, 2**16))))
        return change_shift_lattice(scaf, g)
    return Scaffolding(shape, u, struts, target)


@settings(max_examples=60, deadline=None)
@given(perturbed_scaffoldings())
@example(facets_pass_vertex_fails())
def test_face_cones_check_against_the_per_face_oracle(scaf):
    outcome = embedding_outcome(scaf)
    with mock.patch.object(inversion, "_face_cones_check", face_cones_per_face):
        assert embedding_outcome(scaf) == outcome


def flat_shape_scaffolding():
    """A shape whose two rays span only a line, so theta has rank 1 and
    the image of Q_S is a segment in the plane: no preimage of an ambient
    cone is full dimensional.  The strut's ray (-2, -2) is not primitive,
    and neither is the normal of its facet of Q_S."""
    shape = Fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
    square = Polytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return Scaffolding(shape, 0, [Strut((2, 2))], square)


def fan_checks_by_fans(scaf):
    """Checks (a) and (b) read off the normal fan of Q_S: its rays against
    the primitive strut rays and units, and its maximal cones pulled back
    along theta by two passes each, merged by pairwise domination, against
    the target's spanning fan."""
    try:
        _, rhos, theta = inversion._ambient_lattice(scaf)
    except DomainError:
        return {"ambient_rays": False, "restricted_fan": False}
    ambient = normal_fan(inversion._q_s_polytope(scaf, rhos))
    expected = {primitive_vector(rho) if any(rho) else rho for rho in rhos}
    expected.update(identity_matrix(ambient.dim)[scaf.u:])
    return {
        "ambient_rays": set(ambient.rays) == expected,
        "restricted_fan": restrict_fan_pairwise(ambient, theta) == spanning_fan(scaf.target),
    }


@settings(max_examples=60, deadline=None)
@given(perturbed_scaffoldings())
@example(facets_pass_vertex_fails())
@example(flat_shape_scaffolding())
def test_fan_checks_against_the_two_pass_oracle(scaf):
    outcome = embedding_outcome(scaf)
    try:
        expected = fan_checks_by_fans(scaf)
    except DomainError as exc:
        assert outcome == exc.kind
    else:
        report = outcome[1]
        assert {k: report[k] for k in expected} == expected


def test_facets_can_pass_while_a_vertex_fails():
    args = face_cones_arguments(facets_pass_vertex_fails())
    assert not face_cones_per_face(*args)
    assert not inversion._face_cones_check(*args)
    with mock.patch.object(inversion, "_in_cone", lambda gens, point: True):
        assert inversion._face_cones_check(*args)


def octahedron_scaffolding():
    """The octahedron on its own normal fan, whose six maximal cones have
    four rays each.  The dual vertex of each facet is a ray of the shape,
    so its lift is unique."""
    octa = Polytope.from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    return Scaffolding(normal_fan(octa), 0, [Strut((1,) * 8)], octa)


def test_face_cones_check_lifts_through_a_face_of_a_non_simplicial_cone():
    scaf = octahedron_scaffolding()
    assert validate_scaffolding(scaf)[0]
    assert verify_embedding(scaf) == (
        True, {"ambient_rays": True, "restricted_fan": True, "face_cones": True}
    )
    assert face_cones_per_face(*face_cones_arguments(scaf))


def test_a_normal_inside_a_four_ray_cone_has_no_unique_lift():
    # (1, 0, 0) is interior to the cone at the vertex (1, 0, 0), spanned by
    # the four normals (1, +-1, +-1).
    with pytest.raises(DomainError) as exc:
        inversion._lift_facet_normal(octahedron_scaffolding(), (), (1, 0, 0))
    assert exc.value.kind == "unsupported_shape"
    assert "not unique" in exc.value.detail


@pytest.mark.parametrize("name", fixture_names())
def test_face_cones_check_without_reused_preimages(name):
    # With no preimages to read, every facet takes its own two dd_cone
    # passes.  A dilated target keeps its spanning fan but moves its facets
    # off the strut rays: the first facet's generators are not the rays of
    # an ambient maximal cone, and it fails after its two passes.
    scaf = fixture(name)["scaffolding"]
    scaf_args = face_cones_arguments(scaf)
    assert inversion._face_cones_check(*scaf_args[:-1], {})
    dilated = Scaffolding(scaf.shape, scaf.u, scaf.struts, scaf.target.dilate(2))
    args = face_cones_arguments(dilated)
    calls = Counter()

    def counted(*a, **k):
        calls["dd_cone"] += 1
        return dd_cone(*a, **k)

    with mock.patch.object(inversion, "dd_cone", counted), mock.patch.object(
        polyhedra, "dd_cone", counted
    ):
        assert not inversion._face_cones_check(*args)
    assert calls["dd_cone"] == 2
    assert not face_cones_per_face(*args)


@st.composite
def generators_and_points(draw):
    """Nonzero integer generators in dims 2-4, as many as the dimension
    (often independent) or more (always dependent), and a point that is
    either arbitrary or a nonnegative combination of them."""
    n = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=n + draw(st.integers(0, 2))))
    if draw(st.booleans()):
        point = draw(st.tuples(*[st.integers(-3, 3)] * n))
    else:
        weights = draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
        point = tuple(sum(w * g[p] for w, g in zip(weights, gens)) for p in range(n))
    return gens, point


@settings(max_examples=150, deadline=None)
@given(generators_and_points())
@example(([(1, 0), (0, 1), (1, 1)], (2, 1)))
@example(([(1, 0), (-1, 0), (0, 1)], (-3, 0)))
@example(([(1, 0, 0), (0, 1, 0)], (1, -1, 0)))
@example(([(1, 2, 0), (2, 4, 0)], (-1, -2, 0)))
def test_in_cone_against_the_h_description(case):
    gens, point = case
    normals, eq_normals = dd_cone(gens, dim=len(point))
    inside = all(dot(a, point) >= 0 for a in normals) and not any(
        dot(e, point) for e in eq_normals)
    assert inversion._in_cone(gens, point) == inside


def test_no_unit_basis_fails_every_embedding_check():
    scaf = bundle_scaffolding()
    # drop the unit strut: the shifts no longer contain a basis
    bad = Scaffolding(scaf.shape, scaf.u, scaf.struts[:2], scaf.target)
    assert verify_embedding(bad) == (
        False,
        {"ambient_rays": False, "restricted_fan": False, "face_cones": False},
    )
    for build in (ambient_rays, ci_data, laurent_inversion):
        with pytest.raises(DomainError) as exc:
            build(bad)
        assert exc.value.kind == "invalid_scaffolding"


@pytest.mark.parametrize("entry", [
    ambient_rays,
    laurent_inversion,
    verify_embedding,
    ci_data,
])
def test_each_entry_point_searches_the_unit_basis_once(monkeypatch, entry):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    search = counted("unit_strut_basis", scaffolding.unit_strut_basis)
    monkeypatch.setattr(scaffolding, "unit_strut_basis", search)
    monkeypatch.setattr(inversion, "unit_strut_basis", search)
    monkeypatch.setattr(
        inversion, "unimodular_inverse",
        counted("unimodular_inverse", inversion.unimodular_inverse),
    )
    entry(bundle_scaffolding())
    assert calls == Counter(unit_strut_basis=1, unimodular_inverse=1)


def test_ci_data_bundle():
    scaf = bundle_scaffolding()
    data = ci_data(scaf)
    assert data["functionals"] == ((0, 1, 0, 0, 1), (0, 0, 1, 1, 0))
    assert data["degrees"] == ((1, 1), (0, 1))
    assert data["degrees_nonnegative"]
    assert data["lattice_ok"]


def test_embedding_map_shape():
    scaf = bundle_scaffolding()
    theta = laurent_inversion(scaf).theta
    assert theta == (
        (1, 0, 0, 0, 0),
        (0, -1, 0, 0, 1),
        (0, 0, -1, 1, 0),
    )


# The cones of the anticanonical fans, as the incremental 2-D hull
# triangulated each dual facet.
OCTAHEDRON_CONES = (
    (0, 1, 3), (0, 1, 9), (0, 3, 9), (1, 2, 3), (1, 2, 9), (2, 3, 4), (2, 4, 5),
    (2, 5, 11), (2, 9, 10), (2, 10, 11), (3, 4, 6), (3, 6, 9), (4, 5, 6), (5, 6, 7),
    (5, 7, 8), (5, 8, 11), (6, 7, 14), (6, 9, 12), (6, 12, 14), (7, 8, 14), (8, 11, 13),
    (8, 13, 16), (8, 14, 15), (8, 15, 16), (9, 10, 17), (9, 12, 17), (10, 11, 17),
    (11, 13, 19), (11, 17, 18), (11, 18, 19), (12, 14, 17), (13, 16, 19), (14, 15, 23),
    (14, 17, 20), (14, 20, 23), (15, 16, 23), (16, 19, 22), (16, 22, 25), (16, 23, 24),
    (16, 24, 25), (17, 18, 20), (18, 19, 20), (19, 20, 21), (19, 21, 22), (20, 21, 23),
    (21, 22, 23), (22, 23, 24), (22, 24, 25),
)

CUBE_CONES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 3, 5), (2, 4, 5),
    (3, 4, 5),
)

P3_CONES = {
    None: (
        (0, 1, 5), (0, 1, 15), (0, 5, 15), (1, 2, 5), (1, 2, 15), (2, 3, 5), (2, 3, 15),
        (3, 4, 5), (3, 4, 15), (4, 5, 6), (4, 6, 7), (4, 7, 8), (4, 8, 20), (4, 15, 16),
        (4, 16, 17), (4, 17, 18), (4, 18, 32), (4, 20, 28), (4, 28, 32), (5, 6, 9),
        (5, 9, 15), (6, 7, 9), (7, 8, 9), (8, 9, 10), (8, 10, 11), (8, 11, 22),
        (8, 20, 29), (8, 22, 29), (9, 10, 12), (9, 12, 15), (10, 11, 12), (11, 12, 13),
        (11, 13, 23), (11, 22, 23), (12, 13, 14), (12, 14, 15), (13, 14, 23),
        (14, 15, 19), (14, 19, 21), (14, 21, 23), (15, 16, 24), (15, 19, 24),
        (16, 17, 24), (17, 18, 24), (18, 24, 25), (18, 25, 26), (18, 26, 32),
        (19, 21, 24), (20, 28, 29), (21, 23, 24), (22, 23, 29), (23, 24, 27),
        (23, 27, 29), (24, 25, 30), (24, 27, 30), (25, 26, 30), (26, 30, 31),
        (26, 31, 32), (27, 29, 30), (28, 29, 32), (29, 30, 32), (30, 31, 33),
        (30, 32, 33), (31, 32, 33),
    ),
    1: (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 7), (2, 4, 5),
        (2, 5, 7), (3, 4, 6), (3, 6, 10), (3, 7, 9), (3, 9, 10), (4, 5, 8), (4, 6, 8),
        (5, 7, 8), (6, 8, 10), (7, 8, 11), (7, 9, 16), (7, 11, 13), (7, 13, 16),
        (8, 10, 12), (8, 11, 14), (8, 12, 14), (9, 10, 16), (10, 12, 15), (10, 15, 21),
        (10, 16, 18), (10, 18, 20), (10, 20, 21), (11, 13, 14), (12, 14, 15),
        (13, 14, 16), (14, 15, 19), (14, 16, 17), (14, 17, 19), (15, 19, 21),
        (16, 17, 22), (16, 18, 28), (16, 22, 25), (16, 25, 28), (17, 19, 22),
        (18, 20, 28), (19, 21, 24), (19, 22, 23), (19, 23, 24), (20, 21, 28),
        (21, 24, 29), (21, 28, 30), (21, 29, 33), (21, 30, 31), (21, 31, 32),
        (21, 32, 33), (22, 23, 25), (23, 24, 25), (24, 25, 26), (24, 26, 27),
        (24, 27, 29), (25, 26, 28), (26, 27, 28), (27, 28, 29), (28, 29, 30),
        (29, 30, 31), (29, 31, 32), (29, 32, 33),
    ),
    2: (
        (0, 1, 2), (0, 1, 24), (0, 2, 3), (0, 3, 7), (0, 7, 14), (0, 14, 24), (1, 2, 4),
        (1, 4, 24), (2, 3, 9), (2, 4, 5), (2, 5, 6), (2, 6, 8), (2, 8, 9), (3, 7, 28),
        (3, 9, 16), (3, 16, 28), (4, 5, 10), (4, 10, 24), (5, 6, 10), (6, 8, 18),
        (6, 10, 11), (6, 11, 12), (6, 12, 13), (6, 13, 15), (6, 15, 17), (6, 17, 18),
        (7, 14, 28), (8, 9, 18), (9, 16, 31), (9, 18, 31), (10, 11, 19), (10, 19, 24),
        (11, 12, 19), (12, 13, 19), (13, 15, 33), (13, 19, 20), (13, 20, 21),
        (13, 21, 22), (13, 22, 23), (13, 23, 27), (13, 27, 30), (13, 30, 32),
        (13, 32, 33), (14, 24, 28), (15, 17, 33), (16, 28, 31), (17, 18, 33),
        (18, 31, 33), (19, 20, 24), (20, 21, 24), (21, 22, 24), (22, 23, 24),
        (23, 24, 25), (23, 25, 26), (23, 26, 27), (24, 25, 28), (25, 26, 28),
        (26, 27, 28), (27, 28, 29), (27, 29, 30), (28, 29, 31), (29, 30, 31),
        (30, 31, 32), (31, 32, 33),
    ),
    3: (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 6), (2, 4, 5),
        (2, 5, 6), (3, 4, 7), (3, 6, 9), (3, 7, 13), (3, 9, 13), (4, 5, 8), (4, 7, 8),
        (5, 6, 8), (6, 8, 10), (6, 9, 12), (6, 10, 11), (6, 11, 12), (7, 8, 13),
        (8, 10, 15), (8, 13, 14), (8, 14, 15), (9, 12, 13), (10, 11, 15), (11, 12, 15),
        (12, 13, 17), (12, 15, 16), (12, 16, 18), (12, 17, 22), (12, 18, 19),
        (12, 19, 22), (13, 14, 20), (13, 17, 23), (13, 20, 27), (13, 23, 27),
        (14, 15, 20), (15, 16, 21), (15, 20, 21), (16, 18, 21), (17, 22, 23),
        (18, 19, 21), (19, 21, 22), (20, 21, 27), (21, 22, 24), (21, 24, 28),
        (21, 27, 28), (22, 23, 26), (22, 24, 25), (22, 25, 26), (23, 26, 27),
        (24, 25, 28), (25, 26, 28), (26, 27, 30), (26, 28, 29), (26, 29, 30),
        (27, 28, 31), (27, 30, 32), (27, 31, 33), (27, 32, 33), (28, 29, 31),
        (29, 30, 31), (30, 31, 32), (31, 32, 33),
    ),
    4: (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 9), (1, 4, 7), (1, 7, 9),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 6, 8), (3, 8, 9), (4, 5, 10), (4, 7, 23),
        (4, 10, 14), (4, 14, 16), (4, 16, 23), (5, 6, 10), (6, 8, 13), (6, 10, 11),
        (6, 11, 12), (6, 12, 13), (7, 9, 23), (8, 9, 13), (9, 13, 15), (9, 15, 17),
        (9, 17, 23), (10, 11, 18), (10, 14, 33), (10, 18, 24), (10, 24, 28),
        (10, 28, 31), (10, 31, 33), (11, 12, 18), (12, 13, 18), (13, 15, 22),
        (13, 18, 19), (13, 19, 20), (13, 20, 21), (13, 21, 22), (14, 16, 33),
        (15, 17, 22), (16, 23, 33), (17, 22, 23), (18, 19, 24), (19, 20, 24),
        (20, 21, 24), (21, 22, 24), (22, 23, 27), (22, 24, 25), (22, 25, 26),
        (22, 26, 27), (23, 27, 30), (23, 30, 32), (23, 32, 33), (24, 25, 28),
        (25, 26, 28), (26, 27, 28), (27, 28, 29), (27, 29, 30), (28, 29, 31),
        (29, 30, 31), (30, 31, 32), (31, 32, 33),
    ),
    5: (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 7), (1, 3, 4), (1, 4, 5), (1, 5, 29),
        (1, 7, 15), (1, 15, 29), (2, 3, 7), (3, 4, 6), (3, 6, 9), (3, 7, 8), (3, 8, 9),
        (4, 5, 13), (4, 6, 10), (4, 10, 11), (4, 11, 25), (4, 13, 25), (5, 13, 29),
        (6, 9, 10), (7, 8, 15), (8, 9, 15), (9, 10, 12), (9, 12, 14), (9, 14, 18),
        (9, 15, 16), (9, 16, 17), (9, 17, 18), (10, 11, 22), (10, 12, 19), (10, 19, 20),
        (10, 20, 22), (11, 22, 25), (12, 14, 19), (13, 25, 29), (14, 18, 19),
        (15, 16, 29), (16, 17, 29), (17, 18, 29), (18, 19, 21), (18, 21, 24),
        (18, 24, 28), (18, 28, 33), (18, 29, 30), (18, 30, 31), (18, 31, 32),
        (18, 32, 33), (19, 20, 21), (20, 21, 22), (21, 22, 23), (21, 23, 24),
        (22, 23, 25), (23, 24, 25), (24, 25, 26), (24, 26, 27), (24, 27, 28),
        (25, 26, 29), (26, 27, 29), (27, 28, 29), (28, 29, 30), (28, 30, 31),
        (28, 31, 32), (28, 32, 33),
    ),
}


def dp7():
    return Polytope.from_points([(0, 1), (-1, 1), (-1, 0), (0, -1), (2, -1)])


def test_anticanonical_dp7():
    scaf = anticanonical_scaffolding(dp7())
    assert scaf.shape.rays == ((-1, -1), (0, -1), (0, 1), (1, 0), (1, 1))
    assert scaf.shape.is_complete()
    assert scaf.struts == (Strut((1, 1, 1, 1, 1)),)
    ok, _ = validate_scaffolding(scaf)
    assert ok
    inv = laurent_inversion(scaf)
    assert inv.matrix == ((1, 1, 1, 1, 1, 1),)
    bins = binomial_equations(inv)
    assert len(bins) == 5
    # the wall through (0,1) pairs (1,1) with (-1,-1) against two copies
    # of the strut coordinate
    assert ((0, 1, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0)) in bins


def test_anticanonical_dp7_embedding():
    scaf = anticanonical_scaffolding(dp7())
    ok, report = verify_embedding(scaf)
    assert ok, report


def test_anticanonical_octahedron():
    octa = Polytope.from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    scaf = anticanonical_scaffolding(octa)
    assert len(scaf.shape.rays) == 26
    assert scaf.shape.max_cones == OCTAHEDRON_CONES
    assert scaf.shape.is_complete()
    ok, report = validate_scaffolding(scaf)
    assert ok, report
    assert dual_cone_check(scaf)


def test_anticanonical_cube():
    scaf = anticanonical_scaffolding(Polytope.from_points(list(product((-1, 1), repeat=3))))
    assert scaf.shape.rays == (
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert scaf.shape.max_cones == CUBE_CONES
    ok, report = validate_scaffolding(scaf)
    assert ok, report


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_anticanonical_p3_projects_each_facet_along_its_normal(seed):
    # Each dual facet is triangulated in the plane of the two coordinates
    # its normal weighs least; projecting along the wrong facet's normal
    # flattens some facet of these simplices to a line.
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    if seed is not None:
        u = random_unimodular_matrix(3, random.Random(seed))
        points = [mat_vec(u, v) for v in points]
    scaf = anticanonical_scaffolding(Polytope.from_points(points))
    assert len(scaf.shape.rays) == 34
    assert scaf.shape.max_cones == P3_CONES[seed]
    assert scaf.shape.is_complete()
    ok, report = validate_scaffolding(scaf)
    assert ok, report


def reflexive_hull(rng):
    """The hull of a random subset of {-1, 0, 1}^3 that is reflexive."""
    box = [p for p in product((-1, 0, 1), repeat=3) if any(p)]
    while True:
        try:
            p = Polytope.from_points(rng.sample(box, rng.randrange(4, 12)))
        except DomainError:
            continue
        if p.is_full_dimensional() and p.is_reflexive():
            return p


@pytest.mark.parametrize("seed", range(12))
def test_dual_facets_triangulate_as_the_incremental_hull(seed):
    # The fan of anticanonical_scaffolding, on a reflexive hull and on its
    # dual, is the one the hand-built lex placing triangulation gives on
    # each dual facet's own lattice points, flattened along the coordinate
    # the facet normal weighs most.
    p = reflexive_hull(random.Random(seed))
    for q in (p, p.dual()):
        dual = q.dual()
        boundary = [v for v in dual.integral_points() if any(v)]
        index = {v: i for i, v in enumerate(boundary)}
        cones = []
        for (a, _), facet in zip(dual.inequalities, dual.facet_vertex_sets()):
            pts = Polytope.from_points([dual.vertices[i] for i in facet]).integral_points()
            drop = max(range(3), key=lambda k: abs(a[k]))
            flat = [v[:drop] + v[drop + 1:] for v in pts]
            cones += [[index[pts[i]] for i in cell] for cell in triangulate_2d(flat)]
        expected = Fan(3, boundary, cones)
        fan = anticanonical_scaffolding(q).shape
        assert (fan.rays, fan.max_cones) == (expected.rays, expected.max_cones)


def test_anticanonical_rejects_bad_inputs():
    square2 = Polytope.from_points([(2, 2), (-2, 2), (2, -2), (-2, -2)])
    with pytest.raises(DomainError) as exc:
        anticanonical_scaffolding(square2)
    assert exc.value.kind == "not_reflexive"
    seg = Polytope.from_points([(-1,), (1,)])
    with pytest.raises(DomainError) as exc:
        anticanonical_scaffolding(seg)
    assert exc.value.kind == "unsupported_dimension"


def test_q_s_unbounded_detected():
    shape = product_fan([(0,)])
    struts = [
        Strut((0, 0), (1,)),
        Strut((0, 0), (2,)),
    ]
    target = Polytope.from_points([(1, 0), (2, 0)])
    scaf = Scaffolding(shape, 1, struts, target)
    with pytest.raises(DomainError) as exc:
        verify_embedding(scaf)
    assert exc.value.kind == "unbounded"


def set_partitions(items):
    """Every partition of the tuple items into blocks, each block in order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [(first,)] + blocks
        for i, block in enumerate(blocks):
            yield blocks[:i] + [(first,) + block] + blocks[i + 1:]


def test_relation_basis_of_a_product_is_its_factor_indicators():
    # _ray_relations and mutation_chain_check read a product shape's factors
    # off the canonical relation basis: one indicator vector per factor.
    count = 0
    for dim in range(1, 7):
        for blocks in set_partitions(tuple(range(dim))):
            fan = product_fan(blocks)
            nrays = len(fan.rays)
            indicators = [
                tuple(int(j in idx) for j in range(nrays))
                for _, idx in product_structure(fan)
            ]
            assert sorted(_relation_basis(fan)) == sorted(indicators)
            count += 1
    assert count == 1 + 2 + 5 + 15 + 52 + 203


def test_roundtrip_conversion_counts(monkeypatch):
    # One round trip of the quotient-roundtrip benchmark op on
    # circulant-three.  The convexity check runs once per GitData and
    # partition, the strut pieces and their hull are converted once per
    # scaffolding, the support of the chambers is the character cone
    # GitData keeps, and the table of bases takes one elimination per
    # pair of weights; a second pass of any of these raises the counts.
    fx = fixture("circulant-three")
    git, part = fx["git"], fx["partition"]
    dd = count_calls(monkeypatch, "_dd_core", polyhedra)
    eliminations = count_calls(
        monkeypatch, "_row_reduce", exact, inversion, polyhedra, toric
    )
    g = GitData(git.r, git.R, git.characters, git.omega)
    toric.git_to_stacky_fan(g)
    forward.przyjalkowski(g, part)
    scaf = scaffolding_from_forward(g, part)
    laurent_inversion(scaf)
    assert verify_embedding(scaf)[0]
    assert len(toric.secondary_fan(g)) == 13
    assert toric.in_chamber_interior(g, g.omega)
    assert (len(dd), len(eliminations)) == (22, 43)

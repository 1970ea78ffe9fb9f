import random
from collections import Counter
from fractions import Fraction
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
    _relation_basis,
    ambient_rays,
    anticanonical_scaffolding,
    binomial_equations,
    ci_data,
    laurent_inversion,
    verify_embedding,
)
from fanoscaffold.polyhedra import Fan, Polytope, dd_cone, normal_fan, spanning_fan
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

from helpers import count_calls, random_unimodular_matrix, restrict_fan_pairwise


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
    for _, indices in target.proper_faces():
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
    assert scaf.shape.is_complete()
    ok, report = validate_scaffolding(scaf)
    assert ok, report
    assert dual_cone_check(scaf)


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
    assert scaf.shape.is_complete()
    ok, report = validate_scaffolding(scaf)
    assert ok, report


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
    # partition, and the strut pieces are converted once per scaffolding;
    # a second pass of either raises these counts.
    fx = fixture("circulant-three")
    git, part = fx["git"], fx["partition"]
    dd = count_calls(monkeypatch, "_dd_core", polyhedra)
    eliminations = count_calls(
        monkeypatch, "_row_reduce", exact, forward, inversion, polyhedra, toric
    )
    g = GitData(git.r, git.R, git.characters, git.omega)
    toric.git_to_stacky_fan(g)
    forward.przyjalkowski(g, part)
    scaf = scaffolding_from_forward(g, part)
    laurent_inversion(scaf)
    assert verify_embedding(scaf)[0]
    assert len(toric.secondary_fan(g)) == 13
    assert toric.in_chamber_interior(g, g.omega)
    assert (len(dd), len(eliminations)) == (24, 52)

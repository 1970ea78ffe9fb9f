import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoscaffold import mutations, nefpart, polyhedra, scaffolding, toric
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import mat_vec
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.forward import (
    ConvexPartitionWithBasis,
    _convexity,
    normalized_matrix,
    przyjalkowski,
)
from fanoscaffold.inversion import laurent_inversion
from fanoscaffold.mutations import mutate_scaffolding
from fanoscaffold.nefpart import p_tilde
from fanoscaffold.polyhedra import Cone, Fan, Polytope, normal_fan
from fanoscaffold.scaffolding import (
    Scaffolding,
    Strut,
    _pieces,
    dual_cone_check,
    laurent_from_scaffolding,
    product_fan,
    product_structure,
    scaffolding_from_forward,
    strut_polytope,
    unit_strut_basis,
    validate_scaffolding,
)
from fanoscaffold.toric import GitData, sections_polytope

from helpers import (
    assert_forward_columns,
    contains_cone,
    count_calls,
    product_fan_by_enumeration,
    product_structure_union_find,
    random_unimodular_matrix,
)


def cubic_data():
    git = GitData(1, 4, [(1,), (1,), (1,), (1,)], (1,))
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    return git, part


def bundle_data():
    rows = [(1, 0, 0, 1, -1, 1, 1), (0, 1, 1, 0, 1, 0, 0)]
    chars = [tuple(row[j] for row in rows) for j in range(7)]
    git = GitData(2, 7, chars, (1, 1))
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    return git, part


def hexagon():
    return Polytope.from_points(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    )


def dp6_triangle_scaffolding():
    shape = product_fan([(0, 1)])
    # indicator of each ray, in the fan's canonical ray order
    struts = [
        Strut(tuple(1 if k == i else 0 for k in range(3)))
        for i in range(3)
    ]
    return Scaffolding(shape, 0, struts, hexagon())


def test_product_fan_p2():
    fan = product_fan([(0, 1)])
    assert fan.rays == ((-1, -1), (0, 1), (1, 0))
    assert len(fan.max_cones) == 3
    assert fan.is_complete()


def test_product_fan_p1xp1():
    fan = product_fan([(0,), (1,)])
    assert fan.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert len(fan.max_cones) == 4
    assert fan.is_complete()


@st.composite
def block_partitions(draw):
    """Partitions of 0..dim-1, dim 1 to 6, into blocks of 1 to 3 shuffled
    coordinates, so that a block need not be contiguous or sorted."""
    rest = draw(st.permutations(range(draw(st.integers(1, 6)))))
    blocks = []
    while rest:
        k = draw(st.integers(1, min(3, len(rest))))
        blocks.append(tuple(rest[:k]))
        rest = rest[k:]
    return blocks


@settings(max_examples=300, deadline=None)
@given(block_partitions())
@example([])
@example([(4, 1), (0, 5, 2), (3,)])
def test_product_fan_is_the_enumerated_product(blocks):
    # The trivial tower, moved to the block positions, is the product fan
    # listed ray by ray and cone by cone.
    assert product_fan(blocks) == product_fan_by_enumeration(blocks)


@pytest.mark.parametrize("blocks", [[(0,), ()], [()], [(0,), (0,)], [(0, 2)], [(1,)]])
def test_product_fan_rejects_blocks_that_are_no_partition(blocks):
    # An empty block would be a tower stage with one summand; product_fan
    # raises before any stage is built.
    with pytest.raises(DomainError) as exc:
        product_fan(blocks)
    assert (exc.value.kind, exc.value.detail) == (
        "bad_index", "blocks must be nonempty and partition 0..dim-1")
    assert exc.traceback[-1].name == "product_fan"


def test_product_structure_roundtrip():
    fan = product_fan([(0, 1), (2,)])
    # rays (-1,-1,0), (0,0,-1), (0,0,1), (0,1,0), (1,0,0)
    assert product_structure(fan) == (((0, 1), (0, 3, 4)), ((2,), (1, 2)))


def test_product_structure_rejects_other_fans():
    from fanoscaffold.polyhedra import Fan

    f1 = Fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(DomainError) as exc:
        product_structure(f1)
    assert exc.value.kind == "unsupported_shape"


def outcome(f, *args):
    """The result of f(*args), or the kind and detail of its DomainError."""
    try:
        return f(*args)
    except DomainError as exc:
        return exc.kind, exc.detail


@st.composite
def product_and_other_fans(draw):
    """Product fans on shuffled coordinate blocks, and fans near them: a
    unimodular image, one cone dropped, one ray moved, or the normal fan of
    a lattice polytope."""
    dim = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(dim)))
    cuts = [t for t in range(1, dim) if draw(st.booleans())]
    blocks = [tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [dim])]
    fan = product_fan(blocks)
    rays, cones = list(fan.rays), list(fan.max_cones)
    change = draw(st.sampled_from(["none", "image", "drop", "move", "normal"]))
    if change == "image":
        u = random_unimodular_matrix(dim, random.Random(draw(st.integers(0, 2**32))))
        rays = [mat_vec(u, r) for r in rays]
    elif change == "drop" and len(cones) > 1:
        del cones[draw(st.integers(0, len(cones) - 1))]
    elif change == "move":
        j = draw(st.integers(0, len(rays) - 1))
        t = draw(st.integers(0, dim - 1))
        moved = list(rays[j])
        moved[t] += draw(st.sampled_from([-1, 1]))
        if any(moved):
            rays[j] = tuple(moved)
    elif change == "normal":
        units = [tuple(s if k == i else 0 for k in range(dim)) for i in range(dim) for s in (1, -1)]
        points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=4))
        return normal_fan(Polytope.from_points(units + points))
    return Fan(dim, rays, cones)


@settings(max_examples=200, deadline=None)
@given(product_and_other_fans())
@example(product_fan([(2, 0), (3,), (1,)]))
@example(Fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]))
def test_product_structure_against_the_union_find(fan):
    # The same factors, or the same error kind and detail.
    assert outcome(product_structure, fan) == outcome(product_structure_union_find, fan)


def test_unbounded_pieces_raise():
    # On a fan of one quadrant the point strut's sections polytope is the
    # quadrant itself, so reading the piece raises unbounded, not None.
    quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    scaf = Scaffolding(quadrant, 0, [Strut((0, 0))], Polytope.from_points([(0, 0)]))
    for read in (lambda: strut_polytope(scaf, 0), lambda: validate_scaffolding(scaf)):
        with pytest.raises(DomainError) as exc:
            read()
        assert (exc.value.kind, exc.value.detail) == ("unbounded", "recession direction (0, 1)")


def test_laurent_polynomial_needs_nonnegative_degrees():
    # The strut is 1 on (0, -1) and -2 on (0, 1), degree -1 on that factor.
    scaf = Scaffolding(
        product_fan([(0,), (1,)]), 0, [Strut((0, 1, -2, 1))], Polytope.from_points([(0, 0)])
    )
    with pytest.raises(DomainError) as exc:
        laurent_from_scaffolding(scaf)
    assert (exc.value.kind, exc.value.detail) == (
        "negative_degree", "strut 0 has degree -1 on a factor")


def test_cubic_scaffolding():
    git, part = cubic_data()
    scaf = scaffolding_from_forward(git, part)
    assert scaf.u == 0
    assert scaf.shape.rays == ((-1, -1), (0, 1), (1, 0))
    assert scaf.struts == (Strut((1, 1, 1)),)
    # target is the Newton polytope of (1+x+y)^3/(xy)
    assert scaf.target.vertices == Polytope.from_points(
        [(-1, -1), (2, -1), (-1, 2)]
    ).vertices
    ok, report = validate_scaffolding(scaf)
    assert ok
    assert report["vertexless_struts"] == ()
    assert dual_cone_check(scaf)


def test_bundle_scaffolding():
    git, part = bundle_data()
    scaf = scaffolding_from_forward(git, part)
    assert scaf.u == 1
    assert scaf.shape.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert scaf.struts == (
        Strut((0, -1, 1, 1), (-1,)),
        Strut((1, 1, 0, 0), (0,)),
        Strut((0, 0, 0, 0), (1,)),
    )
    ok, report = validate_scaffolding(scaf)
    assert ok
    assert report["unit_basis"] == (2,)
    assert dual_cone_check(scaf)


def test_roundtrip_forward_scaffolding_laurent():
    for git, part in (cubic_data(), bundle_data()):
        scaf = scaffolding_from_forward(git, part)
        assert laurent_from_scaffolding(scaf) == przyjalkowski(git, part)


def test_dp6_triangles_valid():
    scaf = dp6_triangle_scaffolding()
    ok, report = validate_scaffolding(scaf)
    assert ok
    assert report["vertexless_struts"] == ()
    assert dual_cone_check(scaf)


def test_dp6_shrunk_strut_agrees_on_both_routes():
    shape = product_fan([(0, 1)])
    struts = [
        Strut((0, 0, 0)),
        Strut((0, 1, 0)),
        Strut((0, 0, 1)),
    ]
    scaf = Scaffolding(shape, 0, struts, hexagon())
    ok, _ = validate_scaffolding(scaf)
    assert not ok
    assert not dual_cone_check(scaf)


def test_vertexless_strut_reported():
    shape = product_fan([(0, 1)])
    struts = [
        Strut((1, 0, 0)),
        Strut((0, 1, 0)),
        Strut((0, 0, 1)),
        Strut((0, 0, 0)),  # just the origin, interior to the hexagon
    ]
    scaf = Scaffolding(shape, 0, struts, hexagon())
    ok, report = validate_scaffolding(scaf)
    assert ok
    assert report["vertexless_struts"] == (3,)
    assert dual_cone_check(scaf)


def test_empty_strut_tolerated():
    shape = product_fan([(0, 1)])
    struts = [
        Strut((1, 0, 0)),
        Strut((0, 1, 0)),
        Strut((0, 0, 1)),
        Strut((-1, 0, 0)),  # no sections at all
    ]
    scaf = Scaffolding(shape, 0, struts, hexagon())
    ok, report = validate_scaffolding(scaf)
    assert ok
    assert 3 in report["vertexless_struts"]
    assert dual_cone_check(scaf)


def test_unit_basis_required():
    git, part = bundle_data()
    scaf = scaffolding_from_forward(git, part)
    # drop the unit strut: the shifts no longer contain a basis
    bad = Scaffolding(scaf.shape, scaf.u, scaf.struts[:2], scaf.target)
    assert unit_strut_basis(bad) is None
    ok, report = validate_scaffolding(bad)
    assert not ok
    assert any("unit" in msg for msg in report["failures"])


def test_structural_errors():
    shape = product_fan([(0, 1)])
    with pytest.raises(DomainError) as exc:
        Scaffolding(shape, 0, [Strut((1, 0))], hexagon())
    assert exc.value.kind == "bad_scaffolding"
    with pytest.raises(DomainError):
        Scaffolding(shape, 1, [Strut((1, 0, 0))], hexagon())
    with pytest.raises(DomainError):
        Scaffolding(shape, 0, [], hexagon())


def test_every_strut_empty():
    shape = product_fan([(0, 1)])
    scaf = Scaffolding(shape, 0, [Strut((-1, 0, 0)), Strut((0, -1, 0))], hexagon())
    assert strut_polytope(scaf, 0) is None
    ok, report = validate_scaffolding(scaf)
    assert not ok
    assert report["failures"] == ["every strut is empty"]
    assert not dual_cone_check(scaf)
    with pytest.raises(DomainError) as exc:
        p_tilde(scaf)
    assert exc.value.kind == "empty_polytope"
    with pytest.raises(DomainError) as exc:
        mutate_scaffolding(scaf, (1, 0), Polytope.from_points([(0, 0)]))
    assert exc.value.kind == "not_mutable"
    assert "strut 0" in exc.value.detail


def bracket_polytope_scaffolding(git, part):
    """Shape, struts and target of a convex partition, the long way round.

    Each basis row's divisor polytope is built as the hull of its bracket
    polytope's vertices, a product of one dilated simplex per group shifted
    by the row's variable exponents, and each divisor coefficient is minus
    the least pairing of a shape ray with that hull.
    """
    assert _convexity(git, part)[0] == []
    norm = normalized_matrix(git, part)
    u = len(part.U)
    var_cols = part.variable_columns()
    pos = {j: p for p, j in enumerate(var_cols)}
    blocks = []
    for s, c in zip(part.S, part.choices):
        block = tuple(pos[j] - u for j in s if j != c)
        if block:
            blocks.append(block)
    shape = product_fan(blocks)
    struts = []
    for row in norm:
        factor_vertex_sets = []
        for s, c in zip(part.S, part.choices):
            level = int(sum(row[j] for j in s))
            block = [pos[j] - u for j in s if j != c]
            shift = [-int(row[var_cols[u + b]]) for b in block]
            verts = [tuple(shift)]
            for t in range(len(block)):
                vert = list(shift)
                vert[t] += level
                verts.append(tuple(vert))
            factor_vertex_sets.append([(block, v) for v in verts])
        points = []
        for combo in product(*factor_vertex_sets):
            point = [0] * shape.dim
            for block, vals in combo:
                for t, val in zip(block, vals):
                    point[t] = val
            points.append(tuple(point))
        piece = Polytope.from_points(points)
        coeffs = tuple(
            -min(sum(r * q for r, q in zip(ray, v)) for v in piece.vertices)
            for ray in shape.rays
        )
        struts.append(Strut(coeffs, tuple(-int(row[j]) for j in part.U)))
    for j in part.U:
        struts.append(Strut((0,) * len(shape.rays), tuple(int(i == j) for i in part.U)))
    points = []
    for strut in struts:
        points.extend(
            strut.chi + v for v in sections_polytope(shape, strut.coeffs).vertices
        )
    return shape, tuple(struts), Polytope.from_points(points)


CORPUS_PARTITIONS = [n for n in fixture_names() if "partition" in fixture(n)]


@pytest.mark.parametrize(
    "name", [n for n in fixture_names() if "scaffolding" in fixture(n)]
)
def test_piece_points_are_the_strut_polytope_vertices(name):
    # A piece's points are read off the sections polytope with no second
    # conversion, so they must already be the vertices, in lex order, that
    # a conversion of them gives.
    scaf = fixture(name)["scaffolding"]
    for i in range(len(scaf.struts)):
        points = _pieces(scaf)[i]
        assert points == strut_polytope(scaf, i).vertices


@pytest.mark.parametrize("name", CORPUS_PARTITIONS)
def test_forward_scaffolding_keeps_its_pieces(monkeypatch, name):
    # scaffolding_from_forward stores the pieces it builds the target from,
    # so the checks that read them convert no sections polytope again.
    fx = fixture(name)
    scaf = scaffolding_from_forward(fx["git"], fx["partition"])
    calls = count_calls(
        monkeypatch, "sections_polytope", toric, scaffolding, nefpart, mutations
    )
    laurent_inversion(scaf)
    assert validate_scaffolding(scaf)[0]
    dual_cone_check(scaf)
    assert calls == []


@pytest.mark.parametrize("name", [n for n in fixture_names() if "scaffolding" in fixture(n)])
def test_dual_cone_check_converts_only_the_strut_side(monkeypatch, name):
    # The target's polar dual keeps its cone, so once the pieces are known
    # the check makes one conversion, the intersection of the strut cones,
    # and its equality of canonical cones answers as mutual containment
    # does with the cone over the dual converted anew.
    scaf = fixture(name)["scaffolding"]
    _pieces(scaf)
    lhs = Cone.from_hrep([q + (1,) for piece in scaf._pieces if piece for q in piece])
    rhs = Cone.from_rays([v + (1,) for v in scaf.target.dual().vertices])
    calls = count_calls(monkeypatch, "_dd_core", polyhedra)
    assert dual_cone_check(scaf) == (contains_cone(lhs, rhs) and contains_cone(rhs, lhs))
    assert len(calls) == 1


@pytest.mark.parametrize("name", CORPUS_PARTITIONS)
def test_forward_scaffolding_converts_the_pieces_hull_once(monkeypatch, name):
    # scaffolding_from_rows converts the pieces' hull into the target and
    # keeps it as the hull, so the validation inside laurent_inversion
    # converts no hull again; a scaffolding built without it converts
    # its hull on the first validation only.
    fx = fixture(name)
    calls = count_calls(monkeypatch, "from_points", Polytope)
    scaf = scaffolding_from_forward(fx["git"], fx["partition"])
    laurent_inversion(scaf)
    points = sorted(v for piece in scaf._pieces for v in piece)
    assert [sorted(c) for c in calls].count(points) == 1
    assert scaf._hull is scaf.target
    fresh = Scaffolding(scaf.shape, scaf.u, scaf.struts, scaf.target)
    del calls[:]
    assert validate_scaffolding(fresh)[0] and validate_scaffolding(fresh)[0]
    assert [sorted(c) for c in calls] == [points]
    assert fresh._hull == scaf.target


def piece_readers(scaf):
    return validate_scaffolding(scaf), dual_cone_check(scaf), p_tilde(scaf)


@pytest.mark.parametrize(
    "name, source",
    [(n, "fixture") for n in fixture_names() if "scaffolding" in fixture(n)]
    + [(n, "forward") for n in CORPUS_PARTITIONS],
)
def test_stored_pieces_read_like_fresh_ones(name, source):
    # A scaffolding read once (or built from rows, which stores its pieces)
    # answers like a copy whose pieces are still unset.
    fx = fixture(name)
    if source == "forward":
        scaf = scaffolding_from_forward(fx["git"], fx["partition"])
    else:
        scaf = fx["scaffolding"]
    first = piece_readers(scaf)
    assert scaf._pieces is not None
    fresh = Scaffolding(scaf.shape, scaf.u, scaf.struts, scaf.target)
    assert fresh._pieces is None
    assert piece_readers(fresh) == piece_readers(scaf) == first
    assert fresh._pieces == scaf._pieces
    assert fresh._hull == scaf._hull


@pytest.mark.parametrize("name", CORPUS_PARTITIONS)
def test_forward_struts_match_bracket_polytopes(name):
    # Every choice of eliminated columns, under seeded changes of the
    # character lattice.
    assert len(CORPUS_PARTITIONS) == 9
    fx = fixture(name)
    git, part = fx["git"], fx["partition"]
    rng = random.Random(name)
    changes = [random_unimodular_matrix(git.r, rng) for _ in range(2)]
    for u in changes:
        moved = GitData(
            git.r,
            git.R,
            [mat_vec(u, d) for d in git.characters],
            mat_vec(u, git.omega),
        )
        for choices in product(*part.S):
            p = ConvexPartitionWithBasis(part.B, part.S, part.U, choices)
            scaf = scaffolding_from_forward(moved, p)
            shape, struts, target = bracket_polytope_scaffolding(moved, p)
            assert scaf.shape == shape
            assert scaf.struts == struts
            assert scaf.target == target


@pytest.mark.parametrize("name", CORPUS_PARTITIONS)
def test_forward_struts_read_each_column_on_its_ray(name):
    # Every choice of eliminated columns: the trivial tower labels each
    # column's ray, and the struts carry the rows' entries there.
    fx = fixture(name)
    part = fx["partition"]
    for choices in product(*part.S):
        assert_forward_columns(
            fx["git"], ConvexPartitionWithBasis(part.B, part.S, part.U, choices)
        )

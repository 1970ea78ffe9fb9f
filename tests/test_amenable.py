"""Collections of dual vectors, their bundle towers and scaffoldings."""

import pytest

from fanoscaffold.amenable import (
    amenable_binomials,
    scaffolding_from_amenable,
    tower_from_amenable,
    validate_amenable,
)
from fanoscaffold.errors import DomainError
from fanoscaffold.forward import ConvexPartitionWithBasis
from fanoscaffold.inversion import laurent_inversion, verify_embedding
from fanoscaffold.polyhedra import Fan, Polytope
from fanoscaffold.scaffolding import (
    Strut,
    product_fan,
    scaffolding_from_forward,
    validate_scaffolding,
)
from fanoscaffold.toric import GitData


def projective_space_data():
    """Four-space with two groups of two columns and one basis column."""
    git = GitData(1, 5, [(1,)] * 5, (1,))
    part = ConvexPartitionWithBasis((0,), ((1, 2), (3, 4)))
    vectors = ((-1, -1, 0, 2), (0, 0, -1, -1))
    return git, part, vectors


def product_data():
    """Two planes; the trivial collection pairs to zero on later groups."""
    chars = [(1, 0), (0, 1), (1, 0), (1, 0), (0, 1), (0, 1)]
    git = GitData(2, 6, chars, (1, 1))
    part = ConvexPartitionWithBasis((0, 1), ((2, 3), (4, 5)), (), (2, 4))
    vectors = ((-1, -1, 0, 0), (0, 0, -1, -1))
    return git, part, vectors


def bundle_data():
    """Rank-two quotient with a shift column kept out of the groups."""
    chars = [(1, 0), (0, 1), (0, 1), (1, 0), (-1, 1), (1, 0), (1, 0)]
    git = GitData(2, 7, chars, (1, 1))
    part = ConvexPartitionWithBasis((0, 1), ((2, 3), (4, 5)), (6,), (2, 4))
    return git, part


def test_collection_conditions_hold_on_the_projective_space_fixture():
    git, part, vectors = projective_space_data()
    ok, report = validate_amenable(git, part, vectors)
    assert ok
    assert report["failures"] == []
    assert report["pairings"] == ((0, -1, -1, 0, 2), (2, 0, 0, -1, -1))


def test_condition_failures_are_reported():
    git, part, vectors = projective_space_data()
    ok, report = validate_amenable(git, part, (vectors[1], vectors[0]))
    assert not ok
    assert any("own column" in f for f in report["failures"])
    assert any("earlier column" in f for f in report["failures"])
    ok, report = validate_amenable(git, part, ((-2, -1, 0, 2), vectors[1]))
    assert not ok
    assert any("pairs to -2 on its own column 1" in f for f in report["failures"])
    ok, report = validate_amenable(git, part, ((-1, -1, -1, 1), vectors[1]))
    assert not ok
    assert any("negative on later column 3" in f for f in report["failures"])


def test_collection_shape_is_validated():
    git, part, vectors = projective_space_data()
    with pytest.raises(DomainError) as exc:
        validate_amenable(git, part, vectors[:1])
    assert exc.value.kind == "dimension_mismatch"
    with pytest.raises(DomainError) as exc:
        validate_amenable(git, part, (vectors[0], (0, 0)))
    assert exc.value.kind == "dimension_mismatch"
    short = ConvexPartitionWithBasis((0,), ((1, 2), (3,)))
    with pytest.raises(DomainError) as exc:
        validate_amenable(git, short, vectors)
    assert exc.value.kind == "bad_partition"


def test_a_vector_off_a_shift_column_is_reported():
    # The collection of test_twisted_collection_on_the_bundle_fixture with
    # 2 more on e_5, the ray of the shift column 6.
    git, part = bundle_data()
    ok, report = validate_amenable(git, part, ((-1, -1, 1, 0, 2), (0, 0, -1, -1, 0)))
    assert not ok
    assert report["failures"] == ["vector 0 does not vanish on shift column 6"]
    assert report["pairings"][0] == (0, 0, -1, -1, 1, 0, 2)


def test_tower_of_the_projective_space_fixture():
    git, part, vectors = projective_space_data()
    tower = tower_from_amenable(git, part, vectors)
    assert tower.rays == ((-1, 2), (1, 0), (0, -1), (0, 1))
    assert tower.max_cones == ((0, 2), (0, 3), (1, 2), (1, 3))
    expected = Fan(2, [(-1, 2), (1, 0), (0, -1), (0, 1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert tower.fan() == expected


def test_binomials_of_the_projective_space_fixture():
    git, part, vectors = projective_space_data()
    assert amenable_binomials(git, part, vectors) == (
        ((0, 0, 0, 0, 2), (0, 1, 1, 0, 0)),
        ((2, 0, 0, 0, 0), (0, 0, 0, 1, 1)),
    )


def test_scaffolding_of_the_projective_space_fixture():
    git, part, vectors = projective_space_data()
    scaf = scaffolding_from_amenable(git, part, vectors)
    assert scaf.shape.rays == ((-1, 2), (0, -1), (0, 1), (1, 0))
    assert scaf.u == 0
    assert scaf.struts == (Strut((1, 1, 1, 1)),)
    assert scaf.target.vertices == ((-1, -1), (-1, 1), (3, 1))
    ok, _ = validate_scaffolding(scaf)
    assert ok
    inv = laurent_inversion(scaf)
    assert inv.git == git
    assert inv.recovered is None
    ok, report = verify_embedding(scaf)
    assert ok, report


def test_trivial_collection_gives_the_product_shape():
    git, part, vectors = product_data()
    ok, report = validate_amenable(git, part, vectors)
    assert ok
    tower = tower_from_amenable(git, part, vectors)
    assert tower.fan() == product_fan([(0,), (1,)])
    assert amenable_binomials(git, part, vectors) == (
        ((2, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)),
        ((0, 2, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)),
    )
    scaf = scaffolding_from_amenable(git, part, vectors)
    forward = scaffolding_from_forward(git, part)
    assert scaf.shape == forward.shape
    assert scaf.struts == forward.struts
    assert scaf.u == forward.u
    assert scaf.target.vertices == forward.target.vertices


def test_trivial_collection_matches_the_forward_scaffolding():
    git, part = bundle_data()
    vectors = ((-1, -1, 0, 0, 0), (0, 0, -1, -1, 0))
    ok, report = validate_amenable(git, part, vectors)
    assert ok
    assert report["pairings"] == (
        (1, 1, -1, -1, 0, 0, 0),
        (0, 1, 0, 0, -1, -1, 0),
    )
    scaf = scaffolding_from_amenable(git, part, vectors)
    forward = scaffolding_from_forward(git, part)
    assert scaf.shape == forward.shape
    assert scaf.struts == forward.struts
    assert scaf.u == forward.u == 1
    assert scaf.target.vertices == forward.target.vertices


def test_twisted_collection_on_the_bundle_fixture():
    git, part = bundle_data()
    vectors = ((-1, -1, 1, 0, 0), (0, 0, -1, -1, 0))
    ok, report = validate_amenable(git, part, vectors)
    assert ok
    assert report["pairings"] == (
        (2, 0, -1, -1, 1, 0, 0),
        (0, 1, 0, 0, -1, -1, 0),
    )
    tower = tower_from_amenable(git, part, vectors)
    assert tower.rays == ((-1, -1), (1, 0), (0, -1), (0, 1))
    assert amenable_binomials(git, part, vectors) == (
        ((2, 0, 0, 0, 1, 0, 0), (0, 0, 1, 1, 0, 0, 0)),
        ((0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0)),
    )
    scaf = scaffolding_from_amenable(git, part, vectors)
    assert scaf.shape.rays == ((-1, -1), (0, -1), (0, 1), (1, 0))
    assert scaf.struts == (
        Strut((0, -1, 1, 1), (-1,)),
        Strut((1, 1, 0, 0), (0,)),
        Strut((0, 0, 0, 0), (1,)),
    )
    ok, _ = validate_scaffolding(scaf)
    assert ok
    inv = laurent_inversion(scaf)
    expected = GitData(2, 7, [git.characters[j] for j in (0, 1, 6, 2, 4, 5, 3)], (1, 1))
    assert inv.git == expected
    ok, report = verify_embedding(scaf)
    assert ok, report


def test_singleton_group_has_no_bundle_stage():
    git = GitData(1, 5, [(1,)] * 5, (1,))
    part = ConvexPartitionWithBasis((0,), ((1,), (2, 3, 4)))
    vectors = ((-1, 0, 0, 0), (0, -1, -1, -1))
    ok, _ = validate_amenable(git, part, vectors)
    assert ok
    with pytest.raises(DomainError) as exc:
        tower_from_amenable(git, part, vectors)
    assert exc.value.kind == "bundle_rank"


def test_invalid_collection_is_rejected_by_the_constructions():
    git, part, vectors = projective_space_data()
    swapped = (vectors[1], vectors[0])
    with pytest.raises(DomainError) as exc:
        tower_from_amenable(git, part, swapped)
    assert exc.value.kind == "invalid_partition"
    with pytest.raises(DomainError) as exc:
        amenable_binomials(git, part, swapped)
    assert exc.value.kind == "invalid_partition"

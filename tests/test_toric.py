import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanoscaffold import exact, polyhedra, toric
from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    dot,
    identity_matrix,
    kernel_basis,
    mat_vec,
    rank,
    solve_linear,
    transpose,
)
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.polyhedra import Cone
from fanoscaffold.toric import (
    GitData,
    StackyFan,
    git_to_stacky_fan,
    in_chamber_interior,
    irrelevant_collection,
    positivity,
    projective_bundle_fan,
    secondary_fan,
    sections_polytope,
)

from helpers import (
    chamber_bases_per_basis,
    count_calls,
    pl_positivity,
    random_unimodular_matrix,
)


def covers(git, subset):
    """Whether omega is a strictly positive combination of the given weights.

    That is, omega lies in the relative interior of the cone they span:
    every equation normal vanishes on omega and every facet normal is
    strictly positive there.  The primitive of the subset enumerations
    that the minimal covers are tested against.
    """
    cone = Cone.from_rays([git.characters[i] for i in subset], dim=git.r)
    return all(dot(e, git.omega) == 0 for e in cone.eq_normals) and all(
        dot(a, git.omega) > 0 for a in cone.ineq_normals
    )


def intersection(cones, dim):
    """The intersection of cones in dimension dim, from their joint H-description."""
    return Cone.from_hrep(
        [a for c in cones for a in c.ineq_normals],
        [e for c in cones for e in c.eq_normals],
        dim=dim,
    )


def stacky_fan_to_git(sfan):
    """GIT data presenting the toric variety of a coordinate-labelled fan.

    The round-trip oracle of git_to_stacky_fan.  The weights are the
    columns of a canonical basis of the linear relations among the rays;
    omega is the sum of the extreme rays of the intersection, over all
    maximal cones sigma, of the cone spanned by the weights outside sigma.
    """
    R = len(sfan.rays)
    relations = kernel_basis(transpose(sfan.rays), ncols=R)
    r = len(relations)
    characters = transpose(relations)
    chamber = intersection(
        [
            Cone.from_rays([characters[i] for i in range(R) if i not in c], dim=r)
            for c in sfan.max_cones
        ],
        r,
    )
    return GitData(r, R, characters, tuple(map(sum, zip(*chamber.rays))))


def p2_git():
    return GitData(1, 3, [(1,), (1,), (1,)], (1,))


def p1p1_git():
    return GitData(2, 4, [(1, 0), (1, 0), (0, 1), (0, 1)], (1, 1))


def weighted_flag_git():
    # Weights of a rank two picture with a genuine chamber structure:
    # columns (1,0), (0,1), (1,0), (0,1), (1,0), (1,1), (1,-1).
    chars = [(1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (1, -1)]
    return GitData(2, 7, chars, (3, 2))


def test_git_validation():
    with pytest.raises(DomainError) as ei:
        GitData(1, 2, [(1,), (-1,)], (1,))
    assert ei.value.kind == "not_pointed"
    with pytest.raises(DomainError) as ei:
        GitData(2, 2, [(1, 0), (2, 0)], (1, 0))
    assert ei.value.kind == "not_full_rank"
    with pytest.raises(DomainError) as ei:
        GitData(2, 3, [(1, 0), (0, 1), (1, 1)], (-1, 0))
    assert ei.value.kind == "omega_outside"
    with pytest.raises(DomainError) as ei:
        GitData(1, 2, [(1,), (0,)], (1,))
    assert ei.value.kind == "zero_character"


@st.composite
def small_characters(draw):
    """(r, characters, omega) in [-2, 2], often not full rank or not pointed."""
    r = draw(st.integers(1, 3))
    weight = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    chars = draw(st.lists(weight, min_size=1, max_size=5))
    omega = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    return r, chars, omega


@settings(max_examples=150, deadline=None)
@given(small_characters())
def test_git_validation_against_ranks(data):
    # GitData reads full rank and pointedness off its one conversion of
    # the characters: no equation and no lineality.  The reference takes
    # the rank of the characters and of the dual cone's rays.
    r, chars, omega = data
    normals = polyhedra.dd_cone(chars, dim=r)[0]
    if rank(chars) != r:
        expected = "not_full_rank"
    elif rank(list(normals)) != r:
        expected = "not_pointed"
    elif any(dot(a, omega) < 0 for a in normals):
        expected = "omega_outside"
    else:
        git = GitData(r, len(chars), chars, omega)
        assert git.cone_normals == normals
        assert git._cone.rays == polyhedra.dd_cone(normals, dim=r)[0]
        return
    with pytest.raises(DomainError) as ei:
        GitData(r, len(chars), chars, omega)
    assert ei.value.kind == expected


def test_integral_numbers_are_stored_as_ints():
    chars = [(1, 0), (1, 0), (0, 1), (0, 1)]
    git = GitData(2, 4, chars, (Fraction(1), Fraction(4, 2)))
    assert list(map(type, git.omega)) == [int, int]
    assert git == GitData(2, 4, chars, (1, 2))
    half = GitData(2, 4, chars, (Fraction(1, 2), Fraction(2)))
    assert list(map(type, half.omega)) == [Fraction, int]
    sf = git_to_stacky_fan(p2_git())
    p = sections_polytope(sf, (Fraction(2), 1, Fraction(3, 3)))
    assert p.vertices == ((-1, -1), (-1, 3), (3, -1))
    numbers = [c for v in p.vertices for c in v] + [b for _, b in p.inequalities]
    assert {type(c) for c in numbers} == {int}


def test_covers():
    git = weighted_flag_git()
    # (3,2) = 5/2 * (1,1) + 1/2 * (1,-1): strictly positive coefficients.
    assert covers(git, (5, 6))
    assert covers(git, (0, 1))
    assert not covers(git, (0,))
    assert not covers(git, (5,))
    # Adding a coordinate that cannot take a positive coefficient breaks it:
    # (3,2) = a(1,0) + b(0,1) + c(1,-1) wants a,b,c > 0, fine: a=3-c, b=2+c.
    assert covers(git, (0, 1, 6))


def test_irrelevant_collection_p2():
    git = p2_git()
    subsets = [c for k in range(1, 4) for c in combinations(range(3), k)]
    assert sum(covers(git, c) for c in subsets) == 7
    assert irrelevant_collection(git) == ((0,), (1,), (2,))


def positive_weights(r):
    """Weights in [-3, 3]^r with positive coordinate sum, drawn with no rejection.

    A draw with negative sum is negated, and one with sum 0 gets 1 added to
    its first coordinate below 3, so every such weight can still be drawn.
    """
    def positive(w):
        if sum(w) < 0:
            return [-c for c in w]
        if sum(w) == 0:
            i = next(i for i, c in enumerate(w) if c < 3)
            w[i] += 1
        return w

    return st.lists(st.integers(-3, 3), min_size=r, max_size=r).map(positive)


@st.composite
def git_with_wall_omega(draw, max_extra=6):
    """GIT data with a pointed cone and omega a sum of some weights.

    Every weight has positive coordinate sum, so the character cone is
    pointed; summing a random subset puts omega on walls often.  R is at
    most 7 and at most r + max_extra.
    """
    r = draw(st.integers(1, 3))
    R = draw(st.integers(r, min(7, r + max_extra)))
    chars = draw(st.lists(positive_weights(r), min_size=R, max_size=R))
    chosen = draw(st.lists(st.sampled_from(range(R)), min_size=1, unique=True))
    omega = tuple(sum(chars[i][k] for i in chosen) for k in range(r))
    assume(rank(chars) == r)
    return GitData(r, R, chars, omega)


@settings(max_examples=100, deadline=None)
@given(git_with_wall_omega())
def test_irrelevant_collection_is_minimal_covers(git):
    subsets = [c for k in range(1, git.R + 1) for c in combinations(range(git.R), k)]
    found = [frozenset(c) for c in subsets if covers(git, c)]
    minimal = [c for c in subsets if frozenset(c) in found
               and not any(t < frozenset(c) for t in found)]
    assert irrelevant_collection(git) == tuple(minimal)


def minimal_covers_by_subsets(git):
    """The minimal covers by subset enumeration, the reference for the DD pass.

    A subset of size <= r whose weights are independent and give omega
    positive coefficients is a minimal cover; one rank and one exact solve
    per subset.
    """
    minimal = []
    for size in range(1, git.r + 1):
        for comb in combinations(range(git.R), size):
            gens = [git.characters[i] for i in comb]
            if rank(gens) != size:
                continue
            coeffs = solve_linear(transpose(gens), git.omega)
            if coeffs is not None and all(c > 0 for c in coeffs):
                minimal.append(comb)
    return tuple(minimal)


@st.composite
def git_up_to_rank_four(draw):
    """GIT data with r <= 4 and R <= r + 5; omega zero, integral or halved.

    omega is a nonnegative integer combination of the weights, so it is
    often on walls, and it is drawn as 0 and as half of such a combination
    on purpose.
    """
    r = draw(st.integers(1, 4))
    R = draw(st.integers(r, r + 5))
    chars = draw(st.lists(positive_weights(r), min_size=R, max_size=R))
    assume(rank(chars) == r)
    coeffs = draw(st.lists(st.integers(0, 2), min_size=R, max_size=R))
    total = [sum(c * d[k] for c, d in zip(coeffs, chars)) for k in range(r)]
    kind = draw(st.sampled_from(["zero", "integral", "half"]))
    omega = {
        "zero": [0] * r,
        "integral": total,
        "half": [Fraction(c, 2) for c in total],
    }[kind]
    return GitData(r, R, chars, omega)


@settings(max_examples=200, deadline=None)
@given(git_up_to_rank_four())
def test_minimal_covers_against_the_subset_enumeration(git):
    assert irrelevant_collection(git) == minimal_covers_by_subsets(git)


def test_chamber_data_conversion_counts(monkeypatch):
    git = fixture("circulant-three")["git"]
    fresh = fixture("circulant-three")["git"]
    dd = count_calls(monkeypatch, "_dd_core", polyhedra)
    solves = count_calls(monkeypatch, "solve_linear", exact)
    irrelevant_collection(git)
    assert len(dd) == 1 and solves == []
    del dd[:]
    # One conversion for each of the 13 chambers; the support's rays come
    # from the cone GitData keeps, and the table of bases and the cells
    # take none.
    assert len(secondary_fan(fresh)) == 13
    assert len(dd) == 13


def test_git_to_stacky_fan_p2():
    sf = git_to_stacky_fan(p2_git())
    assert sf.dim == 2
    assert sf.rays == ((-1, -1), (1, 0), (0, 1))
    assert sf.max_cones == ((0, 1), (0, 2), (1, 2))
    assert sf.fan().is_complete()


def test_git_to_stacky_fan_without_unimodular_basis():
    # P(2,3): no single weight is a basis, but together they generate Z.
    sf = git_to_stacky_fan(GitData(1, 2, [(2,), (3,)], (1,)))
    assert sf.rays == ((3,), (-2,))
    assert sf.max_cones == ((0,), (1,))
    # Weights (2),(2) only generate 2Z: the quotient has torsion.
    with pytest.raises(DomainError) as ei:
        git_to_stacky_fan(GitData(1, 2, [(2,), (2,)], (1,)))
    assert ei.value.kind == "no_unimodular_basis"


def test_git_to_stacky_fan_of_a_point_quotient():
    for git in (GitData(1, 1, [(1,)], (1,)), GitData(2, 2, [(1, 0), (0, 1)], (1, 1))):
        with pytest.raises(DomainError) as ei:
            git_to_stacky_fan(git)
        assert ei.value.kind == "point_quotient"


def test_git_to_stacky_fan_p1p1():
    sf = git_to_stacky_fan(p1p1_git())
    assert sf.rays == ((-1, 0), (1, 0), (0, -1), (0, 1))
    assert sf.max_cones == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert sf.fan().is_complete()


def test_stacky_fan_to_git_round_trip():
    sf = git_to_stacky_fan(p1p1_git())
    git = stacky_fan_to_git(sf)
    assert git.r == 2 and git.R == 4
    assert git.characters == ((1, 1, 0, 0)[:2],) * 0 + (
        (1, 0),
        (1, 0),
        (0, 1),
        (0, 1),
    )
    assert git.omega == (1, 1)
    sf2 = git_to_stacky_fan(git)
    assert sf2 == sf
    # Same round trip through the projective plane.
    sfp = git_to_stacky_fan(p2_git())
    gitp = stacky_fan_to_git(sfp)
    assert gitp.characters == ((1,), (1,), (1,))
    assert git_to_stacky_fan(gitp) == sfp


def test_secondary_fan_chambers():
    git = weighted_flag_git()
    chambers = secondary_fan(git)
    assert len(chambers) == 3
    ray_sets = {c.rays for c in chambers}
    assert ray_sets == {
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
        ((1, -1), (1, 0)),
    }
    simple = secondary_fan(p1p1_git())
    assert len(simple) == 1
    assert simple[0].rays == ((0, 1), (1, 0))
    # A zero-dimensional character space is one chamber, the origin.
    assert [c.rays for c in secondary_fan(GitData(0, 0, [], ()))] == [()]


def span_normals(git):
    """Primitive normals of the hyperplanes that (r - 1)-subsets of weights span.

    The reference for the normals of toric._chamber_bases: one kernel per
    subset of rank r - 1.
    """
    normals = set()
    for comb in combinations(range(git.R), git.r - 1):
        sub = [git.characters[i] for i in comb]
        if rank(sub) == git.r - 1:
            normals.add(kernel_basis(sub, ncols=git.r)[0])
    return sorted(normals)


def walls(git):
    """The cones spanned by the weights on each span hyperplane."""
    return [
        Cone.from_rays([d for d in git.characters if dot(h, d) == 0], dim=git.r)
        for h in span_normals(git)
    ]


def gkz_chamber(git, p):
    """The intersection of the cones of full-rank r-subsets of weights containing p."""
    cones = []
    for sigma in combinations(range(git.R), git.r):
        gens = [git.characters[i] for i in sigma]
        if rank(gens) == git.r:
            cone = Cone.from_rays(gens, dim=git.r)
            if cone.contains(p):
                cones.append(cone)
    return intersection(cones, git.r) if cones else None


@settings(max_examples=60, deadline=None)
@given(git_with_wall_omega(max_extra=3), st.integers(0, 2**32))
def test_secondary_fan_against_simplicial_cones(git, seed):
    chambers = secondary_fan(git)
    for c in chambers:
        probe = tuple(sum(v[k] for v in c.rays) for k in range(git.r))
        assert gkz_chamber(git, probe) == c
        assert in_chamber_interior(git, probe)
    u = random_unimodular_matrix(git.r, random.Random(seed))
    moved = GitData(git.r, git.R, [mat_vec(u, d) for d in git.characters],
                    mat_vec(u, git.omega))
    expected = sorted(tuple(sorted(mat_vec(u, v) for v in c.rays)) for c in chambers)
    assert [c.rays for c in secondary_fan(moved)] == expected


def test_in_chamber_interior():
    git = weighted_flag_git()
    assert in_chamber_interior(git, (3, 2))
    assert not in_chamber_interior(git, (1, 1))
    assert not in_chamber_interior(git, (1, 0))
    assert not in_chamber_interior(git, (0, 0))
    assert not in_chamber_interior(git, (-1, 0))
    assert in_chamber_interior(git, (3, -1))
    assert in_chamber_interior(p1p1_git(), (2, 5))


@settings(max_examples=100, deadline=None)
@given(
    git_up_to_rank_four(),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_chamber_bases_against_the_walls(git, probe, chosen):
    # The table's normals are the span normals, and a character is inside
    # a chamber exactly when it is nonzero, in the support and on no wall.
    assert list(toric._chamber_bases(git)[0]) == span_normals(git)
    cones = walls(git)
    weights = [d for d, c in zip(git.characters, chosen) if c]
    total = tuple(sum(d[k] for d in weights) for k in range(git.r))
    for w in (git.omega, tuple(probe[:git.r]), total):
        inside = any(w) and all(dot(a, w) >= 0 for a in git.cone_normals)
        assert in_chamber_interior(git, w) == (
            inside and not any(wall.contains(w) for wall in cones)
        )


@settings(max_examples=150, deadline=None)
@given(git_up_to_rank_four())
def test_chamber_bases_against_one_elimination_per_basis(git):
    # Same normals, and the same rows and masks of each basis in the same
    # order, as the elimination of [W_B | I] per r-subset.
    assert toric._chamber_bases(git) == chamber_bases_per_basis(git)


@pytest.mark.parametrize("name", [n for n in fixture_names() if "git" in fixture(n)])
def test_chamber_bases_of_the_corpus_under_lattice_changes(name):
    git = fixture(name)["git"]
    rng = random.Random(name)
    for _ in range(3):
        u = random_unimodular_matrix(git.r, rng)
        moved = GitData(git.r, git.R, [mat_vec(u, d) for d in git.characters],
                        mat_vec(u, git.omega))
        assert toric._chamber_bases(moved) == chamber_bases_per_basis(moved)


def test_chamber_bases_at_the_edges():
    # r = 0 has one empty basis and no normal.
    point = GitData(0, 0, [], ())
    assert toric._chamber_bases(point) == chamber_bases_per_basis(point) == ((), (((), 0, 0),))
    # R = r has one basis, whose rows are all the normals.
    for git in (
        GitData(1, 1, [(2,)], (1,)),
        GitData(2, 2, [(1, 0), (1, 2)], (1, 1)),
        GitData(3, 3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)], (0, 0, 0)),
    ):
        normals, bases = toric._chamber_bases(git)
        assert (normals, bases) == chamber_bases_per_basis(git)
        assert len(bases) == 1 and len(normals) == git.r


def test_in_chamber_interior_takes_no_conversion(monkeypatch):
    # GitData keeps the dual rays it validates omega against, and the
    # table of bases is eliminations only.
    git = weighted_flag_git()
    dd = count_calls(monkeypatch, "_dd_core", polyhedra)
    assert in_chamber_interior(git, git.omega)
    assert not in_chamber_interior(git, (1, 1))
    assert dd == []


def test_secondary_fan_reads_the_support_off_the_cone_normals(monkeypatch):
    # The support's rays and facets are the incidences of the cone GitData
    # keeps, so the support takes no conversion: on P^1 x P^1 the only
    # chamber is the support itself, and the one conversion is that
    # chamber's canonical cone.
    git = p1p1_git()
    dd = count_calls(monkeypatch, "_dd_core", polyhedra)
    assert [c.rays for c in secondary_fan(git)] == [((0, 1), (1, 0))]
    assert len(dd) == 1


def test_chamber_bases_are_computed_once_per_git_data(monkeypatch):
    # One elimination per 1-subset of the 7 weights, on the first question;
    # GitData itself eliminates nothing.
    eliminations = count_calls(monkeypatch, "_row_reduce", toric)
    git = weighted_flag_git()
    chambers = secondary_fan(git)
    assert len(eliminations) == 7
    assert in_chamber_interior(git, git.omega)
    assert secondary_fan(git) == chambers
    assert len(eliminations) == 7


def test_subset_enumerations_are_capped_on_every_call():
    # Nothing is cached on a failure, so a second call raises again.
    git = GitData(1, 17, [(1,)] * 17, (1,))
    for ask in (irrelevant_collection, secondary_fan, git_to_stacky_fan) * 2:
        with pytest.raises(DomainError) as ei:
            ask(git)
        assert ei.value.kind == "too_many_coordinates"
    assert not in_chamber_interior(git, (0,))
    with pytest.raises(DomainError) as ei:
        in_chamber_interior(git, (1,))
    assert ei.value.kind == "too_many_coordinates"


def test_secondary_fan_is_capped_at_rank_4():
    # P^5 as a quotient of rank 5: the weights e_1, ..., e_5 and their sum.
    git = GitData(5, 6, list(identity_matrix(5)) + [(1,) * 5], (1,) * 5)
    with pytest.raises(DomainError) as ei:
        secondary_fan(git)
    assert (ei.value.kind, ei.value.detail) == ("rank_too_large", "secondary fan capped at rank 4")


def test_positivity_on_p2():
    # The hyperplane class, the anticanonical class, the trivial class and
    # minus the hyperplane class.
    git = p2_git()
    verdicts = [(True, True), (True, True), (True, False), (False, False)]
    assert positivity(git, [(1,), (3,), (0,), (-1,)]) == verdicts
    sf = git_to_stacky_fan(git)
    for coeffs, verdict in zip([(1, 0, 0), (1, 1, 1), (0, 0, 0), (0, 0, -1)], verdicts):
        assert pl_positivity(sf, coeffs) == verdict
    p = sections_polytope(sf, (1, 0, 0))
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    anti = sections_polytope(sf, (1, 1, 1))
    assert len(anti.integral_points()) == 10


def test_positivity_needs_a_linear_piece():
    # omega = (1, 1) lies on the ray of the middle weight, a wall, so the
    # cone of the quotient fan on the coordinates {0, 2} (the complement
    # of the cover {1}) has two generators on one ray: a class off the
    # middle weight's line has no linear piece there, and is neither nef
    # nor ample, however positive.
    git = GitData(2, 3, [(1, 0), (1, 1), (0, 1)], (1, 1))
    assert irrelevant_collection(git) == ((1,), (0, 2))
    sf = git_to_stacky_fan(git)
    cases = [((1, 0), (1, 0, 0)), ((2, 1), (1, 1, 0)), ((1, 1), (0, 1, 0)), ((0, 0), (0, 0, 0))]
    verdicts = [(False, False), (False, False), (True, True), (True, False)]
    assert positivity(git, [c for c, _ in cases]) == verdicts
    assert [pl_positivity(sf, coeffs) for _, coeffs in cases] == verdicts


@pytest.mark.parametrize("cls", [(1, 1, -5), (1,), ()], ids=["longer", "shorter", "empty"])
def test_positivity_rejects_a_class_of_the_wrong_length(cls):
    # A class longer than r used to be read as its first r entries, so
    # (1, 1, -5) got the verdict of (1, 1); a shorter one raised IndexError.
    git = GitData(2, 3, [(1, 0), (0, 1), (1, 1)], (1, 1))
    with pytest.raises(DomainError) as ei:
        positivity(git, [(1, 1), cls])
    assert (ei.value.kind, ei.value.detail) == ("dimension_mismatch", "class length differs from r")
    assert positivity(git, [(1, 1)]) == [(True, True)]


def test_projective_bundle_tower_to_f2():
    # Stage one: a projectivized rank two sum over a point gives the line.
    point = StackyFan(0, [], [()])
    line = projective_bundle_fan(point, [(), ()])
    assert line.dim == 1
    assert line.rays == ((-1,), (1,))
    assert line.max_cones == ((0,), (1,))
    # Stage two: O + O(-2), where O(1) is the divisor of the first fibre
    # coordinate, gives the second Hirzebruch surface.
    f2 = projective_bundle_fan(line, [(0, 0), (-2, 0)])
    assert f2.rays == ((-1, 2), (1, 0), (0, -1), (0, 1))
    assert f2.max_cones == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert f2.fan().is_complete()
    # The twist convention only depends on summand differences.
    f2b = projective_bundle_fan(line, [(3, 1), (1, 1)])
    assert f2b == f2


def test_projective_bundle_needs_integral_summand_differences():
    point = StackyFan(0, [], [()])
    line = projective_bundle_fan(point, [(), ()])
    with pytest.raises(DomainError) as ei:
        projective_bundle_fan(line, [(0, 0), (Fraction(1, 2), 0)])
    assert (ei.value.kind, ei.value.detail) == ("not_cartier", "summand difference is not integral")


def test_bundle_fan_nef_ample():
    point = StackyFan(0, [], [()])
    line = projective_bundle_fan(point, [(), ()])
    f2 = projective_bundle_fan(line, [(0, 0), (-2, 0)])
    # Divisor of the ray (0,1): the section with self-intersection -2.
    idx_up = f2.rays.index((0, 1))
    idx_down = f2.rays.index((0, -1))
    up = [0] * 4
    up[idx_up] = 1
    down = [0] * 4
    down[idx_down] = 1
    assert pl_positivity(f2, up) == (False, False)
    assert pl_positivity(f2, down) == (True, False)
    # The same surface as a quotient: the relations among the rays are
    # v0 + v1 + 2 v2 = 0 and v2 + v3 = 0, and (3, 1) lies in the ample
    # cone.  up has class (0, 1), down (2, 1).
    git = GitData(2, 4, [(1, 0), (1, 0), (2, 1), (0, 1)], (3, 1))
    assert git_to_stacky_fan(git).max_cones == f2.max_cones
    assert positivity(git, [(0, 1), (2, 1), (3, 1)]) == [
        (False, False), (True, False), (True, True)]
    assert sections_polytope(f2, down).integral_points() == (
        (0, 0),
        (0, 1),
        (1, 1),
        (2, 1),
    )


def test_sections_polytope_errors():
    sf = git_to_stacky_fan(p2_git())
    with pytest.raises(DomainError) as ei:
        sections_polytope(sf, (-1, 0, 0))
    assert ei.value.kind == "empty_polytope"
    half = StackyFan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(DomainError) as ei:
        sections_polytope(half, (0, 0))
    assert ei.value.kind == "unbounded"

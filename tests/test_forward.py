import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fanoscaffold import exact, forward, laurent, polyhedra, scaffolding, toric
from fanoscaffold.errors import DomainError
from fanoscaffold.amenable import scaffolding_from_amenable, validate_amenable
from fanoscaffold.exact import (
    kernel_basis,
    mat_vec,
    row_space_equal,
    transpose,
)
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.forward import (
    ConvexPartitionWithBasis,
    _convexity,
    normalized_matrix,
    przyjalkowski,
)
from fanoscaffold.laurent import LaurentPolynomial, monomial_substitution
from fanoscaffold.scaffolding import laurent_from_scaffolding, scaffolding_from_forward
from fanoscaffold.toric import GitData, git_to_stacky_fan, positivity

from helpers import count_calls, pl_positivity, random_unimodular_matrix


def mono(n, c=1, **positions):
    e = [0] * n
    for key, val in positions.items():
        e[int(key[1:])] = val
    return LaurentPolynomial(n, {tuple(e): c})


def cubic_git():
    return GitData(1, 4, [(1,), (1,), (1,), (1,)], (1,))


def bundle_git():
    rows = [(1, 0, 0, 1, -1, 1, 1), (0, 1, 1, 0, 1, 0, 0)]
    chars = [tuple(row[j] for row in rows) for j in range(7)]
    return GitData(2, 7, chars, (1, 1))


@pytest.mark.parametrize("k", [100, 200])
def test_model_bracket_power_is_capped(k):
    # The bracket of the weight-k coordinate is raised to the power k: at
    # k = 200 it took 7.5 s, and now raises once the power would form
    # more than laurent.MAX_POWER_PRODUCTS term products.
    git = GitData(1, 4, [(1,), (1,), (1,), (k,)], (1,))
    part = ConvexPartitionWithBasis((0,), ((1, 2, 3),), (), (3,))
    start = time.perf_counter()
    with pytest.raises(DomainError) as exc:
        przyjalkowski(git, part)
    assert exc.value.kind == "power_too_large"
    assert time.perf_counter() - start < 2


def test_partition_structure_errors():
    with pytest.raises(DomainError) as exc:
        ConvexPartitionWithBasis((0,), [(1, 2), ()], (3,))
    assert exc.value.kind == "bad_partition"
    with pytest.raises(DomainError):
        ConvexPartitionWithBasis((0,), [(1, 2)], (2,))
    with pytest.raises(DomainError):
        ConvexPartitionWithBasis((0,), [(1, 2)], (), choices=(3,))


def test_variable_order_u_block_first():
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    assert part.variable_columns() == (6, 3, 5)


def test_normalized_matrix_identity_on_basis():
    git = bundle_git()
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    norm = normalized_matrix(git, part)
    assert norm[0][0] == 1 and norm[1][1] == 1
    assert norm[0][1] == 0 and norm[1][0] == 0
    # basis block already unimodular here, so the rest is unchanged
    assert norm == ((1, 0, 0, 1, -1, 1, 1), (0, 1, 1, 0, 1, 0, 0))


def test_cubic_surface_model():
    git = cubic_git()
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    assert _convexity(git, part)[0] == []
    f = przyjalkowski(git, part)
    # (1 + x + y)^3 / (x y)
    x = mono(2, 1, v0=1)
    y = mono(2, 1, v1=1)
    expected = (LaurentPolynomial.one(2) + x + y) ** 3 * mono(2, 1, v0=-1, v1=-1)
    assert f == expected


def test_projective_bundle_model():
    git = bundle_git()
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    assert _convexity(git, part)[0] == []
    f = przyjalkowski(git, part)
    # variables: z = column 6 (pos 0), x = column 3 (pos 1), y = column 5 (pos 2)
    z = mono(3, 1, v0=1)
    x = mono(3, 1, v1=1)
    y = mono(3, 1, v2=1)
    one = LaurentPolynomial.one(3)
    expected = (one + x) * mono(3, 1, v0=-1, v1=-1, v2=-1) + (one + x) * (one + y) + z
    assert f == expected


def test_no_groups_gives_plain_toric_model():
    git = GitData(1, 3, [(1,), (1,), (1,)], (1,))
    part = ConvexPartitionWithBasis((0,), [], (1, 2))
    f = przyjalkowski(git, part)
    expected = mono(2, 1, v0=-1, v1=-1) + mono(2, 1, v0=1) + mono(2, 1, v1=1)
    assert f == expected


def choice_change_matrix(part, part2):
    """Exponent change relating the models for two elimination choices."""
    cols = part.variable_columns()
    cols2 = part2.variable_columns()
    n = len(cols)
    pos = {j: p for p, j in enumerate(cols)}
    pos2 = {j: p for p, j in enumerate(cols2)}
    columns = {}
    for s, c, c2 in zip(part.S, part.choices, part2.choices):
        if c == c2:
            for j in s:
                if j != c:
                    columns[pos[j]] = {pos2[j]: 1}
        else:
            # old variable c2 becomes the inverse of the group, the others
            # get measured against it
            columns[pos[c2]] = {pos2[c]: -1}
            for j in s:
                if j not in (c, c2):
                    columns[pos[j]] = {pos2[j]: 1, pos2[c]: -1}
    for u in part.U:
        columns[pos[u]] = {pos2[u]: 1}
    return [
        [columns[p].get(q, 0) for p in range(n)] for q in range(n)
    ]


def test_choice_independence_cubic():
    git = cubic_git()
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    part2 = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (1,))
    f = przyjalkowski(git, part)
    g = przyjalkowski(git, part2)
    U = choice_change_matrix(part, part2)
    assert monomial_substitution(f, U) == g


def test_choice_independence_bundle():
    git = bundle_git()
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    part2 = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (3, 5))
    f = przyjalkowski(git, part)
    g = przyjalkowski(git, part2)
    U = choice_change_matrix(part, part2)
    assert monomial_substitution(f, U) == g


def test_invalid_partition_reported():
    git = bundle_git()
    # columns 0 and 3 carry the same weight, so they cannot form a basis
    part = ConvexPartitionWithBasis((0, 3), [(1, 2), (4, 5)], (6,), (1, 4))
    failures = _convexity(git, part)[0]
    assert failures == ["basis block is not unimodular"]
    with pytest.raises(DomainError) as exc:
        przyjalkowski(git, part)
    assert exc.value.kind == "invalid_partition"


def test_normalized_matrix_needs_a_partition_of_the_columns():
    # A basis block of the wrong size, and blocks that leave column 5 out.
    git = bundle_git()
    for part, failure in (
        (ConvexPartitionWithBasis((0,), [(2, 3), (4, 5)], (1, 6), (2, 4)),
         "basis block has 1 columns, expected 2"),
        (ConvexPartitionWithBasis((0, 1), [(2, 3), (4,)], (6,), (2, 4)),
         "blocks do not partition the coordinate set"),
    ):
        with pytest.raises(DomainError) as exc:
            normalized_matrix(git, part)
        assert (exc.value.kind, exc.value.detail) == ("invalid_partition", failure)


def test_convexity_runs_once_per_git_data_and_partition(monkeypatch):
    # The model, the scaffolding and the normalized matrix of one partition
    # share the GitData's one convexity pass; a second partition or a fresh
    # GitData makes its own.
    calls = count_calls(monkeypatch, "_convexity", forward)
    git = bundle_git()
    part = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (2, 4))
    przyjalkowski(git, part)
    scaffolding_from_forward(git, part)
    normalized_matrix(git, part)
    assert calls == [git]
    other = ConvexPartitionWithBasis((0, 1), [(2, 3), (4, 5)], (6,), (3, 5))
    normalized_matrix(git, other)
    fresh = bundle_git()
    normalized_matrix(fresh, part)
    assert calls == [git, git, fresh]


def test_invalid_partition_is_checked_once():
    # The failures are kept, as a tuple, and raised again on every call.
    git = bundle_git()
    part = ConvexPartitionWithBasis((0, 3), [(1, 2), (4, 5)], (6,), (1, 4))
    for build in (przyjalkowski, normalized_matrix, scaffolding_from_forward):
        with pytest.raises(DomainError) as exc:
            build(git, part)
        assert exc.value.kind == "invalid_partition"
        assert exc.value.detail == "basis block is not unimodular"
    assert git._convex == {part: (("basis block is not unimodular",), None)}


def test_negative_group_total_rejected():
    git = GitData(2, 3, [(1, 0), (0, 1), (1, -1)], (1, 0))
    part = ConvexPartitionWithBasis((0, 1), [(2,)], (), (2,))
    failures = _convexity(git, part)[0]
    assert any("not generated by the basis" in msg for msg in failures)


def test_omega_sign_checked():
    git = GitData(2, 3, [(1, 0), (0, 1), (1, 1)], (0, 1))
    part = ConvexPartitionWithBasis((0, 2), [(1,)], (), (1,))
    failures = _convexity(git, part)[0]
    assert any("omega" in msg for msg in failures)


def test_integer_coefficients_and_values():
    git = cubic_git()
    part = ConvexPartitionWithBasis((0,), [(1, 2, 3)], (), (3,))
    f = przyjalkowski(git, part)
    assert all(isinstance(c, int) for c in f.terms.values())
    assert f.terms.get((-1, -1), 0) == 1
    assert f.terms.get((0, 0), 0) == 6
    assert f.terms.get((1, 0), 0) == 3
    assert f.terms.get((2, 0), 0) == 0


@pytest.mark.parametrize("build", [przyjalkowski, scaffolding_from_forward])
def test_basis_block_eliminated_once(build, monkeypatch):
    # One elimination serves the convexity check, the quotient fan verdict
    # and the model; no determinant is taken on the way.
    calls = []
    for module in (toric, forward, scaffolding, polyhedra, laurent, exact):
        for name in ("det", "unimodular_inverse"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original):
                    calls.append(_name)
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
    names = [n for n in fixture_names() if "partition" in fixture(n)]
    assert len(names) == 9
    for name in names:
        fx = fixture(name)
        calls.clear()
        build(fx["git"], fx["partition"])
        assert calls == ["unimodular_inverse"]


@st.composite
def git_with_groups(draw):
    """GIT data whose first r weights form a unimodular basis, and groups.

    r <= 3 and R <= r + 4.  Every weight has positive coordinate sum before
    a unimodular change of basis, so the character cone is pointed.  Half
    the draws put omega at a sum of some weights, often on a wall, where
    the quotient fan is not simplicial; the others at a combination of all
    weights with random positive coefficients.  Each non-basis coordinate
    joins one of up to three groups or the U block.
    """
    r = draw(st.integers(1, 3))
    extra = draw(st.integers(1, 4))
    R = r + extra
    weight = st.lists(st.integers(-2, 3), min_size=r, max_size=r).filter(
        lambda w: sum(w) > 0
    )
    chars = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    chars += draw(st.lists(weight, min_size=extra, max_size=extra))
    u = random_unimodular_matrix(r, random.Random(draw(st.integers(0, 2**16))))
    chars = [mat_vec(u, d) for d in chars]
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(range(R)), min_size=1, unique=True))
        coeffs = [1 if i in chosen else 0 for i in range(R)]
    else:
        coeffs = draw(st.lists(st.integers(1, 9), min_size=R, max_size=R))
    omega = [sum(c * d[k] for c, d in zip(coeffs, chars)) for k in range(r)]
    labels = draw(st.lists(st.integers(-1, 2), min_size=extra, max_size=extra))
    groups = [[j for j, g in zip(range(r, R), labels) if g == i] for i in range(3)]
    groups = [s for s in groups if s]
    assume(groups)
    U = [j for j, g in zip(range(r, R), labels) if g == -1]
    part = ConvexPartitionWithBasis(range(r), groups, U)
    return GitData(r, R, chars, omega), part


@settings(max_examples=300, deadline=None)
@given(git_with_groups())
def test_nef_verdict_matches_the_piecewise_linear_oracle(case):
    # _convexity tests nef in the weight space; the oracle tests it on the
    # quotient fan, and a divisor with no linear piece is not nef.
    git, part = case
    failures = _convexity(git, part)[0]
    try:
        sfan = git_to_stacky_fan(git)
    except DomainError as exc:
        assert f"quotient fan unavailable: {exc.detail}" in failures
        return
    for i, s in enumerate(part.S):
        nef, _ = pl_positivity(sfan, [1 if j in s else 0 for j in range(git.R)])
        assert (f"group {i} total divisor is not nef" not in failures) == nef


@settings(max_examples=300, deadline=None)
@given(git_with_groups(), st.data())
def test_positivity_matches_the_piecewise_linear_oracle(case, data):
    # Random classes: the class of a random integer divisor, so that walls
    # of omega (non-simplicial quotient fans) leave many classes with no
    # linear piece, beside the classes of the groups' total divisors.  The
    # oracle's fan has the Gale dual rays, the columns of a basis of the
    # relations among the weights, which may be zero where
    # git_to_stacky_fan refuses the fan; the test is linear, so any basis
    # serves.
    git, part = case
    relations = kernel_basis(transpose(git.characters), ncols=git.R)
    sfan = SimpleNamespace(rays=transpose(relations), max_cones=toric._max_cones(git))
    divisors = [[1 if j in s else 0 for j in range(git.R)] for s in part.S]
    divisors += data.draw(
        st.lists(
            st.lists(st.integers(-2, 3), min_size=git.R, max_size=git.R),
            min_size=1,
            max_size=4,
        )
    )
    classes = [
        tuple(sum(a * d[k] for a, d in zip(coeffs, git.characters)) for k in range(git.r))
        for coeffs in divisors
    ]
    assert positivity(git, classes) == [pl_positivity(sfan, coeffs) for coeffs in divisors]


@settings(max_examples=200, deadline=None)
@given(git_with_groups(), st.data())
def test_fan_verdict_matches_git_to_stacky_fan(case, data):
    # _convexity reads the quotient fan off the partition's own
    # basis, git_to_stacky_fan off the first unimodular subset; relabelling
    # the coordinates makes the two differ.  The fan is unavailable for the
    # same reason on both sides, and otherwise the two fans agree up to a
    # change of lattice basis: same cones, same relations among the rays.
    git, part = case
    perm = data.draw(st.permutations(range(git.R)))
    chars = [None] * git.R
    for i, d in enumerate(git.characters):
        chars[perm[i]] = d
    git = GitData(git.r, git.R, chars, git.omega)
    part = ConvexPartitionWithBasis(
        [perm[i] for i in part.B],
        [[perm[j] for j in s] for s in part.S],
        [perm[j] for j in part.U],
        [perm[c] for c in part.choices],
    )
    unavailable = [
        f for f in _convexity(git, part)[0] if f.startswith("quotient fan")
    ]
    try:
        sfan = git_to_stacky_fan(git)
    except DomainError as exc:
        assert unavailable == [f"quotient fan unavailable: {exc.detail}"]
        return
    assert unavailable == []
    coords = toric.basis_coordinates(git, part.B, git.characters)
    fan = toric._basis_fan(git, part.B, coords)
    assert fan.max_cones == sfan.max_cones
    assert row_space_equal(
        kernel_basis(transpose(fan.rays), ncols=git.R),
        kernel_basis(transpose(sfan.rays), ncols=git.R),
    )


def test_normalized_matrix_rejects_a_partition_that_is_not_convex():
    git = GitData(2, 5, [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1)], (4, 3))
    part = ConvexPartitionWithBasis((0, 1), [(2, 3)], (4,), (3,))
    failures = _convexity(git, part)[0]
    assert failures == ["group 0 total divisor is not nef"]
    vectors = ((-1, -1, 0),)
    assert validate_amenable(git, part, vectors)[0]
    for build in (
        lambda: normalized_matrix(git, part),
        lambda: scaffolding_from_amenable(git, part, vectors),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        assert exc.value.kind == "invalid_partition"
        assert exc.value.detail == "; ".join(failures)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(git_with_groups())
def test_forward_model_equals_the_polynomial_of_its_scaffolding(case):
    # The model reads its brackets off the rows of the normalized weight
    # matrix, laurent_from_scaffolding off the struts those rows become.
    # With no variable column the model is a constant and has no
    # scaffolding.
    git, part = case
    assume(not _convexity(git, part)[0])
    model = przyjalkowski(git, part)
    if not part.variable_columns():
        assert model.nvars == 0
        with pytest.raises(DomainError) as exc:
            scaffolding_from_forward(git, part)
        assert exc.value.kind == "dimension_unknown"
        assert "no variable column" in exc.value.detail
        return
    assert model == laurent_from_scaffolding(scaffolding_from_forward(git, part))


def test_covers_are_enumerated_once_per_git_data(monkeypatch):
    calls = []
    original = toric._minimal_covers

    def counted(git):
        calls.append(git)
        return original(git)

    monkeypatch.setattr(toric, "_minimal_covers", counted)
    fx = fixture("dp6-squares")
    git, part = fx["git"], fx["partition"]
    git_to_stacky_fan(git)
    przyjalkowski(git, part)
    scaffolding_from_forward(git, part)
    assert calls == [git]

"""Acceptance suite: one check per shipped claim, one PASS/FAIL line each.

Frozen expected values live next to the checks.  Matrix comparisons are up
to the documented column order: a permutation maps this library's columns
(basis struts, then unit struts, then shape rays in lexicographic order)
onto the column order of the reference presentation.
"""

import random
import time

from fanoscaffold.exact import hermite_normal_form
from fanoscaffold.errors import DomainError
from fanoscaffold.fixtures import fixture, fixture_names
from fanoscaffold.forward import przyjalkowski
from fanoscaffold.inversion import (
    binomial_equations,
    laurent_inversion,
    verify_embedding,
)
from fanoscaffold.laurent import (
    LaurentPolynomial,
    classical_period,
    classical_period_naive,
    monomial_substitution,
)
from fanoscaffold.mutations import strut_mutability
from fanoscaffold.nefpart import (
    check_fano_nef_partition,
    fano_nef_partition_from_inversion,
    mutation_chain_check,
    p_s_polytope,
)
from fanoscaffold.polyhedra import Fan, lattice_isomorphic, spanning_fan
from fanoscaffold.scaffolding import (
    Scaffolding,
    dual_cone_check,
    laurent_from_scaffolding,
    scaffolding_from_forward,
    validate_scaffolding,
)
from fanoscaffold.toric import GitData, git_to_stacky_fan, in_chamber_interior
from fanoscaffold.amenable import (
    amenable_binomials,
    tower_from_amenable,
    validate_amenable,
)

from helpers import random_unimodular_matrix

mono = LaurentPolynomial.monomial


def report(label, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def scaffolding_fixtures():
    out = []
    for name in fixture_names():
        fx = fixture(name)
        if "scaffolding" in fx:
            out.append((name, fx["scaffolding"]))
    return out


def test_forward_mirrors_match_the_reference_models():
    one2 = mono((0, 0))
    cubic = (one2 + mono((1, 0)) + mono((0, 1))) ** 3 * mono((-1, -1))
    fx = fixture("cubic-surface")
    ok = przyjalkowski(fx["git"], fx["partition"]) == cubic

    # Reference term order is (x, y, z); ours lists the shift variable
    # first, so the documented correspondence is (x, y, z) = (v1, v2, v0).
    one3 = mono((0, 0, 0))
    x, y, z = mono((1, 0, 0)), mono((0, 1, 0)), mono((0, 0, 1))
    bundle = (one3 + x) * mono((-1, -1, -1)) + (one3 + x) * (one3 + y) + z
    fx = fixture("projective-bundle")
    raw = przyjalkowski(fx["git"], fx["partition"])
    relabeled = LaurentPolynomial(
        3, {(e[1], e[2], e[0]): c for e, c in raw.terms.items()}
    )
    ok = ok and relabeled == bundle
    report("forward models reproduce both reference polynomials", ok)


EXPECTED_MATRICES = {
    "dp6-triangles": (
        ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)),
        (0, 1, 2, 3, 4, 5),
    ),
    "dp6-squares": (
        ((1, 0, 0, 1, 1, 0), (0, 1, 1, 0, 0, 1)),
        (0, 1, 2, 3, 5, 4),
    ),
    "rank-three-threefold": (
        (
            (1, 0, 0, 1, 1, 0, 1),
            (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 0, 1, 1),
        ),
        (0, 1, 2, 3, 4, 6, 5),
    ),
    "shifted-fourfold": (
        ((1, 0, 1, 0, 1, 1, 1), (0, 1, 0, 1, 0, 1, -1)),
        (0, 1, 2, 3, 4, 5, 6),
    ),
    "circulant-two": (
        ((1, 0, 2, 1, 1), (0, 1, 1, 2, -1)),
        (0, 1, 4, 3, 2),
    ),
    "circulant-three": (
        (
            (1, 0, 0, 2, 1, 1),
            (0, 1, 0, 1, 2, 1),
            (0, 0, 1, 1, 1, 2),
        ),
        (0, 1, 2, 5, 4, 3),
    ),
    "circulant-five": (
        (
            (1, 0, 0, 0, 0, 2, 1, 1, 1, 1),
            (0, 1, 0, 0, 0, 1, 2, 1, 1, 1),
            (0, 0, 1, 0, 0, 1, 1, 2, 1, 1),
            (0, 0, 0, 1, 0, 1, 1, 1, 2, 1),
            (0, 0, 0, 0, 1, 1, 1, 1, 1, 2),
        ),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    ),
}


def test_inversion_matrices_match_the_reference_tables():
    ok = True
    for name, (expected, perm) in EXPECTED_MATRICES.items():
        matrix = laurent_inversion(fixture(name)["scaffolding"]).matrix
        ok = ok and len(matrix) == len(expected)
        ok = ok and all(
            matrix[i][j] == expected[i][perm[j]]
            for i in range(len(expected))
            for j in range(len(expected[0]))
        )
    report("inversion weight matrices match all seven reference tables", ok)


def test_period_of_the_fourfold_model():
    start = time.monotonic()
    coeffs = classical_period(fixture("shifted-fourfold")["laurent"], 9)
    elapsed = time.monotonic() - start
    ok = coeffs == (1, 0, 0, 12, 0, 120, 540, 0, 20160, 33600)
    ok = ok and elapsed < 5.0
    report("fourfold period coefficients are exact and fast", ok)


def test_period_oracles_agree():
    ok = True
    for name in fixture_names():
        fx = fixture(name)
        if "laurent" not in fx:
            continue
        f = fx["laurent"]
        ok = ok and classical_period(f, 6) == classical_period_naive(f, 6)
    report("truncated and naive period oracles agree to degree six", ok)


def test_period_is_invariant_under_unimodular_changes():
    rng = random.Random(20260816)
    ok = True
    for name in fixture_names():
        fx = fixture(name)
        if "laurent" not in fx or fx["laurent"].nvars > 3:
            continue
        f = fx["laurent"]
        base = classical_period(f, 6)
        for _ in range(20):
            u = random_unimodular_matrix(f.nvars, rng)
            ok = ok and classical_period(monomial_substitution(f, u), 6) == base
    report("periods survive twenty random unimodular substitutions", ok)


def test_embedding_suite_passes_on_every_scaffolding():
    ok = True
    for name, scaf in scaffolding_fixtures():
        passed, checks = verify_embedding(scaf)
        ok = ok and passed and all(checks.values())
    report("embedding checks pass on every shipped scaffolding", ok)


def test_covering_check_equals_the_dual_cone_form():
    rng = random.Random(97)
    ok = True
    invalid = 0
    pool = scaffolding_fixtures()
    for name, scaf in pool:
        ok = ok and validate_scaffolding(scaf)[0] == dual_cone_check(scaf)
    trials = 0
    while invalid < 50 and trials < 500:
        trials += 1
        _, base = pool[rng.randrange(len(pool))]
        struts = list(base.struts)
        target = base.target
        # Perturbations stay in the domain of both checks (the target must
        # keep the origin interior), so every candidate is comparable.
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randrange(len(struts))
            coeffs = list(struts[i].coeffs)
            j = rng.randrange(len(coeffs))
            coeffs[j] += rng.choice((-2, -1, 1, 2))
            struts[i] = type(struts[i])(tuple(coeffs), struts[i].chi)
        elif kind == 1 and len(struts) > 1:
            del struts[rng.randrange(len(struts))]
        else:
            target = target.dilate(2)
        candidate = Scaffolding(base.shape, base.u, struts, target)
        valid = validate_scaffolding(candidate)[0]
        ok = ok and valid == dual_cone_check(candidate)
        if not valid:
            invalid += 1
    ok = ok and invalid == 50
    report("covering and dual-cone checks agree on fifty broken covers", ok)


ROUND_TRIP_PERMS = {
    "cubic-surface": (0, 3, 2, 1),
    "dp6-triangles": (0, 1, 2, 5, 4, 3),
    "dp6-squares": (0, 1, 2, 5, 4, 3),
    "rank-three-threefold": (0, 1, 2, 3, 4, 6, 5),
    "shifted-fourfold": (0, 1, 2, 3, 4, 5, 6),
}


def test_round_trips_through_scaffoldings():
    ok = True
    for name, perm in ROUND_TRIP_PERMS.items():
        fx = fixture(name)
        scaf = scaffolding_from_forward(fx["git"], fx["partition"])
        ok = ok and laurent_from_scaffolding(scaf) == fx["laurent"]
        inv = laurent_inversion(scaf)
        r, n = fx["git"].r, fx["git"].R
        ours = [[inv.git.characters[j][k] for j in range(n)] for k in range(r)]
        theirs = [
            [fx["git"].characters[perm[j]][k] for j in range(n)] for k in range(r)
        ]
        ok = ok and hermite_normal_form(ours)[0] == hermite_normal_form(theirs)[0]
    report("both round trips close on all five quotient fixtures", ok)


def test_anticanonical_presentation_of_the_pentagon():
    inv = laurent_inversion(fixture("dp7-anticanonical")["scaffolding"])
    ok = inv.git.R == 6 and inv.matrix == ((1, 1, 1, 1, 1, 1),)
    expected = {
        ((0, 0, 0, 1, 1, 0), (1, 0, 0, 0, 0, 1)),
        ((0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 1, 0)),
        ((0, 0, 1, 1, 0, 0), (2, 0, 0, 0, 0, 0)),
        ((0, 1, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0)),
        ((0, 1, 0, 0, 1, 0), (1, 0, 1, 0, 0, 0)),
    }
    ok = ok and set(binomial_equations(inv)) == expected
    report("pentagon embeds in five-space cut by five binomials", ok)


def test_mutation_chain_of_the_square_model():
    scaf = fixture("square-product")["scaffolding"]
    ok = mutation_chain_check(scaf)
    one = mono((0, 0, 0, 0))
    h = (
        mono((0, 0, 1, 0)) * (one + mono((1, 0, 0, 0)))
        + mono((0, 0, 0, 1)) * (one + mono((0, 1, 0, 0)))
        + mono((-1, -1, -2, -2))
    )
    f4 = (
        mono((1, 0, 0, 0))
        + mono((0, 1, 0, 0))
        + mono((0, 0, 1, 0))
        + mono((0, 0, 0, 1))
        + mono((-1, -1, -1, -1))
    )
    ok = ok and lattice_isomorphic(h.newton_polytope(), f4.newton_polytope()) is not None
    ambient = git_to_stacky_fan(GitData(1, 5, [(1,)] * 5, (1,)))
    ok = ok and spanning_fan(p_s_polytope(scaf)) == ambient.fan()
    report("square model chains to the four-simplex presentation", ok)


def test_amenable_collection_example():
    fx = fixture("amenable-quadrics")
    passed, _ = validate_amenable(fx["git"], fx["partition"], fx["vectors"])
    ok = passed
    tower = tower_from_amenable(fx["git"], fx["partition"], fx["vectors"])
    hirzebruch = Fan(
        2,
        ((-1, 2), (1, 0), (0, -1), (0, 1)),
        ((0, 2), (0, 3), (1, 2), (1, 3)),
    )
    ok = ok and tower.fan() == hirzebruch
    pairs = amenable_binomials(fx["git"], fx["partition"], fx["vectors"])
    expected = (
        ((0, 0, 0, 0, 2), (0, 1, 1, 0, 0)),
        ((2, 0, 0, 0, 0), (0, 0, 0, 1, 1)),
    )
    ok = ok and pairs == expected
    report("dual-vector collection gives the two-stage tower and quadrics", ok)


def _fano_partition_passes(scaf):
    try:
        partition = fano_nef_partition_from_inversion(laurent_inversion(scaf))
    except DomainError:
        return False
    return check_fano_nef_partition(partition)["valid"]


def test_nef_partition_survives_inversion_but_not_mutation():
    ok = _fano_partition_passes(fixture("dp6-triangles")["scaffolding"])
    ok = ok and _fano_partition_passes(fixture("dp6-squares")["scaffolding"])
    ok = ok and not _fano_partition_passes(
        fixture("dp6-squares-mutated")["scaffolding"]
    )
    report("nef partitions hold for the hexagon covers and break on mutation", ok)


def test_struts_stay_mutable_for_the_heptagon_model():
    fx = fixture("circulant-five")
    ok = strut_mutability(fx["scaffolding"], fx["weights"])[0]
    report("every strut transports along the heptagon weight vectors", ok)


def test_stability_choices_sit_inside_chambers():
    ok = in_chamber_interior(fixture("shifted-fourfold")["git"], (3, 2))
    ok = ok and in_chamber_interior(
        fixture("rank-three-threefold")["git"], (3, 2, 1)
    )
    report("both stability vectors land interior to their chambers", ok)

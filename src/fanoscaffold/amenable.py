"""Dual-vector collections presenting a quotient as a bundle tower.

A collection subordinate to a convex partition pairs one dual vector with
each group.  When the pairing values satisfy the block conditions checked
by validate_amenable, the group coordinates become homogeneous coordinates
of a tower of projective space bundles, one stage per group, and each
vector cuts one binomial out of the quotient's coordinate ring.  The tower
then replaces a product of projective spaces as the shape of a scaffolding
whose struts come from the basis rows of the weight matrix.
"""

from .errors import DomainError
from .exact import dot, to_int_vector
from .forward import normalized_matrix
from .scaffolding import scaffolding_from_rows
from .toric import StackyFan, git_to_stacky_fan, projective_bundle_fan


def validate_amenable(git, part, vectors):
    """Check the block conditions of a dual-vector collection.

    Returns (ok, report).  report["pairings"][i][j] is the value of vector
    i on the ray of coordinate j, and report["failures"] lists every
    violated condition.  Vector i must pair to -1 on its own group, to
    zero on earlier groups and on the shift columns, and nonnegatively on
    later groups; basis columns are unconstrained.
    """
    if part.columns() != set(range(git.R)):
        raise DomainError("bad_partition", "blocks do not partition the columns")
    rays = git_to_stacky_fan(git).rays
    n = git.R - git.r
    vectors = tuple(to_int_vector(w) for w in vectors)
    if len(vectors) != len(part.S):
        raise DomainError(
            "dimension_mismatch",
            "%d vectors for %d groups" % (len(vectors), len(part.S)),
        )
    for w in vectors:
        if len(w) != n:
            raise DomainError(
                "dimension_mismatch", "vector length %d != %d" % (len(w), n)
            )
    vals = tuple(tuple(dot(w, ray) for ray in rays) for w in vectors)
    failures = []
    for i in range(len(vectors)):
        for l, group in enumerate(part.S):
            for j in group:
                v = vals[i][j]
                if l == i and v != -1:
                    failures.append(
                        "vector %d pairs to %d on its own column %d" % (i, v, j)
                    )
                elif l < i and v != 0:
                    failures.append(
                        "vector %d does not vanish on earlier column %d" % (i, j)
                    )
                elif l > i and v < 0:
                    failures.append(
                        "vector %d is negative on later column %d" % (i, j)
                    )
        for j in part.U:
            if vals[i][j] != 0:
                failures.append(
                    "vector %d does not vanish on shift column %d" % (i, j)
                )
    return not failures, {"failures": failures, "pairings": vals}


def tower_from_amenable(git, part, vectors):
    """The tower of projective space bundles carried by the collection.

    Stage i projectivizes one line bundle per column of group i over the
    previous stage; each later column's bundle is twisted by minus the
    stage vector's pairing value times the stage's hyperplane class, here
    the divisor of the first new ray.  The result is a StackyFan whose
    coordinates follow the concatenated groups; basis and shift columns
    take no part.
    """
    ok, report = validate_amenable(git, part, vectors)
    if not ok:
        raise DomainError("invalid_partition", "; ".join(report["failures"]))
    vals = report["pairings"]
    tower = StackyFan(0, (), ((),))
    coeffs = {j: () for group in part.S for j in group}
    for i, group in enumerate(part.S):
        lifted = len(tower.rays)
        tower = projective_bundle_fan(tower, [coeffs[j] for j in group])
        for later in part.S[i + 1 :]:
            for j in later:
                c = list(coeffs[j]) + [0] * len(group)
                c[lifted] -= vals[i][j]
                coeffs[j] = tuple(c)
    return tower


def amenable_binomials(git, part, vectors):
    """One binomial per vector, as (plus, minus) exponent pairs.

    The pairing values of each vector split by sign into two monomials in
    the quotient coordinates; the minus side is the product of the
    vector's own group variables.
    """
    ok, report = validate_amenable(git, part, vectors)
    if not ok:
        raise DomainError("invalid_partition", "; ".join(report["failures"]))
    out = []
    for row in report["pairings"]:
        plus = tuple(max(v, 0) for v in row)
        minus = tuple(max(-v, 0) for v in row)
        out.append((plus, minus))
    return tuple(out)


def scaffolding_from_amenable(git, part, vectors):
    """The scaffolding on the tower shape induced by the collection.

    Each basis row of the normalized weight matrix becomes one strut: its
    group entries are divisor coefficients on the matching tower rays and
    its negated shift entries form the shift, with one unit strut per
    shift column.  The target is the hull of the strut pieces.
    """
    tower = tower_from_amenable(git, part, vectors)
    shape = tower.fan()
    order = [j for group in part.S for j in group]
    position = {j: shape.ray_index(tower.rays[t]) for t, j in enumerate(order)}
    return scaffolding_from_rows(shape, normalized_matrix(git, part), position, part.U)

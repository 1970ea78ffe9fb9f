"""Helpers shared by the test modules."""

from fanoscaffold.exact import as_exact_vector, dot, identity_matrix, rank
from fanoscaffold.polyhedra import Cone, Fan, dd_cone


def contains(polytope, point):
    """Whether point lies in the polytope, by its H-description.

    The membership oracle of the lattice point and hull tests.
    """
    p = as_exact_vector(point)
    return all(dot(a, p) >= rhs for a, rhs in polytope.inequalities) and all(
        dot(a, p) == rhs for a, rhs in polytope.equations
    )


def random_unimodular_matrix(n, rng, steps=8):
    """A random determinant +-1 integer matrix built from elementary moves.

    rng is a random.Random instance; steps controls how many row shears,
    swaps and sign flips are applied to the identity.
    """
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-c for c in m[i]]
    return tuple(tuple(row) for row in m)


def count_calls(monkeypatch, name, *modules, record=lambda *args: args[0]):
    """Patch name in each module to record record(*args) of every call, by
    default its first argument."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def restrict_fan_pairwise(fan, basis):
    """Pull a fan back along the inclusion spanned by the basis rows.

    A point y maps to sum_i y_i basis[i].  Each maximal cone's preimage
    takes two DD passes; the full-dimensional pointed ones are kept unless
    another one contains them, tested by building both cones of every
    pair.  The two-pass oracle of verify_embedding's check (b).
    """
    k = len(basis)
    cones = []
    for c in fan.max_cones:
        cone = fan.cone(c)
        ineqs = [tuple(dot(a, b) for b in basis) for a in cone.ineq_normals]
        eqs = [tuple(dot(e, b) for b in basis) for e in cone.eq_normals]
        rays, lineality = dd_cone(ineqs, eqs, dim=k)
        if not lineality and rank(list(rays)) == k:
            cones.append(frozenset(rays))
    kept = [
        s for s in set(cones)
        if not any(
            t != s and Cone.from_rays(sorted(t), dim=k).contains_cone(
                Cone.from_rays(sorted(s), dim=k))
            for t in set(cones)
        )
    ]
    fan_rays = sorted(set().union(*kept))
    lookup = {r: i for i, r in enumerate(fan_rays)}
    return Fan(k, fan_rays, [tuple(sorted(lookup[r] for r in s)) for s in kept])

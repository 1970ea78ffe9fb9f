"""Helpers shared by the test modules."""

from fanoscaffold.exact import as_exact_vector, dot, identity_matrix


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


def count_calls(monkeypatch, name, *modules):
    """Patch name in each module to record the first argument of every call."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls

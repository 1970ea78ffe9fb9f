"""Helpers shared by the test modules."""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm

from fanoscaffold.errors import DomainError
from fanoscaffold.exact import (
    _clear_denominators,
    _row_reduce,
    as_exact,
    as_exact_vector,
    dot,
    identity_matrix,
    kernel_basis,
    primitive_vector,
    rank,
    solve_linear,
    to_int_vector,
    vadd,
    vscale,
    vneg,
    vsub,
)
from fanoscaffold.mutations import _checked_heights
from fanoscaffold.polyhedra import (
    Cone,
    Fan,
    Polytope,
    _dd_core,
    _pivot_columns,
    _reduce_mod_rows,
    _reindex,
    _transpose,
    dd_cone,
)
from fanoscaffold.scaffolding import product_fan


def contains(polytope, point):
    """Whether point lies in the polytope, by its H-description.

    The membership oracle of the lattice point and hull tests.
    """
    p = as_exact_vector(point)
    return all(dot(a, p) >= rhs for a, rhs in polytope.inequalities) and all(
        dot(a, p) == rhs for a, rhs in polytope.equations
    )


def contains_cone(cone, other):
    """Whether cone contains other: every ray of other, and both signs of
    every lineality direction of other, satisfy cone's H-description.

    The containment oracle of the cone comparisons (dual_cone_check).
    """
    return all(cone.contains(r) for r in other.rays) and all(
        cone.contains(l) and cone.contains(vneg(l)) for l in other.lineality
    )


def primitive_row(vec):
    """vec scaled to a primitive integer vector, or None when it is zero.

    The oracles clean their rows with this, not with the conversion door
    polyhedra._conversion_input, so that they stay independent of it.
    """
    v = _clear_denominators(vec)
    return primitive_vector(v) if any(v) else None


def cone_from_rays_by_meets(generators, dim):
    """Cone.from_rays as it was built before the two constructors shared
    one reading of the pass: the oracle of the generator side.

    One _dd_core pass over the distinct nonzero generators gives the facet
    normals, the equations and each facet's tight set among the
    generators.  Only when a generator lies on every facet is the
    lineality computed, as the kernel of the normals and equations, and
    the generators reduced modulo it.  A reduced generator is a ray exactly
    when no other one lies on every facet it lies on.
    """
    cleaned = {}
    for g in generators:
        if len(g) != dim:
            raise DomainError("dimension_mismatch", "generators of mixed length")
        v = primitive_row(g)
        if v is not None:
            cleaned[v] = None
    cleaned = list(cleaned)
    normals, on_facet, eq_normals = _dd_core(cleaned, [], dim)
    reps = common = (1 << len(cleaned)) - 1
    for mask in on_facet:
        common &= mask
    lineality = ()
    if common:
        lineality = tuple(kernel_basis(normals + eq_normals, ncols=dim))
        pivots = _pivot_columns(lineality)
        cleaned = [_reduce_mod_rows(g, lineality, pivots) for g in cleaned]
        first = {}
        for i, g in enumerate(cleaned):
            first.setdefault(g, i)
        first.pop((0,) * dim, None)
        reps = sum(1 << i for i in first.values())
    keep = []
    for i in range(len(cleaned)):
        meet = reps
        for mask in on_facet:
            if mask >> i & 1:
                meet &= mask
        if meet == 1 << i:
            keep.append(i)
    keep.sort(key=cleaned.__getitem__)
    on_facet = _reindex(on_facet, keep)
    rays = tuple(map(cleaned.__getitem__, keep))
    return Cone(dim, rays, lineality, normals, eq_normals, on_facet)


def cone_from_hrep_by_maximal_sets(ineq_normals, eq_normals, dim):
    """Cone.from_hrep as it was built before the two constructors shared
    one reading of the pass: the oracle of the constraint side.

    One _dd_core pass over the distinct nonzero primitive rows gives the
    rays and their tight sets; a zero inequality is tight at every ray.
    The facets are the inequalities whose tight ray sets are
    inclusion-maximal among the proper ones, the first of each set, found
    by a pairwise scan; each is reduced modulo the kernel of the rays and
    lineality, computed when equations are given or an inequality is
    tight at every ray.
    """
    ineqs = [primitive_row(a) for a in ineq_normals]
    eqs = list(eq_normals)
    cleaned = list(dict.fromkeys(a for a in ineqs if a is not None))
    given = list(dict.fromkeys(e for e in map(primitive_row, eqs) if e is not None))
    rays, masks, lineality = _dd_core(cleaned, given, dim)
    everything = (1 << len(rays)) - 1
    by_row = dict(zip(cleaned, _transpose(masks, len(cleaned))))
    tight = [everything if a is None else by_row[a] for a in ineqs]
    first = {}
    for j, mask in enumerate(tight):
        if mask != everything:
            first.setdefault(mask, j)
    hull = ()
    if eqs or everything in tight:
        hull = tuple(kernel_basis(rays + lineality, ncols=dim))
    pivots = _pivot_columns(hull)
    facets = sorted(
        (_reduce_mod_rows(ineqs[j], hull, pivots), mask)
        for mask, j in first.items()
        if not any(mask != other and mask & other == mask for other in first)
    )
    normals = tuple(a for a, _ in facets)
    return Cone(dim, rays, lineality, normals, hull, tuple(mask for _, mask in facets))


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


def chamber_bases_per_basis(git):
    """The (normals, bases) table of toric._chamber_bases, one elimination per basis.

    The reference oracle of the table.  For each r-subset B of weights,
    one elimination of [W_B | I] (W_B holds the weights of B as columns)
    has its pivots in the first r columns exactly when B spans, and then
    gives [p I | p W_B^-1].  Row j of the right block times p, made
    primitive, is h_j: positive on the j-th weight of B and zero on the
    others.  normals are the h_j up to sign, first nonzero entry positive,
    sorted; bases holds (rows, facets, positive) per basis as the table
    does.
    """
    r = git.r
    eye = identity_matrix(r)
    table = []
    for basis in combinations(range(git.R), r):
        M, pivots, _, p = _row_reduce(
            [tuple(git.characters[i][k] for i in basis) + eye[k] for k in range(r)]
        )
        if pivots == list(range(r)):
            table.append(tuple(primitive_vector([p * c for c in row[r:]]) for row in M))
    normals = tuple(sorted({max(h, vneg(h)) for rows in table for h in rows}))
    bit = {h: 1 << k for k, h in enumerate(normals)}
    bases = [
        (rows, sum(bit[max(h, vneg(h))] for h in rows), sum(bit.get(h, 0) for h in rows))
        for rows in table
    ]
    return normals, tuple(bases)


def pl_positivity(fan, coeffs):
    """(nef, ample) of a divisor, by its piecewise linear function on a fan.

    fan has rays and max_cones (a Fan or a StackyFan) and coeffs holds one
    value per ray.  The linear piece on a maximal cone is the functional
    that agrees with the values on the cone's rays; with no such piece on
    some cone the divisor is not Q-Cartier, neither nef nor ample.  Nef
    asks every piece to be at most the value at every ray, ample asks it
    to be below the value at every ray outside the piece's cone.  The
    reference oracle of toric.positivity.
    """
    coeffs = as_exact_vector(coeffs)
    nef = ample = True
    for cone in fan.max_cones:
        piece = solve_linear([fan.rays[i] for i in cone], [coeffs[i] for i in cone])
        if piece is None:
            return False, False
        for j, v in enumerate(fan.rays):
            if j not in cone:
                gap = coeffs[j] - dot(piece, v)
                nef = nef and gap >= 0
                ample = ample and gap > 0
    return nef, ample


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
            t != s and contains_cone(
                Cone.from_rays(sorted(t), dim=k), Cone.from_rays(sorted(s), dim=k))
            for t in set(cones)
        )
    ]
    fan_rays = sorted(set().union(*kept))
    lookup = {r: i for i, r in enumerate(fan_rays)}
    return Fan(k, fan_rays, [tuple(sorted(lookup[r] for r in s)) for s in kept])


def affine_rank(points):
    """The dimension of the affine hull of points, -1 for none."""
    if not points:
        return -1
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def proper_faces(polytope):
    """All proper nonempty faces as (dim, vertex index tuple) pairs.

    Faces are the intersections of facet vertex sets; the improper face
    (the polytope itself) and the empty face are omitted.  The per-face
    reference that check (c) of verify_embedding is tested on.
    """
    facets = polytope.facet_vertex_sets()
    found = {f for f in facets if f}
    frontier = set(found)
    while frontier:
        frontier = {f & g for f in frontier for g in facets if f & g} - found
        found |= frontier
    found.discard(frozenset(range(len(polytope.vertices))))
    return sorted(
        (affine_rank([polytope.vertices[i] for i in s]), tuple(sorted(s)))
        for s in found
    )


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def angular_order(vectors):
    """Indices of nonzero plane vectors sorted counterclockwise, starting in
    the upper half plane at the positive x axis.

    The reference order of the plane fan and polygon questions: the tikz
    cycle, the wall relations and Fan.is_complete on plane fans.
    """

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def cmp(i, j):
        a, b = vectors[i], vectors[j]
        if half(a) != half(b):
            return -1 if half(a) < half(b) else 1
        cross = _det2(a, b)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return tuple(sorted(range(len(vectors)), key=cmp_to_key(cmp)))


def product_structure_union_find(fan):
    """scaffolding.product_structure by joining the coordinates each ray
    touches: the blocks are the classes of a union-find over the rays'
    supports.  The reference oracle of product_structure, with the same
    result and the same error."""
    parent = list(range(fan.dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ray in fan.rays:
        support = [p for p, c in enumerate(ray) if c]
        for p in support[1:]:
            parent[find(p)] = find(support[0])
    blocks = {}
    for p in range(fan.dim):
        blocks.setdefault(find(p), []).append(p)
    result = tuple(tuple(sorted(b)) for b in sorted(blocks.values()))
    expected = product_fan(result)
    if fan.rays != expected.rays or fan.max_cones != expected.max_cones:
        raise DomainError(
            "unsupported_shape", "shape is not a product of projective spaces"
        )
    return tuple(
        (b, tuple(j for j, ray in enumerate(fan.rays) if any(ray[p] for p in b)))
        for b in result
    )


def triangulate_2d(points):
    """Placing triangulation of a planar point set, lex insertion order.

    Every point becomes a triangle vertex.  Points are assumed pairwise
    distinct; with a lex insertion order each new point lies outside the
    hull of its predecessors, so only hull edges ever get attached.  The
    incremental hull oracle of polyhedra.placing_triangulation.
    """
    order = sorted(range(len(points)), key=lambda i: points[i])
    tris = []
    hull = []
    chain = []
    rest = []
    for t, idx in enumerate(order):
        if len(chain) < 2:
            chain.append(idx)
            continue
        o = points[chain[0]]
        if _det2(vsub(points[chain[1]], o), vsub(points[idx], o)) == 0:
            chain.append(idx)
            continue
        rest = order[t:]
        break
    else:
        raise DomainError("not_full_dimensional", "all points collinear")
    first = rest[0]
    for a, b in zip(chain, chain[1:]):
        tris.append((a, b, first))
    o = points[chain[0]]
    if _det2(vsub(points[chain[-1]], o), vsub(points[first], o)) > 0:
        hull = chain + [first]
    else:
        hull = list(reversed(chain)) + [first]
    for idx in rest[1:]:
        p = points[idx]
        m = len(hull)
        visible = []
        for t in range(m):
            a = points[hull[t]]
            if _det2(vsub(points[hull[(t + 1) % m]], a), vsub(p, a)) < 0:
                visible.append(t)
        if not visible:
            raise DomainError("bad_index", "point inside current hull")
        for t in visible:
            tris.append((hull[t], hull[(t + 1) % m], idx))
        # replace the contiguous visible chain by the new point
        vis = set(visible)
        start = None
        for t in range(m):
            if t in vis and (t - 1) % m not in vis:
                start = t
                break
        end = (start + len(visible)) % m
        new_hull = [hull[end]]
        t = end
        while t != start:
            t = (t + 1) % m
            new_hull.append(hull[t])
        new_hull.append(idx)
        hull = new_hull
    return tris


def erode(polytope, other):
    """Minkowski difference polytope minus other.

    Returns (polytope_or_None, exact) where the polytope is
    {x : x + other <= polytope} (None when empty) and exact records whether
    adding `other` back recovers polytope.
    """
    if polytope.dim != other.dim:
        raise DomainError("dimension_mismatch", "operands of different dimension")
    ineqs = []
    for a, rhs in polytope.inequalities:
        shift = min(dot(a, q) for q in other.vertices)
        ineqs.append((a, rhs - shift))
    eqs = []
    for a, rhs in polytope.equations:
        vals = {dot(a, q) for q in other.vertices}
        if len(vals) > 1:
            return None, False
        eqs.append((a, rhs - vals.pop()))
    try:
        diff = Polytope.from_hrep(ineqs, eqs, dim=polytope.dim)
    except DomainError as err:
        if err.kind == "empty_polytope":
            return None, False
        raise
    exact = diff.minkowski_sum(other) == polytope
    return diff, exact


def mutate_polytope_per_level(polytope, w, factor):
    """mutate_polytope by cutting the polytope at every integer level.

    Each slice at height h < 0 is eroded by the dilated factor |h|F and
    must give it back exactly; each slice at h >= 0 gains hF.  The hull of
    the transformed slices is the mutation.  The reference oracle of
    mutations._mutate_slices, with the same data checks and errors.
    """
    w = to_int_vector(w)
    heights = _checked_heights(polytope, w, factor)
    points = []
    for h in range(min(heights), max(heights) + 1):
        eqs = polytope.equations + ((w, h),)
        piece = Polytope.from_hrep(polytope.inequalities, eqs, dim=polytope.dim)
        if h < 0:
            eroded, exact = erode(piece, factor.dilate(-h))
            if eroded is None or not exact:
                raise DomainError("not_mutable", "summand failure at level %d" % h)
            points.extend(eroded.vertices)
        else:
            points.extend(
                vadd(p, vscale(h, q)) for p in piece.vertices for q in factor.vertices
            )
    return Polytope.from_points(points)


def dehomogenized(n, cone):
    """(vertices, inequalities, equations, incidence) of the polytope P in
    dimension n whose cone over P x {1} is cone, all computed at once.

    The oracle of Polytope's first-read properties, as the former
    Polytope._from_cone built them: the ray r gives the vertex
    r[:n] / r[n], by Fraction division, and the normal (a, -rhs) the facet
    <a, x> >= rhs; the vertices are lex sorted and the incidences
    re-indexed to that order.
    """
    verts = [tuple(as_exact(Fraction(c, r[n])) for c in r[:n]) for r in cone.rays]
    order = sorted(range(len(verts)), key=verts.__getitem__)
    incidence = tuple(
        sum(1 << k for k, i in enumerate(order) if mask >> i & 1) for mask in cone.incidence
    )
    return (
        tuple(verts[i] for i in order),
        tuple((a[:n], -a[n]) for a in cone.ineq_normals),
        tuple((e[:n], -e[n]) for e in cone.eq_normals),
        incidence,
    )


def polar_by_fractions(n, described):
    """The (vertices, inequalities, equations, incidence) of the polar dual
    of the polytope that described gives, as the former Polytope.dual
    computed them.

    The facet <a, x> >= rhs, rhs < 0, gives the dual vertex a / -rhs, a
    Fraction division; the vertices are sorted with their incidence masks.
    The vertex v gives the dual facet <v, y> >= -1, stored as the
    primitive integer multiple r of (v, 1) split as (r[:n], -r[n]), and
    the facets are sorted by r.  The incidences are transposed.
    """
    vertices, inequalities, _, incidence = described
    verts = sorted(
        (tuple(as_exact(Fraction(c) / -rhs) for c in a), mask)
        for (a, rhs), mask in zip(inequalities, incidence)
    )
    on_vertex = [0] * len(vertices)
    for k, (_, mask) in enumerate(verts):
        for i in range(len(vertices)):
            if mask >> i & 1:
                on_vertex[i] |= 1 << k
    rows = sorted(zip((_primitive_row(v + (1,)) for v in vertices), on_vertex))
    return (
        tuple(v for v, _ in verts),
        tuple((r[:n], -r[n]) for r, _ in rows),
        (),
        tuple(mask for _, mask in rows),
    )


def _primitive_row(v):
    """The primitive integer multiple of a rational vector."""
    den = lcm(*(Fraction(c).denominator for c in v))
    return primitive_vector(tuple((Fraction(c) * den).numerator for c in v))

"""Toric machinery: GIT presentations, quotient fans, divisors and bundles.

A toric variety is handled in two interchangeable forms: as GIT data (a
diagonal torus action on affine space together with a stability character)
and as a fan whose rays stay attached to the affine coordinates.  Divisors
are coefficient vectors indexed by those coordinates; piecewise linear
functions, positivity tests and section polytopes are derived from them.
"""

from itertools import combinations

from .errors import DomainError
from .exact import (
    as_exact_vector,
    dot,
    hermite_normal_form,
    identity_matrix,
    is_zero_vector,
    kernel_basis,
    rank,
    solve_linear,
    transpose,
    unimodular_inverse,
)
from .polyhedra import Cone, Fan, Polytope, _dd_step, _in_hrep, dd_cone


class GitData:
    """A torus (C*)^r acting diagonally on C^R with a stability character.

    characters: tuple of R weight vectors in Z^r, one per coordinate.
    omega: the stability character, a rational vector in the same space.

    The character cone must be pointed and full dimensional and omega must
    lie inside it; this keeps every downstream construction well posed.
    cone_normals: the rays of the dual of the character cone, from one DD
    pass.  The cone is pointed exactly when they have rank r, and a
    character lies in it exactly when it pairs >= 0 with each of them.

    Two private slots hold chamber data, each computed on first use and
    then reused by every later question about the same data: the minimal
    covers of ``irrelevant_collection`` (one dd_cone pass over the fiber
    polytope), and the span normals and walls that ``secondary_fan`` and
    ``in_chamber_interior`` share (a subset enumeration, then one dd_cone
    pass per wall).  Both are capped at R <= 16; a capped input raises on
    every call and caches nothing.
    """

    __slots__ = ("r", "R", "characters", "omega", "cone_normals", "_covers", "_walls")

    def __init__(self, r, R, characters, omega):
        characters = tuple(tuple(int(c) for c in d) for d in characters)
        omega = as_exact_vector(omega)
        if len(characters) != R:
            raise DomainError("bad_git_data", f"expected {R} characters, got {len(characters)}")
        if any(len(d) != r for d in characters) or len(omega) != r:
            raise DomainError("bad_git_data", "character or omega length differs from r")
        if any(not any(d) for d in characters):
            raise DomainError("zero_character", "every coordinate needs a nonzero weight")
        if rank(list(characters)) != r:
            raise DomainError("not_full_rank", "characters do not span the weight space")
        normals = dd_cone(characters, dim=r)[0]
        if rank(list(normals)) != r:
            raise DomainError("not_pointed", "character cone contains a line")
        if any(dot(a, omega) < 0 for a in normals):
            raise DomainError("omega_outside", "omega is not in the character cone")
        self.r = r
        self.R = R
        self.characters = characters
        self.omega = omega
        self.cone_normals = normals
        self._covers = None
        self._walls = None

    def __eq__(self, other):
        return (
            isinstance(other, GitData)
            and (self.r, self.R, self.characters, self.omega)
            == (other.r, other.R, other.characters, other.omega)
        )

    def __repr__(self):
        return f"GitData(r={self.r}, R={self.R})"


def _check_subset_cap(git):
    if git.R > 16:
        raise DomainError("too_many_coordinates", "chamber data capped at R = 16")


def irrelevant_collection(git):
    """The minimal covering subsets of coordinates.

    Returns a tuple of index tuples, ordered by size then lexicographically.
    In a pointed character cone a covering subset is minimal exactly when
    its weights are linearly independent with positive coefficients, that
    is, when it is the support of a vertex of the fiber polytope
    {lambda >= 0 : sum_i lambda_i D_i = omega} (Cox, Little and Schenck,
    "Toric Varieties", section 14.3), which the pointed cone bounds.  One
    dd_cone pass over its homogenization gives every vertex; omega = 0
    has no cover.  Capped at R <= 16.  Computed once per GitData.
    """
    _check_subset_cap(git)
    if git._covers is None:
        git._covers = _minimal_covers(git)
    return git._covers


def _minimal_covers(git):
    if not any(git.omega):
        return ()
    # The rays of {(lambda, t) >= 0 : sum_i lambda_i D_i = t omega} with
    # t > 0 are the vertices of the fiber polytope, scaled.
    R = git.R
    eqs = [
        tuple(d[k] for d in git.characters) + (-git.omega[k],) for k in range(git.r)
    ]
    rays = dd_cone(identity_matrix(R + 1), eqs)[0]
    supports = [tuple(i for i in range(R) if v[i]) for v in rays if v[R]]
    return tuple(sorted(supports, key=lambda c: (len(c), c)))


def _max_cones(git):
    """Maximal cones of the quotient fan: complements of the minimal covers."""
    everything = set(range(git.R))
    return [tuple(sorted(everything - set(c))) for c in irrelevant_collection(git)]


class StackyFan:
    """A fan whose rays stay indexed by the affine coordinates of a quotient.

    rays: tuple of integer vectors, one per coordinate, in coordinate order
    (not re-sorted, so coordinate identity survives).  max_cones: sorted
    tuples of coordinate indices spanning the maximal cones.
    """

    __slots__ = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones):
        rays = tuple(tuple(int(c) for c in v) for v in rays)
        for v in rays:
            if len(v) != dim:
                raise DomainError("dimension_mismatch", "ray length differs from dim")
            if not any(v):
                raise DomainError("zero_vector", "fan ray must be nonzero")
        cones = set()
        for c in max_cones:
            c = tuple(sorted(set(c)))
            if any(i < 0 or i >= len(rays) for i in c):
                raise DomainError("bad_index", "cone index out of range")
            cones.add(c)
        self.dim = dim
        self.rays = rays
        self.max_cones = tuple(sorted(cones))

    def fan(self):
        """Forget coordinate labels: canonical Fan with deduplicated rays."""
        return Fan(self.dim, self.rays, self.max_cones)

    def __eq__(self, other):
        return (
            isinstance(other, StackyFan)
            and (self.dim, self.rays, self.max_cones)
            == (other.dim, other.rays, other.max_cones)
        )

    def __repr__(self):
        return f"StackyFan(dim={self.dim}, coords={len(self.rays)})"


def git_to_stacky_fan(git):
    """The quotient fan of GIT data, rays labelled by coordinates.

    The rays are read off the weight matrix normalized by the first
    coordinate subset whose weights form a unimodular basis (``_basis_fan``).
    Without such a subset they are the columns of a basis of the integer
    relations among the weights (Gale duality), which needs the weights to
    generate the whole character lattice.  Maximal cones are the
    complements of the minimal covering subsets.
    """
    r, R = git.r, git.R
    for basis in combinations(range(R), r):
        try:
            norm = basis_coordinates(git, basis, git.characters)
        except DomainError:
            continue
        return _basis_fan(git, basis, norm)
    hnf, _ = hermite_normal_form(git.characters)
    if tuple(row for row in hnf if not is_zero_vector(row)) != identity_matrix(r):
        raise DomainError("no_unimodular_basis", "quotient lattice has torsion")
    relations = kernel_basis(transpose(git.characters), ncols=R)
    return StackyFan(R - r, transpose(relations), _max_cones(git))


def _basis_fan(git, basis, norm):
    """The quotient fan from the weights' coordinates norm in a unimodular basis.

    Coordinate basis[k] gets minus row k of norm on the non-basis columns,
    a non-basis coordinate its unit vector there.  R == r (a point
    quotient) raises point_quotient.
    """
    if git.R == git.r:
        raise DomainError(
            "point_quotient", "R equals r: the quotient is a point and has no fan"
        )
    nonbasis = [i for i in range(git.R) if i not in basis]
    units = dict(zip(nonbasis, identity_matrix(len(nonbasis))))
    rays = [
        units[i] if i in units else tuple(-norm[basis.index(i)][j] for j in nonbasis)
        for i in range(git.R)
    ]
    return StackyFan(len(nonbasis), rays, _max_cones(git))


def basis_coordinates(git, basis, vectors):
    """Coordinates of vectors of the weight space in a basis of weights.

    basis lists r coordinate indices.  Returns r rows, row l holding the
    coefficient of the weight of basis[l] in each vector, so every basis
    weight gets a unit column.  Raises not_unimodular unless the basis
    weights have determinant +-1, which makes integer vectors get integer
    coordinates.
    """
    r = git.r
    binv = unimodular_inverse(
        [[git.characters[i][k] for i in basis] for k in range(r)]
    )
    return tuple(tuple(dot(row, v) for v in vectors) for row in binv)


def _span_normals(git):
    """Primitive normals of the hyperplanes spanned by weight subsets."""
    r = git.r
    normals = set()
    for comb in combinations(range(git.R), r - 1):
        sub = [git.characters[i] for i in comb]
        if rank(sub) != r - 1:
            continue
        ker = kernel_basis(sub, ncols=r)
        if len(ker) == 1:
            normals.add(ker[0])
    return sorted(normals)


def _chamber_walls(git):
    """(span normals, walls), computed once per GitData.

    A wall is the cone spanned by the weights on a hyperplane that weight
    subsets span, kept as the (normals, equations) of its dual from one
    dd_cone pass: walls[k] lies on normals[k].  Capped at R <= 16, like
    the covers.
    """
    _check_subset_cap(git)
    if git._walls is None:
        normals = tuple(_span_normals(git))
        walls = tuple(
            dd_cone([d for d in git.characters if dot(h, d) == 0], dim=git.r)
            for h in normals
        )
        git._walls = (normals, walls)
    return git._walls


def in_chamber_interior(git, omega):
    """Whether a character lies inside a full-dimensional GKZ chamber.

    True when omega is in the character cone and on no wall, a wall being
    the cone spanned by the weights inside a hyperplane that weight subsets
    span.
    """
    w = as_exact_vector(omega)
    if len(w) != git.r:
        raise DomainError("dimension_mismatch", "character length differs from r")
    if not any(w):
        return False
    if any(dot(a, w) < 0 for a in git.cone_normals):
        return False
    return not any(_in_hrep(*wall, w) for wall in _chamber_walls(git)[1])


def secondary_fan(git):
    """The GKZ chamber decomposition of the character cone.

    Cuts the pointed support cone by every hyperplane spanned by weights
    into cells keyed by sign vectors, the side of each normal a cell lies
    on.  A cell is its list of (ray, tight mask) pairs: bit k of a mask
    says the ray lies on hyperplane k, for every hyperplane processed so
    far, and the bits above those of the hyperplanes mark the support's
    facets (git.cone_normals) the ray lies on, so a cell's masks always
    come from an H-description of it.  A hyperplane that cuts a cell
    splits it in one double description step (polyhedra._dd_step); a
    cell whose rays lie on one side is kept whole.  The support is convex,
    so two cells share a facet exactly when their sign vectors differ in
    one place k, and the facet is the face of either cell on hyperplane k:
    the sum of the cell's rays on it probes the facet without intersecting
    cells.  That probe lies in the relative interior of the facet, so on
    no other span hyperplane, and the cells merge when it is off wall k.
    Returns the chambers as canonical cones, sorted by their ray tuples.
    Capped at rank 4, then at R <= 16.
    """
    r = git.r
    if r > 4:
        raise DomainError("rank_too_large", "secondary fan capped at rank 4")
    normals, walls = _chamber_walls(git)
    top = len(normals)
    cells = {
        (): [
            (v, sum(1 << (top + j) for j, a in enumerate(git.cone_normals) if not dot(a, v)))
            for v in dd_cone(git.cone_normals, dim=r)[0]
        ]
    }
    for k, h in enumerate(normals):
        nxt = {}
        for signs, cell in cells.items():
            # A full-dimensional pointed cell's adjacent rays share r - 2
            # tight hyperplanes.
            pos, neg, on = _dd_step(cell, [dot(h, v) for v, _ in cell], 1 << k, r - 2)
            if pos and neg:
                nxt[signs + (1,)] = pos + on
                nxt[signs + (-1,)] = neg + on
            else:
                nxt[signs + (1 if pos else -1,)] = pos + neg + on
        cells = nxt
    parent = {signs: signs for signs in cells}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for signs, cell in cells.items():
        for k, wall in enumerate(walls):
            flipped = signs[:k] + (-1,) + signs[k + 1:]
            if signs[k] > 0 and flipped in cells:
                probe = tuple(map(sum, zip(*(v for v, z in cell if z >> k & 1))))
                if not _in_hrep(*wall, probe):
                    parent[find(signs)] = find(flipped)
    groups = {}
    for signs, cell in cells.items():
        groups.setdefault(find(signs), []).extend(v for v, _ in cell)
    chambers = [Cone.from_rays(gens, dim=r) for gens in groups.values()]
    return tuple(sorted(chambers, key=lambda c: c.rays))


class PLFunction:
    """A piecewise linear function on a fan, linear on each maximal cone.

    Built from one value per ray; the linear piece on a maximal cone is the
    functional agreeing with those values on the cone's rays.  Fails with
    kind "not_q_cartier" when no such functional exists on some cone.
    """

    __slots__ = ("source", "coeffs", "pieces")

    def __init__(self, fan_like, coeffs):
        coeffs = as_exact_vector(coeffs)
        if len(coeffs) != len(fan_like.rays):
            raise DomainError("dimension_mismatch", "one coefficient per ray required")
        pieces = []
        for cone_idx in fan_like.max_cones:
            rows = [fan_like.rays[i] for i in cone_idx]
            rhs = [coeffs[i] for i in cone_idx]
            sol = solve_linear(rows, rhs)
            if sol is None:
                raise DomainError(
                    "not_q_cartier", f"no linear piece on cone {tuple(cone_idx)}"
                )
            pieces.append(tuple(sol))
        self.source = fan_like
        self.coeffs = coeffs
        self.pieces = tuple(pieces)

    def is_cartier(self):
        return all(c.denominator == 1 for p in self.pieces for c in p)

    def is_nef(self):
        """Every linear piece underestimates the value at every ray."""
        rays = self.source.rays
        for piece in self.pieces:
            for j, v in enumerate(rays):
                if dot(piece, v) > self.coeffs[j]:
                    return False
        return True

    def is_ample(self):
        """Nef with strict inequality at every ray outside the piece's cone."""
        rays = self.source.rays
        for piece, cone_idx in zip(self.pieces, self.source.max_cones):
            inside = set(cone_idx)
            for j, v in enumerate(rays):
                val = dot(piece, v)
                if j in inside:
                    if val != self.coeffs[j]:
                        return False
                elif val >= self.coeffs[j]:
                    return False
        return True


def is_nef(fan_like, coeffs):
    return PLFunction(fan_like, coeffs).is_nef()

def is_ample(fan_like, coeffs):
    return PLFunction(fan_like, coeffs).is_ample()


def sections_polytope(fan_like, coeffs):
    """The polytope {m : <ray_i, m> >= -coeff_i}.

    For a nef divisor on a complete fan this is its polytope of sections.
    Raises with kind "empty_polytope" when there are none, "unbounded" when
    the fan is not complete enough to bound it.
    """
    coeffs = as_exact_vector(coeffs)
    if len(coeffs) != len(fan_like.rays):
        raise DomainError("dimension_mismatch", "one coefficient per ray required")
    ineqs = [(tuple(v), -c) for v, c in zip(fan_like.rays, coeffs)]
    return Polytope.from_hrep(ineqs, dim=fan_like.dim)


def projective_bundle_fan(base, summand_coeffs):
    """The fan of a projectivized sum of line bundles over a toric base.

    base is a StackyFan; summand_coeffs lists one divisor coefficient vector
    per line bundle summand (indexed by base coordinates).  The result's
    coordinates are the lifted base coordinates in their original order,
    followed by one fibre coordinate per summand, the first summand's ray
    being minus the sum of the others.  Twisting every summand by the same
    divisor does not change the output.
    """
    k = len(summand_coeffs)
    if k < 2:
        raise DomainError("bundle_rank", "need at least two summands")
    coeffs = [as_exact_vector(cs) for cs in summand_coeffs]
    nb = len(base.rays)
    for cs in coeffs:
        if len(cs) != nb:
            raise DomainError("dimension_mismatch", "coefficients per base coordinate")
    d = base.dim
    extra = k - 1
    lifted = []
    for i, v in enumerate(base.rays):
        twist = tuple(-(coeffs[m][i] - coeffs[0][i]) for m in range(1, k))
        if any(t.denominator != 1 for t in twist):
            raise DomainError("not_cartier", "summand difference is not integral")
        lifted.append(tuple(v) + tuple(int(t) for t in twist))
    fibre = [tuple(0 for _ in range(d)) + tuple(-1 for _ in range(extra))]
    fibre += [tuple(0 for _ in range(d)) + unit for unit in identity_matrix(extra)]
    rays = lifted + fibre
    max_cones = []
    for sigma in base.max_cones:
        for omit in range(k):
            fibre_idx = [nb + m for m in range(k) if m != omit]
            max_cones.append(tuple(sorted(list(sigma) + fibre_idx)))
    return StackyFan(d + extra, rays, max_cones)

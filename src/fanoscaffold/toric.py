"""Toric machinery: GIT presentations, quotient fans, divisors and bundles.

A toric variety is handled in two interchangeable forms: as GIT data (a
diagonal torus action on affine space together with a stability character)
and as a fan whose rays stay attached to the affine coordinates.  Divisors
are coefficient vectors indexed by those coordinates, and their classes
vectors of the weight space; positivity is read off the classes, section
polytopes off the coefficients.
"""

from itertools import combinations

from .errors import DomainError
from .exact import (
    _row_reduce,
    as_exact_vector,
    dot,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
    primitive_vector,
    to_int_vector,
    transpose,
    unimodular_inverse,
    vneg,
)
from .polyhedra import Cone, Fan, Polytope, _dd_step, _fan_input, _sorted_cones, dd_cone


class GitData:
    """A torus (C*)^r acting diagonally on C^R with a stability character.

    characters: tuple of R weight vectors in Z^r, one per coordinate.
    omega: the stability character, a rational vector in the same space.

    The character cone must be pointed and full dimensional and omega must
    lie inside it; this keeps every downstream construction well posed.
    The private slot ``_cone`` keeps that cone, from one Cone.from_rays
    pass over the characters: it is full dimensional exactly when it has
    no equation and pointed exactly when it has no lineality, and
    ``secondary_fan`` reads the support's rays and facets off it.
    cone_normals: its facet normals, the rays of the dual cone; a
    character lies in the cone exactly when it pairs >= 0 with each.

    Three more private slots hold derived data, each computed on first use
    and then reused by every later question about the same data:
    ``_covers``, the minimal covers of ``irrelevant_collection`` (one
    dd_cone pass over the fiber polytope); ``_bases``, the table of bases
    that ``secondary_fan`` and ``in_chamber_interior`` share
    (``_chamber_bases``: one small elimination per (r - 1)-subset of
    weights, no conversion); and
    ``_convex``, a dict from each partition asked about to the
    ``forward._convexity`` pair (failures as a tuple, coordinates), which
    ``forward.normalized_matrix`` fills, so the model and the scaffolding
    of a partition share one convexity pass.  The chamber data are capped
    at R <= 16; an input that raises caches nothing.
    """

    __slots__ = (
        "r", "R", "characters", "omega", "cone_normals",
        "_cone", "_covers", "_bases", "_convex",
    )

    def __init__(self, r, R, characters, omega):
        r, R = to_int_vector((r, R))
        characters = tuple(map(to_int_vector, characters))
        omega = as_exact_vector(omega)
        if len(characters) != R:
            raise DomainError("bad_git_data", f"expected {R} characters, got {len(characters)}")
        if any(len(d) != r for d in characters) or len(omega) != r:
            raise DomainError("bad_git_data", "character or omega length differs from r")
        if any(not any(d) for d in characters):
            raise DomainError("zero_character", "every coordinate needs a nonzero weight")
        cone = Cone.from_rays(characters, dim=r)
        if cone.eq_normals:
            raise DomainError("not_full_rank", "characters do not span the weight space")
        if cone.lineality:
            raise DomainError("not_pointed", "character cone contains a line")
        if any(dot(a, omega) < 0 for a in cone.ineq_normals):
            raise DomainError("omega_outside", "omega is not in the character cone")
        self.r = r
        self.R = R
        self.characters = characters
        self.omega = omega
        self.cone_normals = cone.ineq_normals
        self._cone = cone
        self._covers = None
        self._bases = None
        self._convex = {}

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
    tuples of coordinate indices spanning the maximal cones.  The input is
    checked by polyhedra._fan_input, as a Fan's is.
    """

    __slots__ = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones):
        self.dim, self.rays, cones = _fan_input(dim, rays, max_cones)
        self.max_cones = _sorted_cones(cones)

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
    if tuple(row for row in hnf if any(row)) != identity_matrix(r):
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


def _chamber_bases(git):
    """(normals, bases): the bases of weights and their cones, once per GitData.

    A basis is an r-subset B of weights that spans.  Each (r - 1)-subset
    of independent weights spans a hyperplane, and one elimination of its
    (r - 1) x r block gives the kernel: pivots p on r - 1 columns and one
    free column f, so the vector with p at f and, at each pivot column,
    minus the entry of column f in that pivot's row, made primitive, is
    the hyperplane's normal; a dependent subset has none.  normals are these, first nonzero entry positive, sorted.
    B spans exactly when the normal of B minus its j-th weight exists and
    is nonzero on that weight for every j, and then h_j, that normal
    signed to be positive on the j-th weight, is zero on the others, so
    cone(W_B) = {w : <h_j, w> >= 0 for all j}.  bases holds one (rows,
    facets, positive) per basis, in the order of the subsets: its h_j, the
    bits of their normals, and the bits of those normals that equal an
    h_j.  Capped at R <= 16.
    """
    _check_subset_cap(git)
    if git._bases is None:
        r = git.r
        # normal maps each independent (r - 1)-subset to its normal; at
        # r = 0 there is no hyperplane.
        normal = {}
        for sub in combinations(range(git.R), r - 1) if r else ():
            M, pivots, _, p = _row_reduce([git.characters[i] for i in sub])
            if len(pivots) == r - 1:
                f = next(k for k in range(r) if k not in pivots)
                h = [0] * r
                h[f] = p
                for row, k in zip(M, pivots):
                    h[k] = -row[f]
                h = primitive_vector(h)
                # Of h and -h, the lex larger has its first nonzero entry positive.
                normal[sub] = max(h, vneg(h))
        normals = tuple(sorted(set(normal.values())))
        bit = {h: 1 << k for k, h in enumerate(normals)}
        bases = []
        for basis in combinations(range(git.R), r):
            rows = []
            facets = positive = 0
            for j, i in enumerate(basis):
                h = normal.get(basis[:j] + basis[j + 1:])
                side = dot(h, git.characters[i]) if h else 0
                if not side:
                    break
                facets |= bit[h]
                if side > 0:
                    positive |= bit[h]
                rows.append(h if side > 0 else vneg(h))
            else:
                bases.append((tuple(rows), facets, positive))
        git._bases = (normals, tuple(bases))
    return git._bases


def in_chamber_interior(git, omega):
    """Whether a character lies inside a full-dimensional GKZ chamber.

    True when omega is nonzero, in the character cone and on no wall.  A
    wall is the cone of the weights on a hyperplane that weight subsets
    span; by Caratheodory a character lies on one exactly when it lies
    on the boundary of a basis cone, where its least <h_j, omega> is 0.
    """
    w = as_exact_vector(omega)
    if len(w) != git.r:
        raise DomainError("dimension_mismatch", "character length differs from r")
    if not any(w):
        return False
    if any(dot(a, w) < 0 for a in git.cone_normals):
        return False
    return all(min(dot(h, w) for h in rows) != 0 for rows, _, _ in _chamber_bases(git)[1])


def secondary_fan(git):
    """The GKZ chamber decomposition of the character cone.

    Cuts the pointed support cone by every hyperplane spanned by weights
    into cells keyed by side masks, bit k set when the cell lies on the
    positive side of normal k.  A cell is its list of (ray, tight mask)
    pairs: bit k of a mask says the ray lies on hyperplane k, for every
    hyperplane processed so far, and the bits above those of the
    hyperplanes mark the support's facets (git.cone_normals) the ray lies
    on, so a cell's masks always come from an H-description of it.  The
    support's rays and facet bits are read off the incidences of the cone
    GitData keeps, with no conversion.  A hyperplane that cuts a cell
    splits it in one double description step (polyhedra._dd_step).  A
    cell lies in the cone of a basis exactly when its side mask matches
    the basis's positive bits on its facet bits, and its chamber is the
    intersection of the basis cones that contain it (Gelfand, Kapranov
    and Zelevinsky, ch. 7): cells in the same bases make one chamber.  Returns the chambers as canonical
    cones, sorted by their ray tuples.  Capped at rank 4, then at R <= 16.
    """
    r = git.r
    if r > 4:
        raise DomainError("rank_too_large", "secondary fan capped at rank 4")
    normals, bases = _chamber_bases(git)
    top = len(normals)
    support = git._cone
    cells = {
        0: [
            (v, sum(1 << (top + j) for j, on in enumerate(support.incidence) if on >> i & 1))
            for i, v in enumerate(support.rays)
        ]
    }
    for k, h in enumerate(normals):
        nxt = {}
        for side, cell in cells.items():
            # A full-dimensional pointed cell's adjacent rays share r - 2
            # tight hyperplanes.
            pos, neg, on = _dd_step(cell, [dot(h, v) for v, _ in cell], 1 << k, r - 2)
            if pos:
                nxt[side | 1 << k] = pos + on
            if neg:
                nxt[side] = neg + on
        cells = nxt
    groups = {}
    for side, cell in cells.items():
        key = sum(1 << i for i, (_, facets, plus) in enumerate(bases) if side & facets == plus)
        groups.setdefault(key, []).extend(v for v, _ in cell)
    chambers = [Cone.from_rays(gens, dim=r) for gens in groups.values()]
    return tuple(sorted(chambers, key=lambda c: c.rays))


def positivity(git, classes):
    """[(nef, ample), ...]: the positivity on the quotient of each class.

    A class L of the weight space is nef exactly when, for every minimal
    cover I of omega, L is a nonnegative combination of the weights D_I,
    and ample exactly when every such combination is positive.  This is
    the piecewise linear test on the quotient fan: its maximal cones are
    the complements of the covers, and D_I is independent (Cox, Little
    and Schenck, "Toric Varieties", section 14.3).  On the cone whose
    complement is I, a divisor of class L minus its linear piece is a
    vector of class L supported on I, so it is the unique combination
    of D_I; its entry at coordinate j is the divisor's value at the ray
    v_j less the piece's, which nef asks to be >= 0 and ample > 0 at every
    ray outside the cone.  No combination means no linear piece: L is not
    Q-Cartier, and neither nef nor ample.

    One elimination of [D_I | L_1 ... L_k] per minimal cover I serves
    every class.  The weights D_I are independent, so their columns take
    the first |I| pivots, and L_j is a combination of them exactly when
    its entries below row |I| are 0; its coefficient on weight l is
    M[l][col] / p.  A class whose length is not r raises
    dimension_mismatch.
    """
    r = git.r
    if any(len(c) != r for c in classes):
        raise DomainError("dimension_mismatch", "class length differs from r")
    levels = [tuple(c[k] for c in classes) for k in range(r)]
    verdicts = [(True, True)] * len(classes)
    for cover in (irrelevant_collection(git) if classes else ()):
        n = len(cover)
        M, _, _, p = _row_reduce(
            [tuple(git.characters[j][k] for j in cover) + levels[k] for k in range(r)]
        )
        for i, (nef, _) in enumerate(verdicts):
            column = [row[n + i] for row in M]
            least = min(c * p for c in column[:n])
            if any(column[n:]) or least < 0:
                verdicts[i] = (False, False)
            elif least == 0:
                verdicts[i] = (nef, False)
    return verdicts


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
        if any(type(t) is not int for t in twist):
            raise DomainError("not_cartier", "summand difference is not integral")
        lifted.append(tuple(v) + twist)
    fibre = [tuple(0 for _ in range(d)) + tuple(-1 for _ in range(extra))]
    fibre += [tuple(0 for _ in range(d)) + unit for unit in identity_matrix(extra)]
    rays = lifted + fibre
    max_cones = []
    for sigma in base.max_cones:
        for omit in range(k):
            fibre_idx = [nb + m for m in range(k) if m != omit]
            max_cones.append(tuple(sorted(list(sigma) + fibre_idx)))
    return StackyFan(d + extra, rays, max_cones)

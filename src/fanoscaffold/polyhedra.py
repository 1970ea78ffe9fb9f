"""Exact polyhedral geometry: cones, polytopes and fans over the rationals.

Everything is computed with integer and Fraction arithmetic, and every
stored number (a vertex coordinate or a right-hand side) is an ``int``
exactly when it is integral (``exact.as_exact``), so lattice polytopes are
handled in the integers throughout.  The workhorse
is :func:`dd_cone`, an incremental double description conversion that is
integer-only: every conversion enters through _conversion_input, which
infers the dimension, checks every row's length, drops the zero rows and
the repeats and scales the rest to primitive integer vectors, once, and
every ray and lineality direction stays a primitive integer vector.
Tight sets are int bit masks, a pair of rays sharing too few tight
inequalities to span a 2-face skips the adjacency scan, and a pointed
cone's lineality is read off the running basis with no kernel computation.
One step of it, the cut of a cone's rays by one hyperplane, is _dd_step;
it gives both halves, so toric.secondary_fan splits its cells with it.
Its core, _dd_core, also returns each ray's exact tight mask.

Every Cone comes from one _dd_core pass, read once by _convert from both
sides of polarity: the pass cuts out the cone of its rows, whose polar
the rows span, and a row is kept when the facets of that span through it
meet only in it.  Cone.from_rays stores the kept generators as the rays
and the pass's rays as the facet normals, with the tight masks as the
ray-facet incidences, one int bit mask per facet; Cone.from_hrep stores
the same reading the other way round, its masks transposed once; and
Cone.polar swaps the two sides with no conversion.  A Polytope is the
pointed cone over P x {1} (Ziegler, Lectures on Polytopes, 1.5):
from_points is Cone.from_rays of the points (p, 1), from_hrep is
Cone.from_hrep of the homogenized constraints and t >= 0.  A Polytope
keeps that cone and dehomogenizes its vertices, facets and incidences on
first read.  Its polar dual is the polytope over the polar cone, with no
conversion and no arithmetic; lattice and interior-origin questions read
the cone's last coordinate, and the spanning fan and the normal fan only
read the incidences.  So do the fan questions: Fan.is_complete reads its
cones' incidences and facet normals to see that each ridge lies on two
cones, one on either side, and _fan_face reads the smallest cone of a
fan holding some points off one maximal cone's incidences.  Fan and
toric.StackyFan read their input through one door, _fan_input.  A placing
triangulation is the lower facets of one conversion of the lifted
points.  Lattice points are enumerated on integer rows by a depth-first
walk over the coordinates that bounds each one by the rows' partial sums
and the most the later coordinates can add, in bounding boxes of at most
MAX_LATTICE_BOX points (larger ones raise lattice_box_too_large).
lattice_isomorphic keys each vertex by the facets through it, read off
the incidences, and tries only the vertex tuples whose keys match.
Intended for small instances (ambient dimension up to about 10); no
attempt is made at large-scale performance.
"""

from itertools import combinations, product
from math import gcd
from operator import mul

from .errors import DomainError
from .exact import (
    _clear_denominators,
    _row_reduce,
    as_exact,
    as_exact_vector,
    det,
    dot,
    exact_ratio,
    identity_matrix,
    kernel_basis,
    primitive_vector,
    rank,
    to_int_vector,
    vadd,
    vneg,
    vscale,
    vsub,
)

# Largest bounding box, in lattice points, that integral_points enumerates.
MAX_LATTICE_BOX = 10**6


def _reduce_mod_rows(vec, rows, pivots):
    """Reduce vec modulo the row span, zeroing the pivot coordinates.

    rows is a matrix in Hermite form with pivot columns `pivots`.  Returns
    an integral primitive representative, or the zero tuple if vec lies in
    the row span.
    """
    work = tuple(vec)
    for row, p in zip(rows, pivots):
        if work[p]:
            # row[p] > 0, so this is a positive multiple of the rational step.
            work = vsub(vscale(row[p], work), vscale(work[p], row))
    if not any(work):
        return work
    return primitive_vector(work)


def _dd_step(rays, vals, bit, need):
    """One double description step: a cone's rays against one hyperplane.

    rays are (ray, tight mask) pairs of a cone over its lineality, vals
    their values on the hyperplane's normal a, and bit the mask bit of a.
    Returns (pos, neg, on): the pairs with a > 0, those with a < 0, and
    the rays of the cone's section by a = 0, with bit set.  The half
    a >= 0 has the rays pos + on, the half a <= 0 the rays neg + on.  The
    section holds the rays with a = 0 and one positive combination of each
    adjacent pair of a positive and a negative ray.  Two rays are adjacent
    when no third ray is tight wherever both are; adjacent rays span a
    2-face, so they share at least need tight inequalities (the cone's
    dimension over its lineality minus 2), and pairs sharing fewer skip
    the scan.
    """
    pos = [i for i, d in enumerate(vals) if d > 0]
    neg = [i for i, d in enumerate(vals) if d < 0]
    on = [(r, z | bit) for (r, z), d in zip(rays, vals) if d == 0]
    masks = [z for _, z in rays]
    for ip in pos:
        p, zp = rays[ip]
        for iq in neg:
            zc = zp & masks[iq]
            if zc.bit_count() < need:
                continue
            for ir, zr in enumerate(masks):
                if zc & zr == zc and ir != ip and ir != iq:
                    break
            else:
                c, e, q = vals[ip], vals[iq], rays[iq][0]
                new = primitive_vector([c * x - e * y for x, y in zip(q, p)])
                on.append((new, zc | bit))
    return [rays[i] for i in pos], [rays[i] for i in neg], on


def _conversion_input(inequalities, equations, dim):
    """The one door into a conversion: (rows, eqs, dim) ready for _dd_core.

    dim, when None, is the length of the first inequality, or of the first
    equation when there is none; with neither it raises dimension_unknown.
    Every inequality and equation, zero or not, must have length dim
    (dimension_mismatch).  Each is then scaled to a primitive integer
    vector once; the zero ones are dropped, and so is each later copy of
    an earlier one, the rest keeping their order.
    """
    rows = list(inequalities)
    eqs = list(equations)
    if dim is None:
        if not (rows or eqs):
            raise DomainError("dimension_unknown", "no constraints and no dim given")
        dim = len((rows or eqs)[0])
    _check_lengths(rows + eqs, dim)
    rows, eqs = (
        list(dict.fromkeys(primitive_vector(v) for v in map(_clear_denominators, vs) if any(v)))
        for vs in (rows, eqs)
    )
    return rows, eqs, dim


def dd_cone(inequalities, equations=(), dim=None):
    """Extreme rays and lineality space of a cone given by linear constraints.

    The cone is {x : <a, x> >= 0 for a in inequalities,
    <e, x> = 0 for e in equations}.  Constraints may have Fraction entries;
    _conversion_input scales them to primitive integer vectors.  This is
    _dd_core without the tight masks.

    Args:
        inequalities: iterable of constraint normals.
        equations: iterable of equality normals.
        dim: ambient dimension, required when both lists are empty.

    Returns:
        (rays, lineality): rays is a lex-sorted tuple of primitive integer
        tuples, each reduced modulo the lineality space; lineality is the
        canonical (Hermite form, saturated) basis of the largest linear
        subspace contained in the cone.
    """
    rays, _, lineality = _dd_core(*_conversion_input(inequalities, equations, dim))
    return rays, lineality


def _dd_core(rows, eqs, n):
    """dd_cone's conversion of clean rows, returning (rays, masks, lineality).

    rows and eqs are lists of distinct nonzero primitive integer vectors of
    length n, as _conversion_input gives them.  masks[k] is the tight set
    of rays[k]: bit j is set exactly when <rows[j], rays[k]> = 0.  Each
    ray's tight set is kept as an int bit mask while the rows are
    processed.  A row that vanishes on the running lineality is one
    _dd_step, which keeps the half >= 0: a positive and a negative ray are
    combined only when they are adjacent, and they share at least
    span_dim - len(lin) - 2 tight rows (span_dim is the dimension left
    after the equations; Fukuda and Prodon, "Double description method
    revisited", 1996).  Every later change to a ray is a positive multiple
    or adds a direction tight at all processed rows, so the masks stay
    exact.  A pointed cone returns its rays as they stand, with no kernel
    computation.
    """
    # Running description: cone = span(lin) + cone(r for r, _ in rays).
    # Each ray carries the mask of the processed rows where it is tight.
    # Every vector in lin is tight at all processed constraints.
    lin = list(identity_matrix(n))
    rays = []

    def _project_off(a):
        # Remove one lineality direction not orthogonal to a, make all other
        # generators orthogonal to a, and return the removed direction, or
        # None when a vanishes on the lineality.
        nonlocal lin, rays
        for idx, l0 in enumerate(lin):
            d0 = sum(map(mul, a, l0))
            if d0:
                break
        else:
            return None
        del lin[idx]
        if d0 < 0:
            l0 = vneg(l0)
            d0 = -d0
        # d0 > 0, so d0 * v - d * l0 is a positive multiple of v - (d / d0) l0.
        def orthogonal(v):
            d = sum(map(mul, a, v))
            return primitive_vector([d0 * x - d * y for x, y in zip(v, l0)]) if d else v

        lin = [orthogonal(l) for l in lin]
        rays = [(orthogonal(r), z) for r, z in rays]
        return l0

    # No ray exists yet, so an equation vanishing on the lineality is a
    # combination of the earlier ones.
    for e in eqs:
        _project_off(e)
    span_dim = len(lin)

    seen = 0
    for j, a in enumerate(rows):
        bit = 1 << j
        popped = _project_off(a)
        if popped is not None:
            # All survivors are tight at a except the popped direction.
            rays = [(r, z | bit) for r, z in rays]
            rays.append((popped, seen))
        else:
            vals = [sum(map(mul, a, r)) for r, _ in rays]
            pos, _, on = _dd_step(rays, vals, bit, span_dim - len(lin) - 2)
            rays = pos + on
        seen |= bit

    # lin spans the kernel of all constraints, so an empty lin means the
    # cone is pointed and its rays need no reduction.  A ray met twice has
    # the same values, so the same mask, both times.
    if lin:
        lineality = kernel_basis(rows + eqs, ncols=n)
        pivots = _pivot_columns(lineality)
        tight = {}
        for r, z in rays:
            red = _reduce_mod_rows(r, lineality, pivots)
            if any(red):
                tight[red] = z
    else:
        lineality = ()
        tight = dict(rays)
    out = tuple(sorted(tight))
    return out, tuple(tight[r] for r in out), tuple(lineality)


def _check_lengths(vectors, n):
    """Raise dimension_mismatch unless every vector, zero or not, has length n."""
    for v in vectors:
        if len(v) != n:
            raise DomainError("dimension_mismatch", f"constraint has length {len(v)}, expected {n}")


def _convert(rows, eqs, dim):
    """One _dd_core pass, read from both sides of polarity.

    The rows and eqs enter through _conversion_input, which also gives dim
    when it is None.  The pass cuts out C = {x : <a, x> >= 0 for a in
    rows, <e, x> = 0 for e in eqs}, whose polar C* is spanned by the rows
    and +-eqs (Ziegler, Lectures on Polytopes, Lecture 2).  Returns (dim,
    kept, kernel, rays, lineality, masks):
    kept: the extreme rows, the rays of C* and the facet normals of C,
        primitive, reduced modulo the kernel and lex sorted;
    kernel: the canonical basis of the kernel of C's rays and lineality,
        the lineality of C* and the equations of C;
    rays, lineality: those of C, as _dd_core gives them;
    masks: one int bit mask per ray; bit k is set when the ray lies on
        kept[k].
    The kernel is computed, and the rows reduced modulo it, only when
    equations are given or some row vanishes on every ray.  A row is kept
    when it is the first copy of a reduced row outside the kernel and no
    other such first copy lies on every ray on which it does: the facets
    of C* through it meet only in it.
    """
    rows, eqs, dim = _conversion_input(rows, eqs, dim)
    rays, masks, lineality = _dd_core(rows, eqs, dim)
    reps = common = (1 << len(rows)) - 1
    for mask in masks:
        common &= mask
    kernel = ()
    if eqs or common:
        kernel = tuple(kernel_basis(rays + lineality, ncols=dim))
        pivots = _pivot_columns(kernel)
        rows = [_reduce_mod_rows(a, kernel, pivots) for a in rows]
        # reps keeps the first of each reduced row outside the kernel.
        first = {}
        for i, a in enumerate(rows):
            first.setdefault(a, i)
        first.pop((0,) * dim, None)
        reps = sum(1 << i for i in first.values())
    # A row in the kernel is not in reps, and a later copy of a reduced row
    # meets the first copy, so neither is kept.  With no kernel, the rows
    # are the distinct nonzero ones _conversion_input gave.
    keep = []
    for i in range(len(rows)):
        meet = reps
        for mask in masks:
            if mask >> i & 1:
                meet &= mask
        if meet == 1 << i:
            keep.append(i)
    keep.sort(key=rows.__getitem__)
    # When every row is kept, in order, the masks are already indexed by
    # the kept rows; skipping the re-index there is faster.
    if keep != list(range(len(rows))):
        masks = _reindex(masks, keep)
    return dim, tuple(map(rows.__getitem__, keep)), kernel, rays, lineality, masks


def _pivot_columns(rows):
    """The column of the first nonzero entry of each row of an echelon matrix."""
    return [next(k for k, c in enumerate(row) if c) for row in rows]


def _reindex(masks, keep):
    """Each mask with bit keep[k] moved to bit k, and the other bits dropped."""
    return tuple(sum(1 << k for k, i in enumerate(keep) if mask >> i & 1) for mask in masks)


def _bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(masks, count):
    """The transposed incidences: bit k of the i-th of count masks is set
    when bit i of masks[k] is."""
    out = [0] * count
    for k, mask in enumerate(masks):
        for i in _bits(mask):
            out[i] |= 1 << k
    return tuple(out)


class Polytope:
    """A bounded rational polytope P, kept as the cone over P x {1}.

    dim: the ambient dimension n of P.
    cone: the pointed Cone in dimension n + 1 over P x {1}, from the one
        conversion of from_points or from_hrep.  Its rays are the
        primitive integer multiples of the points (v, 1) and its facet
        normals the primitive integer rows (a, -rhs) of <a, x> >= rhs.

    Four read-only properties dehomogenize the cone on first read and
    keep the result:
    vertices: lex-sorted tuple of vertex tuples, v = r[:n] / r[n].
    incidence: one int bit mask per facet inequality; bit i is set when
        vertex i lies on that facet, the cone's incidences re-indexed
        to the vertex order.
    inequalities: facet inequalities (normal, rhs), <normal, x> >= rhs,
        irredundant within the affine hull.
    equations: affine hull equations (normal, rhs), <normal, x> = rhs.

    Polytope(dim, cone) checks nothing: cone must be a pointed Cone over
    P x {1} with exact incidences, since every face, fan and dual query
    reads it as it is.  Build a Polytope with from_points or from_hrep (or
    an operation on one), not directly.

    Normals are integer tuples, and every rhs is an ``int``, as the cone's
    normals are primitive integer rows.  Every vertex coordinate is an
    ``int`` when it is integral and a ``Fraction`` otherwise
    (``exact.as_exact``), so a lattice polytope stores only ints.
    """

    __slots__ = ("dim", "cone", "_vertices", "_incidence", "_inequalities", "_equations")

    def __init__(self, dim, cone):
        self.dim = dim
        self.cone = cone
        self._vertices = self._incidence = self._inequalities = self._equations = None

    @classmethod
    def from_points(cls, points):
        """The convex hull of points: Cone.from_rays of the lifted points (p, 1)."""
        pts = sorted({as_exact_vector(p) for p in points})
        if not pts:
            raise DomainError("empty_polytope", "no points given")
        n = len(pts[0])
        if n == 0:
            raise DomainError("dimension_unknown", "ambient dimension zero")
        for p in pts:
            if len(p) != n:
                raise DomainError("dimension_mismatch", "points of mixed length")
        return cls(n, Cone.from_rays([p + (1,) for p in pts], dim=n + 1))

    @classmethod
    def from_hrep(cls, inequalities, equations=(), dim=None):
        """The polytope {x : <a, x> >= rhs, <e, x> = rhs'}, from one conversion.

        Cone.from_hrep of (a, -rhs) >= 0, (e, -rhs') = 0 and t >= 0 gives
        the vertices as the rays with t > 0; a line, or a ray with t = 0
        next to one with t > 0, raises unbounded, and no ray with t > 0
        raises empty_polytope.  A single point keeps the one facet t >= 0,
        that is 0 >= -1.
        """
        ineqs = [as_exact_vector(a) + (-as_exact(rhs),) for a, rhs in inequalities]
        eqs = [as_exact_vector(a) + (-as_exact(rhs),) for a, rhs in equations]
        if dim is None:
            if not (ineqs or eqs):
                raise DomainError("dimension_unknown", "no constraints and no dim")
            dim = len((ineqs or eqs)[0]) - 1
        n = dim
        _check_lengths([r[:-1] for r in ineqs + eqs], n)
        ineqs.append((0,) * n + (1,))
        cone = Cone.from_hrep(ineqs, eqs, dim=n + 1)
        if cone.lineality:
            raise DomainError("unbounded", "feasible set contains a line")
        recession = [r for r in cone.rays if r[n] == 0]
        if recession and len(recession) < len(cone.rays):
            raise DomainError("unbounded", f"recession direction {recession[0][:n]}")
        if not cone.rays or recession:
            # Only recession rays and no vertex: the polyhedron is empty and
            # the homogenization degenerated to the recession cone.
            raise DomainError("empty_polytope", "inconsistent constraints")
        return cls(n, cone)

    @property
    def vertices(self):
        if self._vertices is None:
            self._dehomogenize()
        return self._vertices

    @property
    def incidence(self):
        if self._incidence is None:
            self._dehomogenize()
        return self._incidence

    @property
    def inequalities(self):
        if self._inequalities is None:
            self._inequalities = tuple((a[:-1], -a[-1]) for a in self.cone.ineq_normals)
        return self._inequalities

    @property
    def equations(self):
        if self._equations is None:
            self._equations = tuple((e[:-1], -e[-1]) for e in self.cone.eq_normals)
        return self._equations

    def _dehomogenize(self):
        """Keep the vertices r[:n] / r[n] of the cone's rays r, lex sorted.

        A ray (v, 1) gives v with no division.  When every vertex is a
        lattice point, the rays are the points (v, 1), already in the
        vertices' lex order, and the cone's incidences are the polytope's.
        """
        verts = [_affine(r) for r in self.cone.rays]
        incidence = self.cone.incidence
        if not self.is_lattice():
            order = sorted(range(len(verts)), key=verts.__getitem__)
            verts = [verts[i] for i in order]
            incidence = _reindex(incidence, order)
        self._vertices, self._incidence = tuple(verts), incidence

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"

    def is_full_dimensional(self):
        return not self.cone.eq_normals

    def is_lattice(self):
        """Whether every ray of the cone is (v, 1): a primitive (v q, q) with
        q > 1 has some coordinate that q does not divide."""
        return all(r[-1] == 1 for r in self.cone.rays)

    def dilate(self, k):
        k = as_exact(k)
        return Polytope.from_points([vscale(k, v) for v in self.vertices])

    def facet_vertex_sets(self):
        """For each facet inequality, the frozenset of indices of vertices on it.

        A tuple read off the stored incidences, so a caller cannot change
        the polytope through it.
        """
        return tuple(frozenset(_bits(mask)) for mask in self.incidence)

    def integral_points(self):
        """All lattice points of the polytope, lex sorted.

        Each facet inequality becomes a primitive integer row
        <a, x> >= b, and each equation a pair of them; an equation with no
        integer solution gives ().  The points are found by a depth-first
        walk over the coordinates in increasing order (Fincke and Pohst,
        Math. Comp. 44, 1985).  Every row carries its partial sum
        s = <a_{<i}, x_{<i}>, and at level i it bounds x_i by
        a_i x_i >= b - s - R_i, where R_i, the sum over l > i of
        max(a_l lo_l, a_l hi_l), is the most the later coordinates can
        add within the bounding box [lo, hi].  The bound is sound, since
        every lattice point of the polytope lies in that box, and at the
        last level, where R is 0, it is the row itself.  A bounding box of
        more than MAX_LATTICE_BOX points raises lattice_box_too_large
        before anything is enumerated.
        """
        n = self.dim
        if not n:
            return ((),)
        lo = []
        hi = []
        for i in range(n):
            cs = [v[i] for v in self.vertices]
            lo.append(min(-(-c.numerator // c.denominator) for c in cs))
            hi.append(max(c.numerator // c.denominator for c in cs))
        size = 1
        for a, b in zip(lo, hi):
            size *= max(b - a + 1, 0)
        if size > MAX_LATTICE_BOX:
            raise DomainError(
                "lattice_box_too_large",
                f"the bounding box holds {size} lattice points; lattice points "
                f"are enumerated only in boxes of at most {MAX_LATTICE_BOX}",
            )
        rows = [_integer_row(a, rhs) for a, rhs in self.inequalities]
        for a, rhs in self.equations:
            up, down = _integer_row(a, rhs), _integer_row(vneg(a), -rhs)
            if up[1] + down[1] > 0:
                # b > -b' happens exactly when <a, x> = rhs has no integer
                # solution: rhs is not an integer multiple of the gcd of a.
                return ()
            rows += [up, down]
        # ups[i] and downs[i] hold (j, a_i, t) for each row j with a_i > 0
        # and a_i < 0, where t = b - R_i, plus a_i - 1 in ups[i] so that the
        # floor (t - s) // a_i rounds up there.  A row with a_i = 0 repeats
        # at level i the test of its last nonzero level, as s and R_i are
        # unchanged since; before its first, the test is b > R over the
        # whole box, made once here.
        ups = [[] for _ in range(n)]
        downs = [[] for _ in range(n)]
        for j, (a, b) in enumerate(rows):
            rest = 0
            for i in range(n - 1, -1, -1):
                c = a[i]
                if c > 0:
                    ups[i].append((j, c, b - rest + c - 1))
                    rest += c * hi[i]
                elif c:
                    downs[i].append((j, c, b - rest))
                    rest += c * lo[i]
            if b > rest:
                return ()
        moves = [[(j, c) for j, c, _ in ups[i] + downs[i]] for i in range(n)]
        sums = [0] * len(rows)
        pts = []

        def walk(i, head):
            first, last = lo[i], hi[i]
            for j, c, t in ups[i]:
                q = (t - sums[j]) // c
                if q > first:
                    first = q
            for j, c, t in downs[i]:
                q = (t - sums[j]) // c
                if q < last:
                    last = q
            if i == n - 1:
                pts.extend(head + (x,) for x in range(first, last + 1))
                return
            if first > last:
                return
            start = [(j, c, sums[j]) for j, c in moves[i]]
            for x in range(first, last + 1):
                for j, c, s in start:
                    sums[j] = s + c * x
                walk(i + 1, head + (x,))
            for j, _, s in start:
                sums[j] = s

        walk(0, ())
        return tuple(pts)

    def has_interior_origin(self):
        """Whether 0 is interior: full dimensional, every rhs = -a[n] < 0."""
        return self.is_full_dimensional() and all(a[-1] > 0 for a in self.cone.ineq_normals)

    def dual(self):
        """The polar dual {y : <y, x> >= -1 for all x in self}.

        Requires the origin strictly in the interior.  Its cone is the
        polar of the cone over P x {1} (Cone.polar), with no conversion and
        no arithmetic: the facet normal (a, -rhs) is the primitive multiple
        of the dual vertex a / -rhs lifted to (a / -rhs, 1), and the ray of
        the vertex v is the normal of the dual facet <v, y> >= -1.  A dual
        with 0 in its interior is full dimensional and pointed.
        """
        if not self.has_interior_origin():
            raise DomainError("origin_not_interior", "polar dual undefined")
        return Polytope(self.dim, self.cone.polar())

    def is_reflexive(self):
        """Whether P is a lattice polytope whose facets are all <a, x> >= -1:
        the dual's vertices are then the primitive integer normals a."""
        normals = self.cone.ineq_normals
        return self.is_lattice() and self.is_full_dimensional() and all(a[-1] == 1 for a in normals)

    def minkowski_sum(self, other):
        if self.dim != other.dim:
            raise DomainError("dimension_mismatch", "summands of different dimension")
        pts = [vadd(p, q) for p in self.vertices for q in other.vertices]
        return Polytope.from_points(pts)


def _affine(ray):
    """The point v = r[:-1] / r[-1] of an integer ray r with r[-1] > 0.

    It is r[:-1] itself when r[-1] = 1; otherwise each coordinate is an
    int exactly when it is integral.  The ray of a vertex v of a polytope
    gives v, and the facet normal (a, -rhs) gives the dual vertex a / -rhs.
    """
    q = ray[-1]
    return ray[:-1] if q == 1 else tuple(exact_ratio(c, q) for c in ray[:-1])


def _integer_row(a, rhs):
    """Primitive integer (a', b) with the same lattice points as <a, x> >= rhs.

    a and rhs are integers, read off a primitive integer cone normal.  a
    may be zero (the one inequality of a point is 0 >= -1); then a' is.
    """
    g = gcd(*a) or 1
    return tuple(c // g for c in a), -(-rhs // g)


class Cone:
    """A rational polyhedral cone with canonical V- and H-descriptions.

    rays: extreme rays, primitive, reduced modulo lineality, lex sorted.
    lineality: canonical basis of the contained linear subspace.
    ineq_normals / eq_normals: the dual description; <a, x> >= 0 and
    <e, x> = 0 with the same canonical conventions on the dual side.
    incidence: one int bit mask per facet normal; bit i is set when
        rays[i] lies on that facet.

    Both descriptions come from one reading of one double description
    pass (_convert), so the two sides are stored in the same canonical
    form and polar() only swaps them.  The constructor checks nothing:
    build a Cone with from_rays, from_hrep or polar, not directly.
    """

    __slots__ = ("dim", "rays", "lineality", "ineq_normals", "eq_normals", "incidence")

    def __init__(self, dim, rays, lineality, ineq_normals, eq_normals, incidence):
        self.dim = dim
        self.rays = rays
        self.lineality = lineality
        self.ineq_normals = ineq_normals
        self.eq_normals = eq_normals
        self.incidence = incidence

    @classmethod
    def from_rays(cls, generators, dim=None):
        """The cone the generators span, from one double description pass.

        The pass cuts out the polar cone, whose rays are the facet normals
        and whose lineality gives the equations; the generators it keeps
        (_convert) are the rays, and its kernel the lineality.
        """
        return cls(*_convert(generators, (), dim))

    @classmethod
    def from_hrep(cls, ineq_normals, eq_normals=(), dim=None):
        """The cone {x : <a, x> >= 0, <e, x> = 0}, from one conversion.

        The pass gives the rays and the lineality; the inequalities it
        keeps (_convert) are the facet normals, and its kernel the
        equations.  The incidences are the transpose of its masks.
        """
        dim, normals, hull, rays, lineality, on_ray = _convert(ineq_normals, eq_normals, dim)
        return cls(dim, rays, lineality, normals, hull, _transpose(on_ray, len(normals)))

    def polar(self):
        """The polar cone {y : <y, x> >= 0 for all x in self}.

        Polarity swaps the rays with the facet normals and the lineality
        with the equations, and transposes the incidences, with no
        conversion: both sides are stored in the same canonical form.
        """
        on_ray = _transpose(self.incidence, len(self.rays))
        return Cone(self.dim, self.ineq_normals, self.eq_normals, self.rays, self.lineality, on_ray)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    def __hash__(self):
        return hash((self.dim, self.rays, self.lineality))

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={self.rays})"

    def contains(self, v):
        """Whether v lies in the cone: <a, v> >= 0 and <e, v> = 0."""
        return all(dot(a, v) >= 0 for a in self.ineq_normals) and all(
            dot(e, v) == 0 for e in self.eq_normals
        )

    def is_pointed(self):
        return not self.lineality


def _fan_face(fan, points):
    """The rays of the smallest cone of a fan that holds the given points.

    fan has rays, max_cones and dim (a Fan or a StackyFan).  The face is
    taken in the first maximal cone that holds the points; the cones of a
    fan meet in faces, so any such cone gives the same one.  It is cut out
    by the facets on which every point lies, and its rays are those on all
    of these facets, read off the incidences (Kaibel and Pfetsch, Comput.
    Geom. 2002).  None when no maximal cone holds the points.
    """
    for c in fan.max_cones:
        cone = Cone.from_rays([fan.rays[i] for i in c], dim=fan.dim)
        if all(cone.contains(p) for p in points):
            on = (1 << len(cone.rays)) - 1
            for a, mask in zip(cone.ineq_normals, cone.incidence):
                if not any(dot(a, p) for p in points):
                    on &= mask
            return tuple(v for i, v in enumerate(cone.rays) if on >> i & 1)
    return None


def _fan_input(dim, rays, max_cones):
    """The one door into a fan: (dim, rays, cones), checked.

    dim, every ray and every cone go through to_int_vector, so 3/2
    raises not_integral and a bool or a float index not_exact.  Each ray
    in turn raises dimension_mismatch when its length is not dim, then
    zero_vector when it is zero; then each cone raises bad_index when it
    names no ray.  The rays and the cones keep their order, unsorted:
    Fan sorts its cones once after re-indexing them, with _sorted_cones,
    and toric.StackyFan sorts them once as they are.
    """
    (dim,) = to_int_vector((dim,))
    rays = tuple(map(to_int_vector, rays))
    for v in rays:
        if len(v) != dim:
            raise DomainError("dimension_mismatch", "ray length differs from dim")
        if not any(v):
            raise DomainError("zero_vector", "fan ray must be nonzero")
    cones = []
    for c in max_cones:
        c = to_int_vector(c)
        if c and (min(c) < 0 or max(c) >= len(rays)):
            raise DomainError("bad_index", "cone index out of range")
        cones.append(c)
    return dim, rays, cones


def _sorted_cones(cones):
    """The sorted distinct tuples of the cones' sorted distinct indices."""
    return tuple(sorted({tuple(sorted(set(c))) for c in cones}))


class Fan:
    """A fan recorded as primitive rays plus index sets of maximal cones.

    The input is checked by _fan_input, as toric.StackyFan's is: rays are
    nonzero integer vectors of length dim.  Each ray is made primitive,
    the rays are deduplicated and lex sorted, each maximal cone is a sorted
    tuple of ray indices and the list of cones is sorted.  Validity (that
    cones intersect in faces) is the caller's responsibility.
    """

    __slots__ = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones):
        self.dim, rays, cones = _fan_input(dim, rays, max_cones)
        prim = list(map(primitive_vector, rays))
        self.rays = tuple(sorted(set(prim)))
        lookup = {r: i for i, r in enumerate(self.rays)}
        remap = [lookup[r] for r in prim]
        self.max_cones = _sorted_cones([remap[i] for i in c] for c in cones)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return hash((self.dim, self.rays, self.max_cones))

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def ray_index(self, v):
        """The index of the ray through v, an integer vector as a fan ray is."""
        r = to_int_vector(v)
        try:
            return self.rays.index(primitive_vector(r) if any(r) else r)
        except ValueError:
            raise DomainError("unknown_ray", f"{tuple(v)} is not a ray of the fan")

    def cone(self, indices):
        return Cone.from_rays([self.rays[i] for i in indices], dim=self.dim)

    def is_complete(self):
        """Whether the fan covers the whole space.

        Checks that all maximal cones are full dimensional and pointed, and
        that every codimension one face is shared by exactly two of them,
        lying on opposite sides of it: their inner normals there sum to 0.
        This is the right criterion for fans whose cones meet along faces;
        without the sides, cones folded back over a ridge would pass.  A
        facet of a pointed cone is keyed by its own rays, read off the
        cone's incidences.
        """
        if not self.max_cones:
            return False
        ridges = {}
        for c in self.max_cones:
            cone = self.cone(c)
            if cone.eq_normals or not cone.is_pointed():
                return False
            for a, mask in zip(cone.ineq_normals, cone.incidence):
                key = tuple(cone.rays[i] for i in _bits(mask))
                ridges.setdefault(key, []).append(a)
        return all(len(n) == 2 and n[0] == vneg(n[1]) for n in ridges.values())


def spanning_fan(polytope):
    """The fan of cones over the proper faces of a polytope containing 0.

    Rays are the primitive generators of the vertices; maximal cones are
    spanned by the vertex sets of the facets.
    """
    if not polytope.has_interior_origin():
        raise DomainError("origin_not_interior", "spanning fan needs 0 inside")
    if not polytope.is_lattice():
        raise DomainError("not_lattice", "spanning fan needs lattice vertices")
    return Fan(polytope.dim, polytope.vertices, [_bits(mask) for mask in polytope.incidence])


def normal_fan(polytope):
    """The fan of inner normal cones at the vertices of a full-dim polytope.

    The cone at a vertex is spanned by the normals of the facets through it,
    read off the stored incidences.
    """
    if not polytope.is_full_dimensional():
        raise DomainError("not_full_dimensional", "normal fan needs a full-dim polytope")
    cones = [[] for _ in polytope.vertices]
    for k, mask in enumerate(polytope.incidence):
        for i in _bits(mask):
            cones[i].append(k)
    return Fan(polytope.dim, [a for a, _ in polytope.inequalities], cones)


def placing_triangulation(points):
    """The lex placing triangulation of distinct lattice points on a line or a plane.

    Placing the points in lex order, each one is joined to every boundary
    face of the cells so far that it sees, so every point is a vertex.
    Returns the sorted cells, each a sorted tuple of indices into points.

    A placing triangulation is regular (De Loera, Rambau and Santos,
    Triangulations, 4.3): lift the point of lex rank k to height t^k, and
    the cells are the lower facets of the lifted points.  So one
    Cone.from_rays conversion of the points (p, t^k, 1) and the upward ray
    (0, ..., 0, 1, 0) gives them, as the facets whose incidence masks miss
    the upward ray.

    Let w be the width of the points' bounding box and D the largest |det|
    of a lattice triangle in it, so D <= 2w^2.  In the plane any
    t > max(3D, 2D^2) works, so t = 8w^4 + 6w^2 + 1 does:
    - each new point lies above the plane of every earlier cell, since its
      barycentric coordinates there are at most D in absolute value, so
      that plane is below 3D t^(k-1) < t^k at the point;
    - over each hull edge the new point sees, every earlier point lies
      above the new triangle's plane, since its coefficient on the new
      point is at most -1/D and its other two at most D, so that plane is
      below 2D t^(k-1) - t^k / D < 0 at the point.  An earlier point on
      the edge's line lies above it too, since t > w makes the heights
      strictly convex along any line.
    So on a line t > w is enough, and any t >= 2 is when the points are
    equally spaced, as the lattice points of an edge are.
    """
    w = max(max(c) - min(c) for c in zip(*points))
    t = 8 * w**4 + 6 * w**2 + 1
    order = sorted(range(len(points)), key=points.__getitem__)
    index = {tuple(points[i]) + (t**k, 1): i for k, i in enumerate(order)}
    up = (0,) * len(points[0]) + (1, 0)
    cone = Cone.from_rays(list(index) + [up])
    up_bit = 1 << cone.rays.index(up)
    return tuple(sorted(
        tuple(sorted(index[cone.rays[b]] for b in _bits(mask)))
        for mask in cone.incidence
        if not mask & up_bit
    ))


def _vertex_keys(polytope):
    """Each vertex's sorted tuple of (rhs, gcd(a)) over the facets
    <a, x> >= rhs through it, read off the stored incidences."""
    keys = [[] for _ in polytope.vertices]
    for (a, rhs), mask in zip(polytope.inequalities, polytope.incidence):
        for i in _bits(mask):
            keys[i].append((rhs, gcd(*a)))
    return [tuple(sorted(k)) for k in keys]


def lattice_isomorphic(p, q):
    """Search for a unimodular map sending polytope p onto polytope q.

    Returns the matrix U (tuple of rows, acting on column vectors) with
    U * p = q as vertex sets, or None.  Both polytopes must be full
    dimensional lattice polytopes with at most 12 vertices.

    The search fixes the first independent d-tuple bp of vertices of p and
    tries the ordered d-tuples bq of vertices of q in lex order of their
    indices, as permutations would, keeping the first U with U bp = bq that
    is integral, has |det U| = 1 and maps the vertices of p onto those of
    q.  It tries only the bq that match bp's vertex keys (_vertex_keys)
    position by position.  A unimodular U fixes the origin and sends each
    facet <a, x> >= rhs of p to the facet <a U^-1, y> >= rhs of U p, and
    gcd(a U^-1) = gcd(a), so it sends each vertex to one with the same key
    (the invariants of the vertex-facet pairing that PALP's normal form is
    built on: Kreuzer and Skarke, Comput. Phys. Commun. 2004).  A bq that
    does not match cannot give an isomorphism, so skipping it leaves the
    first map found, and the result, unchanged; and two polytopes whose
    sorted keys differ are not isomorphic.
    """
    if not (p.is_lattice() and q.is_lattice()):
        raise DomainError("not_lattice", "lattice comparison of rational polytopes")
    if not (p.is_full_dimensional() and q.is_full_dimensional()):
        raise DomainError("not_full_dimensional", "lattice comparison needs full dim")
    if len(p.vertices) > 12 or len(q.vertices) > 12:
        raise DomainError("too_many_vertices", "lattice comparison capped at 12 vertices")
    if p.dim != q.dim or len(p.vertices) != len(q.vertices):
        return None
    pkeys, qkeys = _vertex_keys(p), _vertex_keys(q)
    if sorted(pkeys) != sorted(qkeys):
        return None
    d = p.dim
    pv = p.vertices
    qv = q.vertices
    qset = set(qv)
    # U maps the rows of bp to the rows of bq: U[j][k] = sum_i bp^-1[k][i] *
    # bq[i][j].  One reduction of M = [bp | I] gives [D I | D bp^-1] with
    # D = +-det bp, so each candidate costs one integer product and an
    # exact division by D.
    base = next(c for c in combinations(range(len(pv)), d) if rank([pv[i] for i in c]) == d)
    bp = [pv[i] for i in base]
    M, _, _, D = _row_reduce([v + e for v, e in zip(bp, identity_matrix(d))])
    inv = [row[d:] for row in M]
    matches = [[j for j, key in enumerate(qkeys) if key == pkeys[i]] for i in base]
    for index in product(*matches):
        if len(set(index)) < d:
            continue
        bq = [qv[j] for j in index]
        scaled = [[dot(row, col) for row in inv] for col in zip(*bq)]
        if any(c % D for row in scaled for c in row):
            continue
        urows = tuple(tuple(c // D for c in row) for row in scaled)
        if abs(det(urows)) != 1:
            continue
        image = {tuple(dot(row, v) for row in urows) for v in pv}
        if image == qset:
            return urows
    return None

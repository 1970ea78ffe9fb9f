"""Forward construction: a Laurent model from GIT data plus a partition.

The coordinates of the quotient presentation are split into a unimodular
basis block B, groups S_1..S_k that each get summed into one bracket, and
leftover coordinates U kept as honest variables.  Eliminating one chosen
coordinate per group produces a Laurent polynomial; different choices give
mutation-equivalent answers related by a monomial change of variables.
"""

from .errors import DomainError
from .laurent import _bracket_sum
from .exact import identity_matrix, to_int_vector
from .toric import _basis_fan, basis_coordinates, positivity


class ConvexPartitionWithBasis:
    """A partition of the quotient coordinates guiding the elimination.

    B: indices whose weights form the basis (one per torus factor).
    S: the groups to be bracketed, each a nonempty index tuple.
    U: indices kept as variables untouched.
    choices: the coordinate eliminated from each group, one per group.
    """

    __slots__ = ("B", "S", "U", "choices")

    def __init__(self, B, S, U=(), choices=None):
        B = to_int_vector(B)
        S = tuple(tuple(sorted(set(to_int_vector(s)))) for s in S)
        U = tuple(sorted(set(to_int_vector(U))))
        if any(not s for s in S):
            raise DomainError("bad_partition", "groups must be nonempty")
        if choices is None:
            choices = tuple(s[-1] for s in S)
        choices = to_int_vector(choices)
        if len(choices) != len(S):
            raise DomainError("bad_partition", "one choice per group required")
        for c, s in zip(choices, S):
            if c not in s:
                raise DomainError("bad_partition", f"choice {c} is not in its group")
        blocks = [set(B), set(U)] + [set(s) for s in S]
        total = sum(len(b) for b in blocks)
        union = set().union(*blocks)
        if len(B) != len(set(B)) or total != len(union):
            raise DomainError("bad_partition", "index blocks overlap")
        self.B = B
        self.S = S
        self.U = U
        self.choices = choices

    def columns(self):
        out = set(self.B) | set(self.U)
        for s in self.S:
            out |= set(s)
        return out

    def variable_columns(self):
        """Columns that become Laurent variables, in canonical order.

        The U block comes first (by index), then each group's non-chosen
        columns in group order.
        """
        out = list(self.U)
        for s, c in zip(self.S, self.choices):
            out.extend(j for j in s if j != c)
        return tuple(out)

    def __repr__(self):
        return f"ConvexPartitionWithBasis(B={self.B}, S={self.S}, U={self.U})"

    def __eq__(self, other):
        if not isinstance(other, ConvexPartitionWithBasis):
            return NotImplemented
        return (self.B, self.S, self.U, self.choices) == (
            other.B,
            other.S,
            other.U,
            other.choices,
        )

    def __hash__(self):
        return hash((self.B, self.S, self.U, self.choices))


def _convexity(git, part):
    """(failures, coordinates of the weights and omega in the basis).

    The failures are all reasons the partition fails to be convex, empty
    when it is valid.  Checks, in order: the basis block is unimodular,
    omega is a nonnegative combination of the basis weights, each group's
    total divisor is a nonnegative combination of the basis weights, and
    each group's total divisor is nef on the quotient.  The coordinates
    are None when the basis block cannot be eliminated.

    The nef test runs in the weight space, on the class of each group's
    total divisor (toric.positivity).
    """
    failures = []
    r = git.r
    if len(part.B) != r:
        return [f"basis block has {len(part.B)} columns, expected {r}"], None
    if part.columns() != set(range(git.R)):
        return ["blocks do not partition the coordinate set"], None
    try:
        # Column R holds the coordinates of omega.
        coords = basis_coordinates(git, part.B, git.characters + (git.omega,))
    except DomainError:
        return ["basis block is not unimodular"], None
    if any(row[git.R] < 0 for row in coords):
        failures.append("omega is not a nonnegative combination of the basis")
    for i, s in enumerate(part.S):
        totals = [sum(row[j] for j in s) for row in coords]
        if any(t < 0 for t in totals):
            failures.append(
                f"group {i} total divisor is not generated by the basis"
            )
    # The fan's failures (a point quotient, the R cap, a zero ray) do not
    # depend on the unimodular basis, so the one in hand serves.
    try:
        _basis_fan(git, part.B, coords)
    except DomainError as exc:
        failures.append(f"quotient fan unavailable: {exc.detail}")
        return failures, coords
    classes = [tuple(sum(git.characters[j][k] for j in s) for k in range(r)) for s in part.S]
    failures += [
        f"group {i} total divisor is not nef"
        for i, (nef, _) in enumerate(positivity(git, classes))
        if not nef
    ]
    return failures, coords


def normalized_matrix(git, part):
    """The weight matrix of a convex partition times its basis block's inverse.

    Rows follow the order of part.B; columns stay in place, so the basis
    columns carry unit vectors and every entry is an integer.  It comes
    from the same elimination as the convexity check; raises
    invalid_partition listing every failure that _convexity finds.  The
    check runs once per GitData and partition (``GitData._convex``).
    """
    found = git._convex.get(part)
    if found is None:
        failures, coords = _convexity(git, part)
        found = git._convex[part] = (tuple(failures), coords)
    failures, coords = found
    if failures:
        raise DomainError("invalid_partition", "; ".join(failures))
    return tuple(row[: git.R] for row in coords)


def przyjalkowski(git, part):
    """The Laurent polynomial of a convex partition with basis.

    Each basis row contributes a monomial in the variable columns times one
    bracket per group, over the group's non-chosen columns and raised to
    the group's level in that row; each U column contributes its variable.
    """
    norm = normalized_matrix(git, part)
    var_cols = part.variable_columns()
    pos = {j: p for p, j in enumerate(var_cols)}
    n = len(var_cols)
    groups = [
        (s, tuple(pos[j] for j in s if j != c)) for s, c in zip(part.S, part.choices)
    ]
    terms = [
        (
            tuple(-row[j] for j in var_cols),
            [(positions, sum(row[j] for j in s)) for s, positions in groups],
        )
        for row in norm
    ]
    units = identity_matrix(n)
    terms += [(units[pos[u]], ()) for u in part.U]
    return _bracket_sum(n, terms)

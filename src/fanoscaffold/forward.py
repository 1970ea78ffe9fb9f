"""Forward construction: a Laurent model from GIT data plus a partition.

The coordinates of the quotient presentation are split into a unimodular
basis block B, groups S_1..S_k that each get summed into one bracket, and
leftover coordinates U kept as honest variables.  Eliminating one chosen
coordinate per group produces a Laurent polynomial; different choices give
mutation-equivalent answers related by a monomial change of variables.
"""

from .errors import DomainError
from .laurent import _bracket_sum
from .exact import solve_linear, transpose
from .toric import basis_coordinates, git_to_stacky_fan, irrelevant_collection


class ConvexPartitionWithBasis:
    """A partition of the quotient coordinates guiding the elimination.

    B: indices whose weights form the basis (one per torus factor).
    S: the groups to be bracketed, each a nonempty index tuple.
    U: indices kept as variables untouched.
    choices: the coordinate eliminated from each group, one per group.
    """

    __slots__ = ("B", "S", "U", "choices")

    def __init__(self, B, S, U=(), choices=None):
        B = tuple(int(i) for i in B)
        S = tuple(tuple(sorted(set(int(j) for j in s))) for s in S)
        U = tuple(sorted(set(int(j) for j in U)))
        if any(not s for s in S):
            raise DomainError("bad_partition", "groups must be nonempty")
        if choices is None:
            choices = tuple(s[-1] for s in S)
        choices = tuple(int(c) for c in choices)
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


def normalized_matrix(git, part):
    """The weight matrix multiplied by the inverse of its basis block.

    Rows follow the order of part.B; columns stay in place, so the basis
    columns carry unit vectors.  Entries are integers exactly when the
    basis block is unimodular.
    """
    r = git.r
    if len(part.B) != r:
        raise DomainError("bad_partition", f"basis block needs exactly {r} columns")
    if part.columns() != set(range(git.R)):
        raise DomainError("bad_partition", "blocks do not partition the columns")
    return basis_coordinates(git, part.B, git.characters)


def validate_partition(git, part):
    """All reasons the partition fails to be convex, empty when valid.

    Checks, in order: the basis block is unimodular, omega is a nonnegative
    combination of the basis weights, each group's total divisor is a
    nonnegative combination of the basis weights, and each group's total
    divisor is nef on the quotient.

    The nef test runs in the weight space: the class L of a group's total
    divisor is nef exactly when, for every minimal cover I of omega, L is
    a nonnegative combination of the weights D_I.  On the maximal cone
    whose complement is I, the linear piece of L's piecewise linear
    function leaves a coefficient vector of class L supported on I, and
    the weights D_I are independent, so that vector is the unique
    solution; no solution means no linear piece, and L is not nef.
    """
    return _convexity(git, part)[0]


def _convexity(git, part):
    """(failures, coordinates of the weights and omega in the basis).

    The coordinates are None when the basis block cannot be eliminated.
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
    try:
        git_to_stacky_fan(git)
    except DomainError as exc:
        failures.append(f"quotient fan unavailable: {exc.detail}")
        return failures, coords
    cover_weights = [
        transpose([git.characters[j] for j in cover])
        for cover in irrelevant_collection(git)
    ]
    for i, s in enumerate(part.S):
        total = [sum(git.characters[j][k] for j in s) for k in range(r)]
        for weights in cover_weights:
            x = solve_linear(weights, total)
            if x is None or any(c < 0 for c in x):
                failures.append(f"group {i} total divisor is not nef")
                break
    return failures, coords


def _convex_matrix(git, part):
    """The normalized matrix of a convex partition.

    It comes from the same elimination as the convexity check; raises
    invalid_partition listing every failure of validate_partition.
    """
    failures, coords = _convexity(git, part)
    if failures:
        raise DomainError("invalid_partition", "; ".join(failures))
    return tuple(row[: git.R] for row in coords)


def przyjalkowski(git, part):
    """The Laurent polynomial of a convex partition with basis.

    Each basis row contributes a monomial in the variable columns times one
    bracket per group, over the group's non-chosen columns and raised to
    the group's level in that row; each U column contributes its variable.
    """
    norm = _convex_matrix(git, part)
    var_cols = part.variable_columns()
    pos = {j: p for p, j in enumerate(var_cols)}
    n = len(var_cols)
    groups = [
        (s, tuple(pos[j] for j in s if j != c)) for s, c in zip(part.S, part.choices)
    ]
    terms = [
        (
            tuple(-int(row[j]) for j in var_cols),
            [(positions, int(sum(row[j] for j in s))) for s, positions in groups],
        )
        for row in norm
    ]
    terms += [(tuple(int(p == pos[u]) for p in range(n)), ()) for u in part.U]
    return _bracket_sum(n, terms)

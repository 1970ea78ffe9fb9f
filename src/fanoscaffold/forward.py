"""Forward construction: a Laurent model from GIT data plus a partition.

The coordinates of the quotient presentation are split into a unimodular
basis block B, groups S_1..S_k that each get summed into one bracket, and
leftover coordinates U kept as honest variables.  Eliminating one chosen
coordinate per group produces a Laurent polynomial; different choices give
mutation-equivalent answers related by a monomial change of variables.
"""

from .errors import DomainError
from .laurent import LaurentPolynomial
from .toric import basis_coordinates, git_to_stacky_fan, is_nef


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
    """
    failures = []
    r = git.r
    if len(part.B) != r:
        return [f"basis block has {len(part.B)} columns, expected {r}"]
    if part.columns() != set(range(git.R)):
        return ["blocks do not partition the coordinate set"]
    try:
        # Column R holds the coordinates of omega.
        coords = basis_coordinates(git, part.B, git.characters + (git.omega,))
    except DomainError:
        return ["basis block is not unimodular"]
    if any(row[git.R] < 0 for row in coords):
        failures.append("omega is not a nonnegative combination of the basis")
    for i, s in enumerate(part.S):
        totals = [sum(row[j] for j in s) for row in coords]
        if any(t < 0 for t in totals):
            failures.append(
                f"group {i} total divisor is not generated by the basis"
            )
    try:
        sfan = git_to_stacky_fan(git)
    except DomainError as exc:
        failures.append(f"quotient fan unavailable: {exc.detail}")
        return failures
    for i, s in enumerate(part.S):
        indicator = [1 if j in s else 0 for j in range(git.R)]
        try:
            nef = is_nef(sfan, indicator)
        except DomainError:
            nef = False
        if not nef:
            failures.append(f"group {i} total divisor is not nef")
    return failures


def przyjalkowski(git, part):
    """The Laurent polynomial of a convex partition with basis.

    Each basis row contributes one bracket product over the groups times a
    monomial in the variable columns; the U block contributes its variables
    as standalone terms.
    """
    failures = validate_partition(git, part)
    if failures:
        raise DomainError("invalid_partition", "; ".join(failures))
    norm = normalized_matrix(git, part)
    var_cols = part.variable_columns()
    pos = {j: p for p, j in enumerate(var_cols)}
    n = len(var_cols)
    f = LaurentPolynomial.zero(n)
    for row in norm:
        bracket = LaurentPolynomial.one(n)
        for s, c in zip(part.S, part.choices):
            level = sum(row[j] for j in s)
            base = LaurentPolynomial.one(n)
            for j in s:
                if j != c:
                    base = base + LaurentPolynomial.monomial(
                        tuple(1 if p == pos[j] else 0 for p in range(n))
                    )
            bracket = bracket * base ** int(level)
        expo = [0] * n
        for j in var_cols:
            expo[pos[j]] = -int(row[j])
        f = f + bracket * LaurentPolynomial.monomial(tuple(expo))
    for u in part.U:
        f = f + LaurentPolynomial.monomial(
            tuple(1 if p == pos[u] else 0 for p in range(n))
        )
    return f

"""The stochastic operator hierarchy on partitions of a measure space.

Matrices act on sequence space in the integral basis: column j holds the
image coefficients of the j-th basis direction, so Markov means every column
sums to exactly 1, semi-doubly stochastic additionally bounds every row sum
by 1, and doubly stochastic pins the row sums to 1. Partition operators move
between step functions and sequences through the per-atom integral map and
its right inverse; the doubly stochastic witness for a majorized pair is a
chain of two-coordinate mixings on a common equal-mass refinement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    InvalidPartitionError,
    InvalidTTransformError,
    MeasureMismatchError,
    NegativeEntryError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    NotMajorizedError,
    NotStochasticError,
    PartitionMisalignedError,
    UnequalMassesUnsupportedError,
)
from .extended import INF, ExtendedRational, as_extended, as_fraction, fraction_gcd
from .majorize import majorize
from .stepfn import ZERO, StepFunction, _in_order, canonicalize

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# partitions and aligned step functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tail:
    """Equal-mass atoms tiling the zero region beyond the explicit ones.

    ``count`` is a positive integer, or None for an unbounded tail (required
    on spaces of infinite total measure). The tail mass being positive keeps
    the infimum of all atom masses away from zero.
    """

    mass: Fraction
    count: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "mass", as_fraction(self.mass))
        if self.mass <= 0:
            raise NegativeMassError(f"tail atom mass {self.mass} must be positive")
        if self.count is not None and self.count < 1:
            raise InvalidPartitionError("finite tail count must be >= 1")


@dataclass(frozen=True)
class Partition:
    """Ordered family of disjoint finite-measure atoms tiling the space."""

    atoms: Tuple[Fraction, ...]
    total_measure: ExtendedRational
    tail: Optional[Tail] = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(as_fraction(a) for a in self.atoms))
        object.__setattr__(self, "total_measure", as_extended(self.total_measure))
        for atom in self.atoms:
            if atom <= 0:
                raise NegativeMassError(f"atom mass {atom} must be positive")
        explicit = sum(self.atoms, ZERO)
        if self.total_measure is INF:
            if self.tail is None or self.tail.count is not None:
                raise InvalidPartitionError(
                    "an infinite-measure partition needs an unbounded tail"
                )
        else:
            tail_mass = ZERO
            if self.tail is not None:
                if self.tail.count is None:
                    raise InvalidPartitionError(
                        "unbounded tail on a finite measure space"
                    )
                tail_mass = self.tail.mass * self.tail.count
            if explicit + tail_mass != self.total_measure:
                raise MeasureMismatchError(
                    f"atoms tile {explicit + tail_mass}, total is {self.total_measure}"
                )

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def explicit_measure(self) -> Fraction:
        return sum(self.atoms, ZERO)

    @property
    def equal_masses(self) -> bool:
        masses = set(self.atoms)
        if self.tail is not None:
            masses.add(self.tail.mass)
        return len(masses) <= 1

    @staticmethod
    def equal_mass(count: int, mass, total=INF) -> "Partition":
        """Partition of ``count`` explicit atoms of one mass, tail as needed."""
        mass = as_fraction(mass)
        total = as_extended(total)
        tail = Tail(mass, None) if total is INF else None
        return Partition(atoms=(mass,) * count, total_measure=total, tail=tail)


@dataclass(frozen=True)
class AlignedStep:
    """A step function given by its value on each explicit atom of a partition.

    The alignment metadata of this package: it fixes which atom carries which
    value (zero on every tail atom), which a bare :class:`StepFunction` does
    not know.
    """

    partition: Partition
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if len(self.values) != self.partition.size:
            raise DimensionMismatchError(
                f"{len(self.values)} values for {self.partition.size} atoms"
            )
        if self.partition.total_measure is INF and any(v < 0 for v in self.values):
            raise NegativeValueOnInfiniteSpaceError(
                "negative values are not representable on an infinite measure space"
            )

    def integral(self) -> Fraction:
        return sum((v * m for v, m in zip(self.values, self.partition.atoms)), ZERO)

    def step_function(self) -> StepFunction:
        """Forget the alignment: the canonical step function."""
        return canonicalize(
            zip(self.values, self.partition.atoms), self.partition.total_measure
        )


def _layout(partition: Partition, f: StepFunction):
    """Segments ``(atom, level set, mass)`` of f's rearrangement laid over the atoms.

    The level-set index equals ``len(f.pieces)`` past the support; support
    reaching past the explicit atoms is an error.
    """
    if partition.total_measure != f.total_measure:
        raise MeasureMismatchError(
            f"partition tiles {partition.total_measure}, function lives on "
            f"{f.total_measure}"
        )
    for n, k, mass in _in_order(partition.atoms, [p.mass for p in f.pieces]):
        if n == partition.size:
            raise PartitionMisalignedError(
                "support extends past the explicit atoms into the tail"
            )
        yield n, k, mass


def align(partition: Partition, f: StepFunction) -> AlignedStep:
    """Lay the canonical rearrangement of f over the partition, in order.

    Succeeds exactly when the partition refines the level sets of the
    canonical layout and the explicit atoms cover the support.
    """
    levels = f.values() + (ZERO,)
    values = []
    for n, k, mass in _layout(partition, f):
        if mass != partition.atoms[n]:
            raise PartitionMisalignedError(
                f"atom of mass {partition.atoms[n]} straddles a level boundary "
                f"(only {mass} left at value {levels[k]})"
            )
        values.append(levels[k])
    return AlignedStep(partition=partition, values=tuple(values))


def in_order_overlaps(
    partition: Partition, f: StepFunction
) -> Tuple[Tuple[Fraction, ...], ...]:
    """Overlap masses of each atom with each level set, in the canonical layout.

    ``overlaps[n][k]`` is the mass of atom n lying in the k-th level set of f
    when the rearrangement is laid left to right over the partition. This is
    the explicit alignment metadata :func:`partition_average` needs for a
    function that is not constant on atoms.
    """
    rows = [[ZERO] * len(f.pieces) for _ in partition.atoms]
    for n, k, mass in _layout(partition, f):
        if k < len(f.pieces):
            rows[n][k] = mass
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------


class OperatorClass(enum.IntEnum):
    """Most specific stochasticity class; higher is more specific."""

    NONE = 0
    MARKOV = 1
    SEMI_DOUBLY_STOCHASTIC = 2
    DOUBLY_STOCHASTIC = 3

    @staticmethod
    def from_marginals(column_sums: Sequence, row_sums: Sequence) -> "OperatorClass":
        """Most specific class whose conditions the exact marginals meet."""
        if any(s != 1 for s in column_sums):
            return OperatorClass.NONE
        if any(s > 1 for s in row_sums):
            return OperatorClass.MARKOV
        if any(s != 1 for s in row_sums):
            return OperatorClass.SEMI_DOUBLY_STOCHASTIC
        return OperatorClass.DOUBLY_STOCHASTIC

    @property
    def label(self) -> str:
        return {
            OperatorClass.NONE: "none",
            OperatorClass.MARKOV: "markov",
            OperatorClass.SEMI_DOUBLY_STOCHASTIC: "semi-doubly-stochastic",
            OperatorClass.DOUBLY_STOCHASTIC: "doubly-stochastic",
        }[self]


@dataclass(frozen=True)
class OperatorMatrix:
    """Nonnegative rational matrix acting on sequence space.

    Rectangular shapes are allowed so that mass-preserving truncations of
    infinite operators (e.g. shifts) keep their column sums; a square
    truncation that silently dropped mass would misclassify them.
    """

    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(e) for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len({len(row) for row in rows}) > 1:
            raise DimensionMismatchError("rows have differing lengths")
        for row in rows:
            for entry in row:
                if entry < 0:
                    raise NegativeEntryError(f"negative entry {entry}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "OperatorMatrix":
        return OperatorMatrix(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    def column_sums(self) -> Tuple[Fraction, ...]:
        return tuple(sum(column, ZERO) for column in zip(*self.entries))

    def row_sums(self) -> Tuple[Fraction, ...]:
        return tuple(sum(row, ZERO) for row in self.entries)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        columns = tuple(zip(*other.entries))
        return OperatorMatrix(
            tuple(
                tuple(sum(map(mul, row, column), ZERO) for column in columns)
                for row in self.entries
            )
        )


def classify_matrix(matrix: OperatorMatrix) -> OperatorClass:
    """Most specific class by exact column and row sums."""
    return OperatorClass.from_marginals(matrix.column_sums(), matrix.row_sums())


def apply_matrix(matrix: OperatorMatrix, vector: Sequence) -> Tuple[Fraction, ...]:
    """Exact matrix-vector product; a matrix without rows takes any vector to ()."""
    vector = tuple(as_fraction(v) for v in vector)
    if matrix.entries and len(vector) != matrix.cols:
        raise DimensionMismatchError(
            f"vector of length {len(vector)} for a {matrix.rows}x{matrix.cols} matrix"
        )
    return tuple(sum(map(mul, row, vector), ZERO) for row in matrix.entries)


# ---------------------------------------------------------------------------
# partition operators
# ---------------------------------------------------------------------------


def phi(partition: Partition, f) -> Tuple[Fraction, ...]:
    """Per-atom integrals of an aligned step function (its sequence image)."""
    aligned = f if isinstance(f, AlignedStep) else align(partition, f)
    if aligned.partition != partition:
        raise PartitionMisalignedError("aligned function lives on another partition")
    return tuple(v * m for v, m in zip(aligned.values, partition.atoms))


def psi(partition: Partition, coefficients: Sequence) -> AlignedStep:
    """Step function carrying the n-th coefficient on atom n, spread by mass.

    Shorter coefficient vectors are zero-padded; the integral of the result
    is the coefficient sum. Right inverse of :func:`phi`.
    """
    coefficients = tuple(as_fraction(a) for a in coefficients)
    if len(coefficients) > partition.size:
        raise DimensionMismatchError(
            f"{len(coefficients)} coefficients for {partition.size} atoms"
        )
    padded = coefficients + (ZERO,) * (partition.size - len(coefficients))
    values = tuple(a / m for a, m in zip(padded, partition.atoms))
    return AlignedStep(partition=partition, values=values)


def _rescale(left: Sequence, rows, right: Sequence) -> OperatorMatrix:
    """The matrix diag(left) · M · diag(right), M given by its rows.

    A sequence matrix d between row masses r and column masses c has the
    kernel diag(1/r) · d and the value-basis matrix diag(1/r) · d · diag(c):
    every change of basis of one operator is such a rescaling.
    """
    return OperatorMatrix(
        tuple(
            tuple(a * x * b for x, b in zip(row, right)) for a, row in zip(left, rows)
        )
    )


def _image(matrix: OperatorMatrix, columns: Partition, f, rows: Partition):
    """The action of a sequence matrix: psi(rows, matrix · phi(columns, f))."""
    return psi(rows, apply_matrix(matrix, phi(columns, f)))


def _require_sds(matrix: OperatorMatrix, partition: Optional[Partition] = None) -> None:
    """Every action's class rule; on a partition, also one row and column per atom."""
    if partition is not None and not matrix.rows == matrix.cols == partition.size:
        raise DimensionMismatchError(
            f"{matrix.rows}x{matrix.cols} matrix on {partition.size} atoms"
        )
    cls = classify_matrix(matrix)
    if cls < OperatorClass.SEMI_DOUBLY_STOCHASTIC:
        raise NotStochasticError(
            f"the action needs a semi-doubly stochastic matrix, not {cls.label}"
        )


def partition_average(
    partition: Partition,
    f: StepFunction,
    overlaps: Optional[Sequence[Sequence]] = None,
) -> AlignedStep:
    """Average f over each atom (the conditional-expectation operator).

    A function constant on every atom averages to itself. Otherwise the
    per-atom overlap masses with each level set must be supplied (see
    :func:`in_order_overlaps` for the canonical layout); the geometry of
    level sets is never invented here.
    """
    if overlaps is None:
        try:
            return align(partition, f)
        except PartitionMisalignedError:
            raise PartitionMisalignedError(
                "function is not constant on the atoms; supply overlap masses"
            ) from None
    overlaps = tuple(tuple(as_fraction(m) for m in row) for row in overlaps)
    if len(overlaps) != partition.size:
        raise DimensionMismatchError(
            f"{len(overlaps)} overlap rows for {partition.size} atoms"
        )
    if any(len(row) != len(f.pieces) for row in overlaps):
        raise DimensionMismatchError("overlap rows must cover every level set")
    for k, piece in enumerate(f.pieces):
        assigned = sum((row[k] for row in overlaps), ZERO)
        if assigned != piece.mass:
            raise PartitionMisalignedError(
                f"level set {k} has mass {piece.mass} but overlaps assign {assigned}"
            )
    values = []
    for row, atom in zip(overlaps, partition.atoms):
        inside = sum(row, ZERO)
        if inside > atom:
            raise PartitionMisalignedError(
                f"overlaps put mass {inside} into an atom of mass {atom}"
            )
        if not f.infinite and inside != atom:
            raise PartitionMisalignedError(
                "on a finite space the overlaps must tile every atom"
            )
        values.append(sum((m * p.value for m, p in zip(row, f.pieces)), ZERO) / atom)
    return AlignedStep(partition=partition, values=tuple(values))


def partition_average_matrix(
    partition: Partition, refinement: Partition
) -> OperatorMatrix:
    """Sequence-basis matrix of the averaging operator, seen on a refinement.

    Each atom of ``refinement`` must sit inside a single atom of ``partition``
    (in order); entry (r, c) is mass(r)/mass(block) when both fine atoms share
    a coarse block.
    """
    if partition.total_measure != refinement.total_measure:
        raise MeasureMismatchError("partition and refinement tile different totals")
    if partition.explicit_measure != refinement.explicit_measure:
        raise PartitionMisalignedError(
            "the refinement's explicit atoms must tile the partition's"
        )
    blocks = []
    for r, block, mass in _in_order(refinement.atoms, partition.atoms):
        if mass != refinement.atoms[r]:
            raise PartitionMisalignedError(
                f"fine atom of mass {refinement.atoms[r]} straddles a coarse boundary"
            )
        blocks.append(block)
    same_block = tuple(tuple(ONE if b == c else ZERO for c in blocks) for b in blocks)
    return _rescale(
        refinement.atoms, same_block, [1 / partition.atoms[b] for b in blocks]
    )


def lift(partition: Partition, matrix: OperatorMatrix) -> OperatorMatrix:
    """Value-basis matrix of the operator a sequence matrix induces.

    The induced operator maps the value vector v of an aligned function to
    M v with M[n][j] = d[n][j] * mass(j) / mass(n); on equal masses M equals
    the sequence matrix. Integrals are preserved for every Markov input; the
    full semi-doubly stochastic guarantee carries over on equal masses.
    """
    _require_sds(matrix, partition)
    masses = partition.atoms
    return _rescale([1 / m for m in masses], matrix.entries, masses)


def lift_apply(partition: Partition, matrix: OperatorMatrix, f) -> AlignedStep:
    """Apply the lifted operator to an aligned (or alignable) function.

    The lifted matrix is never built: its action on the values of f is the
    sequence matrix acting on the per-atom integrals of f.
    """
    _require_sds(matrix, partition)
    return _image(matrix, partition, f, partition)


def sequence_apply(
    matrix: OperatorMatrix, f: StepFunction, mass
) -> Tuple[StepFunction, Partition]:
    """Image of f under a sequence matrix acting on atoms of one mass.

    f is laid over ``matrix.cols`` atoms of ``mass``, which must tile a finite
    space; the matrix maps the per-atom integrals (:func:`phi`), and
    :func:`psi` spreads the image over ``matrix.rows`` atoms of the same mass.
    Rectangular matrices are allowed, so on a finite space the image lives on
    total ``mass * matrix.rows``. Returns the image and that row partition.
    The matrix must be semi-doubly stochastic, as for :func:`lift`.
    """
    _require_sds(matrix)
    mass = as_fraction(mass)
    infinite = f.total_measure is INF
    if not infinite and mass * matrix.cols != f.total_measure:
        raise MeasureMismatchError(
            f"{matrix.cols} atoms of mass {mass} cannot tile total {f.total_measure}"
        )
    col_partition = Partition.equal_mass(matrix.cols, mass, f.total_measure)
    if f.support_measure > mass * matrix.cols:
        raise DimensionMismatchError(
            f"support of mass {f.support_measure} needs more than {matrix.cols} "
            f"atoms of mass {mass}"
        )
    row_total = INF if infinite else mass * matrix.rows
    row_partition = Partition.equal_mass(matrix.rows, mass, row_total)
    image = _image(matrix, col_partition, f, row_partition)
    return image.step_function(), row_partition


def restrict(partition: Partition, operator: OperatorMatrix) -> OperatorMatrix:
    """Sequence-basis matrix of a value-basis operator on the partition.

    Exact inverse of :func:`lift`. Only equal-mass partitions are accepted:
    with unequal masses the restricted row sums are bounded by mass ratios
    that can exceed 1, so the semi-doubly stochastic guarantee would be
    silently lost; that is surfaced as an error instead. On equal masses the
    rescaling factor mass(n)/mass(j) is 1, so the validated operator is
    returned as it is.
    """
    if not partition.equal_masses:
        raise UnequalMassesUnsupportedError(
            "sequence restriction is only exact on equal-mass partitions"
        )
    _require_sds(operator, partition)
    return operator


# ---------------------------------------------------------------------------
# doubly stochastic witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTransform:
    """Two-coordinate mixing: the 2x2 block [[w, 1-w], [1-w, w]] on (j, k)."""

    j: int
    k: int
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", as_fraction(self.weight))
        if not 0 <= self.j < self.k:
            raise InvalidTTransformError("T-transform needs coordinates 0 <= j < k")
        if not 0 <= self.weight <= 1:
            raise InvalidTTransformError(f"mixing weight {self.weight} outside [0, 1]")

    def matrix(self, n: int) -> OperatorMatrix:
        if self.k >= n:
            raise DimensionMismatchError(f"coordinate {self.k} outside dimension {n}")
        rows = list(OperatorMatrix.identity(n).entries)
        self._mix(rows)
        return OperatorMatrix(tuple(rows))

    def _mix(self, rows: list) -> None:
        """Left-multiply by this step in place: rows j and k become their mixes."""
        w, rest, a, b = self.weight, 1 - self.weight, rows[self.j], rows[self.k]
        rows[self.j] = tuple(w * x + rest * y for x, y in zip(a, b))
        rows[self.k] = tuple(rest * x + w * y for x, y in zip(a, b))


@dataclass(frozen=True)
class WitnessChain:
    """Doubly stochastic witness: ordered T-transforms on ``source_partition``.

    The chain is the only stored form: :meth:`apply_to` mixes a function's
    values step by step and :attr:`product` mixes identity rows the same way.
    The atoms have equal masses, so value and sequence bases agree.
    """

    steps: Tuple[TTransform, ...]
    source_partition: Partition

    @property
    def dimension(self) -> int:
        return self.source_partition.size

    @property
    def product(self) -> OperatorMatrix:
        """The ordered step matrices' product (last step leftmost), built on access."""
        rows = list(OperatorMatrix.identity(self.dimension).entries)
        for step in self.steps:
            step._mix(rows)
        return OperatorMatrix(tuple(rows))

    def step_matrices(self) -> Tuple[OperatorMatrix, ...]:
        return tuple(step.matrix(self.dimension) for step in self.steps)

    def apply_to(self, g: StepFunction) -> StepFunction:
        """Apply the witness operator to a function on its partition."""
        partition = self.source_partition
        column = [(v,) for v in align(partition, g).values]
        for step in self.steps:
            step._mix(column)
        return AlignedStep(partition, [v for (v,) in column]).step_function()


def _t_transform_chain(target: Sequence, source: Sequence) -> Tuple[TTransform, ...]:
    """Chain of two-coordinate mixings carrying ``source`` onto ``target``.

    Both vectors start sorted decreasingly with equal sums and the target
    majorized by the source; prefix-sum dominance is preserved step by step,
    and every step equalizes at least one more coordinate, so at most n - 1
    steps are produced. The scan rule is deterministic: first surplus
    coordinate j, first deficit coordinate k after it, transfer the smaller
    of the two discrepancies.
    """
    x, y, steps = list(target), list(source), []
    n = len(x)
    for _ in range(n + 1):
        j = next((i for i in range(n) if y[i] != x[i]), None)
        if j is None:
            break
        if y[j] < x[j]:
            raise InternalInconsistencyError(
                "first discrepancy is a deficit; majorization precondition broken"
            )
        k = next((i for i in range(j + 1, n) if y[i] < x[i]), None)
        if k is None:
            raise InternalInconsistencyError(
                "surplus without a later deficit; sums cannot have been equal"
            )
        delta = min(y[j] - x[j], x[k] - y[k])
        steps.append(TTransform(j, k, 1 - delta / (y[j] - y[k])))
        y[j] -= delta
        y[k] += delta
    else:
        raise InternalInconsistencyError("T-transform chain failed to terminate")
    return tuple(steps)


def ds_witness(f: StepFunction, g: StepFunction) -> WitnessChain:
    """Doubly stochastic matrix carrying g onto f, as a T-transform chain.

    Requires f majorized by g. Both functions are laid out on the common
    equal-mass refinement whose atom mass is the gcd of all piece masses
    (infinite spaces get enough zero-tail atoms to pad both value vectors to
    one length), and the chain is built coordinate by coordinate. Its product
    satisfies ``apply_matrix(product, values(g)) == values(f)`` exactly. Two
    null functions need no atoms, and get the empty witness.
    """
    verdict = majorize(f, g)
    if not verdict.holds:
        point = verdict.violation.point if verdict.violation else "?"
        raise NotMajorizedError(
            f"f is not majorized by g (violation at {point} under the "
            f"{verdict.criterion.value} criterion)"
        )
    masses = [p.mass for p in f.pieces] + [p.mass for p in g.pieces]
    unit = fraction_gcd(masses) if masses else ONE
    length = max(int(f.support_measure / unit), int(g.support_measure / unit))
    partition = Partition.equal_mass(length, unit, f.total_measure)
    steps = _t_transform_chain(align(partition, f).values, align(partition, g).values)
    return WitnessChain(steps=steps, source_partition=partition)


def sds_approx_sequence(
    f: StepFunction,
    g: StepFunction,
    n_steps: int,
    *,
    approximate: bool = False,
) -> list:
    """Operators carrying f toward g (for g majorized by f), with L1 errors.

    Exact rational masses always admit a single exact witness, returned as a
    one-element list with error 0. ``approximate=True`` instead builds the
    approximating sequence: g is averaged over equal-mass binnings whose
    width halves up to ``n_steps`` times, each average gets its own exact
    witness, and only strictly improving errors are reported.
    """
    from .diagnostics import l1_distance

    if not approximate or not g.pieces:
        return [(ds_witness(g, f), ZERO)]
    support = g.support_measure
    out = []
    last_error = None
    for k in range(1, n_steps + 1):
        count = 2**k
        partition = Partition.equal_mass(count, support / count, g.total_measure)
        averaged = partition_average(
            partition, g, in_order_overlaps(partition, g)
        ).step_function()
        chain = ds_witness(averaged, f)
        error = l1_distance(averaged, g)
        if last_error is None or error < last_error:
            out.append((chain, error))
            last_error = error
        if error == 0:
            break
    return out

"""The stochastic operator hierarchy on partitions of a measure space.

Matrices act on sequence space in the integral basis: column j holds the
image coefficients of the j-th basis direction, so Markov means every column
sums to exactly 1, semi-doubly stochastic additionally bounds every row sum
by 1, and doubly stochastic pins the row sums to 1. Partition operators move
between step functions and sequences through the per-atom integral map and
its right inverse; the doubly stochastic witness for a majorized pair is a
chain of mass-weighted two-atom mixings on the common refinement of the two
level-set layouts, expanded onto an equal-mass grid only when its dense
matrix is asked for. The scan that builds the chain is the majorization
test, and a refusal runs no criterion sweep: the scan moves mass only
forward, so the atom it refuses at is the rearrangement criterion's first
violation. The chain runs on integers: it derives each step's weights once,
where it checks them, and one mix serves its image and its dense matrix;
``Fraction``s are built only for the atoms, the weights and the matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    InvalidPartitionError,
    InvalidTTransformError,
    MajoError,
    MeasureMismatchError,
    NegativeEntryError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    NotMajorizedError,
    NotStochasticError,
    PartitionMisalignedError,
)
from .extended import (
    INF,
    ExtendedRational,
    _combine,
    _Ratio,
    _reduced,
    _shown,
    as_extended,
    as_fraction,
    exact_sum,
    fraction_gcd,
)
from .majorize import Criterion, _scaled
from .stepfn import ZERO, StepFunction, _canonical, _in_order, canonicalize

ONE = Fraction(1)
# largest equal-mass grid WitnessChain.product expands a chain onto: the chain
# itself lives on at most m + n level-set atoms, but the dense product (and
# the .mat) holds the square of the grid's atom count
WITNESS_ATOM_BUDGET = 1024


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
        if self.mass.numerator <= 0:
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
        object.__setattr__(self, "atoms", tuple([as_fraction(a) for a in self.atoms]))
        object.__setattr__(self, "total_measure", as_extended(self.total_measure))
        for atom in self.atoms:
            if atom.numerator <= 0:
                raise NegativeMassError(f"atom mass {atom} must be positive")
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
            tiled = exact_sum(self.atoms) + tail_mass
            if tiled != self.total_measure:
                raise MeasureMismatchError(
                    f"atoms tile {_shown(tiled)}, total is {self.total_measure}"
                )

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def explicit_measure(self) -> Fraction:
        return exact_sum(self.atoms)

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
        object.__setattr__(self, "values", tuple([as_fraction(v) for v in self.values]))
        if len(self.values) != self.partition.size:
            raise DimensionMismatchError(
                f"{len(self.values)} values for {self.partition.size} atoms"
            )
        if self.partition.total_measure is INF and any(v.numerator < 0 for v in self.values):
            raise NegativeValueOnInfiniteSpaceError(
                "negative values are not representable on an infinite measure space"
            )

    def integral(self) -> Fraction:
        return exact_sum(list(map(mul, self.values, self.partition.atoms)))

    def step_function(self) -> StepFunction:
        """Forget the alignment: the canonical step function."""
        return canonicalize(
            zip(self.values, self.partition.atoms), self.partition.total_measure
        )


_INTO_TAIL = "support extends past the explicit atoms into the tail"


def _same_total(partition: Partition, f: StepFunction) -> None:
    """f and the partition must live on one measure space to be laid together."""
    if partition.total_measure != f.total_measure:
        raise MeasureMismatchError(
            f"partition tiles {partition.total_measure}, function lives on "
            f"{f.total_measure}"
        )


def _aligned_levels(partition: Partition, f: StepFunction) -> List[int]:
    """The index of the level set of f on each atom, ``len(f.pieces)`` for
    zero past the support: f's rearrangement laid over the atoms left to
    right, where each atom must fit in what is left of its level set.

    Masses are integer pairs in lowest terms, compared by cross-multiplying
    and reduced only where an atom ends inside a level set, so no shared
    scale grows with the denominators. A nonzero level left for the tail,
    where every function of the partition is zero, is an error.
    """
    _same_total(partition, f)
    # past the support f is zero on a level set of mass 1/0, above every atom
    masses, k, levels = [mass for _, mass in f._levels] + [(1, 0)], 0, []
    ln, ld = masses[0]  # what is left of level set k
    for atom in partition.atoms:
        an, ad = atom.as_integer_ratio()
        over = ln * ad - an * ld  # level set left past the atom, times ad·ld
        if over < 0:
            value = _shown(_Ratio(*f._levels[k][0]))
            raise PartitionMisalignedError(
                f"atom of mass {atom} straddles a level boundary "
                f"(only {_shown(_Ratio(ln, ld))} left at value {value})"
            )
        levels.append(k)
        if over:
            ln, ld = _reduced(over, ad * ld)
        else:
            k += 1
            ln, ld = masses[k]
    if any(numerator for (numerator, _), _ in f._levels[k:]):
        raise PartitionMisalignedError(_INTO_TAIL)
    return levels


def align(partition: Partition, f: StepFunction) -> AlignedStep:
    """Lay the canonical rearrangement of f over the partition, in order.

    Succeeds exactly when the partition refines the level sets of the
    canonical layout and the explicit atoms cover the support.
    """
    levels = f.values() + (ZERO,)
    values = tuple([levels[k] for k in _aligned_levels(partition, f)])
    return AlignedStep(partition=partition, values=values)


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
        # built from lists, not generators, as in extended._scale_ratios
        rows = tuple([tuple([as_fraction(e) for e in row]) for row in self.entries])
        object.__setattr__(self, "entries", rows)
        if len({len(row) for row in rows}) > 1:
            raise DimensionMismatchError("rows have differing lengths")
        for row in rows:
            for entry in row:
                if entry.numerator < 0:
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
        return tuple([exact_sum(column) for column in zip(*self.entries)])

    def row_sums(self) -> Tuple[Fraction, ...]:
        return tuple([exact_sum(row) for row in self.entries])


def classify_matrix(matrix: OperatorMatrix) -> OperatorClass:
    """Most specific class by exact column and row sums."""
    return OperatorClass.from_marginals(matrix.column_sums(), matrix.row_sums())


def apply_matrix(matrix: OperatorMatrix, vector: Sequence) -> Tuple[Fraction, ...]:
    """Exact matrix-vector product; a matrix without rows takes any vector to ().

    Each row is summed over the lcm of its terms' denominators.
    """
    vector = tuple(as_fraction(v) for v in vector)
    if matrix.entries and len(vector) != matrix.cols:
        raise DimensionMismatchError(
            f"vector of length {len(vector)} for a {matrix.rows}x{matrix.cols} matrix"
        )
    return tuple(exact_sum(list(map(mul, row, vector))) for row in matrix.entries)


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


def partition_average(partition: Partition, f: StepFunction) -> AlignedStep:
    """Average f over each atom (the conditional-expectation operator).

    f is laid over the atoms as its decreasing rearrangement, left to right,
    the layout :func:`align` uses; each atom gets the mass-weighted mean of
    the levels it covers, so a function constant on every atom averages to
    its :func:`align` values. A fold over :func:`_in_order`; a nonzero
    segment past the explicit atoms, in the tail, is an error.
    """
    _same_total(partition, f)
    levels = f.values() + (ZERO,)
    sums = [ZERO] * partition.size
    for n, k, mass in _in_order(partition.atoms, [p.mass for p in f.pieces]):
        if n < partition.size:
            sums[n] += levels[k] * mass
        elif levels[k]:
            raise PartitionMisalignedError(_INTO_TAIL)
    return AlignedStep(partition, tuple(s / m for s, m in zip(sums, partition.atoms)))


def partition_average_matrix(
    partition: Partition, refinement: Partition
) -> OperatorMatrix:
    """Sequence-basis matrix of the averaging operator, seen on a refinement.

    Each atom of ``refinement`` must sit inside a single atom of ``partition``
    (in order); entry (r, c) is mass(r)/mass(block) when both fine atoms share
    a coarse block, and 0 otherwise.
    """
    if partition.total_measure != refinement.total_measure:
        raise MeasureMismatchError("partition and refinement tile different totals")
    if partition.explicit_measure != refinement.explicit_measure:
        raise PartitionMisalignedError(
            "the refinement's explicit atoms must tile the partition's"
        )
    blocks, shares = [], []
    for r, block, mass in _in_order(refinement.atoms, partition.atoms):
        if mass != refinement.atoms[r]:
            raise PartitionMisalignedError(
                f"fine atom of mass {refinement.atoms[r]} straddles a coarse boundary"
            )
        blocks.append(block)
        shares.append(mass / partition.atoms[block])
    return OperatorMatrix(tuple([
        tuple([share if b == c else ZERO for c in blocks])
        for share, b in zip(shares, blocks)
    ]))


def lift(partition: Partition, matrix: OperatorMatrix) -> OperatorMatrix:
    """Value-basis matrix of the operator a sequence matrix induces.

    The induced operator maps the value vector v of an aligned function to
    M v with M[n][j] = d[n][j] * mass(j) / mass(n); on equal masses M equals
    the sequence matrix. Integrals are preserved for every Markov input; the
    full semi-doubly stochastic guarantee carries over on equal masses.
    """
    _require_sds(matrix, partition)
    masses = partition.atoms
    return OperatorMatrix(tuple([
        tuple([x * c / r for x, c in zip(row, masses)])
        for r, row in zip(masses, matrix.entries)
    ]))


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
            f"support of mass {_shown(f.support_measure)} needs more than "
            f"{matrix.cols} atoms of mass {_shown(mass)}"
        )
    row_total = INF if infinite else mass * matrix.rows
    row_partition = Partition.equal_mass(matrix.rows, mass, row_total)
    image = _image(matrix, col_partition, f, row_partition)
    return image.step_function(), row_partition


# ---------------------------------------------------------------------------
# doubly stochastic witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTransform:
    """Two-atom mixing with weight w on atoms (j, k), weighted by their masses.

    On values y, atom j takes w·y_j + (1-w)·y_k and atom k takes
    β·y_j + (1-β)·y_k, where β = (1-w)·a_j/a_k for atom masses a_j and a_k;
    the step keeps constants and integrals. On equal masses β = 1-w, and the
    step is the 2x2 block [[w, 1-w], [1-w, w]]; :class:`WitnessChain`, which
    knows the masses, derives β and applies the step.
    """

    j: int
    k: int
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", as_fraction(self.weight))
        if not 0 <= self.j < self.k:
            raise InvalidTTransformError("T-transform needs coordinates 0 <= j < k")
        n, d = self.weight.as_integer_ratio()
        if not 0 <= n <= d:
            raise InvalidTTransformError(f"mixing weight {self.weight} outside [0, 1]")


@dataclass(frozen=True)
class WitnessChain:
    """Doubly stochastic witness: ordered T-transforms on ``source_partition``.

    The chain is the only stored form: :meth:`apply_to` mixes a function's
    values step by step, and :attr:`product` expands the steps onto the
    equal-mass :attr:`grid` on request, both by :meth:`_mix`, the one step
    action. Each step's weights w and β are derived once, where
    ``__post_init__`` checks them, and are no field: ``==``, ``hash`` and
    ``repr`` see only the steps and the partition.
    """

    steps: Tuple[TTransform, ...]
    source_partition: Partition

    def __post_init__(self):
        masses, actions = self.source_partition.atoms, []
        for step in self.steps:
            if step.k >= self.dimension:
                raise DimensionMismatchError(
                    f"coordinate {step.k} outside dimension {self.dimension}"
                )
            wn, wd = step.weight.as_integer_ratio()
            pj, qj = masses[step.j].as_integer_ratio()
            pk, qk = masses[step.k].as_integer_ratio()
            beta = _reduced((wd - wn) * pj * qk, wd * qj * pk)  # (1-w)·a_j/a_k
            if beta[0] > beta[1]:
                raise InvalidTTransformError(
                    f"step on atoms ({step.j}, {step.k}) gives atom {step.k} "
                    f"the weight {_shown(_Ratio(*beta))} outside [0, 1]"
                )
            actions.append((step.j, step.k, (wn, wd), beta))
        object.__setattr__(self, "_actions", tuple(actions))

    def _mix(self, rows: list) -> None:
        """Left-multiply rows of integer pairs by the steps in order, in place:
        rows j and k become w·(row j) + (1-w)·(row k) and β·(row j) + (1-β)·(row k),
        each new entry a pair in lowest terms."""
        for j, k, (wn, wd), (bn, bd) in self._actions:
            a, b = rows[j], rows[k]
            rows[j] = tuple([_combine(wn, wd - wn, wd, x, y) for x, y in zip(a, b)])
            rows[k] = tuple([_combine(bn, bd - bn, bd, x, y) for x, y in zip(a, b)])

    @property
    def dimension(self) -> int:
        return self.source_partition.size

    @property
    def grid(self) -> Partition:
        """The equal-mass partition :attr:`product` acts on.

        Its atoms have the gcd mass of the source atoms and cover the same
        explicit measure, so every source atom is a run of grid atoms. A grid
        of more than ``WITNESS_ATOM_BUDGET`` atoms is refused before it is
        built.
        """
        source = self.source_partition
        unit = fraction_gcd(source.atoms) if source.atoms else ONE
        length = int(source.explicit_measure / unit)
        if length > WITNESS_ATOM_BUDGET:
            raise MajoError(
                f"the witness matrix needs {_shown(length)} atoms of mass {_shown(unit)}, "
                f"over the budget of {WITNESS_ATOM_BUDGET}"
            )
        return Partition.equal_mass(length, unit, source.total_measure)

    @property
    def product(self) -> OperatorMatrix:
        """The chain's matrix on :attr:`grid`, built on access.

        As an operator on functions, a step replaces f on atoms j and k by
        its mixed averages there and leaves it alone elsewhere. So :meth:`_mix`
        turns identity rows of integer pairs on the source atoms (last step
        leftmost) into the value-basis matrix M there, and a grid atom of a
        mixed source atom n gets row n of M with each entry M[n][c] spread
        evenly over the grid atoms of source atom c; grid atoms of an atom no
        step mixes keep their identity rows. Rows sum to 1 because the steps
        keep constants, and columns because they keep integrals. The only
        place identity rows are mixed: one step's matrix, like a random
        doubly stochastic matrix, is the product of a chain on unit atoms.
        """
        grid, masses, n = self.grid, self.source_partition.atoms, self.dimension
        rows = [tuple([(int(i == c), 1) for c in range(n)]) for i in range(n)]
        self._mix(rows)
        counts = [int(m / grid.atoms[0]) for m in masses]
        mixed = {step.j for step in self.steps} | {step.k for step in self.steps}
        expanded, start = [], 0
        for n, (row, count) in enumerate(zip(rows, counts)):
            if n in mixed:
                spread = []
                for entry, c in zip(row, counts):  # entry / c, by two short gcds
                    spread += [Fraction(_Ratio(*_combine(1, 0, c, entry, (0, 1))))] * c
                expanded += [tuple(spread)] * count
            else:
                expanded += [
                    (ZERO,) * i + (ONE,) + (ZERO,) * (grid.size - 1 - i)
                    for i in range(start, start + count)
                ]
            start += count
        return OperatorMatrix(tuple(expanded))

    def apply_to(self, g: StepFunction) -> StepFunction:
        """Apply the witness operator to a function on its partition.

        g's stored value pairs are laid over the atoms and mixed by
        :meth:`_mix`, the step action :attr:`product` uses too; the mixed
        pairs and the atoms' pairs go to the integer core of
        ``canonicalize``, so the image builds no ``Fraction``.
        """
        partition = self.source_partition
        values = [value for value, _ in g._levels] + [(0, 1)]
        column = [(values[k],) for k in _aligned_levels(partition, g)]
        self._mix(column)
        atoms = [atom.as_integer_ratio() for atom in partition.atoms]
        return _canonical(
            [(entry, atom) for (entry,), atom in zip(column, atoms)],
            partition.total_measure,
        )


def _t_transform_chain(
    masses: Sequence, target: Sequence, source: Sequence
) -> Tuple[TTransform, ...] | int:
    """Chain of mass-weighted T-transforms carrying ``source`` onto ``target``,
    or, when the target is not majorized by the source, the first atom j at
    whose right end the target's prefix sum of atom integrals exceeds the
    source's, or n (the atom count) when only the totals differ.

    Both hold values on atoms of the given masses, the target sorted
    decreasingly. The scan rule is deterministic: first surplus atom j, first
    deficit atom k after it, move the smaller of the two integral
    discrepancies from j to k. A step keeps the total and raises no prefix sum
    of the source's atom integrals, nor lowers one below the target's, and
    equalizes at least one more atom, so at most n - 1 steps are made. The
    scan refuses at its first unequalized atom j if it is a deficit, and
    returns j, or at a surplus with no later deficit, and returns n. That is
    the prefix-sum test's first violation: mass moves only forward, to the
    first deficit, and no atom turns into a deficit, so no mass has crossed
    a deficit j's right end, where the source's prefix sum is its own and
    below the target's; the source's earlier prefix sums are at least the
    target's. The weight w moving δ is 1 - δ·a_k / (Y_j·a_k - Y_k·a_j), for
    atom integrals Y; both w and β = (1-w)·a_j/a_k lie in [0, 1]
    because y_k < x_k ≤ x_j < y_j. On equal atoms it is the classical chain.

    The scan runs in linear time on integers: the masses come on one
    integer scale and the values on another (:func:`ds_witness` passes the
    pair's), both scales cancel in every weight, and each weight is one
    ``Fraction``. The pointers j and k only move forward:
    an equalized atom stays equal, and a deficit is never overfilled, so no
    atom before either pointer can become the next surplus or deficit. Each
    pointer moves one atom at a time, so an atom's integrals are formed when
    a pointer first reaches it: a refusal reads only a prefix of the atoms,
    up to the farthest pointer, and one at the first atom forms two
    products, not 2n.
    """
    a = masses
    n, j, k, steps = len(a), 0, 0, []
    x, y = [], []  # the atom integrals up to the farthest pointer
    for _ in range(n + 1):
        while j < n:
            if j == len(x):
                x.append(a[j] * target[j])
                y.append(a[j] * source[j])
            if y[j] != x[j]:
                break
            j += 1
        if j == n:
            break
        if y[j] < x[j]:
            return j
        k = max(k, j + 1)
        while k < n:
            if k == len(x):
                x.append(a[k] * target[k])
                y.append(a[k] * source[k])
            if y[k] < x[k]:
                break
            k += 1
        if k == n:
            return n
        delta = min(y[j] - x[j], x[k] - y[k])
        spread = y[j] * a[k] - y[k] * a[j]
        steps.append(TTransform(j, k, Fraction(spread - delta * a[k], spread)))
        y[j] -= delta
        y[k] += delta
    else:
        raise InternalInconsistencyError("T-transform chain failed to terminate")
    return tuple(steps)


def ds_witness(f: StepFunction, g: StepFunction) -> WitnessChain:
    """Doubly stochastic operator carrying g onto f, as a T-transform chain.

    The chain lives on the common refinement of the two level-set layouts: at
    most m + n atoms of unequal mass for m and n level sets (on an infinite
    space it covers the larger support), and at most one step fewer than
    atoms. ``apply_to(g) == f`` exactly. Two null functions need no atoms,
    and get the empty witness. No equal-mass grid is built here:
    :attr:`WitnessChain.product` expands the chain onto one on request. The
    pair is scaled once, and one walk of the refinement on its integer masses
    gives the atoms and both value vectors. The chain scan is the
    majorization test, and no criterion sweep runs: the atoms are the
    segments the rearrangement sweep folds over, so the atom j the scan
    refuses at is that sweep's first violation, at j's right end, or for
    j = n at the equal-integrals clause, at the total measure.
    """
    mass_scale, _, (f_values, f_masses), (g_values, g_masses) = _scaled(f, g)
    f_levels, g_levels = [*f_values, 0], [*g_values, 0]
    masses, x, y = [], [], []
    for i, k, mass in _in_order(f_masses, g_masses):
        masses.append(mass)
        x.append(f_levels[i])
        y.append(g_levels[k])
    steps = _t_transform_chain(masses, x, y)
    if isinstance(steps, int):
        point = (
            f.total_measure if steps == len(masses)
            else Fraction(sum(masses[:steps + 1]), mass_scale)
        )
        raise NotMajorizedError(
            f"f is not majorized by g (violation at {_shown(point)} "
            f"under the {Criterion.REARRANGEMENT.value} criterion)"
        )
    total = f.total_measure
    atoms = tuple([Fraction(m, mass_scale) for m in masses])
    partition = Partition(atoms, total, Tail(ONE) if total is INF else None)
    return WitnessChain(steps, partition)

"""Seeded inputs for the benchmark, built without importing ``majo``.

Every pair carries its truth label from how it was built, so the output
checks never ask the code under test what the right answer is:

* averaging replaces parts of level sets by their mass-weighted mean, a
  conditional expectation, so the averaged function is majorized by the
  original (``label.holds``);
* a reversed pair swaps the two sides of an averaged pair, so the forward
  relation fails and the reverse one holds;
* an incomparable pair spreads the top two level sets apart and averages
  two lower ones, so the partial integrals cross in both directions.

The shape of each input (kind, size, denominators, which level sets are
averaged) follows its index in the pool, not the seed, so that the cost of
a pool barely changes from seed to seed; the seed picks the numerators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

Pieces = Tuple[Tuple[Fraction, Fraction], ...]

SMALL_DENOMINATORS = (1, 2, 3, 4)


def _primes(lo: int, hi: int) -> Tuple[int, ...]:
    return tuple(
        n for n in range(lo, hi) if all(n % d for d in range(2, int(n**0.5) + 1))
    )


LARGE_PRIMES = _primes(100, 1000)


def fmt(x) -> str:
    """A rational as .sfn/.mat text: integers bare, otherwise p/q."""
    if x is None:
        return "inf"
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canonical(pieces, total: Optional[Fraction]) -> Pieces:
    """Merged, strictly decreasing level sets; ``total`` None means infinite."""
    merged = {}
    for value, mass in pieces:
        merged[value] = merged.get(value, Fraction(0)) + mass
    if total is None:
        merged.pop(Fraction(0), None)
    else:
        rest = total - sum(merged.values(), Fraction(0))
        if rest:
            merged[Fraction(0)] = merged.get(Fraction(0), Fraction(0)) + rest
    return tuple((v, merged[v]) for v in sorted(merged, reverse=True))


def sfn_text(pieces, total: Optional[Fraction], rng: Optional[random.Random] = None,
             partition: Optional[List[Fraction]] = None) -> str:
    """``.sfn`` text; with ``rng`` the level-set lines come out shuffled."""
    lines = [f"{fmt(v)} {fmt(m)}" for v, m in pieces]
    if rng is not None:
        rng.shuffle(lines)
    head = [f"total {fmt(total)}"]
    tail = ["partition " + " ".join(fmt(a) for a in partition)] if partition else []
    return "\n".join(head + lines + tail) + "\n"


def mat_text(rows: List[List[Fraction]]) -> str:
    head = f"{len(rows)} {len(rows[0]) if rows else 0}"
    return "\n".join([head] + [" ".join(fmt(e) for e in row) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# pairs for the decision and witness workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    holds: bool
    reverse: bool
    kind: str  # "majorized", "reversed" or "incomparable"


@dataclass(frozen=True)
class Pair:
    """Canonical f and g on one space, their .sfn text, and the truth label."""

    f: Pieces
    g: Pieces
    total: Optional[Fraction]
    label: Label
    large: bool
    text_f: str
    text_g: str


def step_function(shape: random.Random, rng: random.Random, k: int, large: bool,
                  infinite: bool):
    """k level sets: denominators (small, or primes) from ``shape``, numerators from ``rng``."""
    choices = LARGE_PRIMES if large else SMALL_DENOMINATORS
    value_dens = [shape.choice(choices) for _ in range(k)]
    mass_dens = [shape.choice(choices) for _ in range(k)]
    values: List[Fraction] = []
    for den in value_dens:
        value = Fraction(rng.randint(1, 4 * k * den), den)
        while value in values:
            value = Fraction(rng.randint(1, 4 * k * den), den)
        values.append(value)
    pieces = [(v, Fraction(rng.randint(1, 3 * den), den)) for v, den in zip(values, mass_dens)]
    total = None if infinite else sum((m for _, m in pieces), Fraction(0))
    return canonical(pieces, total), total


def average(rng, pieces: Pieces, total, steps: int) -> Pieces:
    """Apply up to ``steps`` random averagings, each a conditional expectation.

    A step replaces two level sets (or, on an infinite space, one level set
    and a share of the zero tail) by their mean value on the union. Masses
    stay sums of the original ones, so no new denominators appear.
    """
    current = list(pieces)
    for _ in range(steps):
        if total is None and (len(current) < 2 or rng.random() < 0.25):
            v, m = current.pop(rng.randrange(len(current)))
            zero_mass = m * rng.randint(1, 2)
            current.append((v * m / (m + zero_mass), m + zero_mass))
        elif len(current) >= 2:
            i, j = sorted(rng.sample(range(len(current)), 2))
            (a, ma), (b, mb) = current.pop(j), current.pop(i)
            current.append(((a * ma + b * mb) / (ma + mb), ma + mb))
        current = list(canonical(current, total))
    return tuple(current)


def _incomparable(rng, g: Pieces, total) -> Pieces:
    """Spread the top two level sets apart and average two lower adjacent ones."""
    (v0, m0), (v1, m1), (v2, _m2) = g[0], g[1], g[2]
    delta = (v1 - v2) * m1 * Fraction(rng.randint(1, 3), 4)
    out = list(g)
    out[0] = (v0 + delta / m0, m0)
    out[1] = (v1 - delta / m1, m1)
    i = rng.randrange(2, len(g) - 1)
    (a, ma), (b, mb) = g[i], g[i + 1]
    out[i : i + 2] = [((a * ma + b * mb) / (ma + mb), ma + mb)]
    return canonical(out, total)


def decision_pair(rng: random.Random, index: int) -> Pair:
    """Pair for the ``decide`` workload; its shape follows ``index``, its numerators the seed.

    Half the kinds are majorized, a quarter reversed, a quarter incomparable;
    odd indices use large prime denominators; g has 10 to 40 level sets. The
    shape (kind, size, denominators, which level sets are averaged) comes
    from ``index`` alone, because it sets the cost.
    """
    shape = random.Random(index)
    kind = ("majorized", "reversed", "majorized", "incomparable")[index % 4]
    large = index % 2 == 1
    k = 10 + (index * 13) % 31
    g, total = step_function(shape, rng, k, large, infinite=(index // 2) % 2 == 0)
    if kind == "incomparable":
        f = _incomparable(shape, g, total)
        label = Label(False, False, kind)
    else:
        f = average(shape, g, total, steps=1 + k // 6)
        label = Label(True, True, kind)
        if kind == "reversed":
            f, g = g, f
            label = Label(False, True, kind)
    return Pair(f, g, total, label, large,
                sfn_text(f, total, rng), sfn_text(g, total, rng))


def witness_pair(rng: random.Random, index: int) -> Pair:
    """Majorized pair whose gcd refinement has dimension about 25 to 125.

    g has 2 to 6 level sets with masses on two coprime denominator lattices
    1/q1 and 1/q2, so the common refinement has atoms of mass 1/(q1 q2).
    f averages adjacent level sets of g in pairs and, on an infinite space,
    the last one with a share of the zero tail. The witness cost follows the
    shape far more than the values, so the shape depends on ``index`` alone
    and the seed picks the values. Target dimensions spread evenly, so that
    the slowest tenth of a pool is not a few far-apart outliers.
    """
    shape = random.Random(index)
    lo = 25 + ((index * 37) % 100) * 80 // 100
    k = 2 + index % 5
    infinite = index % 2 == 0
    top = 1 + lo // (3 * k)
    while True:
        q1, q2 = shape.sample(range(5, 14), 2)
        masses = [Fraction(shape.randint(1, top), (q1, q2)[i % 2]) for i in range(k)]
        zero_mass = masses[-1] * shape.randint(1, 2) if infinite else 0
        if (Fraction(q1, q2).denominator == q2
                and lo <= (sum(masses) + zero_mass) * q1 * q2 <= lo + 20):
            break
    values = sorted(map(Fraction, rng.sample(range(1, 6 * k + 1), k)), reverse=True)
    g = list(zip(values, masses))
    f = [((a * ma + b * mb) / (ma + mb), ma + mb)
         for (a, ma), (b, mb) in zip(g[0::2], g[1::2])]
    if k % 2:
        f.append(g[-1])
    if infinite:
        v, m = f.pop()
        f.append((v * m / (m + zero_mass), m + zero_mass))
    total = None if infinite else sum(masses)
    f, g = canonical(f, total), canonical(g, total)
    return Pair(f, g, total, Label(True, True, "majorized"), False,
                sfn_text(f, total, rng), sfn_text(g, total, rng))


# ---------------------------------------------------------------------------
# files for the command-line workload
# ---------------------------------------------------------------------------


def unsorted_function(rng: random.Random, n: int):
    """``n`` level-set lines in random order with repeated values (merged on load)."""
    infinite = rng.random() < 0.5
    pieces = [
        (Fraction(rng.randint(0 if not infinite else 1, n // 3), rng.choice((1, 2, 3, 4))),
         Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7))))
        for _ in range(n)
    ]
    total = None if infinite else sum((m for _, m in pieces), Fraction(0))
    return pieces, total


def markov_matrix(rng: random.Random, rows: int, cols: int) -> List[List[Fraction]]:
    """Column-stochastic with one row summing above 1: Markov, not semi-doubly."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for j in range(cols):
        hits = rng.sample(range(rows), 3)
        weights = [rng.randint(1, 5) for _ in hits]
        for i, w in zip(hits, weights):
            out[i][j] += Fraction(w, sum(weights))
    out[0] = [Fraction(1, 2) + e / 2 for e in out[0]]  # row 0 gets half of every column
    for j in range(cols):
        for i in range(1, rows):
            out[i][j] /= 2
    return out


def injection_mixture(rng: random.Random, rows: int, cols: int):
    """Convex mix of three injections: doubly stochastic if square, semi-doubly if rows > cols."""
    weights = [rng.randint(1, 6) for _ in range(3)]
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for w in weights:
        for j, i in enumerate(rng.sample(range(rows), cols)):
            out[i][j] += Fraction(w, sum(weights))
    return out


def aligned_function(rng: random.Random, atoms: List[Fraction]):
    """Nonincreasing values on consecutive atoms: (pieces, finite total)."""
    values = sorted((Fraction(rng.randint(0, 40), rng.choice((1, 2, 3))) for _ in atoms),
                    reverse=True)
    return list(zip(values, atoms)), sum(atoms, Fraction(0))

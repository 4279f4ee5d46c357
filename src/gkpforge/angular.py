"""Exact angular-momentum algebra.

Wigner 6j symbols evaluated by the Racah single-sum formula in exact
integer arithmetic: half-integers are carried as doubled integers, the
triangle coefficients and the Racah terms as bignum binomial products, and
the squared symbol becomes a float through a single correctly rounded
int/int division before the square root. At desk scale (arguments up to
99/2) results are correct to about one ulp.

Every argument is validated on every call: it must be a Fraction, an int
or a real number (float, numpy's floats and ints, Decimal), so a bool, a
numpy bool, a str and None are refused. Each exact value is then computed
once per symmetry class. A 6j's doubled triad sums alpha (four) and column
sums beta (three), each sorted, are invariant under all 144 classical and
Regge symmetries, and the Racah sum and the Delta product are exact
integers that depend only on them: the sum's range and its multinomial
terms are read from the sorted sums themselves. So the symbol is memoised
on (sorted alpha, sorted beta), for at most SIXJ_MEMO_SIZE classes, and
every member of a class gets the same float. A quadrupole ladder's F, K
and exact coefficients do not depend on B and are memoised per (2I, 2j),
for at most LADDER_MEMO_SIZE manifolds; each call multiplies B by the same
float of each coefficient, so the shifts are the same bits as an
unmemoised ladder's, and each level is a named tuple built from its memo
row.

The module is also the one parser of half-integers (angular momenta and
nuclear spins alike), and provides the electronic channels and the
electric-quadrupole hyperfine ladder with its exact centroid cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Sequence

from .errors import ValidationError

__all__ = [
    "wigner_6j",
    "triangle_ok",
    "parse_half_integer",
    "RANK2_MIN_J",
    "ElectronicChannel",
    "HyperfineLevel",
    "hfs_e2_levels",
    "centroid",
    "default_channels",
]

# bounds of the memos, in distinct 6j classes and distinct (2I, 2j)
SIXJ_MEMO_SIZE = 1024
LADDER_MEMO_SIZE = 256

# barrier (i), Wigner-Eckart: only a state with j >= 3/2 has a diagonal
# rank-2 matrix element; every rank-2-sensitivity test reads this
RANK2_MIN_J = Fraction(3, 2)


def _twice(j, name: str = "argument") -> int:
    """Validate a half-integer and return it doubled as an exact int."""
    if isinstance(j, Fraction):
        numerator, denominator = j.as_integer_ratio()
        if denominator > 2:
            raise ValidationError(f"{name} {j} is not a half-integer")
        tj = numerator if denominator == 2 else 2 * numerator
    elif isinstance(j, int):
        if isinstance(j, bool):
            raise ValidationError(f"{name} {j!r} is a bool, not a half-integer")
        tj = 2 * j
    elif not isinstance(j, (Real, Decimal)):  # a numpy bool, a str or None
        raise ValidationError(f"{name} {j!r} is a {type(j).__name__}, not a real number")
    else:
        try:
            twice = 2 * float(j)
        except ValueError:  # a signaling NaN Decimal
            twice = math.nan
        if not twice.is_integer():  # nor is a NaN, an inf or a double that overflows
            raise ValidationError(f"{name} {j!r} is not a half-integer whose double is a finite float")
        tj = int(twice)
    if tj < 0:
        raise ValidationError(f"{name} {j} must be non-negative")
    return tj


def triangle_ok(j1, j2, j3) -> bool:
    """Triangle condition |j1-j2| <= j3 <= j1+j2 with integer perimeter."""
    t1, t2, t3 = _twice(j1), _twice(j2), _twice(j3)
    return abs(t1 - t2) <= t3 <= t1 + t2 and (t1 + t2 + t3) % 2 == 0


_SIXJ_NAMES = ("j1", "j2", "j3", "j4", "j5", "j6")


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} by the Racah sum.

    Returns exactly 0.0 whenever any of the four triads violates the
    triangle condition; this encodes the rank-2 selection rule, e.g.
    {1/2 1/2 2; I I F} = 0 because (1/2, 1/2, 2) cannot close. With the
    doubled triad sums alpha (four) and column sums beta (three), the twelve
    differences beta_k - alpha_i are exactly the twelve triangle
    inequalities, so the triads close iff every alpha is even and
    max(alpha) <= min(beta).

    Every argument is validated on every call; the value then comes from
    _racah, memoised on (sorted alpha, sorted beta).
    """
    t0, t1, t2, t3, t4, t5 = map(_twice, (j1, j2, j3, j4, j5, j6), _SIXJ_NAMES)
    alphas = tuple(sorted((t0 + t1 + t2, t0 + t4 + t5, t3 + t1 + t5, t3 + t4 + t2)))
    betas = tuple(sorted((t0 + t1 + t3 + t4, t1 + t2 + t4 + t5, t2 + t0 + t5 + t3)))
    if (alphas[0] | alphas[1] | alphas[2] | alphas[3]) & 1 or alphas[3] > betas[0]:
        return 0.0
    return _racah(alphas, betas)


@functools.lru_cache(maxsize=SIXJ_MEMO_SIZE)
def _racah(alphas: tuple[int, ...], betas: tuple[int, ...]) -> float:
    """The 6j symbol of the Regge class with sorted doubled triad sums
    alphas and column sums betas, whose triads close.

    Everything before the last step is an exact integer fixed by the class.
    The triads' half-perimeters s_i are the halved alphas and the column
    caps c_k the halved betas, so the Racah sum runs from z = s_4 to c_1.
    Only each triad's 1/Delta^2 = (s+1)! / ((s-2a)! (s-2b)! (s-2c)!) =
    (s+1) C(s, 2c) C(2c, s-2b) reads edges, those of one member rebuilt
    from the sums. Each Racah term (z+1)! / (prod_i (z-s_i)! prod_k (c_k-z)!)
    is z+1 times a multinomial coefficient, because the seven factorial
    arguments add up to z. The symbol is sign(S) * sqrt(S^2 / D), S the sum
    and D the product of the 1/Delta^2; S^2 / D is rounded to a float by one
    int/int division, which Python rounds correctly.
    """
    a1, a2, a3, a4 = alphas
    b1, b2, b3 = betas
    s1, s2, s3, z_min = a1 // 2, a2 // 2, a3 // 2, a4 // 2
    c1, c2, c3 = b1 // 2, b2 // 2, b3 // 2
    # the member's doubled j2, j3, j5 and j6; each triad is (s, 2b, 2c)
    e2, e3 = (a1 + a3 - b3) // 2, (a1 + a4 - b1) // 2
    e5, e6 = (a2 + a4 - b3) // 2, (a2 + a3 - b1) // 2
    comb = math.comb
    delta_inv_sq = 1
    for s, tb, tc in ((s1, e2, e3), (s2, e5, e6), (s3, e2, e6), (z_min, e5, e3)):
        delta_inv_sq *= (s + 1) * comb(s, tc) * comb(tc, s - tb)
    term, n = z_min + 1, 0
    for k in (z_min - s1, z_min - s2, z_min - s3, c1 - z_min, c2 - z_min, c3 - z_min):
        n += k
        term *= comb(n, k)
    # term(z+1) / term(z) = (z+2) prod_k (c_k-z) / prod_i (z+1-s_i), exact in integers
    total = 0
    for z in range(z_min, c1 + 1):
        total += -term if z % 2 else term
        term = term * (z + 2) * (c1 - z) * (c2 - z) * (c3 - z) // (
            (z + 1 - s1) * (z + 1 - s2) * (z + 1 - s3) * (z + 1 - z_min)
        )
    if total == 0:
        return 0.0
    # sign by hand: math.copysign would overflow converting a large total
    magnitude = math.sqrt((total * total) / delta_inv_sq)
    return magnitude if total > 0 else -magnitude


@dataclass(frozen=True)
class ElectronicChannel:
    """One atomic state/transition channel of a hydrogen-like ion."""

    n: int
    l: int
    j: Fraction
    label: str

    def __post_init__(self):
        j = parse_half_integer(self.j, "j")
        object.__setattr__(self, "j", j)
        if self.l < 0 or self.n <= self.l:
            raise ValidationError(f"channel {self.label!r}: requires n > l >= 0")
        if abs(Fraction(self.l) - Fraction(1, 2)) > j or j > self.l + Fraction(1, 2):
            raise ValidationError(f"channel {self.label!r}: j={j} incompatible with l={self.l}")

    def rank2_sensitive(self) -> bool:
        """A diagonal rank-2 matrix element needs j >= RANK2_MIN_J."""
        return self.j >= RANK2_MIN_J


def parse_half_integer(value, name: str) -> Fraction:
    """An exact non-negative half-integer from a str such as "5/2" or "2.5",
    a Fraction, an int or a float, read exactly (a huge float is a huge
    half-integer for the caller's range check); else a ValidationError."""
    try:
        exact = value if isinstance(value, int) else Fraction(value)  # a bool is refused by _twice
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {name} {value!r} as a half-integer") from None
    return Fraction(_twice(exact, name), 2)


class HyperfineLevel(NamedTuple):
    """One hyperfine component F of an (I, j) manifold, an immutable tuple
    of its four fields (equal to the plain tuple of them).

    K_casimir = F(F+1) - I(I+1) - j(j+1). The quadrupole coefficient is
    the exact rational multiplier of the electric-quadrupole constant; its
    (2F+1)-weighted sum over a full ladder vanishes identically, which is
    what makes centroid spectroscopy blind to the first-order interaction.
    """

    F: Fraction
    K_casimir: Fraction
    quadrupole_coefficient: Fraction
    shift_eV: float = 0.0

    @property
    def weight(self) -> int:
        numerator, denominator = self.F.as_integer_ratio()
        return 2 * numerator // denominator + 1


def hfs_e2_levels(I, j, B_const_eV: float) -> tuple[HyperfineLevel, ...]:
    """Electric-quadrupole hyperfine ladder of an (I, j) manifold.

    Shift per level: B * [ (3/2) K (K+1) - 2 I(I+1) j(j+1) ]
    / [ 2I(2I-1) * 2j(2j-1) ], with K the Casimir combination. Quadrupole
    structure requires both I >= 1 and j >= 3/2; otherwise the F ladder is
    returned with all quadrupole coefficients exactly zero. Each level's
    shift is B times the float of its coefficient; the rest of the ladder
    does not depend on B and is memoised per (2I, 2j) by _ladder.
    """
    make = HyperfineLevel._make
    return tuple([make((F, K, coefficient, B_const_eV * as_float))
                  for F, K, coefficient, as_float in _ladder(_twice(I, "I"), _twice(j, "j"))])


@functools.lru_cache(maxsize=LADDER_MEMO_SIZE)
def _ladder(tI: int, tj: int) -> tuple[tuple[Fraction, Fraction, Fraction, float], ...]:
    """(F, K, quadrupole coefficient, its float) per level of the (I, j)
    ladder, from doubled I and j."""
    has_quadrupole = tI >= 2 and tj >= 3
    # doubled integers: 4I(I+1) = 2I(2I+2), likewise for j and F, and 4K;
    # the coefficient's numerator and denominator are both scaled by 32
    four_I, four_j = tI * (tI + 2), tj * (tj + 2)
    denominator = 32 * tI * (tI - 1) * tj * (tj - 1)
    levels = []
    for tF in range(abs(tI - tj), tI + tj + 1, 2):
        four_K = tF * (tF + 2) - four_I - four_j
        if has_quadrupole:
            coefficient = Fraction(3 * four_K * (four_K + 4) - 4 * four_I * four_j, denominator)
        else:
            coefficient = Fraction(0)
        levels.append((Fraction(tF, 2), Fraction(four_K, 4), coefficient, float(coefficient)))
    return tuple(levels)


def centroid(levels: Sequence[HyperfineLevel]) -> float:
    """(2F+1)-weighted mean shift of a hyperfine ladder, in eV.

    For a pure first-order electric-quadrupole ladder this is zero: the
    rank-2 trace identity. A uniform scalar offset passes through
    unchanged, so centroid extraction cancels the first-order quadrupole
    background while preserving scalar physics. The weighted shifts are
    summed left to right, so every supported Python gives the same bits.
    """
    if not levels:
        raise ValidationError("cannot take the centroid of an empty ladder")
    total = weights = 0
    for level in levels:  # left to right: Python 3.12's sum() of floats compensates
        weight = level.weight
        total += weight * level.shift_eV
        weights += weight
    return total / weights


@functools.cache
def default_channels() -> tuple[ElectronicChannel, ...]:
    """The hydrogen-like channel set used by the bundled Mo analyses. The
    channels are frozen, so the set is validated once and shared."""
    return (
        ElectronicChannel(n=1, l=0, j=Fraction(1, 2), label="1s1/2"),
        ElectronicChannel(n=2, l=0, j=Fraction(1, 2), label="2s1/2"),
        ElectronicChannel(n=2, l=1, j=Fraction(1, 2), label="2p1/2"),
        ElectronicChannel(n=2, l=1, j=Fraction(3, 2), label="2p3/2"),
        ElectronicChannel(n=3, l=2, j=Fraction(5, 2), label="3d5/2"),
    )

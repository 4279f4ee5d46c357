"""Exact-Fraction oracle for gkpforge.angular, runnable without numpy or pytest.

The reference Racah sum and quadrupole ladder below are summed in
Fractions; the integer arithmetic and the memos of gkpforge.angular must
reproduce them bit for bit. tests/test_angular.py imports them. Run as a
script, this file checks the numpy-free angular module against them on any
supported interpreter:

    PYTHONPATH=src python tests/angular_oracle.py
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

def _reference_delta_sq(ta, tb, tc):
    return Fraction(
        math.factorial((ta + tb - tc) // 2)
        * math.factorial((ta - tb + tc) // 2)
        * math.factorial((-ta + tb + tc) // 2),
        math.factorial((ta + tb + tc) // 2 + 1),
    )


def _reference_6j(*t):
    """6j symbol from doubled arguments, summed in Fractions."""
    triads = [(t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]), (t[3], t[4], t[2])]
    for ta, tb, tc in triads:
        if not (abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0):
            return 0.0
    dsq = Fraction(1)
    for triad in triads:
        dsq *= _reference_delta_sq(*triad)
    floors = [(ta + tb + tc) // 2 for ta, tb, tc in triads]
    caps = [(t[0] + t[1] + t[3] + t[4]) // 2, (t[1] + t[2] + t[4] + t[5]) // 2,
            (t[2] + t[0] + t[5] + t[3]) // 2]
    total = Fraction(0)
    for z in range(max(floors), min(caps) + 1):
        den = 1
        for f in floors:
            den *= math.factorial(z - f)
        for c in caps:
            den *= math.factorial(c - z)
        total += Fraction((-1) ** z * math.factorial(z + 1), den)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(total * total * dsq))


def _reference_ladder(I, j, B):
    """(F, K, coefficient, shift) per level, computed in Fractions."""
    has_quadrupole = I >= 1 and j >= Fraction(3, 2)
    levels = []
    F = abs(I - j)
    while F <= I + j:
        K = F * (F + 1) - I * (I + 1) - j * (j + 1)
        if has_quadrupole:
            numerator = Fraction(3, 2) * K * (K + 1) - 2 * I * (I + 1) * j * (j + 1)
            coefficient = numerator / ((2 * I * (2 * I - 1)) * (2 * j * (2 * j - 1)))
        else:
            coefficient = Fraction(0)
        levels.append((F, K, coefficient, B * float(coefficient)))
        F += 1
    return levels


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _regge(a, b, c, d, e, f):
    """Regge's symmetry of {a b c; d e f}, beyond the 24 classical ones."""
    return (a, (b + e + c - f) / 2, (c + f + b - e) / 2, d, (b + e - c + f) / 2, (c + f - b + e) / 2)


# the column permutation and double swaps of acceptance criterion 08
_CLASSICAL = (
    lambda a, b, c, d, e, f: (b, a, c, e, d, f),
    lambda a, b, c, d, e, f: (c, b, a, f, e, d),
    lambda a, b, c, d, e, f: (a, e, f, d, b, c),
    lambda a, b, c, d, e, f: (d, e, c, a, b, f),
)


def main() -> int:
    from gkpforge.angular import _twice, centroid, hfs_e2_levels, parse_half_integer, triangle_ok, wigner_6j
    from gkpforge.errors import ValidationError

    failures = []
    for t in itertools.product(range(7), repeat=6):
        j = [Fraction(x, 2) for x in t]
        value = wigner_6j(*j)
        if not _same_float(value, _reference_6j(*t)):
            failures.append(f"6j{t}")
        if value != 0.0 and any(wigner_6j(*g(*j)) != value for g in (*_CLASSICAL, _regge)):
            failures.append(f"symmetry of 6j{t}")
    # 500 nonzero symbols in each of the benchmark's size buckets of the
    # largest doubled argument
    for low, high in ((0, 9), (10, 21), (22, 49), (50, 99)):
        rng = random.Random(99)
        checked = 0
        while checked < 500:
            t = [rng.randint(0, high) for _ in range(6)]
            value = _reference_6j(*t)
            if value == 0.0 or max(t) < low:
                continue
            if not _same_float(wigner_6j(*(Fraction(x, 2) for x in t)), value):
                failures.append(f"6j{t}")
            checked += 1
    for twice_I, twice_j in itertools.product(range(25), range(1, 24)):
        I, j = Fraction(twice_I, 2), Fraction(twice_j, 2)
        for B in (1.0, -3.7e-5):
            levels = hfs_e2_levels(I, j, B)
            got = [(lvl.F, lvl.K_casimir, lvl.quadrupole_coefficient, lvl.shift_eV) for lvl in levels]
            want = _reference_ladder(I, j, B)
            if (got != want or not all(_same_float(g[3], w[3]) for g, w in zip(got, want))
                    or any(lvl.weight != int(2 * lvl.F + 1) for lvl in levels)
                    or not all(type(x) is Fraction for level in got for x in level[:3])):
                failures.append(f"ladder (I, j, B) = ({I}, {j}, {B})")
        if twice_I >= 2 and twice_j >= 3 and abs(centroid(hfs_e2_levels(I, j, 1.0))) > 1e-14:
            failures.append(f"centroid of ladder (I, j) = ({I}, {j})")
    for bad in ((Fraction(1, 3), 1, 1, 1, 1, 1), (0.3, 1, 1, 1, 1, 1), (-1, 1, 1, 1, 1, 1),
                (True, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, False), ("0.5", 1, 1, 1, 1, 1),
                (1, 1, "1/2", 1, 1, 1), (1, 1, 1, None, 1, 1)):
        for _ in range(2):
            try:
                wigner_6j(*bad)
                failures.append(f"6j{bad} was not refused")
            except ValidationError:
                pass
    for name, refused in (("ladder of I = True", lambda: hfs_e2_levels(True, Fraction(3, 2), 1.0)),
                          ("half-integer True", lambda: parse_half_integer(True, "j")),
                          ("ladder of I = '7/2'", lambda: hfs_e2_levels("7/2", Fraction(3, 2), 1.0)),
                          ("ladder of j = None", lambda: hfs_e2_levels(Fraction(7, 2), None, 1.0)),
                          ("triangle of '1'", lambda: triangle_ok("1", 1, 1)),
                          ("half-integer None", lambda: parse_half_integer(None, "j"))):
        try:
            refused()
            failures.append(f"the {name} was not refused")
        except ValidationError:
            pass
    if _twice(Fraction(7, 2)) != 7:
        failures.append("_twice(7/2)")
    # a Decimal is a real number, read as its float
    if wigner_6j(*map(Decimal, ("1.5", "1", "1.5", "2", "2.5", "1"))) != wigner_6j(1.5, 1, 1.5, 2, 2.5, 1):
        failures.append("6j of Decimal arguments")
    if "numpy" in sys.modules:
        failures.append("gkpforge.angular imported numpy")
    version = sys.version.split()[0]
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(f"python {version}: {'FAILED, ' + str(len(failures)) + ' mismatches' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

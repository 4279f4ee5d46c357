"""Expression-form oracle for gkpforge.gkp's closed-form 3x3 condition numbers.

`reference_closed_form` evaluates kappa of the column-normalized matrix
and the trusted mask of a raw (n, 3, 3) stack one numpy expression at a
time, from the unit-diagonal Gram algebra. gkp._closed_form_condition_numbers
evaluates the same sums in place, in the same order; tests/test_gkp.py
requires the two to agree bit for bit, NaN for NaN.
"""

from __future__ import annotations

import math

import numpy as np

from gkpforge.gkp import (CLOSED_FORM_GAP_RTOL, CLOSED_FORM_MAX_KAPPA, CLOSED_FORM_MIN_L2_RTOL,
                          CLOSED_FORM_SQUARED_NORM_RANGE, COLUMN_NAMES, normalize_columns)


def _dot3(x, y):
    """x[0] y[0] + x[1] y[1] + x[2] y[2], elementwise, summed in this fixed order."""
    return (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def _cross(x, y):
    """The cross product x × y of two length-3 sequences of arrays."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def reference_closed_form(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kappa = sqrt(l1 / l3) of the column-normalized matrix of every raw
    matrix in an (n, 3, 3) stack, from the eigenvalues l1 >= l2 >= l3 of
    its unit-diagonal Gram matrix, and the mask of matrices inside the
    trusted region. NaN fails every comparison, so a matrix whose formulas
    leave the floating-point range falls outside it."""
    a = np.ascontiguousarray(stack.transpose(1, 2, 0))  # a[row, col] holds n draws
    cols = a.transpose(1, 0, 2)  # cols[col, row]
    with np.errstate(all="ignore"):
        s = np.array([_dot3(cols[k], cols[k]) for k in range(3)])  # squared raw column norms
        normalize_columns(stack, COLUMN_NAMES)  # refuses a zero or non-finite norm
        low, high = CLOSED_FORM_SQUARED_NORM_RANGE
        in_range = ((low <= s) & (s <= high)).all(axis=0)
        n0, n1, n2 = np.sqrt(s)
        g01 = _dot3(cols[0], cols[1]) / (n0 * n1)
        g02 = _dot3(cols[0], cols[2]) / (n0 * n2)
        g12 = _dot3(cols[1], cols[2]) / (n1 * n2)
        # l1: the trigonometric form on B = G - I, whose diagonal is 0
        q = (g01 * g01 + g02 * g02) + g12 * g12
        p = np.sqrt(q / 3.0)
        phi = np.arccos(np.clip(((g01 * g02) * g12) / p ** 3, -1.0, 1.0)) / 3.0  # det(B) = 2 g01 g02 g12
        l1 = 1.0 + 2.0 * p * np.cos(phi)
        # l2 l3 = det(A)^2 / l1 and l2 + l3 = (c - l2 l3) / l1, with
        # det(A) = det(D) / (n0 n1 n2) and c = 3 - q (Cauchy-Binet)
        det = _dot3(_cross(a[0], a[1]), a[2]) / ((n0 * n1) * n2)
        prod23 = det * det / l1
        sum23 = ((3.0 - q) - prod23) / l1
        # l2 - l3 from the trigonometric form where the spectrum is clustered
        # (spread p below l2 + l3), else from the quadratic's discriminant
        gap23 = np.where(p < sum23, 2.0 * math.sqrt(3.0) * p * np.sin(phi),
                         np.sqrt(np.maximum(sum23 * sum23 - 4.0 * prod23, 0.0)))
        l2 = 0.5 * (sum23 + gap23)
        l3 = prod23 / l2
        kappa = np.sqrt(l1 / l3)
        margin = CLOSED_FORM_GAP_RTOL * l1
        trusted = ((l2 >= CLOSED_FORM_MIN_L2_RTOL * l1) & (l1 - l2 >= margin) & (l2 - l3 >= margin)
                   & (kappa < CLOSED_FORM_MAX_KAPPA) & in_range)
    return kappa, trusted

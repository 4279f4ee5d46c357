"""Expression-form oracle for gkpforge.gkp's closed-form 3x3 condition numbers.

`reference_closed_form` evaluates kappa and the trusted mask of an
(n, 3, 3) stack one numpy expression at a time, exactly as the closed
form was first written. gkp._closed_form_condition_numbers evaluates the
same sums in place, in the same order; tests/test_gkp.py requires the two
to agree bit for bit, NaN for NaN.
"""

from __future__ import annotations

import math

import numpy as np

from gkpforge.gkp import CLOSED_FORM_GAP_RTOL, CLOSED_FORM_MAX_KAPPA, CLOSED_FORM_MIN_L2_RTOL


def _dot3(x, y):
    """x[0] y[0] + x[1] y[1] + x[2] y[2], elementwise, summed in this fixed order."""
    return (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def _cross(x, y):
    """The cross product x × y of two length-3 sequences of arrays."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def reference_closed_form(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kappa = sqrt(l1 / l3) of an (n, 3, 3) stack from the eigenvalues
    l1 >= l2 >= l3 of G = A^T A, and the mask of matrices inside the
    trusted region. NaN fails every comparison, so non-finite matrices
    fall outside it."""
    a = np.ascontiguousarray(stack.transpose(1, 2, 0))  # a[row, col] holds n draws
    cols = a.transpose(1, 0, 2)  # cols[col, row]
    with np.errstate(all="ignore"):
        g00, g11, g22 = (_dot3(cols[k], cols[k]) for k in range(3))
        g01, g02, g12 = _dot3(cols[0], cols[1]), _dot3(cols[0], cols[2]), _dot3(cols[1], cols[2])
        # l1: largest root of the characteristic cubic by the trigonometric
        # form, written on the deviator B = G - m I (the cubic's own
        # coefficients would cancel when the spectrum is clustered)
        m = (g00 + g11 + g22) / 3.0
        b00, b11, b22 = g00 - m, g11 - m, g22 - m
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
        det_b = b00 * (b11 * b22 - g12 * g12) - g01 * (g01 * b22 - g12 * g02) + g02 * (g01 * g12 - b11 * g02)
        phi = np.arccos(np.clip(det_b / (2.0 * p ** 3), -1.0, 1.0)) / 3.0
        l1 = m + 2.0 * p * np.cos(phi)
        # l2 l3 = det(A)^2 / l1 and l2 + l3 = (c - l2 l3) / l1, with c the
        # sum of the squared 2x2 minors of A (Cauchy-Binet): sums of
        # non-negative terms, so the small eigenvalues keep SVD's resolution
        minors = (_cross(a[0], a[1]), _cross(a[0], a[2]), _cross(a[1], a[2]))
        det = _dot3(minors[0], a[2])
        prod23 = det * det / l1
        c = sum(_dot3(minor, minor) for minor in minors)
        sum23 = (c - prod23) / l1
        # l2 - l3 from the trigonometric form where the spectrum is clustered
        # (spread p below l2 + l3), else from the quadratic's discriminant
        gap23 = np.where(p < sum23, 2.0 * math.sqrt(3.0) * p * np.sin(phi),
                         np.sqrt(np.maximum(sum23 * sum23 - 4.0 * prod23, 0.0)))
        l2 = 0.5 * (sum23 + gap23)
        l3 = prod23 / l2
        kappa = np.sqrt(l1 / l3)
        margin = CLOSED_FORM_GAP_RTOL * l1
        trusted = ((l2 >= CLOSED_FORM_MIN_L2_RTOL * l1) & (l1 - l2 >= margin) & (l2 - l3 >= margin)
                   & (kappa < CLOSED_FORM_MAX_KAPPA))
    return kappa, trusted

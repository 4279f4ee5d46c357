from __future__ import annotations

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gkpforge.errors import (
    NumericalError,
    RankDeficiencyError,
    UnderdeterminedError,
    ValidationError,
)
import gkpforge.gkp as gkp
import gkpforge.montecarlo as montecarlo
from gkpforge.gkp import (
    COLUMN_NAMES,
    RANK_DEFICIENCY_RTOL,
    DesignMatrix,
    Topology,
    _closed_form_condition_numbers,
    build_design,
    condition_number,
    condition_numbers,
    design_entries,
    extract,
    normalize_columns,
    nuclear_factors,
    precondition,
    solvability_verdict,
    solvable,
)
from gkpforge.nucdata import partition, spin_mass_lever
from kappa_oracle import reference_closed_form


def _jacobi_singular_values(matrix, sweeps=80):
    """Independent one-sided Jacobi SVD for desk-scale oracle checks."""
    A = np.array(matrix, dtype=float, copy=True)
    n = A.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = A[:, p].copy(), A[:, q].copy()
                app, aqq, apq = ap @ ap, aq @ aq, ap @ aq
                if app == 0 or aqq == 0 or abs(apq) <= 1e-15 * math.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2 * apq)
                t = 1.0 if tau == 0 else math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                A[:, p] = c * ap - s * aq
                A[:, q] = s * ap + c * aq
        if not rotated:
            break
    return np.sort(np.sqrt(np.sum(A * A, axis=0)))[::-1]


# ---------------------------------------------------------------------------
# topology counting

@pytest.mark.parametrize(
    "topology,expected_ok,expected_eq,verdict",
    [
        (Topology(4, 2, 1), False, 2, "No (2 < 3)"),
        (Topology(4, 3, 1), True, 3, "Yes (3 = 3)"),
        (Topology(4, 2, 2), True, 4, "Yes (4 > 3)"),
        (Topology(4, 3, 2), True, 6, "Yes (6 ≫ 3)"),
    ],
)
def test_solvable_reference_topologies(topology, expected_ok, expected_eq, verdict):
    ok, n_eq, n_unk = solvable(topology, N_bkg=2)
    assert ok is expected_ok
    assert n_eq == expected_eq
    assert n_unk == 3
    assert solvability_verdict(topology, N_bkg=2) == verdict


def test_solvable_general_background_count():
    ok, n_eq, n_unk = solvable(Topology(4, 3, 1), N_bkg=3)
    assert not ok and (n_eq, n_unk) == (3, 4)
    ok, _, _ = solvable(Topology(4, 4, 1), N_bkg=3)
    assert ok


def test_solvable_requires_some_data():
    ok, _, _ = solvable(Topology(4, 0, 5), N_bkg=0)
    assert not ok
    ok, _, _ = solvable(Topology(4, 5, 0), N_bkg=0)
    assert not ok


# ---------------------------------------------------------------------------
# design construction

def test_build_design_shapes(mo_chain, frib_chain, coeffs):
    _, odd_stable = partition(mo_chain)
    single = coeffs.subset(["1s-2p3/2"])
    m2 = build_design(odd_stable, single)
    assert m2.shape == (2, 3)
    assert m2.columns == COLUMN_NAMES

    _, odd_frib = partition(frib_chain)
    m3 = build_design(odd_frib, single)
    assert m3.shape == (3, 3)
    assert [a for a, _ in m3.rows] == [91, 95, 97]

    m4 = build_design(odd_stable, coeffs)
    assert m4.shape == (4, 3)
    assert {t for _, t in m4.rows} == {"1s-2p3/2", "1s-3d5/2"}


def test_build_design_entries_match_products(mo_chain, coeffs):
    _, odd = partition(mo_chain)
    single = coeffs.subset(["1s-2p3/2"])
    m = build_design(odd, single)
    t = single.transitions[0]
    rec95 = mo_chain.isotope(95)
    row95 = m.entries[0]
    assert row95[0] == pytest.approx(t.H_eV_per_b * rec95.Qs.value, rel=1e-15)
    assert row95[1] == pytest.approx(t.P_eV_per_wu * rec95.BE2_up.value, rel=1e-15)
    assert row95[2] == pytest.approx(t.G_eV_per_lever * (6.25 / 95), rel=1e-15)


def test_build_design_missing_parameter_names_isotope(mo_chain, coeffs):
    odd = (mo_chain.isotope(95), dataclasses.replace(mo_chain.isotope(97), BE2_up=None))
    with pytest.raises(ValidationError, match="A=97"):
        build_design(odd, coeffs)


def test_alpha_t_proxy(mo_chain):
    _, odd = partition(mo_chain)
    assert {rec.A: nuclear_factors(rec)[1] for rec in odd} == {95: 8.0, 97: 12.0}


def test_nuclear_factors_are_qs_be2_and_the_lever(mo_chain):
    rec = mo_chain.isotope(95)
    assert nuclear_factors(rec) == (rec.Qs.value, rec.BE2_up.value, spin_mass_lever(rec))


@pytest.mark.parametrize("edit, message", [
    ({"spin": Fraction(0), "Qs": None}, "A=95 is even-even and carries no rank-2 observable"),
    ({"spin": Fraction(1, 2), "Qs": None}, "A=95 is missing its quadrupole moment"),
    ({"BE2_up": None}, "A=95 has no B(E2) entry for the polarizability proxy"),
])
def test_nuclear_factors_refusals(mo_chain, edit, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        nuclear_factors(dataclasses.replace(mo_chain.isotope(95), **edit))


def test_design_entries_are_isotope_major_products(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    transitions = coeffs.rank2_transitions()
    entries = np.array(design_entries([nuclear_factors(rec) for rec in odd], transitions))
    assert entries.shape == (len(odd) * len(transitions), 3)
    for k, (rec, t) in enumerate((rec, t) for rec in odd for t in transitions):
        qs, be2, lever = nuclear_factors(rec)
        assert entries[k].tolist() == [t.H_eV_per_b * qs, t.P_eV_per_wu * be2, t.G_eV_per_lever * lever]


# ---------------------------------------------------------------------------
# preconditioning and conditioning

@pytest.mark.parametrize("value", [1e200, 1e-170, np.inf])
@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)])
def test_normalize_columns_refuses_a_norm_outside_the_float_range(value, shape):
    stack = np.ones(shape)
    stack.reshape(-1, 3, 3)[-1, :, 1] = value  # in the last matrix: its square overflows, underflows, or it is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="column 'alpha_t_background' has a norm outside"):
            normalize_columns(stack, COLUMN_NAMES)
        with pytest.raises(RankDeficiencyError, match="column 'gravitomagnetic' is identically zero"):
            normalize_columns(np.where(np.arange(3) == 2, 0.0, np.ones(shape)), COLUMN_NAMES)


def test_normalize_columns_keeps_a_subnormal_square_finite():
    stack = np.ones((3, 3))
    stack[:, 0] = 1e-160  # squares are subnormal, not zero: the norm is finite and is kept
    normalized, norms = normalize_columns(stack, COLUMN_NAMES)
    assert 0.0 < norms[0] < np.inf and np.isfinite(normalized).all()


def test_precondition_unit_norms(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    m = precondition(build_design(odd, coeffs))
    norms = np.linalg.norm(m.entries, axis=0)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)
    assert m.preconditioned
    assert len(m.column_norms) == 3
    # idempotent
    again = precondition(m)
    assert again is m


def test_precondition_diagonal_example():
    m = DesignMatrix(
        rows=((1, "t"), (2, "t"), (3, "t")),
        columns=COLUMN_NAMES,
        entries=np.diag([2.0, 4.0, 8.0]),
    )
    assert condition_number(m) == pytest.approx(1.0, abs=1e-12)  # preconditions internally
    pre = precondition(m)
    assert np.allclose(pre.entries, np.eye(3))
    assert pre.column_norms == (2.0, 4.0, 8.0)
    raw_sv = _jacobi_singular_values(m.entries)
    assert raw_sv[0] / raw_sv[-1] == pytest.approx(4.0, rel=1e-12)


def test_precondition_zero_column_rejected():
    m = DesignMatrix(
        rows=((1, "t"), (2, "t")),
        columns=("a", "b"),
        entries=np.array([[1.0, 0.0], [2.0, 0.0]]),
    )
    with pytest.raises(RankDeficiencyError, match="'b'"):
        precondition(m)


def test_condition_number_orthonormal():
    m = DesignMatrix(
        rows=((1, "t"), (2, "t"), (3, "t")),
        columns=COLUMN_NAMES,
        entries=np.eye(3),
    )
    assert condition_number(m) == 1.0


def test_condition_number_degenerate_sentinel():
    column = np.array([1.0, 2.0, 3.0])
    m = DesignMatrix(
        rows=((1, "t"), (2, "t"), (3, "t")),
        columns=COLUMN_NAMES,
        entries=np.column_stack([column, column, np.array([0.0, 1.0, 0.0])]),
    )
    assert math.isinf(condition_number(m))


def test_condition_numbers_stack_matches_per_matrix():
    rng = np.random.default_rng(23)
    entries = rng.normal(size=(40, 4, 3)) * 10.0 ** rng.integers(-6, 6, size=(40, 1, 3))
    entries[7, :, 1] = entries[7, :, 0]  # exactly degenerate: the +inf sentinel
    matrices = [DesignMatrix(rows=tuple((k, "t") for k in range(4)), columns=COLUMN_NAMES, entries=e)
                for e in entries]
    stacked = condition_numbers(entries)  # raw: each matrix normalized as precondition normalizes it
    per_matrix = np.array([condition_number(m) for m in matrices])
    assert math.isinf(per_matrix[7])
    assert np.array_equal(stacked, per_matrix)


def _svd_kappa(stack):
    """The LAPACK reference on the column-normalized stack: sigma_max /
    sigma_min with the +inf sentinel."""
    sv = np.linalg.svd(normalize_columns(stack, COLUMN_NAMES)[0], compute_uv=False)
    return np.where(sv[..., -1] < RANK_DEFICIENCY_RTOL * sv[..., 0], np.inf, sv[..., 0] / sv[..., -1])


def test_closed_form_kappa_matches_svd_on_shipped_draws(mo_chain, coeffs, shipped_designs):
    blocks, _ = shipped_designs(mo_chain, coeffs)
    assert sum(len(b) for b in blocks) == 100_000
    for stack in blocks:
        _, trusted = _closed_form_condition_numbers(stack)
        assert trusted.all()  # no shipped draw falls back to the SVD
        reference = _svd_kappa(stack)
        assert np.isfinite(reference).all()
        np.testing.assert_allclose(condition_numbers(stack), reference, rtol=1e-12, atol=0.0)


def _mpmath_kappa(matrix, mpmath):
    """kappa of the column-normalized matrix, normalized and decomposed at 40 digits."""
    with mpmath.workdps(40):
        m = mpmath.matrix(matrix.tolist())
        for k in range(m.cols):
            norm = mpmath.sqrt(sum(m[r, k] ** 2 for r in range(m.rows)))
            for r in range(m.rows):
                m[r, k] /= norm
        sv = sorted(mpmath.svd_r(m, compute_uv=False), reverse=True)
        return math.inf if sv[2] == 0 else float(sv[0] / sv[2])


def _adversarial_family(name, rng, n=128):
    """(n, 3, 3) raw stacks: the column-normalized U diag(s) V^T with the
    singular values of the family, or exactly repeated columns, times
    column scales from 1e-8 to 1e8."""
    def from_singular_values(s2, s3):
        u = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        v = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        return u @ (np.stack([np.ones(n), s2, s3], axis=-1)[:, :, None] * v.transpose(0, 2, 1))

    if name == "random":
        stack = rng.normal(size=(n, 3, 3))
    elif name == "near_rank2":
        stack = from_singular_values(10.0 ** rng.uniform(-1, 0, n), 10.0 ** rng.uniform(-11, -1, n))
    elif name == "small_sigma2":  # where cofactor det(A) loses most, relative to kappa
        stack = from_singular_values(10.0 ** rng.uniform(-2, -1, n), 10.0 ** rng.uniform(-7, -3, n))
    elif name == "near_rank1":
        stack = from_singular_values(10.0 ** rng.uniform(-9, -3, n), 10.0 ** rng.uniform(-11, -9, n))
    elif name == "near_orthogonal":
        stack = np.eye(3) + 10.0 ** rng.uniform(-10, -1, (n, 1, 1)) * rng.normal(size=(n, 3, 3))
    else:  # exactly rank deficient: a repeated column, every other one of rank 1
        stack = rng.normal(size=(n, 3, 3))
        stack[:, :, 2] = stack[:, :, 0]
        stack[::2, :, 1] = stack[::2, :, 0]
    return normalize_columns(stack, COLUMN_NAMES)[0] * 10.0 ** rng.uniform(-8, 8, (n, 1, 3))


FAMILIES = ["random", "near_rank2", "small_sigma2", "near_rank1", "near_orthogonal", "rank_deficient"]


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_kappa_adversarial_families(family):
    mpmath = pytest.importorskip("mpmath")
    stack = _adversarial_family(family, np.random.default_rng(2026))
    kappa, svd = condition_numbers(stack), _svd_kappa(stack)
    _, trusted = _closed_form_condition_numbers(stack)
    assert trusted.any() == (family not in ("near_rank1", "rank_deficient"))
    reference = np.array([_mpmath_kappa(m, mpmath) for m in stack])
    assert np.array_equal(np.isinf(kappa), np.isinf(svd))
    assert np.array_equal(np.isinf(kappa), reference > 1.0 / RANK_DEFICIENCY_RTOL)
    if family == "rank_deficient":
        assert np.isinf(kappa).all()
    # SVD's own error in kappa is of order eps * kappa; both meet one bound
    finite = np.isfinite(kappa)
    bound = 16.0 * np.finfo(float).eps * reference[finite]
    assert np.all(np.abs(svd[finite] / reference[finite] - 1.0) <= bound)
    assert np.all(np.abs(kappa[finite] / reference[finite] - 1.0) <= bound)


def test_kappa_of_a_matrix_does_not_depend_on_its_stack():
    rng = np.random.default_rng(11)
    stack = np.concatenate([_adversarial_family(f, rng, n=32) for f in FAMILIES])
    kappa = condition_numbers(stack)
    order = rng.permutation(len(stack))
    assert np.array_equal(condition_numbers(stack[order]), kappa[order])
    assert np.array_equal(np.concatenate([condition_numbers(stack[k:k + 1]) for k in range(len(stack))]), kappa)
    for parts in (len(stack) // 2, len(stack) // 5, 7):
        split = np.array_split(stack, parts)
        assert np.array_equal(np.concatenate([condition_numbers(part) for part in split]), kappa)


def _draws_last(stack):
    """The (n, 3, 3) view of a C-contiguous (3, 3, n) copy of a stack."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_kappa_of_a_matrix_does_not_depend_on_its_layout(family):
    stack = _adversarial_family(family, np.random.default_rng(31))
    assert stack.flags.c_contiguous and not _draws_last(stack).flags.c_contiguous
    kappa = condition_numbers(stack)
    assert np.array_equal(condition_numbers(_draws_last(stack)), kappa)
    for k in range(0, len(stack), 9):  # one-matrix stacks
        assert np.array_equal(condition_numbers(_draws_last(stack[k:k + 1])), kappa[k:k + 1])


def _oracle_family(name, rng, n):
    """Raw (n, 3, 3) stacks that reach each branch of the closed form."""
    if name == "nan_rows":  # refused, as normalize_columns refuses them
        stack = rng.normal(size=(n, 3, 3))
        stack[::3, rng.integers(0, 3)] = np.nan
        return stack
    if name == "out_of_range":  # squared column norms from ~1e-300 to ~1e300, every third
        # matrix with orthogonal columns (p = 0): the formulas leave the floating-point range
        stack = rng.normal(size=(n, 3, 3))
        stack[::3] = np.eye(3)[rng.permutation(3)]
        return stack * 10.0 ** rng.uniform(-150, 150, (n, 1, 3))
    if name == "wide":  # columns from 1e-8 to 1e8
        return rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-8, 8, (n, 1, 3))
    if name == "clustered":  # spread p below l2 + l3: l2 - l3 from the sin form
        stack = np.eye(3) + 10.0 ** rng.uniform(-6, -0.5, (n, 1, 1)) * rng.normal(size=(n, 3, 3))
    elif name == "discriminant":  # spread spectra: l2 - l3 from the quadratic's discriminant
        u, v = np.linalg.qr(rng.normal(size=(2, n, 3, 3)))[0]
        s = np.stack([np.ones(n), 10.0 ** rng.uniform(-1, -0.3, n), 10.0 ** rng.uniform(-3, -1.3, n)], -1)
        stack = u @ (s[:, :, None] * v.transpose(0, 2, 1))
    else:  # near rank deficient, outside the trusted region: the SVD decides
        stack = rng.normal(size=(n, 3, 3))
        stack[:, :, 2] = stack[:, :, 0] + 10.0 ** rng.uniform(-16, -9, (n, 1)) * rng.normal(size=(n, 3))
    return stack


# entries of a grid that every draw shares, given as floats; kappa_draws
# shares rows 0 and 1 and entry (2, 2), so its column 2 is all floats
SHARED = {"row 0": [(0, c) for c in range(3)], "rows 0 and 1": [(r, c) for r in (0, 1) for c in range(3)],
          "entry (2, 1)": [(2, 1)], "column 2": [(r, 2) for r in range(3)],
          "as kappa_draws": [(r, c) for r in (0, 1) for c in range(3)] + [(2, 2)]}


def _shared(stack, entries):
    """stack with the given [row][col] entries of its first design repeated
    in every design, and the same designs as a grid, those entries floats
    and the others (n,) arrays."""
    full = stack.copy()
    for r, c in entries:
        full[:, r, c] = stack[0, r, c]
    grid = [[float(full[0, r, c]) if (r, c) in entries else full[:, r, c].copy() for c in range(3)]
            for r in range(3)]
    return full, grid


@pytest.mark.parametrize("n", [1, 5, 4096, 5000])
@pytest.mark.parametrize("family", ["clustered", "discriminant", "near_rank_deficient", "nan_rows",
                                    "out_of_range", "wide"])
def test_closed_form_matches_the_expression_oracle_bit_for_bit(family, n):
    rng = np.random.default_rng([41, n])
    stack = _oracle_family(family, rng, n)
    for layout in (stack, _draws_last(stack)):
        before = layout.copy()
        if family == "nan_rows":
            for kernel in (_closed_form_condition_numbers, reference_closed_form):
                with pytest.raises(NumericalError, match="has a norm outside the floating-point range"):
                    kernel(layout)
            assert np.array_equal(layout, before, equal_nan=True)
            continue
        kappa, trusted = _closed_form_condition_numbers(layout)
        reference_kappa, reference_trusted = reference_closed_form(layout)
        assert np.array_equal(kappa, reference_kappa, equal_nan=True)
        assert np.array_equal(trusted, reference_trusted)
        assert np.array_equal(layout, before, equal_nan=True)  # the input is never written
    # the same designs as grids with shared entries: the full stack's bits, and the oracle's
    for name, entries in SHARED.items():
        full, grid = _shared(stack, entries)
        before = [[np.copy(entry) for entry in row] for row in grid]
        if family == "nan_rows":
            refusals = set()
            for kernel, designs in [(_closed_form_condition_numbers, grid), (_closed_form_condition_numbers, full),
                                    (reference_closed_form, full), (condition_numbers, grid), (condition_numbers, full)]:
                with pytest.raises(NumericalError, match="has a norm outside the floating-point range") as refusal:
                    kernel(designs)
                refusals.add(str(refusal.value))
            assert len(refusals) == 1, name
        else:
            kappa, trusted = _closed_form_condition_numbers(grid)
            for reference_kappa, reference_trusted in (_closed_form_condition_numbers(full), reference_closed_form(full)):
                assert np.array_equal(kappa, reference_kappa, equal_nan=True), name
                assert np.array_equal(trusted, reference_trusted), name
            assert np.array_equal(condition_numbers(grid), condition_numbers(full)), name
        assert all(np.array_equal(entry, kept, equal_nan=True)  # the grid is never written
                   for row, kept_row in zip(grid, before) for entry, kept in zip(row, kept_row)), name


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_a_shared_column_outside_the_closed_form_range_sends_every_draw_to_the_svd(scale):
    # its squared norm, one float, lies outside CLOSED_FORM_SQUARED_NORM_RANGE
    # but inside the floating-point range: nothing is refused and no draw is trusted
    full, grid = _shared(_oracle_family("wide", np.random.default_rng(43), 64), SHARED["column 2"])
    full[:, :, 2] *= scale
    grid = [[entry * scale if c == 2 else entry for c, entry in enumerate(row)] for row in grid]
    kappa, trusted = _closed_form_condition_numbers(grid)
    reference_kappa, reference_trusted = reference_closed_form(full)
    assert not trusted.any() and not reference_trusted.any()
    assert np.array_equal(kappa, reference_kappa, equal_nan=True)
    assert np.array_equal(condition_numbers(grid), _svd_kappa(full))


@pytest.mark.parametrize("grid", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # no (n,) array entry
    [[1.0, 0.0, np.ones(4)], [0.0, 1.0, 0.0]],  # two rows
    [[1.0, 0.0, np.ones(4)], [0.0, 1.0], [0.0, 0.0, 1.0]],  # a row of two entries
    [[1.0, 0.0, np.ones(4)], [0.0, np.ones(5), 0.0], [0.0, 0.0, 1.0]],  # arrays of two lengths
    [[1.0, 0.0, np.ones((4, 1))], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # a 2-d entry
    [1.0, 2.0, 3.0],  # rows that are not sequences
], ids=["all floats", "two rows", "short row", "two lengths", "2-d entry", "flat"])
def test_a_malformed_grid_is_refused_naming_the_grid_contract(grid):
    for kernel in (condition_numbers, _closed_form_condition_numbers):
        with pytest.raises(ValidationError, match=r"3 rows of 3 entries, each a float .* or an \(n,\) array"):
            kernel(grid)


def test_closed_form_matches_the_expression_oracle_on_shipped_draws(mo_chain, coeffs, shipped_designs):
    blocks, _ = shipped_designs(mo_chain, coeffs, 3 * montecarlo.KAPPA_BATCH)
    for stack in blocks:
        kappa, trusted = _closed_form_condition_numbers(stack)
        reference_kappa, reference_trusted = reference_closed_form(stack)
        assert np.array_equal(kappa, reference_kappa) and np.array_equal(trusted, reference_trusted)


_BATCH = montecarlo.KAPPA_BATCH


@pytest.mark.parametrize("samples", [1, 1023, 1025, 4096, 4097, 10_000,
                                     _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + montecarlo.BLOCK_SIZE + 1])
def test_kappa_draws_equal_the_kappa_of_each_draw_alone(mo_chain, coeffs, shipped_designs, samples):
    batches, kappas = shipped_designs(mo_chain, coeffs, samples)
    starts = range(0, samples, montecarlo.KAPPA_BATCH)
    assert [len(b) for b in batches] == [min(montecarlo.KAPPA_BATCH, samples - s) for s in starts]
    draws = np.concatenate(batches)
    # the same draws in stacks composed otherwise: reversed, and interleaved
    # with a fixed matrix, each in a length and layout no batch has
    assert np.array_equal(kappas, condition_numbers(draws[::-1])[::-1])
    interleaved = np.empty((2 * samples, 3, 3))
    interleaved[0::2] = draws
    interleaved[1::2] = np.random.default_rng(3).normal(size=(3, 3))
    assert np.array_equal(kappas, condition_numbers(interleaved)[0::2])
    # a draw that leaves the closed form's trusted region is conditioned alone
    _, trusted = _closed_form_condition_numbers(draws)
    for k in np.flatnonzero(~trusted):
        assert np.array_equal(kappas[k:k + 1], condition_numbers(draws[k:k + 1]))


def test_single_matrices_and_other_shapes_take_the_svd():
    rng = np.random.default_rng(5)
    for shape in [(3, 3), (200, 4, 3), (2, 64, 3, 3)]:
        stack = rng.normal(size=shape)
        assert np.array_equal(condition_numbers(stack), _svd_kappa(stack))
    m = DesignMatrix(rows=tuple((k, "t") for k in range(3)), columns=COLUMN_NAMES,
                     entries=rng.normal(size=(3, 3)))
    assert condition_number(m) == condition_number(precondition(m)) == float(_svd_kappa(m.entries))


def test_non_finite_entries_are_refused_like_normalize_columns():
    for shape in [(64, 3, 3), (64, 4, 3)]:  # the closed form, and the SVD
        for value in (np.nan, np.inf):
            stack = np.random.default_rng(8).normal(size=shape)
            stack[3, 1, 1] = value
            for kernel in (condition_numbers, lambda s: normalize_columns(s, COLUMN_NAMES)):
                with pytest.raises(NumericalError, match="column 'alpha_t_background' has a norm outside"):
                    kernel(stack)


def test_an_all_zero_matrix_is_rank_deficient_without_warning():
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(64, 3, 3))
    stack[[5, 40]] = 0.0
    nonzero = rng.normal(size=(4, 3))
    repeated = nonzero.copy()
    repeated[:, 2] = repeated[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for zero in (np.zeros((3, 3)), np.zeros((4, 3)), stack):
            with pytest.raises(RankDeficiencyError, match="column 'qs_background' is identically zero"):
                condition_numbers(zero)
        assert np.isfinite(condition_numbers(np.delete(stack, [5, 40], axis=0))).all()
        assert condition_numbers(repeated) == np.inf  # sigma_min of the normalized matrix may be 0
        sv = np.linalg.svd(normalize_columns(nonzero, COLUMN_NAMES)[0], compute_uv=False)
        assert condition_numbers(nonzero) == sv[0] / sv[-1]


def test_condition_number_underdetermined_rejected():
    m = DesignMatrix(
        rows=((1, "t"), (2, "t")),
        columns=COLUMN_NAMES,
        entries=np.eye(2, 3),
    )
    with pytest.raises(UnderdeterminedError,
                       match=r"2 equations for 3 unknowns\. With 1 rank-2 transition\(s\) .* N_odd >= 3"):
        condition_number(m)
    # extract refuses on the shape too, before the zero column is looked at
    with pytest.raises(UnderdeterminedError, match="N_odd >= 3"):
        extract(m, np.ones(2), np.ones(2))


def test_condition_number_against_jacobi_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        entries = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-6, 6)
        m = precondition(DesignMatrix(
            rows=tuple((k, "t") for k in range(4)), columns=COLUMN_NAMES, entries=entries,
        ))
        sv = _jacobi_singular_values(m.entries)
        assert condition_number(m) == pytest.approx(sv[0] / sv[-1], rel=1e-10)


def test_condition_number_invariances(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    base = build_design(odd, coeffs.subset(["1s-2p3/2"]))
    kappa = condition_number(precondition(base))
    # column rescaling leaves the preconditioned kappa unchanged
    scaled = DesignMatrix(rows=base.rows, columns=base.columns,
                          entries=base.entries * np.array([1e6, 1e-3, 42.0]))
    assert condition_number(precondition(scaled)) == pytest.approx(kappa, rel=1e-10)
    # column permutation leaves kappa unchanged
    permuted = DesignMatrix(rows=base.rows, columns=base.columns,
                            entries=base.entries[:, [2, 0, 1]])
    assert condition_number(precondition(permuted)) == pytest.approx(kappa, rel=1e-12)


def test_row_addition_keeps_solvable(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    single = build_design(odd, coeffs.subset(["1s-2p3/2"]))
    both = build_design(odd, coeffs)
    k1 = condition_number(precondition(single))
    k2 = condition_number(precondition(both))
    assert math.isfinite(k1) and math.isfinite(k2)


# ---------------------------------------------------------------------------
# extraction

TRUTH = np.array([1e-7, 1e-7, 1.0])


def _noiseless_result(odd, coeffs_used):
    design = build_design(odd, coeffs_used)
    rhs = design.entries @ TRUTH
    sigma = np.full(len(design.rows), 1e-22)
    return extract(precondition(design), rhs, sigma)


def test_noiseless_recovery_all_topologies(mo_chain, frib_chain, coeffs):
    _, odd_stable = partition(mo_chain)
    _, odd_frib = partition(frib_chain)
    cases = [
        (odd_frib, coeffs.subset(["1s-2p3/2"])),   # 3 x 3
        (odd_stable, coeffs),                      # 4 x 3
        (odd_frib, coeffs),                        # 6 x 3
    ]
    for odd, used in cases:
        result = _noiseless_result(odd, used)
        recovered = [v for _, v, _ in result.background_estimates] + [result.alpha_manko_hat]
        for got, want in zip(recovered, TRUTH):
            assert abs(got / want - 1.0) <= 1e-10


def test_underdetermined_stable_pair_refused(mo_chain, coeffs):
    _, odd = partition(mo_chain)
    design = build_design(odd, coeffs.subset(["1s-2p3/2"]))
    rhs = design.entries @ TRUTH
    with pytest.raises(UnderdeterminedError):
        extract(design, rhs, np.full(2, 1e-22))


@pytest.fixture
def cold():
    """The plan memo emptied before and after the test."""
    gkp._plan.cache_clear()
    yield
    gkp._plan.cache_clear()


def _memo() -> tuple[int, int, int]:
    """The plan memo's hits, misses and size."""
    info = gkp._plan.cache_info()
    return info.hits, info.misses, info.currsize


def test_solve_many_preconditions_once(frib_chain, coeffs, monkeypatch, cold):
    # a cold solve preconditions once, and an identical warm one not at all
    calls = []
    monkeypatch.setattr(gkp, "precondition", lambda m: calls.append(m) or precondition(m))
    design = build_design(partition(frib_chain)[1], coeffs)
    gkp.solve_many(design, (design.entries @ TRUTH)[:, None], np.ones(6))
    assert len(calls) == 1
    gkp.solve_many(design, (design.entries @ TRUTH)[:, None], np.ones(6))
    assert len(calls) == 1


def _solved(design, rhs, sigma) -> tuple:
    """solve_many's estimates, errors and kappa as bytes, and extract's
    result on the first trial, whose float reprs round-trip every bit."""
    estimates, errors, kappa = gkp.solve_many(design, rhs, sigma)
    return estimates.tobytes(), errors.tobytes(), np.float64(kappa).tobytes(), repr(extract(design, rhs[:, 0], sigma))


def _noisy(design, seed: int, trials: int = 5):
    """A (rows, trials) rhs around TRUTH and its spread per-row sigma."""
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** rng.uniform(-15.0, -12.0, len(design.rows))
    return (design.entries @ TRUTH)[:, None] + sigma[:, None] * rng.normal(size=(len(design.rows), trials)), sigma


@pytest.mark.parametrize("chain, labels", [("frib_chain", ["1s-2p3/2"]), ("frib_chain", None), ("mo_chain", None)],
                         ids=["frib-one-transition", "frib-two-transitions", "stable-two-transitions"])
def test_a_warm_solve_has_the_bytes_of_a_cold_one(request, coeffs, cold, chain, labels):
    # the stable chain with one transition is underdetermined: see the refusals below
    used = coeffs if labels is None else coeffs.subset(labels)
    raw = build_design(partition(request.getfixturevalue(chain))[1], used)
    rhs, sigma = _noisy(raw, 31)
    for design in (raw, precondition(raw)):  # what a campaign and extract_rows solve
        gkp._plan.cache_clear()
        first = _solved(design, rhs, sigma)
        assert _memo() == (1, 1, 1)  # extract found the plan solve_many built
        assert _solved(design, rhs, sigma) == first
        assert _memo() == (3, 1, 1)


def test_repeated_campaigns_give_equal_reprs(frib_chain, coeffs, cold):
    used, truth = coeffs.subset(["1s-2p3/2"]), {"backgrounds": (1.0, 1.0), "alpha_manko": 0.0}
    runs = [repr(montecarlo.injection_recovery(frib_chain, used, truth, 1e-13, 500, seed)) for seed in (7, 8, 7)]
    assert runs[0] == runs[2] != runs[1]
    assert _memo() == (2, 1, 1)


PLAN_REFUSALS = {
    "underdetermined": ("mo_chain", ["1s-2p3/2"], lambda rows: np.ones(rows), UnderdeterminedError,
                        "2 equations for 3 unknowns"),
    "whitened rank deficient": ("frib_chain", ["1s-2p3/2"], lambda rows: np.array([1e-20, 1.0, 1.0]),
                                RankDeficiencyError, "check the spread of the rhs uncertainties"),
    "whitened overflow": ("frib_chain", ["1s-2p3/2"], lambda rows: np.full(rows, 5e-324), NumericalError,
                          "row-whitened design matrix overflowed"),
    "squared singular values overflow": ("frib_chain", None, lambda rows: np.full(rows, 1e-300), NumericalError,
                                         "overflowed or underflowed"),
    "squared singular values underflow": ("frib_chain", None, lambda rows: np.full(rows, 1e300), NumericalError,
                                          "overflowed or underflowed"),
}


@pytest.mark.parametrize("case", PLAN_REFUSALS)
def test_a_refusal_is_raised_on_every_call_and_never_stored(request, coeffs, cold, case):
    chain, labels, sigma_of, error, message = PLAN_REFUSALS[case]
    used = coeffs if labels is None else coeffs.subset(labels)
    design = build_design(partition(request.getfixturevalue(chain))[1], used)
    sigma = sigma_of(len(design.rows))
    for calls in (1, 2, 3):
        with pytest.raises(error, match=message):
            gkp.solve_many(design, (design.entries @ TRUTH)[:, None], sigma)
        assert _memo() == (0, calls, 0)


def test_rank_deficient_and_zero_column_designs_are_refused_on_every_call(cold):
    rows = ((1, "t"), (2, "t"), (3, "t"))
    degenerate = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
    for entries, error in ((degenerate, RankDeficiencyError), (np.eye(3) * [1.0, 1.0, 0.0], RankDeficiencyError),
                           (np.eye(3) * [1e300, 1.0, 1.0], NumericalError)):
        m = DesignMatrix(rows=rows, columns=COLUMN_NAMES, entries=entries)
        for _ in range(2):
            with pytest.raises(error):
                extract(m, np.ones(3), np.ones(3))
    assert _memo() == (0, 6, 0)


def test_non_finite_estimates_are_refused_on_every_call_from_a_stored_plan(frib_chain, coeffs, cold):
    design = build_design(partition(frib_chain)[1], coeffs.subset(["1s-2p3/2"]))
    for calls in (1, 2):
        with pytest.raises(NumericalError, match="estimates are not finite"):
            gkp.solve_many(design, np.full((3, 1), 1e308), np.full(3, 1e-13))
    assert _memo() == (1, 1, 1)  # the plan holds; only the rhs is out of range


def test_the_plan_memo_holds_no_more_than_its_bound(frib_chain, coeffs, cold):
    assert gkp._plan.cache_info().maxsize == gkp.PLAN_MEMO_SIZE == 32
    design = build_design(partition(frib_chain)[1], coeffs)
    rhs = (design.entries @ TRUTH)[:, None]
    for k in range(gkp.PLAN_MEMO_SIZE + 5):
        gkp.solve_many(design, rhs, np.full(6, 1e-13 * (1 + k)))
        assert _memo()[2] == min(k + 1, gkp.PLAN_MEMO_SIZE)
    gkp.solve_many(design, rhs, np.full(6, 1e-13))  # the least recently used went first
    assert _memo() == (0, gkp.PLAN_MEMO_SIZE + 6, gkp.PLAN_MEMO_SIZE)


def test_writing_to_a_returned_array_cannot_change_a_later_solve(frib_chain, coeffs, cold):
    design = build_design(partition(frib_chain)[1], coeffs)
    rhs, sigma = _noisy(design, 37)
    first = _solved(design, rhs, sigma)
    estimates, errors, _ = gkp.solve_many(design, rhs, sigma)
    estimates[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        errors[:] = 0.0
    given = sigma.copy()
    sigma[:] = 1.0  # the caller's own sigma, rewritten after its solve
    assert _solved(design, rhs, given) == first


def test_new_row_labels_or_one_bit_of_sigma_miss(frib_chain, coeffs, cold):
    design = build_design(partition(frib_chain)[1], coeffs)
    rhs, sigma = _noisy(design, 41)
    first = _solved(design, rhs, sigma)
    relabeled = dataclasses.replace(design, rows=tuple((A, f"{label}'") for A, label in design.rows))
    assert _solved(relabeled, rhs, sigma) == first  # labels enter no arithmetic
    assert _memo() == (2, 2, 2)
    nudged = sigma.copy()
    nudged[0] = np.nextafter(sigma[0], np.inf)
    assert _solved(design, rhs, nudged) != first
    assert _memo() == (3, 3, 3)


def test_solve_many_refuses_an_rhs_stack_of_the_wrong_row_count(frib_chain, coeffs):
    design = build_design(partition(frib_chain)[1], coeffs)
    assert len(design.rows) == 6
    with pytest.raises(ValidationError, match=r"shape \(4, 5\); expected \(6, trials\)"):
        gkp.solve_many(design, np.ones((4, 5)), np.ones(6))


def test_solve_many_refuses_a_one_dimensional_rhs(frib_chain, coeffs):
    design = build_design(partition(frib_chain)[1], coeffs)
    with pytest.raises(ValidationError, match=r"shape \(6,\); expected \(6, trials\)"):
        gkp.solve_many(design, design.entries @ TRUTH, np.ones(6))


def _trials_first_solve(design, rhs_stack, sigma):
    """The solve as first written, over a (trials, rows) stack: y,
    estimates, errors and the residual norms."""
    pre = precondition(design)
    norms = np.asarray(pre.column_norms)
    u, s, vt = np.linalg.svd(pre.entries / sigma[:, None], full_matrices=False)
    y = (((rhs_stack / sigma) @ u) / s) @ vt
    errors = np.sqrt(np.diag(((vt.T / (s * s)) @ vt) / np.outer(norms, norms)))
    residuals = np.linalg.norm(rhs_stack - y @ pre.entries.T, axis=-1)
    return y / norms, errors, residuals


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("labels", [["1s-2p3/2"], None], ids=["3-row", "6-row"])
def test_solve_many_keeps_the_bits_of_the_trials_first_solve(frib_chain, coeffs, labels):
    used = coeffs if labels is None else coeffs.subset(labels)
    design = build_design(partition(frib_chain)[1], used)
    n_rows = len(design.rows)
    rng = np.random.default_rng(23)
    for sigma in (np.full(n_rows, 1e-13), 10.0 ** rng.uniform(-15.0, -12.0, n_rows)):
        for trials in (1, 1023, 1024, 1025, 2000):
            rhs = design.entries @ TRUTH + sigma * rng.normal(size=(trials, n_rows))
            want_estimates, want_errors, _ = _trials_first_solve(design, rhs, sigma)
            # a C-contiguous (rows, trials) stack, and the .T view of trials-first storage
            for stack in (np.ascontiguousarray(rhs.T), rhs.T):
                estimates, errors, _ = gkp.solve_many(design, stack, sigma)
                assert estimates.shape == (3, trials)
                assert _same_bits(estimates, want_estimates.T) and _same_bits(errors, want_errors)
        # one rhs: numpy takes a matrix-vector product, whose bits can differ from a stack's
        want_estimates, want_errors, want_residuals = _trials_first_solve(design, rhs[:1], sigma)
        result = extract(design, rhs[0], sigma)
        assert result.residual_norm_eV == want_residuals[0]
        assert _same_bits(np.array([*(e.value for e in result.background_estimates), result.alpha_manko_hat]),
                          want_estimates[0])
        assert _same_bits(np.array([*(e.se for e in result.background_estimates), result.alpha_manko_se]),
                          want_errors)


@pytest.mark.parametrize("labels", [["1s-2p3/2"], None], ids=["3-row", "6-row"])
def test_a_trial_keeps_its_bits_in_every_stack_of_two_or_more(frib_chain, coeffs, labels):
    # a lone rhs takes numpy's matrix-vector product and is left out: its
    # last bits can differ (extract's docstring)
    used = coeffs if labels is None else coeffs.subset(labels)
    design = build_design(partition(frib_chain)[1], used)
    n_rows = len(design.rows)
    rng = np.random.default_rng(29)
    for sigma in (np.full(n_rows, 1e-13), 10.0 ** rng.uniform(-15.0, -12.0, n_rows)):
        rhs = (design.entries @ TRUTH)[:, None] + sigma[:, None] * rng.normal(size=(n_rows, 2000))
        full_estimates, full_errors, _ = gkp.solve_many(design, rhs, sigma)
        for trials in (2, 3, 1024, 2000):
            for start in (0, (2000 - trials) // 2, 2000 - trials):
                estimates, errors, _ = gkp.solve_many(design, rhs[:, start:start + trials], sigma)
                assert _same_bits(estimates, full_estimates[:, start:start + trials])
                assert _same_bits(errors, full_errors)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-13])
def test_a_non_finite_or_non_positive_sigma_is_refused(frib_chain, coeffs, bad):
    design = build_design(partition(frib_chain)[1], coeffs.subset(["1s-2p3/2"]))
    rhs = design.entries @ TRUTH
    sigma = np.array([bad, 1.0, 1.0])
    with pytest.raises(ValidationError, match="one positive, finite uncertainty per row"):
        gkp.solve_many(design, rhs[:, None], sigma)
    with pytest.raises(ValidationError, match="one positive, finite uncertainty per row"):
        extract(design, rhs, sigma)


def test_extract_refuses_an_rhs_that_is_not_one_value_per_row(frib_chain, coeffs):
    design = build_design(partition(frib_chain)[1], coeffs)
    rhs = design.entries @ TRUTH
    for bad in (rhs[:5], rhs[None, :], np.float64(1.0)):
        with pytest.raises(ValidationError, match=r"expected \(6, trials\)"):
            extract(design, bad, np.ones(6))


def test_extract_rejects_bad_sigma(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    design = build_design(odd, coeffs)
    rhs = design.entries @ TRUTH
    with pytest.raises(ValidationError):
        extract(design, rhs, np.zeros(len(design.rows)))


def test_extract_refuses_overflowing_weights(frib_chain, coeffs):
    # finite rhs, but the whitened singular values overflow when squared,
    # which would report a standard error of 0.0
    _, odd = partition(frib_chain)
    design = build_design(odd, coeffs)
    rhs = design.entries @ TRUTH
    with pytest.raises(NumericalError):
        extract(design, rhs, np.full(len(design.rows), 1e-300))


def test_extract_refuses_an_overflowing_residual_norm():
    # finite estimates, but a residual of 1e200 outside the column space
    # overflows when squared in its norm
    entries = np.vstack([np.eye(3), np.zeros(3)])
    m = DesignMatrix(rows=tuple((k, "t") for k in range(4)), columns=COLUMN_NAMES, entries=entries)
    rhs = np.array([1.0, 2.0, 3.0, 1e200])
    with pytest.raises(NumericalError, match="residual norm is not finite"):
        extract(m, rhs, np.ones(4))
    estimates, errors, kappa = gkp.solve_many(m, rhs[:, None], np.ones(4))
    assert estimates.tolist() == [[1.0], [2.0], [3.0]] and kappa == 1.0


def test_extract_refuses_underflowing_weights(frib_chain, coeffs):
    # the whitened singular values underflow to zero when squared, which
    # would report an infinite standard error
    design = build_design(partition(frib_chain)[1], coeffs)
    rhs = design.entries @ TRUTH
    with pytest.raises(NumericalError, match="overflowed or underflowed"):
        extract(design, rhs, np.full(len(design.rows), 1e300))


def test_extract_refuses_degenerate_directions():
    entries = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
    m = DesignMatrix(rows=((1, "t"), (2, "t"), (3, "t")), columns=COLUMN_NAMES, entries=entries)
    with pytest.raises(RankDeficiencyError):
        extract(m, np.ones(3), np.ones(3))


def test_extract_scaling_invariance(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    design = build_design(odd, coeffs.subset(["1s-2p3/2"]))
    rhs = design.entries @ TRUTH
    sigma = np.full(3, 1e-22)
    base = extract(precondition(design), rhs, sigma)

    scale = np.array([3.7e4, 1.0, 2.2e-6])
    scaled_design = DesignMatrix(rows=design.rows, columns=design.columns,
                                 entries=design.entries * scale)
    scaled = extract(precondition(scaled_design), rhs, sigma)
    # physical estimates compensate the column scaling; kappa unchanged
    assert scaled.condition_number == pytest.approx(base.condition_number, rel=1e-10)
    assert scaled.alpha_manko_hat * scale[2] == pytest.approx(base.alpha_manko_hat, rel=1e-10)
    for (_, v_base, _), (_, v_scaled, _), s in zip(
        base.background_estimates, scaled.background_estimates, scale
    ):
        assert v_scaled * s == pytest.approx(v_base, rel=1e-10)


def test_extract_covariance_tracks_noise_scale(frib_chain, coeffs):
    _, odd = partition(frib_chain)
    design = build_design(odd, coeffs.subset(["1s-2p3/2"]))
    rhs = design.entries @ TRUTH
    small = extract(precondition(design), rhs, np.full(3, 1e-13))
    large = extract(precondition(design), rhs, np.full(3, 2e-13))
    assert large.alpha_manko_se == pytest.approx(2 * small.alpha_manko_se, rel=1e-10)


def test_coefficients_reject_rank2_blind_nonzero():
    from fractions import Fraction
    from gkpforge.gkp import TransitionCoefficients

    with pytest.raises(ValidationError):
        TransitionCoefficients(label="1s-2p1/2", H_eV_per_b=1.0, P_eV_per_wu=0.0,
                               G_eV_per_lever=0.0, upper_j=Fraction(1, 2))
    blind = TransitionCoefficients(label="1s-2p1/2", H_eV_per_b=0.0, P_eV_per_wu=0.0,
                                   G_eV_per_lever=0.0, upper_j=Fraction(1, 2))
    assert not blind.rank2_sensitive()


def test_coefficients_subset_unknown_label(coeffs):
    with pytest.raises(ValidationError):
        coeffs.subset(["no-such-transition"])


def test_alpha_t_uncertainty_quadrature(mo_chain):
    from gkpforge.gkp import EFFECTIVE_BE2_DEFAULT_REL, alpha_t_uncertainty
    from gkpforge.nucdata import IsotopeRecord, Measured
    from fractions import Fraction

    rec95 = mo_chain.isotope(95)  # 8 +/- 1 W.u.
    rel = alpha_t_uncertainty(rec95)
    assert rel == pytest.approx(math.hypot(1.0 / 8.0, 1e-6), rel=1e-12)
    # the tiny factorization error barely moves the knowledge term
    assert rel == pytest.approx(0.125, rel=1e-9)

    # effective/fragmented strength without an explicit sigma falls back
    fallback = IsotopeRecord(A=93, Z=42, spin=Fraction(5, 2), parity=+1,
                             r_ch=Measured(4.32), Qs=Measured(0.1),
                             BE2_up=Measured(10.0, effective=True))
    assert alpha_t_uncertainty(fallback) == pytest.approx(
        math.hypot(EFFECTIVE_BE2_DEFAULT_REL, 1e-6), rel=1e-12
    )

    # factorization error alone when the strength is exactly known
    exact = IsotopeRecord(A=99, Z=42, spin=Fraction(5, 2), parity=+1,
                          r_ch=Measured(4.34), Qs=Measured(0.2), BE2_up=Measured(9.0))
    assert alpha_t_uncertainty(exact) == pytest.approx(1e-6, rel=1e-12)

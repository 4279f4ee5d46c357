"""Topology counting for the rank-2 extraction.

One experimental configuration gives N_odd x N_trans equations for
N_bkg + 1 unknown amplitudes (the backgrounds plus the gravitomagnetic
term). Counting is closed-form and needs no linear algebra; the rank of
an actual design matrix is checked in `gkp`. No other layer is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["Topology", "solvable", "solvability_verdict", "solvability_table"]


@dataclass(frozen=True)
class Topology:
    """Counting summary of one experimental configuration."""

    N_ee: int
    N_odd: int
    N_trans_rank2: int

    def __post_init__(self):
        if min(self.N_ee, self.N_odd, self.N_trans_rank2) < 0:
            raise ValidationError("topology counts must be non-negative")


def solvable(top: Topology, N_bkg: int = 2) -> tuple[bool, int, int]:
    """Counting solvability of the rank-2 extraction.

    n_equations = N_odd x N_trans, n_unknowns = N_bkg + 1. This is a
    necessary counting condition only; actual rank is verified on the
    design matrix.
    """
    if N_bkg < 0:
        raise ValidationError(f"N_bkg must be non-negative, got {N_bkg}")
    n_equations = top.N_odd * top.N_trans_rank2
    n_unknowns = N_bkg + 1
    ok = n_equations >= n_unknowns and top.N_odd >= 1 and top.N_trans_rank2 >= 1
    return ok, n_equations, n_unknowns


def solvability_verdict(top: Topology, N_bkg: int = 2) -> str:
    """Human-readable verdict, e.g. "Yes (3 = 3)" or "No (2 < 3)"."""
    ok, n_eq, n_unk = solvable(top, N_bkg)
    if not ok:
        return f"No ({n_eq} < {n_unk})"
    if n_eq == n_unk:
        return f"Yes ({n_eq} = {n_unk})"
    if n_eq >= 2 * n_unk:
        return f"Yes ({n_eq} ≫ {n_unk})"
    return f"Yes ({n_eq} > {n_unk})"


def _row(top: Topology, N_bkg: int) -> dict:
    """One topology's counts, counting solvability and verdict as a report row."""
    ok, n_eq, n_unk = solvable(top, N_bkg)
    return {**vars(top), "solvable": ok, "n_equations": n_eq, "n_unknowns": n_unk,
            "verdict": solvability_verdict(top, N_bkg)}


def solvability_table(chain, add_isotopes, N_trans: int, N_bkg: int) -> dict:
    """The solvability report but its manifest: four reference topologies
    over the chain's stable odd isotopes, then the selected one over every
    odd isotope and add_isotopes, each of which must add one odd isotope.
    The chain is read through its records' A, is_even_even and stable, its
    Z and its reference_A, which N_ee leaves out."""
    counted = {r.A for r in chain.records}
    for A in add_isotopes:
        if A < chain.Z:
            why = f"is below Z={chain.Z}, which would mean a negative neutron number"
        elif A % 2 == chain.Z % 2 == 0:
            why = "is even-even and adds no rank-2 equation"
        elif A in counted:
            why = "is already counted"
        else:
            counted.add(A)
            continue
        raise ValidationError(f"--add-isotope {A}: A={A} {why}")
    odd = [r for r in chain.records if not r.is_even_even]
    n_ee = sum(r.is_even_even and r.A != chain.reference_A for r in chain.records)
    n_odd_stable = sum(r.stable for r in odd)
    reference = {"Stable, 1 trans.": (0, 1), "+ FRIB 91Mo": (1, 1), "Stable, 2 trans.": (0, 2),
                 "+ FRIB + 2 trans.": (1, 2)}  # label: (odd isotopes added, transitions)
    rows = [{"label": label, **_row(Topology(n_ee, n_odd_stable + frib, n_trans), N_bkg)}
            for label, (frib, n_trans) in reference.items()]
    selected = dict(_row(Topology(n_ee, len(odd) + len(add_isotopes), N_trans), N_bkg), N_bkg=N_bkg)
    return {"topologies": rows, "selected": selected}

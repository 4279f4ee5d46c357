"""Topology counting for the rank-2 extraction.

One experimental configuration gives N_odd x N_trans equations for
N_bkg + 1 unknown amplitudes (the backgrounds plus the gravitomagnetic
term). Counting is closed-form and needs no linear algebra; the rank of
an actual design matrix is checked in `gkp`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["Topology", "solvable", "solvability_verdict"]


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

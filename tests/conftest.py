from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import gkpforge.montecarlo as montecarlo
from gkpforge.barriers import load_anchors
from gkpforge.gkp import condition_numbers, load_coefficients
from gkpforge.montecarlo import load_sampling_spec
from gkpforge.nucdata import load_bundled_chain


@pytest.fixture(scope="session")
def mo_chain():
    return load_bundled_chain("mo-chain-v1")


@pytest.fixture(scope="session")
def frib_chain():
    return load_bundled_chain("mo-chain-frib-synthetic-v1")


@pytest.fixture(scope="session")
def anchors():
    return load_anchors("mo41-anchors-v1")


@pytest.fixture(scope="session")
def coeffs():
    return load_coefficients("mo41-coeffs-v1")


@pytest.fixture(scope="session")
def sampling_spec():
    return load_sampling_spec("mo91-sampling-v1")


def full_designs(grid) -> np.ndarray:
    """The (n, 3, 3) stack of a condition_numbers grid, each shared float
    repeated in every draw."""
    return np.stack(np.broadcast_arrays(*(entry for row in grid for entry in row)), axis=-1).reshape(-1, 3, 3)


@pytest.fixture
def shipped_designs():
    """shipped_designs(chain, coeffs, sample_count=None) runs kappa_draws on
    the shipped sampling spec and returns its kappas and, one per
    condition_numbers call, the full (batch, 3, 3) designs it conditions."""
    def run(chain, coeffs, sample_count=None):
        blocks = []

        def record(grid):
            blocks.append(full_designs(grid))
            return condition_numbers(grid)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "condition_numbers", record)
            spec = load_sampling_spec("mo91-sampling-v1")
            if sample_count is not None:
                spec = dataclasses.replace(spec, sample_count=sample_count)
            kappas, _ = montecarlo.kappa_draws(chain, coeffs, spec)
        return blocks, kappas
    return run

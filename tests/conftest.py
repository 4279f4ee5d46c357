from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gkpforge.montecarlo as montecarlo
from gkpforge.barriers import load_anchors
from gkpforge.cli import ENV_TIMESTAMP
from gkpforge.gkp import condition_numbers, load_coefficients
from gkpforge.montecarlo import load_sampling_spec
from gkpforge.nucdata import chain_to_csv, load_bundled_chain
from gkpforge.resources import resource_path
from golden_cases import TIMESTAMP


@pytest.fixture
def pinned_timestamp(monkeypatch):
    """Every report dated TIMESTAMP, as the golden reports are."""
    monkeypatch.setenv(ENV_TIMESTAMP, TIMESTAMP)


@pytest.fixture
def edited(tmp_path):
    """edited(source, edit) writes a copy of a JSON data file, a bundled
    resource name or a path, with edit(obj) applied to its parsed object;
    edited(chain, edit, as_csv=True) writes the chain as CSV with
    edit(header, data rows) applied to its cells. Either returns the path
    written in tmp_path, named as the source is."""
    def write(source: str | Path, edit, as_csv: bool = False) -> Path:
        path = resource_path(str(source))
        if as_csv:
            header, *rows = [line.split(",") for line in chain_to_csv(load_bundled_chain(path)).splitlines()]
            edit(header, rows)
            text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
            path = path.with_suffix(".csv")
        else:
            obj = json.loads(path.read_text(encoding="utf-8"))
            edit(obj)
            text = json.dumps(obj)
        written = tmp_path / path.name
        written.write_text(text, encoding="utf-8")
        return written
    return write


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

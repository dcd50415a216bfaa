"""Every preset of every registered experiment expands to pinned cells.

``tests/test_report_bytes.py`` pins the ``smoke`` reports; this file pins the
grids of all four presets without running them.  For each registered name and
preset, at seed 2003 with one seed and with three seeds, the ordered
``key fingerprint`` lines of ``experiment.cells(seeds)`` hash to the digest in
``tests/fixtures/preset_cells.json``.  A preset whose configuration moves by
one value moves its fingerprints, and so fails here.

The fixture changes only when a preset is meant to change.  Regenerate it with
``python tests/api/test_preset_cells.py`` and say why in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import PRESETS, get_experiment, list_experiments
from repro.runner import seed_range

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "preset_cells.json"

SEED = 2003
SEED_SHAPES = {"one-seed": None, "three-seeds": seed_range(SEED, 3)}


def cells_digest(name: str, preset: str, seeds) -> str:
    """SHA-256 of the experiment's ordered cell keys and fingerprints."""
    cells = get_experiment(name, preset=preset, seed=SEED).cells(seeds)
    lines = "".join(f"{cell.key} {cell.fingerprint()}\n" for cell in cells)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def current_digests():
    return {
        name: {
            preset: {
                shape: cells_digest(name, preset, seeds) for shape, seeds in SEED_SHAPES.items()
            }
            for preset in PRESETS
        }
        for name in list_experiments()
    }


PINNED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_registered_experiment():
    assert sorted(PINNED) == list_experiments()
    for name, presets in PINNED.items():
        assert sorted(presets) == sorted(PRESETS), name
        for preset, shapes in presets.items():
            assert sorted(shapes) == sorted(SEED_SHAPES), (name, preset)


@pytest.mark.parametrize("name", list_experiments())
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("shape", sorted(SEED_SHAPES))
def test_preset_cells_are_pinned(name, preset, shape):
    assert cells_digest(name, preset, SEED_SHAPES[shape]) == PINNED[name][preset][shape]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")

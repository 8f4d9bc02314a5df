"""Every scheme's bits, blobs and records stay exactly as recorded.

``tests/data/scheme_goldens.json`` is written by
``tests/make_scheme_goldens.py`` and never edited by hand.  These tests
recompute every entry, one (n, seed) group at a time, so any change to
one encoded bit, one packed byte or one delivery record fails here.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import pytest

from tests.make_scheme_goldens import (
    GOLDENS_PATH,
    Cell,
    compute_entry,
    entry_key,
    grid,
)

GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def _groups() -> Dict[Tuple[int, int], List[Cell]]:
    groups: Dict[Tuple[int, int], List[Cell]] = {}
    for cell in grid():
        groups.setdefault((cell[2], cell[3]), []).append(cell)
    return groups


GROUPS = _groups()


def test_file_covers_exactly_the_grid():
    assert sorted(GOLDENS) == sorted(entry_key(cell) for cell in grid())


@pytest.mark.parametrize(
    "group", sorted(GROUPS), ids=lambda g: f"n{g[0]}-seed{g[1]}"
)
def test_entries_match_goldens(group):
    mismatched = {}
    for cell in GROUPS[group]:
        key = entry_key(cell)
        fresh = compute_entry(cell)
        if fresh != GOLDENS[key]:
            mismatched[key] = {"golden": GOLDENS[key], "fresh": fresh}
    assert not mismatched, json.dumps(mismatched, indent=1, sort_keys=True)

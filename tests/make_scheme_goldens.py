"""Write ``tests/data/scheme_goldens.json``: bit-exact behaviour goldens.

Every registered routing scheme is built on fixed seeded graphs and four
of its outputs are pinned:

* ``total_bits`` — ``space_report().total_bits``;
* ``pack_sha256`` — sha256 of ``pack_scheme(scheme)``;
* ``pack_crc16_sha256`` — sha256 of
  ``pack_scheme(IntegrityWrapper(scheme, FramingPolicy.CRC16))``;
* ``records_sha256`` — sha256 over every ``DeliveryRecord`` field of a
  fixed batch of uniform pairs, all injected at t=0, retries off.

A (scheme, model) pair that `build_scheme` refuses records the error
class instead, so a pair that starts (or stops) building fails the test
too.  The grid:

* n=64, n=128 and n=256, seeds 0 and 1: every scheme under every one
  of the nine models.

The graph is ``gnp_random_graph(n, seed)``, except that
``chain-comparison`` (which builds only on a chain) gets ``path_graph(n)``.

The output file is never edited by hand; regenerate it from the repo root
with::

    PYTHONPATH=src python tests/make_scheme_goldens.py

``tests/test_scheme_goldens.py`` recomputes every entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core import available_schemes, build_scheme, pack_scheme
from repro.errors import ReproError
from repro.graphs import LabeledGraph, gnp_random_graph, path_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import RoutingModel, all_models
from repro.simulator import BatchKernel, DeliveryRecord

GOLDENS_PATH = pathlib.Path(__file__).resolve().parent / "data" / "scheme_goldens.json"

SEEDS = (0, 1)
BATCH_MESSAGES = 256

Cell = Tuple[str, RoutingModel, int, int]
"""(scheme name, model, n, seed): one entry of the grid."""


def model_key(model: RoutingModel) -> str:
    """``II-alpha``-style text for a model (stable, ASCII)."""
    return f"{model.knowledge.value}-{model.labeling.value}"


def entry_key(cell: Cell) -> str:
    """The JSON key of one grid cell."""
    name, model, n, seed = cell
    return f"{name}|{model_key(model)}|n={n}|seed={seed}"


def grid() -> Iterator[Cell]:
    """Every cell, in file order."""
    for n in (64, 128, 256):
        for seed in SEEDS:
            for name in available_schemes():
                for model in all_models():
                    yield name, model, n, seed


def graph_for(name: str, n: int, seed: int) -> LabeledGraph:
    """The graph a cell builds on."""
    if name == "chain-comparison":
        return path_graph(n)
    return gnp_random_graph(n, seed=seed)


def batch_pairs(n: int, seed: int) -> List[Tuple[int, int]]:
    """The fixed batch: uniform ordered pairs of distinct nodes."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(1, n + 1, size=BATCH_MESSAGES)
    targets = rng.integers(1, n, size=BATCH_MESSAGES)
    targets += targets >= sources
    return list(zip(sources.tolist(), targets.tolist()))


def record_digest(records: Sequence[DeliveryRecord]) -> str:
    """SHA-256 over every record's fields, in row order.

    Defined here rather than imported from the simulator's helpers, so a
    change under test cannot redefine the check.
    """
    hasher = hashlib.sha256()
    for r in records:
        hasher.update(repr((
            r.msg_id, r.source, r.destination, r.delivered, r.hops, r.path,
            r.latency, None if r.drop_reason is None else r.drop_reason.name,
            r.drop_detail, r.retries, r.injected_at, r.completed_at, r.stale,
        )).encode())
    return hasher.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_entry(cell: Cell) -> Dict[str, Any]:
    """The golden values of one cell (or the class of its build refusal)."""
    name, model, n, seed = cell
    graph = graph_for(name, n, seed)
    try:
        scheme = build_scheme(name, graph, model)
    except ReproError as exc:
        return {"error": type(exc).__name__}
    kernel = BatchKernel(scheme)
    for source, target in batch_pairs(n, seed):
        kernel.inject(source, target, 0.0)
    return {
        "total_bits": scheme.space_report().total_bits,
        "pack_sha256": sha256(pack_scheme(scheme)),
        "pack_crc16_sha256": sha256(
            pack_scheme(IntegrityWrapper(scheme, FramingPolicy.CRC16))
        ),
        "records_sha256": record_digest(kernel.run()),
    }


def compute_goldens() -> Dict[str, Dict[str, Any]]:
    """Every cell's entry, keyed by :func:`entry_key`."""
    return {entry_key(cell): compute_entry(cell) for cell in grid()}


def render(goldens: Dict[str, Dict[str, Any]]) -> str:
    """The file's exact text."""
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=GOLDENS_PATH)
    args = parser.parse_args(list(argv))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(render(compute_goldens()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Campaign documents for the benchmark's three workloads.

Every trial document the benchmark runs is generated here, as plain
JSON-shaped campaign documents.  The program only ever receives these
documents: ``--seed`` is turned into per-trial ``workload.seed``
values for ``random-serve`` and never reaches the program itself.  The
two burst workloads are fixed grids and ignore the seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

WORKLOADS = ("burst-batch", "burst-fast", "random-serve")

#: The reference burst grid: ``workload.count = 1..300`` on three
#: nodes, 45,150 transactions in all.
BURST_COUNTS = list(range(1, 301))
BURST_PAYLOAD_HEX = "0001020304050607"

#: ``random-serve``: 200 trials of 150 seeded random messages each.
RANDOM_TRIALS = 200
RANDOM_COUNT = 150

#: Small burst trials the correctness gate also runs on the
#: edge-accurate engine (the golden reference), which is too slow
#: for the full grid.
EDGE_BURST_COUNTS = (1, 2, 3, 5, 8)

#: Campaign backends each workload submits, in submission order.
BACKENDS = {
    "burst-batch": ("batch",),
    "burst-fast": ("fast",),
    "random-serve": ("fast", "batch"),
}

#: Trials run in the campaign server's process pool.
POOL_WORKERS = 2


def _node(name: str, prefix: int, mediator: bool = False) -> Dict:
    return {"name": name, "short_prefix": prefix, "is_mediator": mediator}


def burst_system() -> Dict:
    return {
        "name": "burst-3node",
        "clock_hz": 400_000.0,
        "nodes": [_node("m", 0x1, True), _node("a", 0x2), _node("b", 0x3)],
    }


def burst_workload(count: int = 1) -> Dict:
    return {
        "kind": "burst",
        "source": "m",
        "dest": {"short_prefix": 0x2, "full_prefix": None, "fu_id": 0},
        "payload": BURST_PAYLOAD_HEX,
        "count": count,
    }


def burst_campaign(backend: str) -> Dict:
    return {
        "name": f"burst-{backend}",
        "system": burst_system(),
        "workload": burst_workload(),
        "grid": {"workload.count": list(BURST_COUNTS)},
        "backend": backend,
    }


def trial_seeds(seed: int) -> List[int]:
    """``RANDOM_TRIALS`` distinct workload seeds, a pure function of
    the benchmark seed."""
    return [
        int.from_bytes(
            hashlib.sha256(f"random-serve:{seed}:{i}".encode()).digest()[:8],
            "big",
        )
        for i in range(RANDOM_TRIALS)
    ]


def random_campaign(backend: str, seed: int) -> Dict:
    nodes = [_node("m", 0x1, True)] + [
        _node(f"n{i}", 0x2 + i) for i in range(7)
    ]
    return {
        "name": f"random-{backend}",
        "system": {"name": "random-8node", "clock_hz": 400_000.0,
                   "nodes": nodes},
        "workload": {
            "kind": "random",
            "seed": 0,
            "count": RANDOM_COUNT,
            "mean_gap_s": 0.0005,
            "min_bytes": 1,
            "max_bytes": 16,
        },
        "grid": {"workload.seed": trial_seeds(seed)},
        "backend": backend,
    }


def campaigns(workload: str, seed: int) -> List[Dict]:
    """The campaign documents ``workload`` runs, one per backend."""
    if workload == "random-serve":
        return [random_campaign(b, seed) for b in BACKENDS[workload]]
    return [burst_campaign(b) for b in BACKENDS[workload]]


def other_tier(workload: str) -> List[Dict]:
    """The same trials on the other simulation tier, which the gate
    compares record by record (empty when the workload runs both)."""
    if workload == "burst-batch":
        return [burst_campaign("fast")]
    if workload == "burst-fast":
        return [burst_campaign("batch")]
    return []


def expected_transactions(params: Dict) -> int:
    """Transactions a trial must complete, from its grid point."""
    return int(params.get("workload.count", RANDOM_COUNT))

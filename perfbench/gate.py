"""The benchmark's correctness gate.

Every check returns a list of problem strings; an empty list passes.
A benchmark run with any problem reports ``"correct": false`` and
exits non-zero.  The checks:

* records of the same trial on two simulation tiers are identical
  except for the fields naming the tier (``tier_problems``);
* every trial succeeded with ``n_ok == n_transactions ==`` the
  requested count (``count_problems``);
* a cached pass executed nothing and returned records equal, as
  documents, to the cold pass's (``cached_problems``);
* small burst trials on the edge-accurate engine show no divergence
  from the fast and batch tiers under ``repro.diffcheck.diff_reports``
  (``edge_problems``).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Sequence

#: Fields that legitimately differ between tiers: the trial key hashes
#: the backend name, and the record names its backend twice.
TIER_FIELDS = ("key", "backend")


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def tier_free(record: Dict) -> str:
    """``record`` without the fields that name its tier, canonical."""
    doc = {k: v for k, v in record.items() if k not in TIER_FIELDS}
    report = doc.get("report")
    if isinstance(report, dict):
        doc["report"] = {k: v for k, v in report.items() if k != "backend"}
    return canonical(doc)


def _by_params(records: Iterable[Dict]) -> Dict[str, Dict]:
    return {canonical(record.get("params")): record for record in records}


def _by_key(records: Iterable[Dict]) -> Dict[str, Dict]:
    return {record.get("key"): record for record in records}


def tier_problems(
    left: Sequence[Dict], right: Sequence[Dict], label: str
) -> List[str]:
    """Records of one grid on two tiers, matched by grid point."""
    a, b = _by_params(left), _by_params(right)
    if set(a) != set(b):
        return [f"{label}: the two tiers resolved different grid points"]
    problems = []
    for point in sorted(a):
        if tier_free(a[point]) != tier_free(b[point]):
            problems.append(f"{label}: records differ at {point}")
    return problems


def count_problems(
    records: Iterable[Dict], expected: Callable[[Dict], int], label: str
) -> List[str]:
    problems = []
    for record in records:
        report = record.get("report") or {}
        want = expected(record.get("params") or {})
        got = (report.get("n_ok"), report.get("n_transactions"))
        if record.get("outcome") != "ok" or got != (want, want):
            problems.append(
                f"{label}: trial {canonical(record.get('params'))} "
                f"outcome={record.get('outcome')!r} (n_ok, n_transactions)"
                f"={got}, want {want}"
            )
    return problems


def cached_problems(
    cold: Sequence[Dict], cached: Sequence[Dict], executed: int, label: str
) -> List[str]:
    problems = []
    if executed:
        problems.append(f"{label}: cached pass executed {executed} trial(s)")
    if len(cold) != len(cached) or _by_key(cold) != _by_key(cached):
        problems.append(f"{label}: cached records differ from the cold pass")
    return problems


def edge_problems(counts: Iterable[int]) -> List[str]:
    """Small burst trials: edge vs fast and edge vs batch."""
    from repro.diffcheck import diff_reports
    from repro.scenario import run
    from repro.scenario.spec import SystemSpec
    from repro.scenario.workload import workload_from_dict

    from workloads import burst_system, burst_workload

    spec = SystemSpec.from_dict(burst_system())
    problems = []
    for count in counts:
        workload = workload_from_dict(burst_workload(count))
        edge = run(spec, workload, backend="edge")
        for backend in ("fast", "batch"):
            other = run(spec, workload, backend=backend)
            for divergence in diff_reports(edge, other):
                problems.append(
                    f"edge vs {backend}, burst count {count}: {divergence}"
                )
    return problems

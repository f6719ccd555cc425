"""Trials: the compiled, content-addressed unit of campaign work.

A :class:`Trial` is one fully-resolved experiment: plain JSON
documents for the topology (``spec_doc``), traffic (``workload_doc``)
and adversity (``faults_doc``), plus the requested backend and
timeout.  Compiling campaigns down to documents *before* execution is
what buys every property the campaign layer promises:

* **determinism / order independence** — executing a trial is a pure
  function of its documents (workload and fault factories already ran
  in the parent, seeds and all), so serial, process-parallel and
  shuffled executions produce identical records;
* **parallelism** — documents pickle trivially across process
  boundaries; no simulator state, factory closure or live object
  ever crosses;
* **memoisation** — :attr:`Trial.key` is a SHA-256 over the canonical
  JSON of the spec/workload/faults/backend documents, giving the
  :class:`~repro.campaign.store.ResultStore` a content address that
  survives interpreter restarts and is insensitive to dict ordering.

The executed outcome is a *record*: a JSON document holding the
trial's key, parameters and the :meth:`RunReport.to_dict` report with
its ``wall_s`` / ``wall_throughput_tps`` fields removed (wall-clock
noise must never enter a content-addressed record — two byte-identical
runs would otherwise hash the weather of the host machine).  Wall time is reported
separately, per execution, on the
:class:`~repro.campaign.resultset.TrialResult`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.schema import REPORT_SCHEMA_VERSION


def canonical_json(document: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    The single serialisation used for hashing, store lines and
    byte-identity comparisons, so "equal documents" and "equal bytes"
    are the same statement.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def derive_trial_seed(campaign_seed: int, point: Dict[str, Any]) -> int:
    """A per-trial seed that is a pure function of (campaign seed,
    grid point) — stable across interpreters, processes and execution
    order (unlike ``hash()``, which is salted per process)."""
    digest = hashlib.sha256(
        canonical_json([campaign_seed, point]).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Trial:
    """One fully-resolved experiment, ready to execute anywhere."""

    index: int
    params: Dict[str, Any]
    spec_doc: Dict
    workload_doc: Dict
    faults_doc: Optional[Dict] = None
    backend: str = "auto"
    timeout_s: Optional[float] = None
    #: Per-trial wall-clock budget (host seconds).  Execution policy,
    #: not content: two trials differing only in their wall budget are
    #: the same experiment, so this field never enters :attr:`key`.
    wall_timeout_s: Optional[float] = None

    @functools.cached_property
    def key(self) -> str:
        """Content address: SHA-256 of the canonical trial documents.

        ``params`` are deliberately excluded — they are provenance
        (how the grid named this point), not content; two grids that
        compile to the same documents share one cache entry.
        ``wall_timeout_s`` is excluded for the same reason: a
        wall-clock budget is how the trial is *executed*, not what it
        *is*.
        """
        return hashlib.sha256(
            canonical_json(
                {
                    "spec": self.spec_doc,
                    "workload": self.workload_doc,
                    "faults": self.faults_doc,
                    "backend": self.backend,
                    "timeout_s": self.timeout_s,
                }
            ).encode()
        ).hexdigest()

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "params": dict(self.params),
            "spec": self.spec_doc,
            "workload": self.workload_doc,
            "faults": self.faults_doc,
            "backend": self.backend,
            "timeout_s": self.timeout_s,
            "wall_timeout_s": self.wall_timeout_s,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Trial":
        return cls(
            index=data["index"],
            params=data["params"],
            spec_doc=data["spec"],
            workload_doc=data["workload"],
            faults_doc=data.get("faults"),
            backend=data.get("backend", "auto"),
            timeout_s=data.get("timeout_s"),
            wall_timeout_s=data.get("wall_timeout_s"),
        )


def trial_record(trial: Trial, report_doc: Dict) -> Dict:
    """The store record for one executed trial.

    ``report_doc`` is :meth:`RunReport.to_dict` output; its
    ``wall_s`` is dropped so the record is a pure function of the
    trial documents (the byte-identity contract tested by
    ``tests/integration/test_campaign.py``).
    """
    doc = dict(report_doc)
    doc.pop("wall_s", None)
    doc.pop("wall_throughput_tps", None)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "key": trial.key,
        "params": dict(trial.params),
        "backend": doc.get("backend"),
        "outcome": "ok",
        "report": doc,
    }


def record_line(record: Dict, transactions_json: Optional[str] = None) -> str:
    """``canonical_json(record)``, composed over the record's sorted
    keys with ``transactions_json`` spliced in as the already-encoded
    ``report.transactions`` array (a batch report's
    :meth:`~repro.scenario.runner.RunReport.transactions_json`).

    Canonical JSON of a dict is the sorted ``key:value`` encodings
    joined by commas, so the composed line is byte-identical to
    encoding the whole record.  Without a fragment this is
    ``canonical_json(record)``.
    """
    if transactions_json is None:
        return canonical_json(record)
    report = _splice(record["report"], "transactions", transactions_json)
    return _splice(record, "report", report)


def _splice(document: Dict, name: str, encoded: str) -> str:
    """Canonical JSON of ``document`` with ``document[name]`` taken
    as the already-encoded ``encoded``: the keys sorting before and
    after ``name`` are encoded as two objects, and their braces
    dropped around the spliced member."""
    keys = sorted(document)
    at = keys.index(name)
    before = canonical_json({key: document[key] for key in keys[:at]})
    after = canonical_json({key: document[key] for key in keys[at + 1:]})
    member = canonical_json(name) + ":" + encoded
    return (
        before[:-1] + ("," if at else "") + member
        + ("," if at + 1 < len(keys) else "") + after[1:]
    )


def execute_trial(
    trial: Trial,
    setup: Optional[Callable] = None,
    trace: bool = False,
) -> Tuple[Dict, float, Any]:
    """Run one trial in this process.

    Returns ``(record, wall_s, report)`` — the JSON record for the
    store, the wall-clock cost of this execution, and the live
    :class:`~repro.scenario.runner.RunReport` (for
    ``keep_reports=True`` serial runs; never sent across process
    boundaries, it holds the unpicklable simulator).
    """
    from repro.faults.primitives import FaultSpec
    from repro.scenario.runner import run
    from repro.scenario.spec import SystemSpec
    from repro.scenario.workload import workload_from_dict

    spec = SystemSpec.from_dict(trial.spec_doc)
    workload = workload_from_dict(trial.workload_doc)
    faults = (
        None
        if trial.faults_doc is None
        else FaultSpec.from_dict(trial.faults_doc)
    )
    report = run(
        spec,
        workload,
        backend=trial.backend,
        trace=trace,
        timeout_s=trial.timeout_s,
        setup=setup,
        faults=faults,
        wall_timeout_s=trial.wall_timeout_s,
    )
    return trial_record(trial, report.to_dict()), report.wall_s, report


def run_trial_document(trial_doc: Dict) -> Tuple[int, Dict, float]:
    """Process-pool entry point: execute a trial shipped as a dict.

    Module-level (picklable by reference) and document-in /
    document-out, so the only things crossing the process boundary
    are JSON-shaped.
    """
    trial = Trial.from_dict(trial_doc)
    record, wall_s, _report = execute_trial(trial)
    return trial.index, record, wall_s


def patch_document(document: Any, path: str, value: Any, what: str) -> None:
    """Set ``path`` (dotted, with integer segments indexing lists) in
    a JSON document in place — the mechanism behind ``workload.*`` /
    ``faults.*`` / ``system.*`` grid axes.

    Only *existing* dict keys may be patched: a typo in an axis name
    must fail compilation, not silently sweep nothing.
    """
    parts = path.split(".")
    target = document
    trail = what
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(target, list):
            try:
                index = int(part)
            except ValueError:
                raise ConfigurationError(
                    f"{trail} is a list; {part!r} is not an index"
                ) from None
            if not -len(target) <= index < len(target):
                raise ConfigurationError(
                    f"{trail} has {len(target)} entries; "
                    f"index {index} is out of range"
                )
            if last:
                target[index] = value
            else:
                target = target[index]
        elif isinstance(target, dict):
            if part not in target:
                raise ConfigurationError(
                    f"{trail} has no field {part!r} "
                    f"(existing: {', '.join(sorted(map(str, target)))})"
                )
            if last:
                target[part] = value
            else:
                target = target[part]
        else:
            raise ConfigurationError(
                f"{trail} is a {type(target).__name__}; cannot descend "
                f"into {part!r}"
            )
        trail = f"{trail}.{part}"

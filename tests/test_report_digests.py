"""The seed-1 benchmark reports are pinned byte for byte.

Each digest is the sha256 of a workload's serialized reports joined in
job order, the ``reports_sha256`` that ``perfbench/worker.py`` prints.
A change that is meant to leave reports alone (a speedup, a refactor)
must keep every digest; a change that alters reports on purpose updates
the pin here and says which reports moved and why.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from genbs.cli import JobSpec, run_command, serialize_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import corpus
finally:
    sys.path.pop(0)

SEED1_REPORTS_SHA256 = {
    "curves": "91d78e189fb080b17f39ccc98490cacf3365497be2ea7a6e608cdc099fc17103",
    "ideals": "78500792b0358964c1d972fb11914b141bff8a7ff3f53a7a80da3dc2a6ee9c33",
    "families": "e7cc26fd747fe9d6159658bed815db751332e2982fe35aba41105eb0d4b62cd1",
}


@pytest.mark.parametrize("workload", sorted(SEED1_REPORTS_SHA256))
def test_seed1_reports_are_pinned(workload):
    texts = []
    for inst in corpus.workload(workload, 1):
        report, _ = run_command(JobSpec(**inst.spec_fields()))
        texts.append(serialize_report(report))
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    assert digest == SEED1_REPORTS_SHA256[workload]

"""The benchmark reports of seeds 1-3 are pinned byte for byte.

Each digest is the sha256 of a workload's serialized reports joined in
job order, the ``reports_sha256`` that ``perfbench/worker.py`` prints.
A change that is meant to leave reports alone (a speedup, a refactor)
must keep every digest; a change that alters reports on purpose updates
the pin here and says which reports moved and why.

The ideals pin moved when ``factor`` began taking the content along every
variable: the rationality reports of ``xy_x``, ``tangent`` and
``x_circle`` now list a certified ``s1 + 1`` (root -1) split off their
uncertified piece in s1 and s2.
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
    "ideals": "1e850cd56c9cc5abea66e8196ca651aa682800876ba82f09218dd5be552afe0a",
    "families": "e7cc26fd747fe9d6159658bed815db751332e2982fe35aba41105eb0d4b62cd1",
}

# seeds 2 and 3 draw the same jobs in another order, with other scalings
LATER_SEEDS_REPORTS_SHA256 = {
    ("curves", 2): "84d63f4ea3e721018a783c40860c07d80114a01e052ab00e37c7e8b8ac13a6ec",
    ("curves", 3): "458c205b76141fd4e79e662b8ba1cbbcfe0855a090bf0dd49a415256d2a3a2ee",
    ("ideals", 2): "7b473cf24d6b9e740a37070ba47beb20f92d8f1715b1a8878d30ccc17632f220",
    ("ideals", 3): "be3209ff6265e9a28ccd0d35fa332a7954d2be64a9009a0a0d09b1ccf42a6691",
    ("families", 2): "877f48d52b03d703c4d931c79fdfcd787105dd3b9aa730d60efba947f04c653f",
    ("families", 3): "ec2561c0fb0e59545e101501acf991b82c8588450141640508f2a27acd19f9c1",
}


def _reports_sha256(workload, seed):
    texts = []
    for inst in corpus.workload(workload, seed):
        report, _ = run_command(JobSpec(**inst.spec_fields()))
        texts.append(serialize_report(report))
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", sorted(SEED1_REPORTS_SHA256))
def test_seed1_reports_are_pinned(workload):
    assert _reports_sha256(workload, 1) == SEED1_REPORTS_SHA256[workload]


@pytest.mark.parametrize("workload, seed", sorted(LATER_SEEDS_REPORTS_SHA256))
def test_later_seed_reports_are_pinned(workload, seed):
    assert _reports_sha256(workload, seed) == LATER_SEEDS_REPORTS_SHA256[workload, seed]

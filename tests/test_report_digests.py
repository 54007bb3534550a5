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

The curves and ideals pins of every seed moved when ``bs_ideal`` began
reporting each certificate P as its normal form modulo Ann f^(s+v): the
P values, their sha256 and ``budget_used.steps`` (which now counts the
S-pairs of that basis too) changed; b, the generators, the rationality
reports and the exit codes did not.

The families pins of every seed moved when ``bs_ideal_ctx`` began
reducing each certificate modulo Ann f^(s+v) over the residue field too:
the U values of ``generic-bs`` and of every stratum witness and their
sha256, the remainder of the ``a = 0`` stratum of ``strat_nodal`` and
its sha256, and ``budget_used.steps`` (which now counts the S-pairs of
that basis) changed; b, h, h_radical, the strategies, the strata
regions, the samples and the exit codes did not.  The curves and ideals
pins held.
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
    "curves": "648ff4a4434ade2c926705e18081032370b2e683155b0166f7ef0e03530bbafb",
    "ideals": "78a998caa3b63cfaa85b341da9d0679a94d5b7c41a7fbd53c57e5691eb75f78e",
    "families": "cdd741b6181c591cde21d17b59fc2cebf79df5d07f70b61e966a8a4a9d498f38",
}

# seeds 2 and 3 draw the same jobs in another order, with other scalings
LATER_SEEDS_REPORTS_SHA256 = {
    ("curves", 2): "4c05e9c6c541cf4ce00187ca56398d2ce1c4da61cabc10829ed8d394a988b400",
    ("curves", 3): "fabdc034841b10f4939ccc8b059685abc1f323b9617c57d0009280cd88ab0009",
    ("ideals", 2): "783b8a5d19b01ab1193773ed76140e8b9566e6d642b2eeff0ebe29935f7fdf78",
    ("ideals", 3): "e1b57a4630cbd895730f4e16285b48320588087a2ff5555a220b4bd4be7ab24b",
    ("families", 2): "0a5266b9004f91d79b4fe719c364223558a94c571cfb139a004656772eab7089",
    ("families", 3): "4be5903a844dad4d6eda80e663b8b2e34bb40d0756381b49db4df85665cd2ef3",
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

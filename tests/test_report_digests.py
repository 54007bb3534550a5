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

Every pin moved when Ann f^s began to come from one elimination of dt
in A_n[s]<dt> (Briancon-Maisonobe) instead of the Malgrange ring: only
``budget_used.steps`` changed, the S-pair count of the Ann f^s stage
being smaller; every other field of every report held.
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
    "curves": "1edadff8a3f75176d4272955f54b803713aceb797d7455c9266bf6fc07a02e74",
    "ideals": "0f5758650d8989df0f664e622a576a177f766d0e9e28304c3d777e704e6c7f77",
    "families": "a38579ee91f3902361be670c724baf847bf79ca251b0f47de65fa8ce02d43af3",
}

# seeds 2 and 3 draw the same jobs in another order, with other scalings
LATER_SEEDS_REPORTS_SHA256 = {
    ("curves", 2): "d1f7e99f32a92fc61ed75661ae921933d618906f77ed510202eef4d2fa662355",
    ("curves", 3): "f54932155236d76ac6c94d3dd1d2461275d9a70d296353627180a4ae9bf76bd4",
    ("ideals", 2): "6c456f908d40282fd27a881aa4b450d5ce572188ab4b25b724a720a8fad5bb1e",
    ("ideals", 3): "36a97a3be8cb894d67dfb941acb61e0f3d12fa2128473d313475ad239de88623",
    ("families", 2): "1499422a94c00f500b332532ee737ecf444721a7fa90891f06630f991f21bd2e",
    ("families", 3): "0bb0b87cccb19eaca5cbf0094f880407904a9d3fea0e7a9a843b10da95a5e3b8",
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

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

The curves and families pins of every seed moved when b for p = 1 over
a field (``bs`` over Q, ``generic-bs`` and ``stratify`` over
Frac(Q[a]/Q)) began to come from one left basis of Ann f^s + A_n[s] f
and the minimal polynomial of s (Noro) instead of the (x, dx)
elimination: only ``budget_used.steps`` changed; b and P, the unique
normal form modulo Ann f^(s+v), held with every other field.  The ideals
pins (p = 2, still eliminated) held.
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
    "curves": "f9c19855061a53e96c144137311e1c05a6b9982771be569536f26bf54708d21c",
    "ideals": "0f5758650d8989df0f664e622a576a177f766d0e9e28304c3d777e704e6c7f77",
    "families": "1f5cf475f6be9310507c2d084608fcefb6e60b658c43dd9e6aa295d770a3cf1b",
}

# seeds 2 and 3 draw the same jobs in another order, with other scalings
LATER_SEEDS_REPORTS_SHA256 = {
    ("curves", 2): "8b6262bc44b43c3bf4fb2dc113d6f3065ee5f42b498df366cb847b243de8094b",
    ("curves", 3): "b7f93ebf2d12b596131f64220a4eb96a6bd51ea6fbda58fbe842e414a7067503",
    ("ideals", 2): "6c456f908d40282fd27a881aa4b450d5ce572188ab4b25b724a720a8fad5bb1e",
    ("ideals", 3): "36a97a3be8cb894d67dfb941acb61e0f3d12fa2128473d313475ad239de88623",
    ("families", 2): "83ad0b544f9090adc20c8e3db5c8a36802d5b3e5f18b2f61d627d9e020287694",
    ("families", 3): "d89224bb31f4eb8f2a58410f5eb746b3d24db4e84fd74c6d537d01759b9bc46d",
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

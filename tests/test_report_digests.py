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

Every pin moved when ``rationalize`` became one least-degree search for
the rational b, with no degree budget and no strategy cascade: every
report lost ``budgets.degree`` and every ``generic-bs`` report lost
``outputs.strategy``; every other field held.  In the same change
``minimal_primes`` began passing the budget to the Groebner basis of
each branch, so ``budget_used.steps`` of ``strat_quadratic``, the one
stratify job whose branches need S-pairs, grew; nothing else moved.
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
    "curves": "eb76153486d3b94d260b3630194af052272754305c1ed00accb0b29112abd3e6",
    "ideals": "893070630047dd4d0161efab19ed335e0b5cfb89d1017d48f7096467b9eb82ce",
    "families": "b01a0c741fb05851fda281f1c40a12d74460df40af5836307581c6dbaf879791",
}

# seeds 2 and 3 draw the same jobs in another order, with other scalings
LATER_SEEDS_REPORTS_SHA256 = {
    ("curves", 2): "cbb8d25e23288e5b86c001bd454b68582685de4957c830c8058b55a9aa16479c",
    ("curves", 3): "23c4f041f72e3bc930d1355e3a8a7bca21a75ff2ad6ef2584b46e86c64e0f7d7",
    ("ideals", 2): "6520622bec0f692fbd30df8fbbd6f83ae6f75ce9e7a2700b58e9a74efdfa0655",
    ("ideals", 3): "1ada1d0268ce12a04d6823ccf0e6d3688e3c12965da34b4a055bd1f2bc8d4116",
    ("families", 2): "f8ba05ab2d9c2ceba528b917be898f95b3b074b8714fdc0ef101048cca15a538",
    ("families", 3): "3ca7b6fc826cb45d340fd132fe804c7875d48689523b4d19bd6831aa539b639d",
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

"""The perfbench tracer still finds, wraps and restores every genbs hook.

``perfbench/tracer.py`` replaces genbs functions by name at every module
that holds them; a rename or a merge under ``src/`` that drops one of
those names shows up here as a ``missing`` entry or a zero counter.  The
kernel counters are held above zero too: ``orders.key_calls`` counts the
misses of the order key caches, ``parametric.residue_ops`` the residue
field's ``make`` calls, which a generic-bs job still makes, and
``parametric.rationalize_s`` the least-degree search, which a bs job and
a generic-bs job both run.
"""

import sys
from pathlib import Path

import genbs.weyl_groebner
from genbs.cli import JobSpec, run_command

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    from tracer import Tracer
finally:
    sys.path.pop(0)


def test_tracer_hooks_resolve_count_and_restore():
    original = genbs.weyl_groebner.left_buchberger
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        report, code = run_command(JobSpec(command="bs", vars=("x", "y"), f=("y^2-x^3",)))
        assert code == 0, report
        layers = tracer.layer_metrics()
        assert layers["annbs.malgrange_gb_s"] > 0
        assert layers["annbs.s_elim_gb_s"] > 0
        assert layers["weyl_groebner.reduce_steps"] > 0
        assert layers["orders.key_calls"] > 0
        searched = layers["parametric.rationalize_s"]
        assert searched > 0
        report, code = run_command(
            JobSpec(command="generic-bs", vars=("x",), params=("a",), f=("x^2+a*x",))
        )
        assert code == 0, report
        layers = tracer.layer_metrics()
        assert layers["parametric.residue_ops"] > 0
        assert layers["parametric.rationalize_s"] > searched
    finally:
        tracer.uninstall()
    assert genbs.weyl_groebner.left_buchberger is original

"""Compute the classical Bernstein-Sato corpus and verify every certificate.

Runs the elimination pipeline on the standard single-polynomial examples,
factors each b(s), replays the operator identity, and cross-checks against
the degree-bounded ansatz search.  Everything is exact arithmetic.
"""

import time

from genbs.annbs import bs_poly, rationality_report
from genbs.fsmodule import AnsatzBounds, ansatz_bs, check_identity
from genbs.instance import make_instance
from genbs.orders import GRevLex
from genbs.poly import PolyRing, QQ

RX = PolyRing(QQ, ("x",), GRevLex())
RXY = PolyRing(QQ, ("x", "y"), GRevLex())

x = RX.var("x")
u, w = RXY.var("x"), RXY.var("y")

CORPUS = [
    ("x", ("x",), [x], AnsatzBounds(0, 1, 1)),
    ("x^2", ("x",), [x**2], AnsatzBounds(1, 2, 2)),
    ("x^3", ("x",), [x**3], AnsatzBounds(2, 3, 3)),
    ("x*y", ("x", "y"), [u * w], AnsatzBounds(0, 2, 2)),
    ("x^2+y^2", ("x", "y"), [u * u + w * w], AnsatzBounds(0, 2, 2)),
]


def main():
    for label, names, fs, bounds in CORPUS:
        t0 = time.time()
        inst = make_instance(names, fs)
        res = bs_poly(inst)
        ok = check_identity(res.b, res.certificate, inst)
        pairs = ansatz_bs(inst, bounds)
        agree = any(b == res.b for b, _ in pairs)
        rep = rationality_report(res.ideal, res.factorization)
        print("f = %-9s  b = %-28s  cert ok: %s  ansatz agrees: %s  rational: %s  (%.2fs)"
              % (label, str(res.factorization), ok, agree,
                 rep["rational_element_found"], time.time() - t0))
        print("    certificate P = %s" % res.certificate)
        if not (ok and agree):
            raise SystemExit("verification failed for %s" % label)
    print("all classical values verified")


if __name__ == "__main__":
    main()

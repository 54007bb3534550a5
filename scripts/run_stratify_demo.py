"""Stratify small parametric families and print the certified pieces.

Two demos: the quadratic x^2 + a (two strata) and the full generic
univariate quadratic a0 + a1 x + a2 x^2 (four pieces including the
degenerate locus where the family vanishes identically).  Exits
non-zero when a sample is not verified against a witness, or when the
point a=3 does not land in the stratum with b = s + 1.
"""

import time
from fractions import Fraction

from genbs.errors import GenbsError
from genbs.instance import generic_family, make_instance
from genbs.orders import GRevLex
from genbs.parametric import specialize_check
from genbs.poly import PolyRing, QQ
from genbs.stratify import stratify


def show(label, inst):
    t0 = time.time()
    st = stratify(inst)
    print("== %s  (%d strata, %.2fs)" % (label, len(st.strata), time.time() - t0))
    for k, stratum in enumerate(st.strata):
        b = "degenerate (family vanishes)" if stratum.degenerate else str(stratum.b)
        print("  stratum %d: b = %s" % (k, b))
        print("    region: %s" % stratum.region.describe())
        if stratum.sample is not None:
            print("    sample point: %s" % (stratum.sample,))
            if not stratum.degenerate:
                ws = [w for w in stratum.witnesses if w is not None]
                ok = any(_try_specialize(w, stratum.sample) for w in ws)
                print("    sample verified against a witness: %s" % ok)
                if not ok:
                    raise SystemExit("sample of stratum %d of %s not verified" % (k, label))
    return st


def _try_specialize(witness, point):
    try:
        return specialize_check(witness, point)
    except GenbsError:
        return False


def main():
    R = PolyRing(QQ, ("a", "x"), GRevLex())
    a, x = R.var("a"), R.var("x")
    inst = make_instance(("x",), [x * x + a], v=(1,), a_names=("a",))
    st = show("x^2 + a", inst)
    found = st.find({"a": Fraction(3)})
    print("  lookup a=3 lands in stratum with b = %s" % found.b)
    if str(found.b) != "s + 1":
        raise SystemExit("a=3 landed in the stratum with b = %s, not s + 1" % found.b)

    inst2 = generic_family(1, 1, 2)
    show("generic quadratic a_1_0 + a_1_1*x1 + a_1_2*x1^2", inst2)
    print("all samples verified")


if __name__ == "__main__":
    main()

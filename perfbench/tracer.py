"""Outside-in tracer: wraps genbs functions from outside, no code under src/ changes.

A module-level function is replaced at every genbs module that holds it
by name (``genbs.annbs.left_buchberger``, ``genbs.parametric.multi_gcd``
...), so calls through those names, calls inside the defining module
included, reach the wrapper.  Methods are wrapped on their class.
Modules are reached through ``importlib``, because attributes such as
``genbs.stratify`` resolve to functions, not modules.  ``uninstall``
puts every original back.

Coarse functions record one span each (name, parent span, start, end),
kept in memory and written out when the pass ends.  Hot functions only
count calls, and some also sum the time of their outermost calls.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from fractions import Fraction

# (module, function): one span per call, with its parent span.
SPANS = (
    ("genbs.cli", "run_command"),
    ("genbs.annbs", "bs_poly"),
    ("genbs.annbs", "bs_ideal"),
    ("genbs.annbs", "bs_ideal_ctx"),
    ("genbs.annbs", "ann_fs_ctx"),
    ("genbs.weyl_groebner", "left_buchberger"),
    ("genbs.fsmodule", "check_identity"),
    ("genbs.fsmodule", "congruence_remainder"),
    ("genbs.fsmodule", "check_congruence"),
    ("genbs.fsmodule", "act"),
    ("genbs.parametric", "generic_bs"),
    ("genbs.parametric", "rationalize"),
    ("genbs.parametric", "op_scale_clear"),
    ("genbs.parametric", "specialize_check"),
    ("genbs.stratify", "stratify"),
    ("genbs.stratify", "sample_point"),
    ("genbs.primes", "minimal_primes"),
    ("genbs.factor", "factor"),
    ("genbs.groebner", "buchberger"),
)

# (module, function or class.method, timed): calls counted; when timed,
# the outermost calls' seconds are summed as well.
COUNTERS = (
    ("genbs.weyl_groebner", "left_reduce_step", False),
    ("genbs.groebner", "normal_form", False),
    ("genbs.factor", "multi_gcd", True),
    ("genbs.weyl", "WeylOp.__mul__", True),
    ("genbs.poly", "Poly.__mul__", False),
    ("genbs.parametric", "ResidueField.make", True),
)

# Where left_buchberger asserts homogeneity: once per S-pair formed, and
# once per S-pair whose left normal form is non-zero.
HOMOGENEITY = ("genbs.weyl_groebner", "_assert_homogeneous")


def _coeff_bits(c) -> int:
    if isinstance(c, (int, Fraction)):
        q = Fraction(c)
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    # residue-field element: num/den polynomials with rational coefficients
    return max(_coeff_bits(x) for p in (c.num, c.den) for x in p._terms.values())


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.calls = {}
        self.seconds = {}
        self.basis_size = 0
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.primes_found = 0
        self.spairs_formed = 0
        self.spairs_useful = 0
        self.missing = []
        self._modules = []
        self._stack = []
        self._undo = []

    # -- installation ----------------------------------------------------------

    def install(self):
        import genbs

        for info in pkgutil.iter_modules(genbs.__path__):
            importlib.import_module("genbs." + info.name)
        self._modules = [m for n, m in sys.modules.items() if n == "genbs" or n.startswith("genbs.")]
        for modname, name in SPANS:
            self._patch_function(modname, name, self._span)
        for modname, name, timed in COUNTERS:
            wrap = functools.partial(self._counter, timed=timed)
            if "." in name:
                self._patch_method(modname, name, wrap)
            else:
                self._patch_function(modname, name, wrap)
        self._patch_function(*HOMOGENEITY, lambda label, fn: self._homogeneity(fn))
        orders = importlib.import_module("genbs.orders")
        todo = [orders.TermOrder]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if "key" in cls.__dict__ and cls is not orders.TermOrder:
                self._set(cls, "key", self._counter("orders.key", cls.__dict__["key"], timed=False))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, modname, name, make):
        original = getattr(importlib.import_module(modname), name, None)
        if original is None:
            self.missing.append("%s.%s" % (modname, name))
            return
        wrapper = make(modname.split(".")[-1] + "." + name, original)
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_method(self, modname, dotted, make):
        clsname, meth = dotted.split(".")
        cls = getattr(importlib.import_module(modname), clsname, None)
        if cls is None or meth not in cls.__dict__:
            self.missing.append("%s.%s" % (modname, dotted))
            return
        self._set(cls, meth, make(modname.split(".")[-1] + "." + dotted, cls.__dict__[meth]))

    # -- wrappers --------------------------------------------------------------

    def _span(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = {
            "weyl_groebner.left_buchberger": self._basis_stats,
            "primes.minimal_primes": self._count_primes,
        }.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, label, fn, timed):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter
        calls.setdefault(label, 0)
        if not timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)

            return counted
        seconds.setdefault(label, 0.0)
        depth = [0]

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            calls[label] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += clock() - start
                depth[0] = 0

        return timed_wrapper

    def _homogeneity(self, fn):
        @functools.wraps(fn)
        def wrapper(op, weight_vectors, where):
            if where == "S-pair formation":
                self.spairs_formed += 1
            elif where == "S-pair reduction":
                self.spairs_useful += 1
            return fn(op, weight_vectors, where)

        return wrapper

    def _basis_stats(self, result):
        basis = result[0] if isinstance(result, tuple) else result
        self.basis_size = max(self.basis_size, len(basis))
        for op in basis:
            self.max_terms = max(self.max_terms, len(op._terms))
            for c in op._terms.values():
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(c))

    def _count_primes(self, result):
        self.primes_found += len(result)

    # -- summaries -------------------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                kids[parent].append(i)
        return kids

    def outermost_seconds(self, names) -> float:
        """Seconds in spans of ``names`` not nested in another such span."""
        total = 0.0
        for name, parent, start, end in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][1]
            if parent < 0:
                total += end - start
        return total

    def self_seconds(self, name) -> float:
        """Seconds in spans of ``name`` not covered by their child spans."""
        kids = self._children()
        total = 0.0
        for i, (nm, _, start, end) in enumerate(self.spans):
            if nm == name:
                total += (end - start) - sum(
                    self.spans[k][3] - self.spans[k][2] for k in kids[i]
                )
        return total

    def under(self, name, parent_name) -> tuple:
        """(count, seconds) of ``name`` spans whose parent span is ``parent_name``."""
        n, total = 0, 0.0
        for nm, parent, start, end in self.spans:
            if nm == name and parent >= 0 and self.spans[parent][0] == parent_name:
                n += 1
                total += end - start
        return n, total

    def layer_metrics(self) -> dict:
        calls, seconds = self.calls, self.seconds
        span_calls = {}
        for name, _, _, _ in self.spans:
            span_calls[name] = span_calls.get(name, 0) + 1
        formed = self.spairs_formed
        return {
            "annbs.malgrange_gb_s": self.under("weyl_groebner.left_buchberger", "annbs.ann_fs_ctx")[1],
            "annbs.s_elim_gb_s": self.under("weyl_groebner.left_buchberger", "annbs.bs_ideal_ctx")[1],
            "annbs.bs_combine_s": self.self_seconds("annbs.bs_poly"),
            "weyl_groebner.spair_useful_ratio": self.spairs_useful / formed if formed else 0.0,
            "weyl_groebner.reduce_steps": calls.get("weyl_groebner.left_reduce_step", 0),
            "weyl_groebner.basis_size": self.basis_size,
            "weyl_groebner.max_terms": self.max_terms,
            "weyl_groebner.max_coeff_bits": self.max_coeff_bits,
            "weyl.mul_calls": calls.get("weyl.WeylOp.__mul__", 0),
            "weyl.mul_s": seconds.get("weyl.WeylOp.__mul__", 0.0),
            "orders.key_calls": calls.get("orders.key", 0),
            "poly.mul_calls": calls.get("poly.Poly.__mul__", 0),
            "fsmodule.replay_s": self.outermost_seconds(
                {"fsmodule.check_identity", "fsmodule.congruence_remainder", "fsmodule.act"}
            ),
            "fsmodule.act_calls": span_calls.get("fsmodule.act", 0),
            "parametric.residue_ops": calls.get("parametric.ResidueField.make", 0),
            "parametric.residue_s": seconds.get("parametric.ResidueField.make", 0.0),
            "parametric.rationalize_s": self.outermost_seconds({"parametric.rationalize"}),
            "parametric.clear_s": self.outermost_seconds({"parametric.op_scale_clear"}),
            "factor.multi_gcd_calls": calls.get("factor.multi_gcd", 0),
            "factor.multi_gcd_s": seconds.get("factor.multi_gcd", 0.0),
            "factor.factor_s": self.outermost_seconds({"factor.factor"}),
            "groebner.buchberger_s": self.outermost_seconds({"groebner.buchberger"}),
            "groebner.normal_form_calls": calls.get("groebner.normal_form", 0),
            "primes.minimal_primes_s": self.outermost_seconds({"primes.minimal_primes"}),
            "primes.primes_visited": self.primes_found,
            "stratify.generic_calls": self.under("parametric.generic_bs", "stratify.stratify")[0],
            "stratify.sample_point_s": self.outermost_seconds({"stratify.sample_point"}),
            "cli.self_s": self.self_seconds("cli.run_command"),
        }

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": self.calls,
            "seconds": self.seconds,
            "missing": self.missing,
        }

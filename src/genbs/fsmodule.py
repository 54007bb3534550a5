"""The free module R[x, 1/(f_1..f_p), s] f^s: action, checks, ansatz oracle.

An element is numerator / (f_1^k_1 .. f_p^k_p) times the formal symbol
f^s.  Differential operators act through logarithmic derivatives:

    d_i (g f^s) = (d_i g) f^s + g sum_j s_j (d_i f_j)/f_j f^s

with all bookkeeping exact.  Denominators are exponent vectors, never
general polynomials, and the canonical form divides out f_j from the
numerator while possible.

An operator acts along a derivative ladder.  Its terms x^alpha s^gamma
d^beta are grouped by beta, and D^beta e is computed once per beta: each
rung is a single d_x of a rung already on the ladder, with prod f_l and
(d_x f_j) prod_{l != j} f_l formed once per action, not per rung.  Each
rung is multiplied by its group's multiplier polynomial, the parts are
brought to one common denominator, and the sum is reduced once, so trial
division runs once per action instead of after every term.

The ansatz routine searches for (b, P) with act(P, f^(s+v)) = b f^s by
exact linear algebra within degree bounds; it is independent of the
Groebner pipeline and serves as the oracle for everything else.  Its
kernel, like those of the least-degree rational search in
``parametric.rationalize`` and of the minimal polynomial of s in
``annbs.bs_ideal_ctx``, comes from
``b_kernel``: one Gauss-Jordan over sparse columns whose basis is
already echelonized on b's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyAnsatz, InvalidInput, MixedRingError
from .factor import exact_div
from .groebner import normal_form
from .instance import ProblemInstance
from .orders import multi_indices
from .poly import Poly
from .weyl import WeylOp


@dataclass(frozen=True)
class AnsatzBounds:
    """Degree box for the (b, P) search; all bounds are >= 0."""

    x_degree: int
    d_order: int
    s_degree: int

    def __post_init__(self):
        if min(self.x_degree, self.d_order, self.s_degree) < 0:
            raise InvalidInput("bounds must be non-negative")


class FsElement:
    """numerator / prod f_j^k_j times f^s, over a fixed instance."""

    __slots__ = ("instance", "numerator", "k")

    def __init__(self, instance, numerator, k, reduce=True):
        self.instance = instance
        if reduce:
            numerator, k = _reduce(instance, numerator, tuple(k))
        self.numerator = numerator
        self.k = tuple(k)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def symbol(instance) -> "FsElement":
        """The generator f^s itself."""
        ring = instance.fs_ring()
        return FsElement(instance, ring.one(), (0,) * instance.registry.p)

    @staticmethod
    def shifted(instance) -> "FsElement":
        """f^(s+v), i.e. the element with numerator prod f_j^v_j."""
        ring = instance.fs_ring()
        return FsElement(
            instance, ring.convert(instance.f_power_v()), (0,) * instance.registry.p
        )

    # -- structure ---------------------------------------------------------------

    def is_zero(self):
        return self.numerator.is_zero()

    def _common(self, other):
        if self.instance != other.instance:
            raise MixedRingError("f^s elements over different instances")
        (n1, n2), K = _common_denominator(
            self.instance, [(self.numerator, self.k), (other.numerator, other.k)]
        )
        return n1, n2, K

    def __add__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        n1, n2, K = self._common(other)
        return FsElement(self.instance, n1 + n2, K)

    def __neg__(self):
        return FsElement(self.instance, -self.numerator, self.k, reduce=False)

    def __sub__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        return self + (-other)

    def scale_poly(self, g: Poly) -> "FsElement":
        ring = self.instance.fs_ring()
        return FsElement(self.instance, ring.convert(g) * self.numerator, self.k)

    def scale(self, c) -> "FsElement":
        return FsElement(
            self.instance, self.numerator * Fraction(c), self.k, reduce=False
        )

    def __eq__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        n1, n2, _ = self._common(other)
        return n1 == n2

    def __str__(self):
        den = []
        for fj, kj in zip(self.instance.f, self.k):
            if kj == 1:
                den.append("(%s)" % fj)
            elif kj > 1:
                den.append("(%s)^%d" % (fj, kj))
        body = "(%s)" % self.numerator
        if den:
            body += " / (%s)" % "*".join(den)
        return body + " * f^s"

    def __repr__(self):
        return "FsElement(%s)" % self


def _f_lifted(instance):
    return instance.f_in_fs_ring()


def _reduce(instance, numerator, k):
    """Canonical form: divide numerator by f_j while divisible and k_j > 0."""
    if numerator.is_zero():
        return numerator, (0,) * len(k)
    fs = _f_lifted(instance)
    k = list(k)
    for j, fj in enumerate(fs):
        while k[j] > 0:
            try:
                numerator = exact_div(numerator, fj)
            except ValueError:
                break
            k[j] -= 1
    return numerator, tuple(k)


def _diff_constants(inst):
    """The factors of d_x (g f^s) that depend on f alone.

    Returns (prod_l f_l, [s_j], {x: [(d_x f_j) prod_{l != j} f_l]}), so a
    rung of the derivative ladder costs two products and a short sum.
    """
    ring = inst.fs_ring()
    fs = _f_lifted(inst)
    prod = ring.one()
    for fj in fs:
        prod = prod * fj
    cofactors = []
    for j in range(len(fs)):
        cof = ring.one()
        for l, fl in enumerate(fs):
            if l != j:
                cof = cof * fl
        cofactors.append(cof)
    grads = {
        x: [fj.diff(x) * cof for fj, cof in zip(fs, cofactors)]
        for x in inst.registry.x
    }
    s_vars = [ring.var(name) for name in inst.registry.s]
    return prod, s_vars, grads


def _diff_once(e: FsElement, x_name: str, consts) -> FsElement:
    """Action of a single d/dx on the element; consts from _diff_constants.

    d_x (g / prod f^k f^s) = (g' prod f + g sum_j (s_j - k_j) (d_x f_j)
    prod_{l != j} f_l) / prod f^(k+1) f^s.
    """
    prod, s_vars, grads = consts
    log = e.numerator.ring.zero()
    for s_j, k_j, g_j in zip(s_vars, e.k, grads[x_name]):
        log = log + (s_j - k_j) * g_j
    term = e.numerator.diff(x_name) * prod + e.numerator * log
    return FsElement(e.instance, term, tuple(kj + 1 for kj in e.k))


def _derivative_ladder(e: FsElement, x_names, betas):
    """Iterator of (beta, D^beta e), once for each multi-index in betas
    (indexed like x_names).

    The rungs form a tree: the parent of beta has one derivative fewer in
    beta's last nonzero coordinate, so D^beta e is reached by the same
    single derivatives as applying the d_x^beta_x in x_names order.  The
    tree is walked depth first, lazily, through the rungs some beta
    needs, each one _diff_once from its parent; only the rungs on the
    current path are held.
    """
    n = len(x_names)
    wanted = set(betas)
    needed = set()
    for beta in wanted:
        while beta not in needed:
            needed.add(beta)
            if any(beta):
                i = _last_index(beta)
                beta = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
    consts = _diff_constants(e.instance)

    def walk(beta, cur):
        if beta in wanted:
            yield beta, cur
        for i in range(_last_index(beta), n):
            child = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
            if child in needed:
                yield from walk(child, _diff_once(cur, x_names[i], consts))

    return walk((0,) * n, e)


def _last_index(beta):
    """Position of beta's last nonzero entry, 0 when beta = 0."""
    return max((i for i, b in enumerate(beta) if b), default=0)


def act(A: WeylOp, e: FsElement) -> FsElement:
    """Apply a normally ordered operator to an f^s element.

    Every generator of A's ring must be either a variable of the
    numerator ring (acting by multiplication) or a derivative paired to
    an x variable (acting by differentiation).

    The terms x^alpha s^gamma d^beta of A are grouped by beta.  Each
    D^beta e is taken once from the derivative ladder and multiplied by
    the polynomial sum of its group's multipliers; the parts are summed
    over their common denominator prod f_j^K_j, and the sum is reduced
    once.  When the f_j are pairwise coprime the reduced form of an
    element is unique, so the result is the canonical element a
    term-by-term sum would give.  A = 0 gives the zero numerator over
    e's denominator.
    """
    inst = e.instance
    ring = inst.fs_ring()
    wr = A.ring
    if A.is_zero():
        return FsElement(inst, ring.zero(), e.k, reduce=False)

    x_names = [wr.names[pos] for pos, _ in wr.pairs]
    groups = A.coefficients_wrt([der for _, der in wr.pairs])
    total = None
    for beta, r in _derivative_ladder(e, x_names, groups):
        part = r.numerator * ring.convert(groups[beta])
        if total is None:
            total, K = part, r.k
        else:
            (total, part), K = _common_denominator(inst, [(total, K), (part, r.k)])
            total = total + part
    return FsElement(inst, total, K)


def _common_denominator(inst, parts):
    """Numerators of (numerator, k) parts over prod f_j^K_j, K the
    componentwise maximum of the k; returns (numerators, K)."""
    K = tuple(max(col) for col in zip(*(k for _, k in parts)))
    fs = _f_lifted(inst)
    out = []
    for num, k in parts:
        for j, fj in enumerate(fs):
            if K[j] > k[j]:
                num = num * fj ** (K[j] - k[j])
        out.append(num)
    return out, K


def check_identity(b: Poly, P: WeylOp, inst: ProblemInstance) -> bool:
    """Exact check of act(P, f^(s+v)) = b(s) f^s."""
    lhs = act(P, FsElement.shifted(inst))
    rhs = FsElement.symbol(inst).scale_poly(b)
    return (lhs - rhs).is_zero()


def congruence_remainder(h: Poly, b: Poly, U: WeylOp, inst: ProblemInstance):
    """r = h b f^s - U f^(s+v), the term that must lie in Q[x, 1/f, s] f^s."""
    lhs = FsElement.symbol(inst).scale_poly(h).scale_poly(b)
    rhs = act(U, FsElement.shifted(inst))
    return lhs - rhs


def check_congruence(g, inst: ProblemInstance | None = None) -> bool:
    """Whether the stored identity holds modulo Q: every coefficient of
    the remainder's numerator (as a polynomial in x, s) reduces to 0."""
    if inst is None:
        inst = g.instance
    r = congruence_remainder(g.h, g.b, g.U, inst)
    return remainder_in_Q(r, g.Q, inst)


def remainder_in_Q(r: FsElement, Q, inst: ProblemInstance) -> bool:
    if r.is_zero():
        return True
    ring = inst.fs_ring()
    param = inst.param_ring()
    non_a = inst.registry.x + inst.registry.s
    groups = r.numerator.coefficients_wrt(non_a)
    basis = [param.convert(q) for q in Q.basis]
    for _, coeff in groups.items():
        ap = param.convert(coeff)
        if not normal_form(ap, basis).is_zero():
            return False
    return True


# -- exact linear algebra over Q ---------------------------------------------


def b_kernel(columns, b_exps, s_ring):
    """Kernel of a sparse rational matrix, echelonized on b.

    ``columns`` holds one {row key: coefficient} map per unknown; the last
    ``len(b_exps)`` unknowns are the coefficients of b at the s-monomials
    ``b_exps`` of ``s_ring``.  Returns one (b, values) pair per vector of
    the reduced echelon kernel basis for the priority "b's columns,
    highest s-monomial first, then the other columns in order"; values
    maps each other column where the vector is nonzero, in column order,
    to its entry.  The vectors with b != 0 come first; each such b is
    monic, and their leading s-monomials are pairwise distinct.

    Gauss-Jordan runs once, pivoting in the reverse of that priority.
    The vector of a free column c is 1 at c, 0 at every other free
    column, and elsewhere nonzero only at columns pivoted before c, which
    come after c in the priority: it leads with 1 at c, and the vectors
    listed by leading column are that unique reduced basis.
    """
    first_b = len(columns) - len(b_exps)
    b_order = sorted(range(len(b_exps)), key=lambda i: s_ring.order.cached_key(b_exps[i]))
    rows = {}
    for col, entries in enumerate(columns):
        for key, c in entries.items():
            if c:
                rows.setdefault(key, {})[col] = c
    live = list(rows.values())
    pivots = {}
    free = []
    for col in list(range(first_b - 1, -1, -1)) + [first_b + i for i in b_order]:
        at = next((i for i, row in enumerate(live) if col in row), None)
        if at is None:
            free.append(col)
            continue
        row = live.pop(at)
        inv = Fraction(1) / row[col]
        pivot = {c: x * inv for c, x in row.items()}
        for other in live + list(pivots.values()):
            factor = other.get(col)
            if factor:
                for c, x in pivot.items():
                    y = other.get(c, 0) - factor * x
                    if y:
                        other[c] = y
                    else:
                        del other[c]
        pivots[col] = pivot
    vectors = {c: {c: Fraction(1)} for c in free}
    for col, pivot in pivots.items():
        for c, x in pivot.items():
            if c != col:
                vectors[c][col] = -x
    out = []
    for c in reversed(free):
        v = vectors[c]
        b_terms = [(b_exps[j - first_b], x) for j, x in v.items() if j >= first_b]
        values = {j: v[j] for j in sorted(v) if j < first_b}
        out.append((s_ring.from_terms(b_terms), values))
    return out


def _exp(ring, names, powers):
    """ring's exponent with the named variables at the given powers."""
    exp = [0] * ring.nvars
    for name, e in zip(names, powers):
        exp[ring.index(name)] = e
    return tuple(exp)


def ansatz_bs(inst: ProblemInstance, bounds: AnsatzBounds):
    """Degree-bounded search for all (b, P) with act(P, f^(s+v)) = b f^s.

    Returns echelonized solutions with b != 0, minimal b-degree first,
    each b monic.  Raises EmptyAnsatz when the box contains none.
    Parameters are not supported here; specialize first.
    """
    if inst.registry.m != 0:
        raise InvalidInput("the ansatz oracle needs m = 0; specialize parameters first")
    r = inst.registry
    ring = inst.fs_ring()
    wring = inst.weyl_ring()
    s_ring = inst.s_ring()

    betas = multi_indices(r.n, bounds.d_order)
    alphas = multi_indices(r.n, bounds.x_degree)
    gammas = multi_indices(r.p, bounds.s_degree)
    base_by_beta = dict(_derivative_ladder(FsElement.shifted(inst), r.x, betas))
    symbol = FsElement.symbol(inst)

    # unknowns: P's coefficients at x^alpha s^gamma d^beta, then b's at s^gamma
    elements = []
    p_exps = []
    w_names = r.x + r.d_names() + r.s
    for beta in betas:
        e = base_by_beta[beta]
        for alpha in alphas:
            for gamma in gammas:
                mono = ring.monomial(_exp(ring, r.x + r.s, alpha + gamma))
                elements.append((e.numerator * mono, e.k))
                p_exps.append(_exp(wring, w_names, alpha + beta + gamma))
    for gamma in gammas:
        mono = ring.monomial(_exp(ring, r.s, gamma))
        elements.append((-(symbol.numerator * mono), symbol.k))
    numerators, _ = _common_denominator(inst, elements)

    kernel = b_kernel([num._terms for num in numerators], gammas, s_ring)
    if not kernel:
        raise EmptyAnsatz("no (b, P) within bounds %s" % (bounds,))
    results = [
        (b, WeylOp(wring, {p_exps[col]: c for col, c in coeffs.items()}))
        for b, coeffs in kernel
        if not b.is_zero()
    ]
    if not results:
        raise EmptyAnsatz("only b = 0 solutions within bounds %s" % (bounds,))
    results.sort(key=lambda t: (t[0].total_degree(), str(t[0])))
    return results

"""The free module R[x, 1/(f_1..f_p), s] f^s: action, checks, ansatz oracle.

An element is numerator / (f_1^k_1 .. f_p^k_p) times the formal symbol
f^s.  Differential operators act through logarithmic derivatives:

    d_i (g f^s) = (d_i g) f^s + g sum_j s_j (d_i f_j)/f_j f^s

with all bookkeeping exact.  Denominators are exponent vectors, never
general polynomials.

Replay never divides.  An element is built in its undivided form, where
a k_j may be negative: f^(s+v) is 1 over k = -v.  That form is kept
over the F_j = lam_j f_j, lam_j the lcm of f_j's denominators over Q
(F_j = f_j, lam_j = 1 over other fields): N / (D prod F_j^k_j), D a
positive int.  Sums, negation, equality, the zero test and the action
work on it, bringing parts to a common denominator by multiplying by
powers of the F_j and by ints only, so over Q the identity and the
congruence are compared on integers: T prod F_j^max(0, -K_j) against
D b prod F_j^max(0, K_j), with b cleared of its denominators.  The
canonical form (every k_j >= 0, and f_j divided out of the numerator
while it divides and k_j > 0) is made once, by one rational scaling
and trial division, on the first read of ``numerator``, ``k`` or
``str``.  It is unique when p = 1 or the f_j are pairwise coprime: if
N / f^k = M / f^l with f_j dividing neither N where k_j > 0 nor M where
l_j > 0, and l_j > k_j, then f_j^(l_j - k_j) divides M times a product
of the other f_i, hence M, which is impossible; so k = l and N = M.

An operator acts along a derivative ladder.  Its terms x^alpha s^gamma
d^beta are grouped by beta, and D^beta e is computed once per beta: each
rung is a single d_x of a rung already on the ladder, with prod F_l and
(d_x F_j) prod_{l != j} F_l formed once per action, not per rung, and
raising every k_j by one (d_x F_j / F_j = d_x f_j / f_j, so the lam_j
never enter).  Each rung is multiplied by its group's multiplier
polynomial into one term map per order |beta| (the parts of one order
share a denominator), and those sums are brought to one common
denominator once.  Over Q the ladder runs on int coefficients: e's
numerator and the multipliers are cleared of their denominators, which
move into the result's D.

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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import EmptyAnsatz, InvalidInput, MixedRingError
from .factor import exact_div
from .groebner import normal_form
from .instance import ProblemInstance
from .orders import multi_indices
from .poly import Poly, QQ
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
    """numerator / prod f_j^k_j times f^s, over a fixed instance.

    The element is stored in the undivided form it was built in (a k_j
    may be negative), over the F_j of ``_int_family``: N / (D prod
    F_j^k_j) with D a positive int, so that over Q sums, equality and
    the action run on int coefficients.  ``numerator`` and ``k`` read its
    canonical form, made on the first read, after which the element is
    stored in that form.  With ``reduce=False`` the given form is taken
    as the one to read.
    """

    __slots__ = ("instance", "_num", "_den", "_k", "_read")

    def __init__(self, instance, numerator, k, reduce=True):
        self.instance = instance
        self._k = tuple(k)
        self._num, self._den = _undivided(instance, numerator, self._k)
        self._read = None if reduce else (numerator, self._k)

    @classmethod
    def _make(cls, instance, num, den, k, read=None):
        """The element N / (D prod F_j^k_j), read as ``read`` when given."""
        e = cls.__new__(cls)
        e.instance, e._num, e._den, e._k, e._read = instance, num, den, k, read
        return e

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def symbol(instance) -> "FsElement":
        """The generator f^s itself."""
        one = _one(instance.fs_ring())
        return FsElement._make(instance, one, 1, (0,) * instance.registry.p)

    @staticmethod
    def shifted(instance) -> "FsElement":
        """f^(s+v), undivided as 1 / prod f_j^(-v_j) = 1 / (prod lam_j^v_j
        prod F_j^(-v_j))."""
        one = _one(instance.fs_ring())
        lam = _int_scales(instance)
        den = math.prod(lj**vj for lj, vj in zip(lam, instance.v))
        return FsElement._make(instance, one, den, tuple(-vj for vj in instance.v))

    # -- canonical form -----------------------------------------------------------

    @property
    def numerator(self):
        return self._canonical()[0]

    @property
    def k(self):
        return self._canonical()[1]

    def _canonical(self):
        if self._read is None:
            num, k = _reduce(self.instance, _f_form(self), self._k)
            self._num, self._den = _undivided(self.instance, num, k)
            self._k = k
            self._read = (num, k)
        return self._read

    def _with(self, num, den, read):
        """num / den over this element's denominator; read maps this
        element's canonical numerator to the result's, which is read as
        this one is."""
        if self._read is not None:
            read = (read(self._read[0]), self._read[1])
        else:
            read = None
        return FsElement._make(self.instance, num, den, self._k, read)

    # -- structure ---------------------------------------------------------------

    def is_zero(self):
        return self._num.is_zero()

    def _common(self, other):
        if self.instance != other.instance:
            raise MixedRingError("f^s elements over different instances")
        F = _int_family(self.instance)
        parts = [(self._num, self._den, self._k), (other._num, other._den, other._k)]
        return _common_denominator(F, parts)

    def __add__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        (n1, n2), den, K = self._common(other)
        return FsElement._make(self.instance, n1 + n2, den, K)

    def __neg__(self):
        return self._with(-self._num, self._den, lambda g: -g)

    def __sub__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        return self + (-other)

    def scale_poly(self, g: Poly) -> "FsElement":
        g, d = _cleared(self.instance.fs_ring().convert(g))
        return FsElement._make(self.instance, g * self._num, self._den * d, self._k)

    def scale(self, c) -> "FsElement":
        c = Fraction(c)
        num = self._num.scale(c.numerator)
        return self._with(num, self._den * c.denominator, lambda g: g * c)

    def __eq__(self, other):
        if not isinstance(other, FsElement):
            return NotImplemented
        (n1, n2), _, _ = self._common(other)
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


def _one(ring):
    """1 in ring, on an int coefficient over Q."""
    return Poly(ring, {ring._zero_exp: 1}) if ring.field is QQ else ring.one()


def _int_scales(inst):
    """The lam_j: over Q the lcm of f_j's denominators, else 1."""
    if inst.field is not QQ:
        return (1,) * len(inst.f)
    return tuple(_denominator([fj]) for fj in inst.f)


def _int_family(inst):
    """The F_j = lam_j f_j in inst.fs_ring(), on int coefficients over Q."""
    fs = _f_lifted(inst)
    if inst.field is not QQ:
        return fs
    return [_on_ints(fj, lj) for fj, lj in zip(fs, _int_scales(inst))]


def _undivided(inst, numerator, k):
    """(N, D) with numerator / prod f_j^k_j = N / (D prod F_j^k_j):
    N = numerator prod lam_j^k_j over k_j > 0, D the rest."""
    lam = _int_scales(inst)
    up = math.prod(lj**kj for lj, kj in zip(lam, k) if kj > 0)
    down = math.prod(lj**-kj for lj, kj in zip(lam, k) if kj < 0)
    return (numerator.scale(up) if up != 1 else numerator), down


def _f_form(e):
    """e's numerator over prod f_j^k_j, k undivided, on field coefficients."""
    lam = _int_scales(e.instance)
    up = math.prod(lj**-kj for lj, kj in zip(lam, e._k) if kj < 0)
    down = e._den * math.prod(lj**kj for lj, kj in zip(lam, e._k) if kj > 0)
    return e._num.scale(Fraction(up, down))


def _reduce(instance, numerator, k):
    """Canonical form: multiply each f_j^(-k_j) with k_j < 0 into the
    numerator, then divide the numerator by f_j while divisible and
    k_j > 0."""
    if numerator.is_zero():
        return numerator, (0,) * len(k)
    fs = _f_lifted(instance)
    for fj, kj in zip(fs, k):
        if kj < 0:
            numerator = numerator * fj**-kj
    k = [max(kj, 0) for kj in k]
    for j, fj in enumerate(fs):
        while k[j] > 0:
            try:
                numerator = exact_div(numerator, fj)
            except ValueError:
                break
            k[j] -= 1
    return numerator, tuple(k)


def _shift(g, i):
    """x_i g: every exponent of g raised by one at position i."""
    return Poly(g.ring, {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in g._terms.items()})


def _diff_constants(ring, fs, registry):
    """The factors of d_x (g f^s) that depend on the f_j in fs alone.

    Returns (prod_l f_l, {x: (sum_j s_j g_j, [g_j])}) with g_j =
    (d_x f_j) prod_{l != j} f_l, so a rung of the derivative ladder costs
    two products and a short sum.  No unit is multiplied in, so int
    coefficients stay ints.
    """
    prod = functools.reduce(mul, fs)
    s_at = [ring.index(name) for name in registry.s]
    grads = {}
    for x in registry.x:
        g = [
            functools.reduce(mul, fs[:j] + fs[j + 1 :], fj.diff(x))
            for j, fj in enumerate(fs)
        ]
        s_log = functools.reduce(add, map(_shift, g, s_at))
        grads[x] = (s_log, g)
    return prod, grads


def _denominator(polys):
    """The lcm of every coefficient's denominator in polys, over Q."""
    return math.lcm(*(c.denominator for g in polys for c in g._terms.values()))


def _on_ints(g, d=1):
    """d g over Q on int coefficients; d must clear g's denominators."""
    terms = {e: c.numerator * (d // c.denominator) for e, c in g._terms.items()}
    return Poly(g.ring, terms)


def _cleared(g):
    """(G, d) with g = G / d, over Q G on int coefficients and d the lcm
    of g's denominators; (g, 1) over another field or when g is on ints
    already."""
    if g.ring.field is not QQ or all(type(c) is int for c in g._terms.values()):
        return g, 1
    d = _denominator([g])
    return _on_ints(g, d), d


def _diff_once(e: FsElement, x_name: str, consts) -> FsElement:
    """Action of a single d/dx on the element's undivided form; consts
    from _diff_constants of the F_j.  Nothing is divided out.

    d_x (g / prod F^k f^s) = (g' prod F + g sum_j (s_j - k_j) (d_x F_j)
    prod_{l != j} F_l) / prod F^(k+1) f^s.
    """
    prod, grads = consts
    log, g_x = grads[x_name]
    for k_j, g_j in zip(e._k, g_x):
        if k_j:
            log = log - g_j.scale(k_j)
    g = e._num
    acc = {}
    _add_product(acc, g.diff(x_name)._terms, prod._terms)
    _add_product(acc, g._terms, log._terms)
    term = Poly(g.ring, acc)
    return FsElement._make(e.instance, term, e._den, tuple(kj + 1 for kj in e._k))


def _add_product(acc, a, b):
    """acc += a * b in place, for term maps a and b of a commutative ring."""
    b = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            c = acc.get(e)
            c = c1 * c2 if c is None else c + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]


def _derivative_ladder(e: FsElement, x_names, betas, consts):
    """Iterator of (beta, D^beta e), once for each multi-index in betas
    (indexed like x_names); consts from _diff_constants.

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
    D^beta e is taken once from the derivative ladder, undivided over
    prod F_j^(k_j + |beta|), and multiplied by the polynomial sum of its
    group's multipliers.  The parts of one order |beta| are summed, and
    the sums are put over their common denominator k + max |beta| once,
    by Horner's rule in prod F; over Q on int coefficients, with the
    denominators of e's numerator and of the multipliers moved into the
    result's D (see the module docstring).  The result is undivided: the
    zero test and equality read it as it is, and its canonical form is
    made, by the only trial division of the action, when ``numerator``,
    ``k`` or ``str`` is first read.  A = 0 gives the zero numerator over
    e's canonical denominator.
    """
    inst = e.instance
    ring = inst.fs_ring()
    wr = A.ring
    if A.is_zero():
        return FsElement(inst, ring.zero(), e.k, reduce=False)

    x_names = [wr.names[pos] for pos, _ in wr.pairs]
    groups = A.coefficients_wrt([der for _, der in wr.pairs])
    groups = {beta: ring.convert(g) for beta, g in groups.items()}
    F = _int_family(inst)
    consts = _diff_constants(ring, F, inst.registry)
    start = e
    if ring.field is QQ:
        num, d_e = _cleared(e._num)
        d_A = _denominator(groups.values())
        groups = {beta: _on_ints(g, d_A) for beta, g in groups.items()}
        start = FsElement._make(inst, num, e._den * d_e * d_A, e._k)
    by_order = {}
    for beta, r in _derivative_ladder(start, x_names, groups, consts):
        _add_product(by_order.setdefault(sum(beta), {}), r._num._terms, groups[beta]._terms)
    orders = sorted(by_order)
    prod = consts[0]._terms
    total = by_order[orders[0]]
    for prev, t in zip(orders, orders[1:]):
        for _ in range(t - prev - 1):
            total, step = {}, total
            _add_product(total, step, prod)
        total, step = by_order[t], total
        _add_product(total, step, prod)
    total = Poly(ring, total)
    return FsElement._make(inst, total, start._den, tuple(kj + orders[-1] for kj in e._k))


def _common_denominator(F, parts):
    """Numerators of undivided parts (N, D, k) over one L prod F_j^K_j,
    K the componentwise maximum of the k (which may be negative) and L
    the lcm of the D; returns (numerators, L, K)."""
    K = tuple(max(col) for col in zip(*(k for _, _, k in parts)))
    L = math.lcm(*(d for _, d, _ in parts))
    out = []
    for num, d, k in parts:
        for Fj, Kj, kj in zip(F, K, k):
            if Kj > kj:
                num = num * Fj ** (Kj - kj)
        out.append(num.scale(L // d) if d != L else num)
    return out, L, K


def check_identity(b: Poly, P: WeylOp, inst: ProblemInstance) -> bool:
    """Exact check of act(P, f^(s+v)) = b(s) f^s, without division.

    act gives T / (D prod F_j^K_j) undivided, so the identity holds
    exactly when T prod F_j^max(0, -K_j) = D b prod F_j^max(0, K_j) as
    polynomials, both sides over Q on int coefficients; that is the
    comparison FsElement equality makes.
    """
    lhs = act(P, FsElement.shifted(inst))
    return lhs == FsElement.symbol(inst).scale_poly(b)


def congruence_remainder(h: Poly, b: Poly, U: WeylOp, inst: ProblemInstance):
    """r = h b f^s - U f^(s+v), the term that must lie in Q[x, 1/f, s] f^s.

    r is undivided; its canonical form is made once, when read."""
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
    F = _int_family(inst)
    consts = _diff_constants(ring, F, r)
    base_by_beta = dict(_derivative_ladder(FsElement.shifted(inst), r.x, betas, consts))
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
                elements.append((e._num * mono, e._den, e._k))
                p_exps.append(_exp(wring, w_names, alpha + beta + gamma))
    for gamma in gammas:
        mono = ring.monomial(_exp(ring, r.s, gamma))
        elements.append((-(symbol._num * mono), symbol._den, symbol._k))
    numerators, _, _ = _common_denominator(F, elements)

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

"""Exact gcd, squarefree decomposition and partial factorization over Q.

Factorization here is deliberately conservative: every factor carries a
flag stating whether its irreducibility is certified.  Certified cases
are monomials, univariate polynomials of degree at most three with no
rational root, linear factors from rational roots, and multivariate
polynomials of degree one in some variable with coprime coefficients.
Anything else is returned whole with the flag off, never guessed at.
Every nonzero rational root of a univariate piece is split off, so
:meth:`Factorization.roots` reads each factor's roots off its shape.
Rational roots are found by p-adic lifting from a small prime, which
factors no integer; each candidate is kept only after an exact test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import VerificationFailed, ZeroPolynomialError
from .groebner import normal_form
from .orders import mono_div
from .poly import Poly, QQ, _check_same_ring, term_arithmetic


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise.

    Under a monomial order the smallest term of q*g is the product of
    the smallest terms of q and g, so a quotient exists only if the
    smallest term of g divides that of f: that test rejects in one pass
    over the terms, before any division step.  The remainder is one term
    map, updated in place by the reduction kernel's step, on int pairs
    over Q.

    A single-term divisor c*x^e takes one pass instead: each term of f
    has its exponent shifted down by e and its coefficient divided by c,
    and the first term that x^e does not divide raises.
    """
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero")
    _check_same_ring(f, g)
    if len(g._terms) == 1:
        ((e, c),) = g._terms.items()
        q = {}
        for exp, v in f._terms.items():
            m = mono_div(exp, e)
            if m is None:
                raise ValueError("division is not exact")
            q[m] = v / c
        return Poly(f.ring, q)
    key = f.ring.order.cached_key
    if f._terms and mono_div(min(f._terms, key=key), min(g._terms, key=key)) is None:
        raise ValueError("division is not exact")
    arith = term_arithmetic(f.ring)
    q = {}
    r = arith.load(f)
    lg = g.lead_exp()
    gt = arith.element(g)
    while r:
        lt = max(r, key=key)
        m = mono_div(lt, lg)
        if m is None:
            raise ValueError("division is not exact")
        # leads of r strictly decrease, so every quotient term is new
        q[m] = arith.cancel_lead(r, lt, m, gt, lg)
    return Poly(f.ring, arith.export(q))


def divides(g: Poly, f: Poly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ValueError:
        return False


def _univar_coeffs(f: Poly, i: int):
    """Coefficient list of f along variable i; entries lie in the same ring."""
    out = [f.ring.zero()] * (f.degree_in(i) + 1)
    for (k,), c in f.coefficients_wrt([i]).items():
        out[k] = c
    return out


def _from_coeffs(ring, i, coeffs):
    acc = ring.zero()
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        exp = [0] * ring.nvars
        exp[i] = k
        acc = acc + c * ring.monomial(tuple(exp))
    return acc


def _deg(coeffs):
    for k in range(len(coeffs) - 1, -1, -1):
        if not coeffs[k].is_zero():
            return k
    return -1


def _content(coeffs):
    g = None
    for c in coeffs:
        if c.is_zero():
            continue
        g = c.monic() if g is None else multi_gcd(g, c)
        if g.is_constant():
            break
    return g


def multi_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd in a multivariate polynomial ring over a field.

    When either operand is a single term c*x^e, a constant included, the
    gcd is x^m with m the coordinatewise minimum of e and the exponents
    of the other operand: every divisor of a monomial is a monomial, and
    x^m is the largest one dividing each term of both.  Otherwise it
    uses the primitive polynomial remainder sequence, recursing on the
    coefficient ring through contents.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if len(f._terms) == 1 or len(g._terms) == 1:
        m = tuple(map(min, *f._terms, *g._terms))
        return f.ring.monomial(m)
    used = sorted(set(f.variables()) | set(g.variables()))
    if len(used) == 1:
        # Euclid: over a field, a univariate remainder is a normal form
        while not g.is_zero():
            f, g = g, normal_form(f, [g])
        return f.monic()
    i = used[0]
    ring = f.ring

    fc = _univar_coeffs(f, i)
    gc = _univar_coeffs(g, i)
    cont_f = _content(fc)
    cont_g = _content(gc)
    cont = multi_gcd(cont_f, cont_g)
    a = [exact_div(c, cont_f) for c in fc]
    b = [exact_div(c, cont_g) for c in gc]
    if _deg(a) < _deg(b):
        a, b = b, a
    # a and b stay primitive: the primitive parts, then r over its content
    while True:
        r = _prem(a, b, ring)
        if _deg(r) < 0:
            return (cont * _from_coeffs(ring, i, b)).monic()
        cr = _content(r)
        a, b = b, [exact_div(c, cr) for c in r]


def _prem(a, b, ring):
    """Pseudo-remainder of coefficient lists, content-insensitive."""
    db = _deg(b)
    lcb = b[db]
    b = b[: db + 1]
    r = list(a)
    while _deg(r) >= db:
        dr = _deg(r)
        r = r[: dr + 1]
        lcr = r[dr]
        shifted = [ring.zero()] * (dr - db) + b
        r = [lcb * rc for rc in r]
        for k in range(len(shifted)):
            r[k] = r[k] - lcr * shifted[k]
        if _deg(r) == dr:
            raise VerificationFailed("pseudo-division failed to drop the degree")
    return r


def squarefree_decomposition(f: Poly):
    """Write monic f as a product of squarefree parts with multiplicities.

    Returns a list of (w, k) with f = prod w^k, the w pairwise coprime,
    squarefree, monic, and nonconstant.  Characteristic zero only.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.is_constant():
        return []
    g = f
    for i in f.variables():
        g = multi_gcd(g, f.diff(i))
        if g.is_constant():
            break
    out = []
    c = exact_div(f, g).monic()
    g = g.monic()
    k = 1
    while not c.is_constant():
        d = multi_gcd(c, g)
        piece = exact_div(c, d).monic()
        if not piece.is_constant():
            out.append((piece, k))
        c = d
        if not d.is_constant():
            g = exact_div(g, d).monic()
        k += 1
    return out


def squarefree_part(f: Poly) -> Poly:
    acc = f.ring.one()
    for w, _ in squarefree_decomposition(f):
        acc = acc * w
    return acc


def _integer_coeffs(f: Poly, var: int):
    """The primitive integer form a_0..a_n of f, univariate in var."""
    vals = [c.const_value() for c in _univar_coeffs(f, var)]
    den_lcm = lcm(*(v.denominator for v in vals))
    ints = [int(v * den_lcm) for v in vals]
    content = gcd(*ints)
    return [z // content for z in ints]


def rational_roots(f: Poly, var: int):
    """All rational roots of a univariate polynomial over Q, ascending.

    A repeated root is listed once, and 0 is listed when the constant
    term vanishes.  The roots are those of the squarefree part of f,
    found by p-adic lifting (see ``_simple_rational_roots``).  Raises
    ValueError when f involves a variable other than var.
    """
    if any(i != var for i in f.variables()):
        raise ValueError("rational_roots takes a polynomial in its one variable")
    return _simple_rational_roots(_integer_coeffs(squarefree_part(f), var))


def _simple_rational_roots(ints):
    """Rational roots, ascending, of f = sum ints[i] x^i, squarefree and primitive.

    By p-adic lifting (R. Loos, SIAM J. Comput. 1983).  Take the least
    odd prime l that does not divide a_n and at which every root of f
    mod l is simple (f'(r) != 0 mod l); one exists, since f is squarefree
    and so l need only avoid the primes dividing a_n or the discriminant.
    Newton-lift each root r mod l to M = l^(2^k) > 2B, where
    B = |a_n| + max|a_i|, take c as the symmetric residue of a_n*r mod M,
    and keep c/a_n only if the exact integer value q^n f(p/q) is 0.

    Every rational root is found.  A root p/q in lowest terms has q | a_n,
    so q is a unit mod l and p/q maps to a root of f mod l.  That root is
    simple, so its lift to a root mod M is unique, and it is p/q mod M.
    a_n*p/q is an integer, and by the Cauchy bound |p/q| <= 1 +
    max|a_i/a_n| (i < n) it is at most B in size, so the symmetric
    residue mod M > 2B is a_n*p/q itself.  A missed root would be
    unsound: the cubic left over would be certified irreducible.
    """
    an = ints[-1]
    deriv = [i * c for i, c in enumerate(ints)][1:]
    l = 3
    while True:
        if an % l and all(l % d for d in range(3, isqrt(l) + 1, 2)):
            small = [c % l for c in ints]
            roots = [r for r in range(l) if _value_mod(small, r, l) == 0]
            if all(_value_mod(deriv, r, l) for r in roots):
                break
        l += 2
    bound = 2 * (abs(an) + max(map(abs, ints)))
    out = []
    for r in roots:
        m = l
        while m <= bound:
            m *= m
            r = (r - _value_mod(ints, r, m) * pow(_value_mod(deriv, r, m), -1, m)) % m
        c = an * r % m
        if 2 * c > m:
            c -= m
        root = Fraction(c, an)
        if _homogeneous_value(ints, root.numerator, root.denominator) == 0:
            out.append(root)
    return sorted(out)


def _value_mod(coeffs, x, m):
    """sum coeffs[i] x^i mod m, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _homogeneous_value(ints, p, q):
    """q^n * f(p/q) for f = sum ints[i] x^i of degree n, in integers."""
    acc = ints[-1]
    qpow = 1
    for c in reversed(ints[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc


@dataclass
class Factorization:
    """unit * prod(poly^multiplicity) reproduces the original polynomial."""

    unit: object
    factors: list  # (Poly monic, multiplicity, certified_irreducible)

    def expand(self, ring) -> Poly:
        acc = ring.const(1).scale(self.unit)
        for p, k, _ in self.factors:
            acc = acc * p**k
        return acc

    def all_certified(self) -> bool:
        return all(flag for _, _, flag in self.factors)

    def splits(self) -> bool:
        """Several distinct factors, or one with multiplicity above one."""
        return len(self.factors) > 1 or any(k > 1 for _, k, _ in self.factors)

    def is_irreducible(self) -> bool:
        """One factor, of multiplicity one, certified irreducible."""
        return len(self.factors) == 1 and self.factors[0][1] == 1 and self.factors[0][2]

    def roots(self) -> list:
        """The rational roots of each factor, a list aligned with ``factors``.

        A linear factor v - r with r != 0 has the one root r; every other
        factor lists none.  Each univariate piece but a monomial v (root
        0, listed as none) passes _factor_univar_squarefree, where
        p-adic lifting finds every nonzero rational root and each is split
        off as v - r, so no nonlinear univariate factor has one."""
        out = []
        for p, _, _ in self.factors:
            r = -p.const_value()
            linear = p.total_degree() == 1 and len(p.variables()) == 1
            out.append([r] if linear and r else [])
        return out

    def __str__(self):
        parts = [] if self.unit == 1 else [str(self.unit)]
        for p, k, flag in self.factors:
            body = "(%s)" % p
            if k != 1:
                body += "^%d" % k
            if not flag:
                body += "?"
            parts.append(body)
        return " * ".join(parts) if parts else "1"


def factor(f: Poly) -> Factorization:
    """Conservative factorization over Q; see the module docstring.

    No two factors are equal, so none need merging: the monomial content
    is shifted out first, so no later factor is a variable; squarefree
    parts are pairwise coprime; and ``_factor_squarefree`` splits a
    squarefree part into pairwise coprime pieces.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if not isinstance(f.ring.field, type(QQ)):
        raise ValueError("factorization is implemented over Q only")
    ring = f.ring
    unit = f.lead_coeff()
    f = f.monic()
    factors = []

    # monomial content
    mins = [min(exp[i] for exp in f._terms) for i in range(ring.nvars)]
    for i, k in enumerate(mins):
        if k > 0:
            factors.append((ring.var(i), k, True))
    if any(mins):
        shift = {}
        for exp, c in f._terms.items():
            shift[tuple(e - m for e, m in zip(exp, mins))] = c
        f = Poly(ring, shift)

    if f.is_constant():
        return Factorization(unit, factors)

    for w, mult in squarefree_decomposition(f):
        for piece, flag in _factor_squarefree(w):
            factors.append((piece, mult, flag))
    return Factorization(unit, factors)


def _factor_squarefree(w: Poly):
    """Split a squarefree monic polynomial; yields (piece, certified) pairs.

    The first variable along which w has a nonconstant content splits w
    into that content and its cofactor, and both are split again; a
    piece primitive along every variable is kept whole."""
    if w.is_constant():
        return []
    used = w.variables()
    if len(used) == 1:
        return _factor_univar_squarefree(w, used[0])
    for i in used:
        cont = _content(_univar_coeffs(w, i))  # monic, so the cofactor is too
        if not cont.is_constant():
            return _factor_squarefree(cont) + _factor_squarefree(exact_div(w, cont))
    return [(w, _certified_multivar_irreducible(w))]


def _certified_multivar_irreducible(w: Poly) -> bool:
    """True when w has degree one in some variable with coprime coefficients."""
    for v in w.variables():
        if w.degree_in(v) == 1:
            cont = _content(_univar_coeffs(w, v))
            if cont is not None and cont.is_constant():
                return True
    return False


def _factor_univar_squarefree(w: Poly, var: int):
    v = w.ring.var(var)
    roots = _simple_rational_roots(_integer_coeffs(w, var))
    out = [(v - w.ring.const(r), True) for r in roots]
    # w is monic and squarefree, so deg w roots make w their product
    if len(roots) < w.degree_in(var):
        for lin, _ in out:
            w = exact_div(w, lin)
        # quadratics and cubics without rational roots are irreducible
        out.append((w.monic(), w.degree_in(var) <= 3))
    return out

"""Exact gcd, squarefree decomposition and partial factorization over Q.

Factorization here is deliberately conservative: every factor carries a
flag stating whether its irreducibility is certified.  Certified cases
are monomials, univariate polynomials of degree at most three with no
rational root, linear factors from rational roots, and multivariate
polynomials of degree one in some variable with coprime coefficients.
Anything else is returned whole with the flag off, never guessed at.
Every nonzero rational root of a univariate piece is split off, so
:meth:`Factorization.roots` reads each factor's roots off its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import VerificationFailed, ZeroPolynomialError
from .groebner import normal_form
from .orders import mono_div
from .poly import Poly, QQ


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero")
    fld = f.ring.field
    q = {}
    r = f
    lg = g.lead_exp()
    lcg = g.lead_coeff()
    while not r.is_zero():
        m = mono_div(r.lead_exp(), lg)
        if m is None:
            raise ValueError("division is not exact")
        # leads of r strictly decrease, so every quotient term is new
        c = q[m] = fld.div(r.lead_coeff(), lcg)
        r = r.sub_mul_term(c, m, g)
    return Poly(f.ring, q)


def divides(g: Poly, f: Poly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ValueError:
        return False


def _univar_coeffs(f: Poly, i: int):
    """Coefficient list of f along variable i; entries lie in the same ring."""
    d = f.degree_in(i)
    out = [f.ring.zero()] * (d + 1)
    for exp, c in f._terms.items():
        rest = list(exp)
        k = rest[i]
        rest[i] = 0
        out[k] = out[k] + f.ring.monomial(tuple(rest), c)
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

    Uses the primitive polynomial remainder sequence, recursing on the
    coefficient ring through contents.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
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
    while True:
        r = _prem(a, b, ring)
        if _deg(r) < 0:
            pp = [exact_div(c, _content(b)) for c in b]
            return (cont * _from_coeffs(ring, i, pp)).monic()
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


def _divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(f: Poly, var: int):
    """All rational roots of a univariate polynomial over Q, ascending, by trial.

    Candidates are ±p/q in lowest terms with p dividing the trailing and q
    the leading coefficient of the integer primitive form.  Each is tested
    by the integer value q^n f(p/q), evaluated with Horner's rule.
    Assumes the trailing coefficient is nonzero (no root at 0).
    """
    coeffs = _univar_coeffs(f, var)
    vals = [c.const_value() for c in coeffs]
    den_lcm = lcm(*(v.denominator for v in vals))
    ints = [int(v * den_lcm) for v in vals]
    content = gcd(*ints)
    ints = [z // content for z in ints]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        raise ValueError("trailing coefficient is zero; remove the monomial part first")
    roots = []
    qs = _divisors(an)
    for p in _divisors(a0):
        for q in qs:
            if gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                if _homogeneous_value(ints, sign * p, q) == 0:
                    roots.append(Fraction(sign * p, q))
    return sorted(roots)


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
        rational_roots finds every nonzero rational root and each is split
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
    """Conservative factorization over Q; see the module docstring."""
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
        return Factorization(unit, _merge(factors))

    for w, mult in squarefree_decomposition(f):
        for piece, flag in _factor_squarefree(w):
            factors.append((piece, mult, flag))
    return Factorization(unit, _merge(factors))


def _merge(factors):
    out = []
    for p, k, flag in factors:
        for idx, (p2, k2, flag2) in enumerate(out):
            if p2 == p:
                out[idx] = (p2, k2 + k, flag2)
                break
        else:
            out.append((p, k, flag))
    return out


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
    out = [(v - w.ring.const(r), True) for r in rational_roots(w, var)]
    for lin, _ in out:
        w = exact_div(w, lin)
    if not w.is_constant():
        # quadratics and cubics without rational roots are irreducible
        out.append((w.monic(), w.degree_in(var) <= 3))
    return out

"""Minimal primes of parameter ideals, with explicit primality certificates.

The decomposition is by recursive splitting: whenever a reduced basis
element factors, the variety splits along the factors and each branch
strictly enlarges the ideal, so Noetherianity terminates the recursion.
A branch that no longer splits must then be certified prime by one of
three sound criteria (zero ideal, linear generators, principal with a
certified irreducible generator); if none applies the routine raises
``DecompositionUnsupported`` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionUnsupported, UnitIdealError, VerificationFailed
from .factor import factor, is_certified_irreducible
from .groebner import buchberger, ideal_dim, is_unit_ideal, normal_form


@dataclass(frozen=True)
class PrimeIdealQ:
    """A certified prime ideal in the parameter ring Q[a_1..a_m]."""

    ring: object
    generators: tuple
    basis: tuple  # reduced Groebner basis
    certificate: str

    def contains(self, f) -> bool:
        return normal_form(self.ring.convert(f), list(self.basis)).is_zero()

    def dim(self) -> int:
        return ideal_dim(list(self.basis), self.ring)

    def key(self):
        return tuple(str(b) for b in self.basis)

    def __str__(self):
        if not self.basis:
            return "<0>"
        return "<%s>" % ", ".join(str(b) for b in self.basis)


def certify_prime(basis, ring):
    """Return a primality certificate string, or None when undecided.

    Criteria, each sound on its own:
    - empty basis: the zero ideal of a polynomial ring over a field;
    - all basis elements of total degree one: the quotient is a
      polynomial ring in fewer variables;
    - a single basis element certified irreducible: principal ideals
      generated by irreducibles are prime in a UFD.
    """
    if not basis:
        return "zero ideal of a polynomial ring over a field"
    if all(b.total_degree() <= 1 for b in basis):
        return "generated by polynomials of degree one"
    if len(basis) == 1 and is_certified_irreducible(basis[0]):
        return "principal, generator certified irreducible"
    return None


def _split_factors(basis):
    """First basis element that factors; returns its distinct factors or None.

    A 'split' is any factorization discovery: several distinct factors,
    or a single factor appearing with multiplicity above one (replacing
    the generator by its reduction).
    """
    for g in basis:
        fac = factor(g)
        polys = [p for p, _, _ in fac.factors]
        if len(polys) >= 2 or (len(polys) == 1 and fac.factors[0][1] > 1):
            return polys
    return None


def minimal_primes(generators, ring, budget=None):
    """Minimal primes over the ideal generated by ``generators`` in ``ring``.

    Returns a deterministic list of PrimeIdealQ whose varieties cover
    V(generators) and which are pairwise incomparable.  Raises
    UnitIdealError when the input ideal is the whole ring (empty variety)
    and DecompositionUnsupported when a branch cannot be split further
    nor certified prime.
    """
    converted = [ring.convert(g) for g in generators]
    gens = [g for g in converted if not g.is_zero()]
    work = [tuple(gens)]
    seen = set()
    primes = {}
    first = True
    while work:
        if budget is not None:
            budget.tick()
        branch = work.pop(0)
        gb = buchberger(list(branch))
        key = tuple(str(b) for b in gb)
        if key in seen:
            continue
        seen.add(key)
        if is_unit_ideal(gb):
            if first:
                raise UnitIdealError("the input ideal is the unit ideal")
            continue
        first = False
        polys = _split_factors(gb)
        if polys is not None:
            for p in polys:
                if normal_form(p, gb).is_zero():
                    raise VerificationFailed(
                        "factor of a reduced basis element lies in the ideal"
                    )
                work.append(tuple(gb) + (p,))
            continue
        cert = certify_prime(gb, ring)
        if cert is None:
            raise DecompositionUnsupported(
                "cannot certify primality of <%s>"
                % ", ".join(str(b) for b in gb)
            )
        primes[key] = PrimeIdealQ(
            ring=ring, generators=tuple(gens), basis=tuple(gb), certificate=cert
        )

    # prune non-minimal primes: keep P unless some other prime sits below it
    items = list(primes.values())
    kept = []
    for i, p in enumerate(items):
        redundant = False
        for j, q in enumerate(items):
            if i == j:
                continue
            q_inside_p = all(p.contains(b) for b in q.basis)
            p_inside_q = all(q.contains(b) for b in p.basis)
            if q_inside_p and not p_inside_q:
                redundant = True
                break
        if not redundant:
            kept.append(p)
    kept.sort(key=lambda p: (len(p.basis), [str(b) for b in p.basis]))
    return kept


def the_zero_prime(ring) -> PrimeIdealQ:
    """The zero ideal of the parameter ring, packaged as a certified prime."""
    return PrimeIdealQ(
        ring=ring,
        generators=(),
        basis=(),
        certificate="zero ideal of a polynomial ring over a field",
    )

"""Built-in formations: membership, residuals, and local satellite tables.

Satellite values are membership predicates, not symbolic class algebra:
each F(p) entry is a concrete test such as "G/O_p(G) is abelian of
exponent dividing p-1".  The chief-central module cross-checks every
table entry against the semidirect-product definition of centrality; it
builds each chief factor's extension (H/K) x| (G/C_G(H/K)) once, shares it
across formations, and refuses one over the order cap before building it.

One table, `_TAGS`, names the one parameter field each tag takes (p, pi,
r, exp, or none).  Spec validation, CLI names and parsing all read it; a
CLI name is the tag in lower case, with `:` and the parameter only when
the tag takes one.

Every menu formation is subgroup-closed (hereditary: H <= G in F implies H
in F; Doerk & Hawkes, *Finite Soluble Groups*, IV.1).  The F-maximal search
in `intersections` relies on it, and the tests check it on the catalog; a
new tag must keep it or change that search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormalabError, NoSatellite, NotSoluble, PreconditionViolated
from .groups import (
    ORDER_CAP,
    Group,
    SubgroupSet,
    element_orders,
    memo,
    quotient_group,
)
from .lattice import (
    derived_subgroup,
    group_exponent,
    is_abelian,
    is_nilpotent,
    is_p_group,
    is_pi_group,
    is_small_prime,
    is_soluble,
    nilpotent_length,
    normal_subgroups,
    o_p,
    pi_part,
    prime_factors,
    subgroup_as_group,
)

_SATELLITE_FREE = ("SylTower", "AExp")
_UNSATURATED = ("AExp",)
# tag -> the one FormationSpec field it takes, or None
_TAGS = {"Triv": None, "All": None, "Sol": None, "Nil": None, "Sup": None,
         "pSup": "p", "pNilp": "p", "pDec": "p",
         "PiClosed": "pi", "GPi": "pi", "SPi": "pi",
         "AExp": "exp", "NA": None, "NilPow": "r", "SylTower": None}
_BY_NAME = {tag.lower(): tag for tag in _TAGS}
# field -> (what a value must be, the test of a value that is not None)
_NEEDS = {
    "p": (f"a prime parameter up to {ORDER_CAP}", is_small_prime),
    "pi": (f"a nonempty set of primes up to {ORDER_CAP}",
           lambda pi: bool(pi) and all(map(is_small_prime, pi))),
    "r": ("a length r >= 0", lambda r: r >= 0),
    "exp": ("a positive exponent", lambda e: e >= 1),
}


@dataclass(frozen=True)
class FormationSpec:
    """Tagged descriptor of one built-in, subgroup-closed formation; every
    field but the one its tag takes is None, so a formation has one spec."""

    tag: str
    p: int | None = None
    pi: frozenset[int] | None = field(default=None)
    r: int | None = None
    exp: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise PreconditionViolated(f"unknown formation tag {self.tag!r}")
        takes = _TAGS[self.tag]
        for name, (needs, valid) in _NEEDS.items():
            value = getattr(self, name)
            if name != takes and value is not None:
                raise PreconditionViolated(f"{self.tag} takes no {name}")
            if name == takes and (value is None or not valid(value)):
                raise PreconditionViolated(f"{self.tag} needs {needs}")

    @property
    def saturated(self) -> bool:
        return self.tag not in _UNSATURATED

    @property
    def has_satellite(self) -> bool:
        return self.tag not in _SATELLITE_FREE

    @property
    def cli_name(self) -> str:
        takes = _TAGS[self.tag]
        if takes is None:
            return self.tag.lower()
        value = getattr(self, takes)
        arg = ",".join(map(str, sorted(value))) if takes == "pi" else value
        return f"{self.tag.lower()}:{arg}"

    def __str__(self) -> str:
        return self.cli_name


TRIV = FormationSpec("Triv")
ALL = FormationSpec("All")
SOL = FormationSpec("Sol")
NIL = FormationSpec("Nil")
SUP = FormationSpec("Sup")
NA = FormationSpec("NA")
SYLTOWER = FormationSpec("SylTower")


def p_sup(p: int) -> FormationSpec:
    return FormationSpec("pSup", p=p)


def p_nilp(p: int) -> FormationSpec:
    return FormationSpec("pNilp", p=p)


def p_dec(p: int) -> FormationSpec:
    return FormationSpec("pDec", p=p)


def pi_closed(pi) -> FormationSpec:
    return FormationSpec("PiClosed", pi=frozenset(pi))


def g_pi(pi) -> FormationSpec:
    return FormationSpec("GPi", pi=frozenset(pi))


def s_pi(pi) -> FormationSpec:
    return FormationSpec("SPi", pi=frozenset(pi))


def a_exp(n: int) -> FormationSpec:
    return FormationSpec("AExp", exp=n)


def nil_pow(r: int) -> FormationSpec:
    return FormationSpec("NilPow", r=r)


def parse_formation(text: str) -> FormationSpec:
    """Parse CLI names like `sup`, `pnilp:3`, `piclosed:2,3`, `nilpow:2`.

    A name is a tag in lower case.  A parameterless name takes no `:`, and
    a parameterised one needs its parameter after the `:`.
    """
    name, colon, arg = text.strip().lower().partition(":")
    if name not in _BY_NAME:
        raise PreconditionViolated(f"unknown formation {text!r}")
    tag = _BY_NAME[name]
    takes = _TAGS[tag]
    if takes is None:
        if colon:
            raise PreconditionViolated(f"{name} takes no parameter, got {text!r}")
        return FormationSpec(tag)
    try:
        value = (frozenset(int(v) for v in arg.split(",")) if takes == "pi"
                 else int(arg))
    except ValueError as exc:
        raise PreconditionViolated(f"bad formation parameter in {text!r}") from exc
    return FormationSpec(tag, **{takes: value})


# -- membership -------------------------------------------------------------

def _pi_elements_form_normal_hall(G: Group, pi) -> bool:
    """True iff the pi-elements form a subgroup of full pi-part order."""
    pi = frozenset(pi)
    orders, which = np.unique(element_orders(G), return_inverse=True)
    mask = np.array([pi.issuperset(prime_factors(o)) for o in orders.tolist()])[which]
    elems = np.flatnonzero(mask)
    if elems.size != pi_part(G.n, pi):
        return False
    return bool(mask[G.mul[np.ix_(elems, elems)]].all())


def _chief_factor_orders(G: Group) -> list[int]:
    from .chiefs import chief_series  # deferred: chiefs imports this module
    return [f.order for f in chief_series(G).factors]


def is_member(F: FormationSpec, G: Group) -> bool:
    """Membership of G in the built-in formation F."""
    return _is_member(G, F)


@memo("member")
def _is_member(G: Group, F: FormationSpec) -> bool:
    tag = F.tag
    if tag == "Triv":
        return G.n == 1
    if tag == "All":
        return True
    if tag == "Sol":
        return is_soluble(G)
    if tag == "Nil":
        return is_nilpotent(G)
    if tag == "Sup":
        return all(prime_factors(o) == (o,) for o in _chief_factor_orders(G))
    if tag == "pSup":
        return all(o == F.p for o in _chief_factor_orders(G) if o % F.p == 0)
    if tag == "pNilp":
        pprime = [q for q in prime_factors(G.n) if q != F.p]
        return _pi_elements_form_normal_hall(G, pprime)
    if tag == "pDec":
        pprime = [q for q in prime_factors(G.n) if q != F.p]
        return (_pi_elements_form_normal_hall(G, (F.p,))
                and _pi_elements_form_normal_hall(G, pprime))
    if tag == "PiClosed":
        return _pi_elements_form_normal_hall(G, F.pi)
    if tag == "GPi":
        return is_pi_group(G, F.pi)
    if tag == "SPi":
        return is_pi_group(G, F.pi) and is_soluble(G)
    if tag == "AExp":
        return is_abelian(G) and F.exp % group_exponent(G) == 0
    if tag == "NA":
        sub, _ = subgroup_as_group(G, derived_subgroup(G))
        return is_nilpotent(sub)
    if tag == "NilPow":
        if not is_soluble(G):
            return False
        return nilpotent_length(G) <= F.r
    if tag == "SylTower":
        primes = sorted(prime_factors(G.n), reverse=True)
        return all(_pi_elements_form_normal_hall(G, primes[:i])
                   for i in range(1, len(primes)))
    raise PreconditionViolated(f"unhandled tag {tag!r}")


# -- residuals --------------------------------------------------------------

@memo("residual")
def residual(G: Group, F: FormationSpec) -> SubgroupSet:
    """Intersection of all normal N with G/N in F."""
    bits = (1 << G.n) - 1
    for N in normal_subgroups(G):
        if bits & N.bits == bits:
            continue  # intersection already inside N
        if is_member(F, quotient_group(G, N).target):
            bits &= N.bits
    res = SubgroupSet(G, bits, check=False)
    # menu formations are closed under subdirect products, so G/G^F is in F
    if not is_member(F, quotient_group(G, res).target):
        raise FormalabError(f"residual postcondition failed for {F} on {G.name}")
    return res


# -- canonical local satellites --------------------------------------------

def _p_residual_quotient(G: Group, p: int) -> Group:
    return quotient_group(G, o_p(G, p)).target


def satellite_member(F: FormationSpec, p: int, G: Group) -> bool:
    """Membership of G in the canonical local satellite value F(p)."""
    if not F.has_satellite:
        raise NoSatellite(f"{F} has no local satellite table")
    return _satellite_member(G, F, p)


def _abelian_of_exponent_dividing(G: Group, m: int) -> bool:
    if m <= 0:
        return G.n == 1
    return is_abelian(G) and m % group_exponent(G) == 0


@memo("sat")
def _satellite_member(G: Group, F: FormationSpec, p: int) -> bool:
    tag = F.tag
    if tag == "Triv":
        return False
    if tag == "All":
        return True
    if tag == "Sol":
        return is_soluble(G)
    if tag == "Nil":
        return is_p_group(G, p)
    if tag == "Sup":
        return _abelian_of_exponent_dividing(_p_residual_quotient(G, p), p - 1)
    if tag == "pSup":
        if p == F.p:
            return _abelian_of_exponent_dividing(_p_residual_quotient(G, p), p - 1)
        return is_member(F, G)
    if tag == "pNilp":
        if p == F.p:
            return is_p_group(G, p)
        return is_member(F, G)
    if tag == "pDec":
        if p == F.p:
            return is_p_group(G, p)
        return G.n % F.p != 0
    if tag == "PiClosed":
        if p in F.pi:
            return is_member(F, G)
        return all(q not in F.pi for q in prime_factors(G.n))
    if tag == "GPi":
        return p in F.pi and is_pi_group(G, F.pi)
    if tag == "SPi":
        return p in F.pi and is_pi_group(G, F.pi) and is_soluble(G)
    if tag == "NA":
        return is_abelian(_p_residual_quotient(G, p))
    if tag == "NilPow":
        if F.r == 0:
            return False
        return is_member(nil_pow(F.r - 1), _p_residual_quotient(G, p))
    raise PreconditionViolated(f"unhandled tag {tag!r}")

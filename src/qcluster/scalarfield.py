"""Exact scalar arithmetic for a single deformation parameter q.

A power q**e of the generic parameter q is its rational exponent e, a plain
Fraction (pairings, symmetrization factors, eigenvalues); exponents add
where the powers multiply, and q**e is a root of unity only for e = 0.
Two layers hold the scalars themselves:

* :class:`Coeff` is an element of the rational function field Q(u) where
  u = q**(1/root) and ``root`` is a fixed positive integer chosen per
  algebra instance.  Numerator and denominator are sparse polynomials
  {exponent: int} with integer coefficients, in one normal form, so
  equality is structural.  The numerator may have negative exponents (it
  is a Laurent polynomial); the denominator has lowest exponent 0 and a
  positive constant term and no common factor with the numerator; the
  integer coefficients of both together have gcd 1.  A Laurent element
  has the denominator {0: d}, one positive integer, so its arithmetic is
  integer dict arithmetic plus one gcd when d != 1.

* :class:`TermSum` is a finite sum {key: nonzero Coeff}, the common core
  of PBW and torus elements: sums, scaling, equality, the same-algebra
  check and exact right division (:func:`div_right`) are written once,
  and a subclass fixes the keys, their order and the product.

:meth:`Coeff.q_power` turns an exponent into the scalar q**e, and a bare
rational anywhere else is a rational value.  Inside, exponents arrive as
integer numerators over a denominator (the form ``bicharacter.ExpMatrix``
keeps), and :func:`_q_power`, the integer core behind ``Coeff.q_power``,
turns one into the u-monomial u**(num*root/den) with integer arithmetic
only.

Everything is immutable by convention; operations return fresh objects,
except that a product with the unit is the other factor itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# -- sparse polynomial helpers (dict exponent -> int, no zero values) --

# The denominator of every Laurent element with d = 1, and the numerator of
# the unit; no other numerator is this object, so `num is _UNIT` tells the
# unit without comparing dicts.
_UNIT = {0: 1}


def _padd(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _pmul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1:
        ((ka, va),) = a.items()
        return {ka + k: va * v for k, v in b.items()}
    if len(b) == 1:
        ((kb, vb),) = b.items()
        return {k + kb: v * vb for k, v in a.items()}
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            w = out.get(k)
            if w is None:
                out[k] = va * vb
            else:
                w = w + va * vb
                if w:
                    out[k] = w
                else:
                    del out[k]
    return out


def _pshift(a, d):
    if d == 0:
        return a
    return {k + d: v for k, v in a.items()}


def _primitive(a):
    """a divided by the gcd of its coefficients."""
    g = gcd(*a.values()) or 1
    return {k: v // g for k, v in a.items()}


def _pdivmod(a, b):
    """Quotient and remainder of a by b over Z (nonnegative exponents).

    Where b's leading coefficient does not divide, the remainder is scaled
    by it (a pseudo-remainder; the quotient is then of no use).  When b is
    primitive and divides a over Q, Gauss's lemma makes every step exact.
    """
    db = max(b)
    lb = b[db]
    rem = dict(a)
    quo: dict = {}
    while rem:
        dr = max(rem)
        if dr < db:
            break
        c, r = divmod(rem[dr], lb)
        if r:
            rem = {k: v * lb for k, v in rem.items()}
            c = rem[dr] // lb
        quo[dr - db] = c
        for k, v in b.items():
            kk = dr - db + k
            w = rem.get(kk, 0) - c * v
            if w:
                rem[kk] = w
            else:
                del rem[kk]
    return quo, rem


def _pgcd(a, b):
    """Primitive gcd over Q of two polynomials with nonnegative exponents."""
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _primitive(a)


class Coeff:
    """Element of Q(u), u = q**(1/root), in reduced normal form."""

    __slots__ = ("root", "num", "den")

    def __init__(self, root: int, num=None, den=None):
        if root < 1:
            raise ValueError("root must be a positive integer")
        self.root = root
        n = {int(k): Fraction(v) for k, v in (num or {}).items() if v}
        d = {int(k): Fraction(v) for k, v in den.items() if v} if den else {0: 1}
        s = lcm(*(v.denominator for p in (n, d) for v in p.values()))
        self.num, self.den = _normalize(
            *({k: int(v * s) for k, v in p.items()} for p in (n, d))
        )

    @classmethod
    def _make(cls, root, num, den):
        # internal: trusts that (num, den) is already in normal form
        obj = object.__new__(cls)
        obj.root = root
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls, root: int) -> "Coeff":
        return cls._make(root, {}, _UNIT)

    @classmethod
    def one(cls, root: int) -> "Coeff":
        return cls._make(root, _UNIT, _UNIT)

    @classmethod
    def from_fraction(cls, c, root: int) -> "Coeff":
        c = Fraction(c)
        if not c:
            return cls.zero(root)
        if c == 1:
            return cls.one(root)
        return cls._make(root, *_normalize({0: c.numerator}, {0: c.denominator}))

    @classmethod
    def q_power(cls, e, root: int) -> "Coeff":
        """The monomial q**e, e rational with denominator dividing root."""
        e = Fraction(e)
        return _q_power(e.numerator, e.denominator, root)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == _UNIT and self.den == _UNIT

    @property
    def is_laurent(self) -> bool:
        """True when the denominator is a constant."""
        return len(self.den) == 1

    @property
    def is_monomial(self) -> bool:
        return len(self.num) == 1 and len(self.den) == 1

    def q_exponent(self) -> Fraction:
        """Return e with self == q**e; requires a monomial with coeff 1."""
        if not self.is_monomial:
            raise ValueError(f"{self} is not a q power")
        ((k, v),) = self.num.items()
        if v != 1 or self.den[0] != 1:
            v = Fraction(v, self.den[0])
            raise ValueError(f"{self} is not a q power (coefficient {v})")
        return Fraction(k, self.root)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if type(other) is Coeff and other.root == self.root:
            return other
        if isinstance(other, (Coeff, int, Fraction)):
            return as_coeff(other, self.root)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.den, other.den
        if a is _UNIT and b is _UNIT:
            return Coeff._make(self.root, _padd(self.num, other.num), _UNIT)
        num = _padd(_pmul(self.num, b), _pmul(other.num, a))
        return Coeff._make(self.root, *_normalize(num, _pmul(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Coeff._make(self.root, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num is _UNIT:
            return self
        if self.num is _UNIT:
            return other
        num = _pmul(self.num, other.num)
        if self.den is _UNIT and other.den is _UNIT:
            return Coeff._make(self.root, num, _UNIT)
        return Coeff._make(self.root, *_normalize(num, _pmul(self.den, other.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return coeff_div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return coeff_div(other, self)

    def __pow__(self, m: int):
        if m == 0:
            return Coeff.one(self.root)
        base = self if m > 0 else self.inv()
        out = base
        for _ in range(abs(m) - 1):
            out = out * base
        return out

    def inv(self) -> "Coeff":
        """1/self; +-u**k inverts to +-u**-k directly, in coeff_div's normal form."""
        num = self.num
        if self.den is _UNIT and len(num) == 1:
            ((k, v),) = num.items()
            if v == 1 or v == -1:
                return Coeff._make(self.root, _UNIT if num == _UNIT else {-k: v}, _UNIT)
        if self.is_zero:
            raise ZeroDivisionError("inverting zero coefficient")
        return coeff_div(Coeff.one(self.root), self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return (
            self.root == other.root
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        # a constant equals its Fraction value (__eq__), so it hashes as one
        if len(self.den) == 1 and self.num.keys() <= {0}:
            return hash(Fraction(self.num.get(0, 0), self.den[0]))
        return hash(
            (self.root, frozenset(self.num.items()), frozenset(self.den.items()))
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        d = self.den[0]
        num = _poly_str(self.num, self.root, d)
        if len(self.den) == 1:
            return num
        return f"({num})/({_poly_str(self.den, self.root, d)})"


def _normalize(num: dict, den: dict):
    """Reduce num/den: units into the numerator, gcd and content out."""
    if not num:
        return {}, _UNIT
    if not den:
        raise ZeroDivisionError("zero denominator")
    vd = min(den)
    num, den = _pshift(num, -vd), _pshift(den, -vd)
    if len(den) > 1:
        vn = min(num)
        num = _pshift(num, -vn)
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        num = _pshift(num, vn)
    if den == _UNIT:
        return num, _UNIT
    c = gcd(*num.values(), *den.values())
    if den[0] < 0:
        c = -c
    den = {k: v // c for k, v in den.items()}
    return {k: v // c for k, v in num.items()}, _UNIT if den == _UNIT else den


def _q_power(num: int, den: int, root: int) -> Coeff:
    """q**(num/den) as the monomial u**(num*root/den), u = q**(1/root)."""
    k, r = divmod(num * root, den)
    if r:
        raise ValueError(
            f"exponent {Fraction(num, den)} not representable with root {root}"
        )
    if not k:
        return Coeff.one(root)
    return Coeff._make(root, {k: 1}, _UNIT)


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """Exact division a/b in Q(u); raises ZeroDivisionError on b = 0."""
    if a.root != b.root:
        raise ValueError("mixed coefficient roots")
    if b.is_zero:
        raise ZeroDivisionError("division by zero coefficient")
    if a.is_zero:
        return Coeff.zero(a.root)
    num = _pmul(a.num, b.den)
    den = _pmul(a.den, b.num)
    return Coeff._make(a.root, *_normalize(num, den))


def _div_laurent(c: Coeff, s: dict):
    """c / s for a Laurent polynomial s whose end coefficients are +-1, as
    a Laurent Coeff, or None when the quotient is not a Laurent polynomial.

    No gcd is needed.  A non-constant denominator of c is coprime to its
    numerator and has a nonzero root, so it stays in c / s.  Otherwise shift
    c's numerator and s to polynomials n, t in u with nonzero constant
    terms; u is a unit of Q[u, 1/u] coprime to t, so c / s is Laurent iff t
    divides n in Q[u].  Division in Q[u] is unique, so _pdivmod's remainder
    decides it, and as t's leading coefficient is +-1 each of its steps is
    exact over Z.  t is primitive, so by Gauss's lemma the quotient has n's
    content, coprime to c's denominator: the result is in normal form.
    """
    if not c.is_laurent:
        return None
    lo, lo_s = min(c.num), min(s)
    quo, rem = _pdivmod(_pshift(c.num, -lo), _pshift(s, -lo_s))
    return None if rem else Coeff._make(c.root, _pshift(quo, lo - lo_s), c.den)


def as_coeff(c, root: int) -> Coeff:
    """c, a Coeff with this root or a rational value, as a Coeff."""
    if isinstance(c, Coeff):
        if c.root != root:
            raise ValueError("mixed coefficient roots")
        return c
    return Coeff.from_fraction(c, root)


def _add_term(terms: dict, key, c: Coeff) -> None:
    """terms[key] += c, dropping the key when the sum cancels."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = c
    else:
        acc = acc + c
        if acc.is_zero:
            del terms[key]
        else:
            terms[key] = acc


class TermSum:
    """A finite sum of basis keys with nonzero Coeff coefficients.

    Subclasses fix the space the keys live in: they provide ``root``,
    ``_space`` (equal for sums that may meet; sums compare by it and their
    terms, so they are unhashable), ``_like`` (a sum in the same space with
    the given terms), ``_product``, and div_right's ordering and bound.
    """

    __slots__ = ("terms",)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self._space != other._space:
            raise ValueError("elements of different algebras")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self._space == other._space and self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, c)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        c = as_coeff(c, self.root)
        if c.is_zero:
            return self._like({})
        return self._like({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        return self.scaled(other)

    def __rmul__(self, other):
        # scalars are central, so left and right scaling agree
        return self.scaled(other)


def div_right(a: TermSum, b: TermSum) -> TermSum:
    """Exact right quotient: the c with c * b == a.

    Eliminates the leading term (largest ``_lead_key``) of the remainder
    against that of b: the quotient key is their difference, and its
    scalar is read off the actual product.  Both key orders are total and
    translation invariant, and leading terms multiply with a nonzero
    scalar: in PBW reverse lex every derivation term lies strictly below
    the product it corrects, and in torus graded lex a product of two
    monomials is one monomial.  So each step leaves a remainder with a
    smaller leading term, and while c exists the remainder is (c - found)
    * b: each key found is a key of c, with c's scalar, so it must pass
    ``_quotient_bound``, a test that all keys of c pass.  The falling keys
    end: PBW keys lie in N^N, which reverse lex well-orders, and torus keys
    in the finite box from min(a) - min(b) to max(a) - max(b), because
    grading by one coordinate makes the lowest and highest parts of c * b
    the nonzero products of those of c and b (the torus is a domain).  The
    loop ends only with a zero remainder, so the quotient is exact; a key
    failing the test raises ValueError, and b = 0 ZeroDivisionError.
    """
    a._check(b)
    if b.is_zero:
        raise ZeroDivisionError("division by zero element")
    key = a._lead_key
    gb = max(b.terms, key=key)
    allowed = a._quotient_bound(b)
    rem = dict(a.terms)
    quo: dict = {}
    while rem:
        ga = max(rem, key=key)
        gq = tuple(x - y for x, y in zip(ga, gb))
        if not allowed(gq):
            raise ValueError("right division is not exact")
        prod = a._like({gq: Coeff.one(a.root)})._product(b)
        c = rem[ga] / prod.terms[ga]
        quo[gq] = c
        for g, v in prod.terms.items():
            _add_term(rem, g, -(v * c))
    return a._like(quo)


def _poly_str(p: dict, root: int, d: int) -> str:
    """p/d as a sum of q powers, highest first (d > 0); each value and
    exponent k/root prints in lowest terms, as a Fraction does."""
    parts = []
    for k in sorted(p, reverse=True):
        g, h = gcd(p[k], d), gcd(k, root)
        v = str(p[k] // g) if g == d else f"{p[k] // g}/{d // g}"
        mono = "" if not k else "q" if k == root else (
            f"q^{k // h}" if h == root else f"q^({k // h}/{root // h})")
        parts.append(
            v if not mono else mono if v == "1" else f"-{mono}" if v == "-1" else f"{v}*{mono}"
        )
    return " + ".join(parts).replace("+ -", "- ")

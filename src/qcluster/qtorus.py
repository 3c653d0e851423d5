"""Based quantum torus elements and toric frames.

A torus element is a finite sum over the symmetrized basis {Y^(g)} of the
based quantum torus attached to a skew-symmetric exponent matrix: the basis
multiplies by Y^(f) Y^(g) = q**(f^T E g) Y^(f+g), so products never touch
the symmetrization scalars again.

A toric frame is a map g -> M(g) into some algebra, determined by its
images M(e_k) and its own exponent matrix.  Images are any objects
supporting +, *, scaled(); in this package they are either PBW elements of
an ambient algebra or torus elements over one fixed reference torus.
Negative entries of g are handled by inverting the corresponding image,
which must be a single torus monomial for that to make sense; identities
whose images live in an ambient algebra are instead checked after clearing
denominators, see :func:`check_frame_identity`.
"""

from __future__ import annotations

from .bicharacter import ExpMatrix, _pairing, _symmetrization
from .scalarfield import Coeff, TermSum, _add_term, _q_power

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class TorusElement(TermSum):
    """Sum of symmetrized basis monomials with Coeff coefficients."""

    __slots__ = ("base", "root")
    _lead_key = staticmethod(lambda g: (sum(g), g))  # graded lex

    def __init__(self, base: ExpMatrix, root: int, terms: dict):
        self.base = base
        self.root = root
        self.terms = terms

    @classmethod
    def one(cls, base: ExpMatrix, root: int) -> "TorusElement":
        return cls(base, root, {(0,) * base.n: Coeff.one(root)})

    @classmethod
    def basis(cls, base: ExpMatrix, root: int, g: Sequence[int]) -> "TorusElement":
        return cls(base, root, {tuple(int(x) for x in g): Coeff.one(root)})

    @property
    def _space(self) -> tuple:
        return self.base, self.root

    def _like(self, terms: dict) -> "TorusElement":
        return TorusElement(self.base, self.root, terms)

    def _product(self, other: "TorusElement") -> "TorusElement":
        return torus_mul(self, other)

    def _quotient_bound(self, other: "TorusElement"):
        box = [
            (min(xs) - min(ys), max(xs) - max(ys))
            for xs, ys in zip(zip(*self.terms), zip(*other.terms))
        ]
        return lambda g: all(lo <= x <= hi for x, (lo, hi) in zip(g, box))

    def inverse(self) -> "TorusElement":
        """Inverse of a single monomial c Y^(g), which is c^-1 Y^(-g)."""
        if len(self.terms) != 1:
            raise ValueError("only monomial torus elements are invertible here")
        ((g, c),) = self.terms.items()
        return self._like({tuple(-x for x in g): c.inv()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms):
            c = self.terms[g]
            parts.append(f"({c!r})*Y{list(g)}")
        return " + ".join(parts)


def torus_mul(a: TorusElement, b: TorusElement) -> TorusElement:
    """Product of torus elements in the symmetrized basis."""
    a._check(b)
    out: dict = {}
    base, root = a.base, a.root
    den = base.den
    for f, ca in a.terms.items():
        for g, cb in b.terms.items():
            p = _pairing(base, f, g)
            c = ca * cb * _q_power(p, den, root) if p else ca * cb
            _add_term(out, tuple(x + y for x, y in zip(f, g)), c)
    return TorusElement(base, root, out)


class ToricFrame:
    """Toric frame given by its exponent matrix and cluster variable images."""

    def __init__(self, emat: ExpMatrix, images: Sequence, one, root: int):
        if len(images) != emat.n:
            raise ValueError("one image per lattice direction required")
        self.emat = emat
        self.images = list(images)
        self.one = one
        self.root = root
        self.n = emat.n

    def __repr__(self) -> str:
        return f"ToricFrame(n={self.n})"


def frame_value(frame: ToricFrame, g: Sequence[int]):
    """M(g): the symmetrized ordered product of image powers.

    M(g) = q**S(g) M(e_0)**g_0 ... M(e_(n-1))**g_(n-1), S the frame's
    symmetrization; scalars are central, so q**S(g) rides on the first
    factor, and M(0) is the unit.  A torus monomial c Y^v has (c Y^v)**e =
    c**e Y^(ev) for every integer e, as its torus's base B is skew: v^T B v
    = 0, so Y^(av) Y^v = Y^((a+1)v), and c Y^v inverts to c**-1 Y^-v.  Any
    other image is multiplied e times; a negative exponent there raises
    ValueError.
    """
    g = tuple(int(x) for x in g)
    if len(g) != frame.n:
        raise ValueError("vector length mismatch")
    s = _symmetrization(frame.emat, g)
    scalar = _q_power(s, frame.emat.den, frame.root)
    out = None
    for k, e in enumerate(g):
        img = frame.images[k]
        if e and isinstance(img, TorusElement) and len(img.terms) == 1:
            ((v, c),) = img.terms.items()
            factors = [img._like({tuple(e * x for x in v): c**e})]
        elif e < 0:
            if isinstance(img, TorusElement):
                img.inverse()  # raises, as img is no monomial
            raise ValueError(f"negative exponent at {k}: image is not invertible here")
        else:
            factors = [img] * e
        for factor in factors:
            out = (factor.scaled(scalar) if s else factor) if out is None else out * factor
    return frame.one if out is None else out


def reindex_frame(frame: ToricFrame, perm: Sequence[int]) -> ToricFrame:
    """The frame relabeled by a permutation: its direction k is perm[k].

    This is the composed frame M o sigma for the permutation matrix
    sigma e_k = e_perm[k].  Its images are M(e_perm[k]) = images[perm[k]],
    a basis vector's symmetrization being 0, and its exponent matrix
    sigma^T E sigma has entries E[perm[a]][perm[b]] over the same den.  So
    the new frame's value at g' with g'[k] = g[perm[k]] is M(g).
    tests/oracles.py keeps the route for any sigma in GL_N(Z).
    """
    if sorted(perm) != list(range(frame.n)):
        raise ValueError("perm is not a permutation of the frame's directions")
    emat = frame.emat
    num = emat.num
    return ToricFrame(
        ExpMatrix._make(tuple(tuple(num[a][b] for b in perm) for a in perm), emat.den),
        [frame.images[k] for k in perm],
        frame.one,
        frame.root,
    )


def check_frame_identity(frame: ToricFrame, target, combos) -> bool:
    """Check target == sum_i q**s_i * M(g_i) for combos [(s_i, g_i)].

    The s_i are exponents, and the g_i may be negative.  Both sides are
    left multiplied by M(m), m[j] = max(0, -min_i g_i[j]), which turns
    every frame value into a product of plain images:

        M(m) * target == sum_i q**(s_i + omega(m, g_i)) * M(m + g_i).

    This keeps the check meaningful for frames whose images live in an
    ambient algebra without invertible generators.  Each term's scalar is
    formed once, from the sum of its exponents.
    """
    combos = [(s, tuple(int(x) for x in g)) for s, g in combos]
    m = [0] * frame.n
    for _, g in combos:
        for j, x in enumerate(g):
            if -x > m[j]:
                m[j] = -x
    m = tuple(m)
    lhs = frame_value(frame, m) * target
    rhs = None
    den = frame.emat.den
    for s, g in combos:
        shifted = tuple(a + b for a, b in zip(m, g))
        # s + omega(m, g) over the denominator s.denominator * den
        e = s.numerator * den + _pairing(frame.emat, m, g) * s.denominator
        term = frame_value(frame, shifted).scaled(_q_power(e, s.denominator * den, frame.root))
        rhs = term if rhs is None else rhs + term
    return lhs == rhs

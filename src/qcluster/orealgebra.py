"""Iterated skew polynomial algebras in PBW normal form.

A :class:`Presentation` fixes N generators x_0, ..., x_{N-1} subject to

    x_k x_j = q**lam[k][j] x_j x_k + delta_k(x_j)      (k > j)

where each delta_k(x_j) is a finite sum of normal monomials supported on
indices < k.  Elements are kept in the PBW basis x_0^{a_0} ... x_{N-1}^{a_N}
(exponent tuples), with coefficients in the exact field Q(q**(1/root)).

Monomials are compared in reverse lexicographic order: f < g when at the
highest index where they differ, f has the smaller exponent.  Each
delta_k(x_j) is required to be strictly smaller than e_j + e_k and to have
the same weight; that guard is what makes the rewriting below terminate
(see :func:`check_overlaps`, which also certifies that the normal forms
are well defined).  :func:`check_cgl` adds the torus, lambda_k and local
nilpotence conditions of a CGL extension, on which the prime recursion
relies; every presentation passes it once, at load or on first use.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Optional, Sequence

from .bicharacter import ExpMatrix, _pairing
from .linalg import _eliminate
from .scalarfield import Coeff, TermSum, _add_term, _q_power, as_coeff


def _rev_key(f):
    """The sort key of the reverse-lex PBW order on exponent tuples."""
    return tuple(reversed(f))


def _default_root(lam: ExpMatrix) -> int:
    """Twice the common denominator of the exponents: q**(1/root) suffices."""
    return 2 * lam.den


# The largest root a loaded presentation may declare or imply.  Read at a root
# they were not written for, coefficients denote another algebra with dense
# scalars: on the 2x2 preset's, bmatrix fails after 0.3 s at root 1,000, 7.7 s
# at 10,000 and over a minute at 100,000 (Python 3.11, 2 vCPU).  Presets use 2.
MAX_ROOT = 1000


def _integer(x, key: str) -> int:
    """x as an int; ValueError when its value is not an integer."""
    if type(x) is int:
        return x
    v = Fraction(x)
    if v.denominator != 1:
        raise ValueError(f"{key} entry {x!r} is not an integer")
    return int(v)


def _exponents(vals) -> tuple:
    """q-exponents as Fractions; None (no scalar) stays."""
    return tuple(None if v is None else Fraction(v) for v in vals)


class Presentation:
    """Generators, commutation exponents, derivation table, torus weights."""

    def __init__(
        self,
        lam: ExpMatrix,
        delta: dict,
        weights: Sequence[Sequence[int]],
        lam_diag: Sequence[Optional[Fraction]],
        lam_star: Optional[Sequence[Optional[Fraction]]] = None,
        eta: Optional[Sequence[int]] = None,
        names: Optional[Sequence[str]] = None,
        root: Optional[int] = None,
    ):
        n = lam.n
        self.n = n
        self.lam = lam
        self.root = _default_root(lam) if root is None else _integer(root, "root")
        if self.root < 1:
            raise ValueError("root must be a positive integer")
        self.weights = tuple(
            tuple(_integer(w, "weights") for w in ws) for ws in weights
        )
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(n))
        self.lam_diag = _exponents(lam_diag)
        self.lam_star = _exponents(lam_star) if lam_star is not None else (None,) * n
        self.eta = None if eta is None else tuple(_integer(e, "eta") for e in eta)
        for key, vals in (
            ("weights", self.weights),
            ("names", self.names),
            ("lambda_diag", self.lam_diag),
            ("lambda_star", self.lam_star),
            ("eta", self.eta),
        ):
            if vals is not None and len(vals) != n:
                raise ValueError(f"{key} has {len(vals)} entries for {n} generators")
        wlen = len(self.weights[0]) if n else 0
        if any(len(w) != wlen for w in self.weights):
            raise ValueError("ragged weight vectors")

        table: dict = {}
        symmetric = True
        for (k, j), terms in delta.items():
            if not (0 <= j < k < n):
                raise ValueError(f"bad derivation key ({k},{j})")
            clean = []
            target_w = tuple(
                a + b for a, b in zip(self.weights[k], self.weights[j])
            )
            ejk = [0] * n
            ejk[j] += 1
            ejk[k] += 1
            for f, c in terms:
                f = tuple(_integer(x, "monomial") for x in f)
                if len(f) != n or any(x < 0 for x in f):
                    raise ValueError(f"bad monomial {f} in delta[{k},{j}]")
                c = as_coeff(c, self.root)
                if c.is_zero:
                    continue
                sup = [i for i, x in enumerate(f) if x]
                if sup and sup[-1] >= k:
                    raise ValueError(
                        f"delta[{k},{j}] monomial {f} not supported below {k}"
                    )
                if not _rev_key(f) < _rev_key(ejk):
                    raise ValueError(
                        f"delta[{k},{j}] monomial {f} not below e_{j}+e_{k}"
                    )
                if self._mono_weight(f) != target_w:
                    raise ValueError(
                        f"delta[{k},{j}] monomial {f} breaks weight homogeneity"
                    )
                if sup and sup[0] <= j:
                    symmetric = False
                clean.append((f, c))
            if clean:
                table[(k, j)] = tuple(clean)
        self.delta = table
        self.symmetric = symmetric
        # the one unit of the rewriting core: _terms_times_gen skips it
        self._one = Coeff.one(self.root)
        # the term dict of each generator, which every gen(k) shares
        self._gens = [{tuple(int(i == k) for i in range(n)): self._one} for k in range(n)]
        # caches, filled on first use
        self._mtg_cache: dict = {}
        self._lam_coeffs: dict = {}
        self._nu: Optional[ExpMatrix] = None

    # -- small constructors -------------------------------------------------

    def zero(self) -> "PBWElement":
        return PBWElement(self, {})

    def one(self) -> "PBWElement":
        return self.monomial((0,) * self.n)

    def gen(self, k: int) -> "PBWElement":
        return PBWElement(self, self._gens[k])

    def monomial(self, f: Sequence[int], coeff=1) -> "PBWElement":
        c = as_coeff(coeff, self.root)
        f = tuple(int(x) for x in f)
        if len(f) != self.n:
            raise ValueError("exponent tuple has wrong length")
        if c.is_zero:
            return self.zero()
        return PBWElement(self, {f: c})

    def element(self, terms) -> "PBWElement":
        out: dict = {}
        for f, c in terms:
            c = as_coeff(c, self.root)
            if not c.is_zero:
                _add_term(out, tuple(int(x) for x in f), c)
        return PBWElement(self, out)

    def _mono_weight(self, f) -> tuple:
        wlen = len(self.weights[0]) if self.n else 0
        acc = [0] * wlen
        for i, x in enumerate(f):
            if x:
                wi = self.weights[i]
                for t in range(wlen):
                    acc[t] += x * wi[t]
        return tuple(acc)

    def nu(self) -> ExpMatrix:
        """The square-root commutation matrix (half the lam exponents)."""
        if self._nu is None:
            self._nu = self.lam.scaled(Fraction(1, 2))
        return self._nu

    # -- rewriting core ------------------------------------------------------

    def _mono_times_gen(self, f: tuple, j: int) -> dict:
        """Normal form of x^f * x_j as {monomial: Coeff}."""
        key = (f, j)
        hit = self._mtg_cache.get(key)
        if hit is not None:
            return hit
        L = -1
        for i in range(self.n - 1, -1, -1):
            if f[i]:
                L = i
                break
        if L <= j:
            g = list(f)
            g[j] += 1
            out = {tuple(g): self._one}
            self._mtg_cache[key] = out
            return out
        fp = list(f)
        fp[L] -= 1
        fp = tuple(fp)
        lam_c = self._lam_coeffs.get((L, j))
        if lam_c is None:
            lam = self.lam
            lam_c = _q_power(lam.num[L][j], lam.den, self.root)
            self._lam_coeffs[(L, j)] = lam_c
        out: dict = {}
        for g, c in self._mono_times_gen(fp, j).items():
            gg = list(g)
            gg[L] += 1
            out[tuple(gg)] = c * lam_c
        dterms = self.delta.get((L, j))
        if dterms:
            for g, dc in dterms:
                for h, c in self._times_mono({fp: self._one}, g).items():
                    _add_term(out, h, c * dc)
        self._mtg_cache[key] = out
        return out

    def _terms_times_gen(self, terms: dict, j: int) -> dict:
        one = self._one
        out: dict = {}
        for f, c in terms.items():
            for h, c2 in self._mono_times_gen(f, j).items():
                _add_term(out, h, c if c2 is one else c * c2)
        return out

    def _times_mono(self, terms: dict, g: tuple) -> dict:
        """Normal form of (sum of terms) * x^g, one generator at a time."""
        for j, e in enumerate(g):
            for _ in range(e):
                terms = self._terms_times_gen(terms, j)
        return terms

    def __repr__(self) -> str:
        return f"Presentation({self.n} generators, root {self.root})"


class PBWElement(TermSum):
    """Finite sum of PBW monomials with exact coefficients."""

    __slots__ = ("pres",)
    _lead_key = staticmethod(_rev_key)

    def __init__(self, pres: Presentation, terms: dict):
        self.pres = pres
        self.terms = terms

    @property
    def root(self) -> int:
        return self.pres.root

    @property
    def _space(self) -> Presentation:
        return self.pres

    def _like(self, terms: dict) -> "PBWElement":
        return PBWElement(self.pres, terms)

    def _product(self, other: "PBWElement") -> "PBWElement":
        return pbw_mul(self, other)

    def _quotient_bound(self, other: "PBWElement"):
        return lambda g: all(x >= 0 for x in g)

    def support_max(self) -> int:
        """Largest generator index occurring, or -1 for scalars."""
        top = -1
        for f in self.terms:
            for i in range(self.pres.n - 1, top, -1):
                if f[i]:
                    top = i
                    break
        return top

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.pres.names
        parts = []
        for f in sorted(self.terms, key=_rev_key, reverse=True):
            c = self.terms[f]
            factors = []
            for i, e in enumerate(f):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors) if factors else "1"
            cs = repr(c)
            if cs == "1" and factors:
                parts.append(mono)
            elif cs == "-1" and factors:
                parts.append(f"-{mono}")
            else:
                if ("+" in cs or "-" in cs[1:]) and not cs.startswith("("):
                    cs = f"({cs})"
                parts.append(cs if not factors else f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def pbw_mul(a: PBWElement, b: PBWElement) -> PBWElement:
    """Product in the algebra, result in PBW normal form."""
    a._check(b)
    pres = a.pres
    out: dict = {}
    for g, cb in b.terms.items():
        for f, c in pres._times_mono(a.terms, g).items():
            _add_term(out, f, c * cb)
    return PBWElement(pres, out)


def leading_term(a: PBWElement) -> tuple:
    """(exponent tuple, coefficient) of the reverse-lex largest monomial."""
    if a.is_zero:
        raise ValueError("leading term of zero")
    f = max(a.terms, key=_rev_key)
    return f, a.terms[f]


def weight_of(a: PBWElement) -> tuple:
    """Common weight vector of all monomials; raises if inhomogeneous."""
    if a.is_zero:
        raise ValueError("weight of zero is undefined")
    it = iter(a.terms)
    w = a.pres._mono_weight(next(it))
    for f in it:
        if a.pres._mono_weight(f) != w:
            raise ValueError("element is not weight homogeneous")
    return w


def apply_sigma_delta(pres: Presentation, k: int, a: PBWElement):
    """The automorphism/derivation pair of the k-th Ore step applied to a.

    sigma_k scales each monomial x^f by q**(e_k^T lam f); delta_k is the
    difference x_k a - sigma_k(a) x_k, which lands back in the subalgebra
    on indices < k.  Requires a supported on indices < k.
    """
    if a.pres is not pres:
        raise ValueError("element from a different presentation")
    if a.support_max() >= k:
        raise ValueError(f"element not supported below generator {k}")
    ek = [0] * pres.n
    ek[k] = 1
    lam = pres.lam
    sig_terms = {}
    for f, c in a.terms.items():
        sig_terms[f] = c * _q_power(_pairing(lam, ek, f), lam.den, pres.root)
    sig = PBWElement(pres, sig_terms)
    xk = pres.gen(k)
    delta = pbw_mul(xk, a) - pbw_mul(sig, xk)
    if delta.support_max() >= k:
        raise ValueError(f"derivation {k} left the subalgebra")
    return sig, delta


def quantum_matrix_preset(m: int, n: int) -> Presentation:
    """Quantized coordinate ring of m x n matrices.

    Generator index k = r*n + c (rows r in [0,m), columns c in [0,n)), name
    t{r+1}{c+1}.  Same-row and same-column pairs q-commute; strictly
    southeast pairs carry the standard derivation term.  Weights live in
    Z^(m+n), the row/column torus.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix shape must be positive")
    N = m * n
    root = 2
    upper = {}
    delta = {}
    qdiff = Coeff(root, {2: Fraction(-1), -2: Fraction(1)})  # -(q - q^-1)
    for k in range(N):
        r2, c2 = divmod(k, n)
        for j in range(k):
            r1, c1 = divmod(j, n)
            if r1 == r2 or c1 == c2:
                upper[(j, k)] = 1
            elif c1 < c2:
                f = [0] * N
                f[r1 * n + c2] += 1
                f[r2 * n + c1] += 1
                delta[(k, j)] = ((tuple(f), qdiff),)
    lam = ExpMatrix.from_upper(N, upper)
    weights = []
    names = []
    eta = []
    for k in range(N):
        r, c = divmod(k, n)
        w = [0] * (m + n)
        w[r] = 1
        w[m + c] = -1
        weights.append(w)
        sep = "" if m <= 9 and n <= 9 else "_"
        names.append(f"t{r + 1}{sep}{c + 1}")
        eta.append(c - r)
    pres = Presentation(
        lam, delta, weights, [-2] * N, [2] * N, eta=eta, names=names, root=root
    )
    _CERTIFIED.add(pres)  # code, not input: certified by a test up to 5x5
    return pres


def check_overlaps(pres: Presentation) -> None:
    """Certify that the PBW monomials are a basis (Bergman's diamond lemma).

    The rules x_k x_j -> q**lam[k][j] x_j x_k + delta_k(x_j), k > j, have no
    inclusion ambiguities; their overlap ambiguities are the words
    x_k x_j x_i with k > j > i.  The rewriting terminates: order words first
    by their exponent multiset, compared lexicographically from the highest
    index -- a well-order on N^N, compatible with multiplication because it
    is invariant under adding a vector -- and break ties by the number of
    inversions.  Both are compatible with multiplication on either side.  A
    rule either swaps one inverted neighbour pair (same multiset, one
    inversion fewer) or writes a delta monomial, whose exponent is strictly
    below e_j + e_k (the reverse-lex guard in Presentation).  By the lemma
    the normal forms are well defined, so the tables present an iterated
    Ore extension with the PBW basis, exactly when (x_k x_j) x_i and
    x_k (x_j x_i) have one normal form for every k > j > i.  Raises
    ValueError naming the first (k, j, i) that fails.

    Presentations built from a certified one inherit the certificate:
    ``rescale_generators`` applies the automorphism x_i -> gamma_i x_i of
    the free algebra for the nonzero gamma its caller solved, which sends
    each rule to a nonzero multiple of a rule and so each reduction to a
    reduction.  Where the rules among x_j..x_k have
    right-hand sides in that range (``primeseq._check_range``), their
    overlaps are overlaps of the whole, rewritten by the same steps, so they
    present the subalgebra on x_j..x_k: interval primes and the first-column
    windows run inside the certified algebra and need no certificate of
    their own.

    The check costs 0.07 s at 4x5 and 0.17 s at 5x5 (Python 3.11, 2 vCPU),
    a large share of a request on those shapes.  So it runs within
    :func:`check_cgl` on every load, and the built-in
    ``quantum_matrix_preset``, which is code rather than input, is certified
    by a test over every shape up to 5x5 instead.
    """
    gens = [pres.gen(i) for i in range(pres.n)]
    for k in range(pres.n):
        for j in range(k):
            xkxj = pbw_mul(gens[k], gens[j])
            for i in range(j):
                left = pbw_mul(xkxj, gens[i])
                if left != pbw_mul(gens[k], pbw_mul(gens[j], gens[i])):
                    raise ValueError(
                        f"overlap ({k},{j},{i}) does not resolve: "
                        f"(x{k} x{j}) x{i} and x{k} (x{j} x{i}) have different "
                        "normal forms, so the derivation table is inconsistent "
                        "with the commutation exponents"
                    )


# Presentations proved CGL extensions: by check_cgl, or by construction
# (quantum_matrix_preset, and primeseq.rescale_generators of a certified
# algebra by a nonzero gamma)
_CERTIFIED: "weakref.WeakSet[Presentation]" = weakref.WeakSet()


def check_cgl(pres: Presentation) -> None:
    """Certify pres a CGL extension, then record it in _CERTIFIED.

    A CGL extension (Goodearl-Yakimov, arXiv:1208.6267) is an iterated Ore
    extension, R_k = R_(k-1)[x_k; sigma_k, delta_k], with a torus H acting by
    automorphisms, every x_i an H-eigenvector, such that each sigma_k is the
    action of some h_k in H with h_k x_k = lambda_k x_k, lambda_k not a root
    of unity, and each delta_k is locally nilpotent.  check_overlaps proves
    the Ore extension; the rest forms no product.  Raises ValueError naming
    the stage and the condition.

    Torus.  x_i -> q**h_i x_i respects the relations iff h.f = h_b + h_a for
    each monomial f of each delta[b, a].  These h form a subspace V of Q^N,
    whose torus acts on R.  Stage k needs some h in V with h_j = lam[k][j]
    for j < k, and h_k = lambda_diag[k] where declared.  One fraction-free
    elimination of the rows f - e_a - e_b, highest index first, decides every
    stage: each reduced row gives its highest index in terms of lower free
    ones, so a prefix extends into V iff it satisfies the rows ending in it.

    lambda_k.  q is transcendental, so q**e is a root of unity only for
    e = 0, which is rejected where delta_k acts.  Where delta_k = 0,
    R_k = R_(k-1)[x_k; sigma_k] and the theorem's step needs no lambda_k.

    Local nilpotence.  h_k applied to x_k a = sigma_k(a) x_k + delta_k(a)
    gives sigma_k delta_k = lambda_k delta_k sigma_k, so by the q-Leibniz
    rule delta^n(ab) is a sum of multiples of sigma^i delta^(n-i)(a)
    delta^i(b).  Hence the elements that some power of delta = delta_k
    kills form a subalgebra.  Where the graph i -> l, x_l in delta_k(x_i),
    is acyclic, each x_i lies in it, by induction from the sinks: delta_k(x_i)
    is a polynomial in generators already shown to lie in it.

    Intervals.  Where the derivations among x_lo..x_top stay among them
    (primeseq._check_range), R_[lo,top] is certified with pres: its overlaps
    are overlaps of pres (see check_overlaps), each h in V restricts to a
    solution of its constraints (a subset of those of pres), lambda_k is
    unchanged and its graphs are subgraphs.
    """
    check_overlaps(pres)
    n, lam, delta = pres.n, pres.lam, pres.delta
    # the rows f - e_a - e_b, highest index first, and after elimination each
    # nonzero row in index order with the highest index it involves
    mat = [list(r) for r in {
        tuple(f[i] - (i == a) - (i == b) for i in reversed(range(n)))
        for (b, a), terms in delta.items() for f, _ in terms
    }]
    ends = [(n - 1 - c, mat[r][::-1]) for r, c in enumerate(_eliminate(mat, n)[0])]
    for k in range(n):
        lam_k = pres.lam_diag[k]
        acts = [i for i in range(k) if (k, i) in delta]
        if acts and not lam_k:
            raise ValueError(
                f"stage {k}: lambda_diag[{k}] is {lam_k} where delta_{k} acts; "
                "it must be a nonzero exponent"
            )
        g = [lam.entry(k, j) for j in range(k)] + ([] if lam_k is None else [lam_k])
        if any(e < len(g) and sum(x * y for x, y in zip(g, row)) for e, row in ends):
            raise ValueError(
                f"stage {k}: torus condition fails: no automorphism x_i -> q^h_i x_i "
                f"acts as sigma_{k}" + ("" if lam_k is None else f" with h_{k} = {lam_k}")
            )
        left = {i: {l for f, _ in delta[(k, i)] for l, x in enumerate(f) if x} for i in acts}
        while left:
            sinks = [i for i, out in left.items() if not out & left.keys()]
            if not sinks:
                raise ValueError(
                    f"stage {k}: local nilpotence unproved: the graph i -> l, x_l in "
                    f"delta_{k}(x_i), has a cycle among {sorted(left)}"
                )
            for i in sinks:
                del left[i]
    _CERTIFIED.add(pres)


def _exact(v, where: str):
    """v unchanged; ValueError when it is a JSON float, which would be read
    as its binary expansion rather than as the number it spells, or a JSON
    boolean, which would be read as 1 or 0."""
    if isinstance(v, (float, bool)):
        kind = "float" if isinstance(v, float) else "boolean"
        raise ValueError(
            f"{where} has a {kind} value {v!r}; "
            "write it as an integer or a fraction string"
        )
    return v


def _json_list(v, where: str) -> list:
    """v unchanged; ValueError unless it is a JSON list, not a string or an
    object that would be read as its characters or keys."""
    if not isinstance(v, list):
        raise ValueError(f"{where} is not a list")
    return v


def presentation_from_dict(data: dict) -> Presentation:
    """Build a presentation from plain JSON-style data.

    Expected keys: "lambda" (N x N exponent matrix, entries int/"a/b"),
    "weights" (N integer vectors), "lambda_diag" and optionally
    "lambda_star" (exponent lists, null allowed), optional "delta"
    ({"k,j": [[monomial, coeff], ...]} with monomial a list of N integers
    and coeff a u-polynomial {"exp": int or "frac"} or an exponent; one
    key per pair k, j), optional "eta" (a list of integers), "names" (a
    list of strings), "root" (a positive integer).  Every list named here
    must be a JSON list, and a JSON float or boolean in an exponent, a
    coefficient, a monomial, a weight or eta is a ValueError.

    The finished algebra is certified by :func:`check_cgl`, since a
    malformed derivation table yields an inconsistent rewriting system, or
    an algebra outside the CGL class, rather than an error.
    """
    lam = ExpMatrix(
        [
            [
                Fraction(_exact(x, f"lambda[{r}][{t}]"))
                for t, x in enumerate(_json_list(row, f"lambda[{r}]"))
            ]
            for r, row in enumerate(_json_list(data["lambda"], "lambda"))
        ]
    )
    n = lam.n
    if n == 0:
        raise ValueError("a presentation needs at least one generator")
    # read once, before any coefficient is built with it
    root = _exact(data.get("root"), "root")
    root = _default_root(lam) if root is None else _integer(root, "root")
    if root < 1:
        raise ValueError("root must be a positive integer")

    def listed(key):
        """data[key], a list without JSON floats, or None when absent or null."""
        vals = data.get(key)
        if vals is None:
            return None
        return [_exact(v, f"{key}[{i}]") for i, v in enumerate(_json_list(vals, key))]

    delta = {}
    table = data.get("delta")
    if table is None:  # absent or null: no derivations
        table = {}
    if not isinstance(table, dict):  # false, [] and "" included
        raise ValueError("delta is not an object")
    for key, terms in table.items():
        k, j = (int(x) for x in key.split(","))
        if (k, j) in delta:
            raise ValueError(f"delta[{key}] repeats the pair ({k},{j})")
        parsed = []
        for mono, coeff in terms:
            if isinstance(coeff, dict):
                c = Coeff(
                    root,
                    {
                        int(e): Fraction(_exact(v, f"delta[{key}] coefficient {coeff}"))
                        for e, v in coeff.items()
                    },
                )
            else:
                e = _exact(coeff, f"delta[{key}] exponent")
                c = Coeff.q_power(Fraction(e), root)
            where = f"delta[{key}] monomial"
            mono = tuple(_exact(x, where) for x in _json_list(mono, where))
            parsed.append((mono, c))
        delta[(k, j)] = tuple(parsed)
    names = data.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(x, str) for x in names)
    ):
        raise ValueError("names is not a list of strings")
    lam_diag = listed("lambda_diag")
    pres = Presentation(
        lam,
        delta,
        [
            [_exact(x, f"weights[{i}]") for x in _json_list(w, f"weights[{i}]")]
            for i, w in enumerate(_json_list(data["weights"], "weights"))
        ],
        [None] * n if lam_diag is None else lam_diag,
        listed("lambda_star"),
        eta=listed("eta"),
        names=names,
        root=root,
    )
    if pres.root > MAX_ROOT:
        raise ValueError(f"root {pres.root} is above the supported {MAX_ROOT}")
    check_cgl(pres)
    return pres

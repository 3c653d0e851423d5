"""Test oracle: matrix mutation as a product of one-sided factor matrices.

The package mutates exchange matrices by the entrywise sign-split rule
(mutation.mutate_matrix).  This module keeps the factor route
E_eps B F_eps (Berenstein-Zelevinsky, Quantum cluster algebras, section 3),
for either sign eps, so tests can compare the two; conjugating a torus
exponent matrix by e_matrix is the dense reference for mutation.mutate_emat.
"""

from qcluster.mutation import ExchangeMatrix


def e_matrix(bmat: ExchangeMatrix, k: int, eps: int):
    """Row-side mutation factor, an N x N integer matrix (list of rows)."""
    n = bmat.n_rows
    bk = bmat.cols[k]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j != k:
                row.append(1 if i == j else 0)
            elif i == k:
                row.append(-1)
            else:
                row.append(max(0, -eps * bk[i]))
        rows.append(row)
    return rows


def f_matrix(bmat: ExchangeMatrix, k: int, eps: int):
    """Column-side mutation factor over the exchangeable set, {(j, l): entry}."""
    out = {}
    for j in bmat.ex:
        for l in bmat.ex:
            if j != k:
                out[(j, l)] = 1 if j == l else 0
            elif l == k:
                out[(j, l)] = -1
            else:
                out[(j, l)] = max(0, eps * bmat.cols[l][k])
    return out


def factor_mutate(bmat: ExchangeMatrix, k: int, eps: int) -> ExchangeMatrix:
    """Matrix mutation in direction k as the product E_eps B F_eps."""
    if k not in bmat.cols:
        raise ValueError(f"direction {k} is not exchangeable")
    if eps not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = e_matrix(bmat, k, eps)
    f = f_matrix(bmat, k, eps)
    n = bmat.n_rows
    eb = {
        j: [sum(e[i][l] * bmat.cols[j][l] for l in range(n)) for i in range(n)]
        for j in bmat.ex
    }
    cols = {
        j: tuple(sum(eb[l][i] * f[(l, j)] for l in bmat.ex) for i in range(n))
        for j in bmat.ex
    }
    return ExchangeMatrix(n, cols)

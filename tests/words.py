"""Test helpers: reduced words and the per-word matrices, one word at a time.

The package verifies reduced words through schubertdata.compatibility_sweep,
whose walk carries every word's data from its parent.  These helpers build
the same things from the word alone: the reduced words by extending each
word with every letter that keeps it reduced, and the frame and exchange
matrices through WordData.
"""

from typing import Sequence

from qcluster.bicharacter import ExpMatrix
from qcluster.mutation import ExchangeMatrix
from qcluster.schubertdata import CartanData, WordData, roots_for_word


def is_reduced(cd: CartanData, word: Sequence[int]) -> bool:
    try:
        roots_for_word(cd, word)
    except ValueError:
        return False
    return True


def enumerate_reduced_words(cd: CartanData, max_len: int):
    """All reduced words of length 1..max_len, in letter-lex DFS order."""
    out = []

    def grow(word):
        for i in range(1, cd.rank + 1):
            child = word + (i,)
            if is_reduced(cd, child):
                out.append(child)
                if len(child) < max_len:
                    grow(child)

    if max_len >= 1:
        grow(())
    return out


def frame_exponent_matrix(cd: CartanData, word: Sequence[int]) -> ExpMatrix:
    """Torus exponent matrix of the frame a reduced word determines."""
    return WordData(cd, word).frame_matrix()


def exchange_matrix_for_word(cd: CartanData, word: Sequence[int]) -> ExchangeMatrix:
    """Closed-form exchange matrix of a reduced word."""
    return WordData(cd, word).exchange_matrix()


def quantum_matrix_word(m: int, n: int):
    """Reduced word matching the m x n quantum-matrix presentation.

    Type A rank m+n-1; the letter at matrix cell (r, c), 1-based row-major
    position (r-1)*n + c, is n + r - c.  Composing with the position
    reversal k -> N+1-k identifies the word's exchange matrix with the
    quantum-matrix one.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix shape must be positive")
    return tuple(
        n + r - c for r in range(1, m + 1) for c in range(1, n + 1)
    )

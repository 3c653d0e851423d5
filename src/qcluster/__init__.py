"""Exact symbolic engine for quantum cluster structures on iterated skew
polynomial algebras.

The package is organized bottom-up:

* ``scalarfield``   exact rational functions in q**(1/D); q**e from its exponent
* ``linalg``        exact fraction-free elimination: solve, rank, det, inverse
* ``bicharacter``   skew-symmetric exponent matrices and the Omega pairing
* ``qtorus``        based quantum torus elements and toric frames
* ``mutation``      compatible pairs, exchange matrices, seed mutation
* ``orealgebra``    PBW presentations of iterated skew polynomial rings
* ``primeseq``      sequences of normal prime elements, interval primes and
                    the windows (i, m): u with its leading data (pi, f)
* ``xicombinatorics`` interval-prefix orderings and their frames
* ``exchangesolver`` exact linear solver for exchange-matrix columns
* ``schubertdata``  Weyl/root lattice data for quantized Schubert cells
* ``cli``           JSON-reporting command line front end
"""

from .scalarfield import Coeff, coeff_div, div_right
from .bicharacter import ExpMatrix, omega, symmetrization
from .qtorus import (
    TorusElement,
    ToricFrame,
    check_frame_identity,
    frame_value,
    reindex_frame,
    torus_mul,
)
from .mutation import (
    ExchangeMatrix,
    Seed,
    compatibility_check,
    exchange_identity_holds,
    exchange_terms,
    mutate_emat,
    mutate_matrix,
    mutate_seed,
    mutated_variable,
    random_compatible_pair,
    seed_from_pair,
)
from .orealgebra import (
    PBWElement,
    Presentation,
    leading_term,
    pbw_mul,
    presentation_from_dict,
    quantum_matrix_preset,
    weight_of,
)
from .primeseq import (
    EtaData,
    PrimeSequence,
    compute_primes,
    interval_prime,
    rescale_generators,
    u_element,
    window,
)
from .xicombinatorics import (
    TauPresentation,
    frame_for_tau,
    gamma_chain,
    gamma_chain_swaps,
    has_interval_prefixes,
    identity_frame,
    interval_frame,
    tau_bullet,
    window_support_vector,
)
from .exchangesolver import (
    btilde_for_tau,
    certify_btilde,
    first_column_crosscheck,
    quantum_matrix_btilde,
)
from .schubertdata import (
    CartanData,
    CompatReport,
    WordData,
    cartan_matrix,
    compatibility_sweep,
)

__all__ = [
    "Coeff",
    "coeff_div",
    "div_right",
    "ExpMatrix",
    "omega",
    "symmetrization",
    "TorusElement",
    "ToricFrame",
    "check_frame_identity",
    "frame_value",
    "reindex_frame",
    "torus_mul",
    "ExchangeMatrix",
    "Seed",
    "compatibility_check",
    "exchange_identity_holds",
    "exchange_terms",
    "mutate_emat",
    "mutate_matrix",
    "mutate_seed",
    "mutated_variable",
    "random_compatible_pair",
    "seed_from_pair",
    "PBWElement",
    "Presentation",
    "leading_term",
    "pbw_mul",
    "presentation_from_dict",
    "quantum_matrix_preset",
    "weight_of",
    "EtaData",
    "PrimeSequence",
    "compute_primes",
    "interval_prime",
    "rescale_generators",
    "u_element",
    "window",
    "TauPresentation",
    "frame_for_tau",
    "gamma_chain",
    "gamma_chain_swaps",
    "has_interval_prefixes",
    "identity_frame",
    "interval_frame",
    "tau_bullet",
    "window_support_vector",
    "btilde_for_tau",
    "certify_btilde",
    "first_column_crosscheck",
    "quantum_matrix_btilde",
    "CartanData",
    "CompatReport",
    "WordData",
    "cartan_matrix",
    "compatibility_sweep",
]

"""Graph spectra, nodal domains, exact multi-way Cheeger constants, and a
verification harness for the spectral bounds relating them."""

import os as _os

# One BLAS thread unless the caller set one: OpenBLAS's default threads
# stall the small `eigh` calls made here (on a 2-vCPU VM, n = 32: 16 ms
# against 0.17 ms; n = 60: 48 ms against 0.51 ms).  OpenBLAS reads the
# variables when numpy is first imported, so they are set before any
# submodule imports it; a program that imported numpy earlier keeps its
# own thread count.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("OMP_NUM_THREADS", "1")

from .bounds import (
    CheckRecord,
    CorpusConfig,
    HypothesisViolation,
    NonGenericError,
    Report,
    check_basics,
    check_lemma_nodal_cheeger,
    check_lower_bound,
    check_nodal_count_bounds,
    check_product_theorem,
    check_theorem_main,
    run_corpus,
)
from .cheeger import (
    PartitionCertificate,
    beta_signed,
    conductance,
    rho_exact,
    rho_profile,
    rho_signed_profile,
    rho_upper_nodal_sweep,
)
from .graph import (
    Edge,
    GraphClassification,
    GraphFormatError,
    InvalidGraphError,
    WeightedGraph,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    load_graph,
    product,
    with_random_signature,
)
from .nodal import NodalDecomposition, product_function, strong_nodal
from .perturb import (
    FrequencyReport,
    GenericityReport,
    genericity_frequency,
    perturb,
)
from .rng import DEFAULT_SEED, SplitMix64, derive_seed
from .spectral import (
    EigenOptions,
    EtaResult,
    JacobiConvergenceError,
    Spectrum,
    adjacency_eta,
    eig_sym,
    laplacian_spectrum,
    normalized_laplacian_sym,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

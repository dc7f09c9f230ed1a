"""Potts lattice Higgs / coupled plaquette percolation workbench."""

__version__ = "0.1.0"

from .complexes import (Cell, Chain, CubicalComplex, ExplicitComplex,
                        PercSubcomplex, build_box, build_torus,
                        dual_subcomplex, graph_complex, two_squares_complex)
from .errors import (BudgetExceeded, CppLabError, DegenerateDenominator,
                     DegenerateParameter, DimensionMismatch, DoesNotFit,
                     InvalidDimension, NonPrimeModulus, NotATorus, TooLarge,
                     ValidationError, ZeroInverse)
from .homology import (RelPair, betti, euler_characteristic, min_area,
                       rel_betti, v_gamma)
from .measures import (Dist, ModelParams, WilsonResult, cpp_weight,
                       enumerate_kappa, enumerate_mu, enumerate_rho,
                       exact_wilson, ghost_vertex_check, kappa_marginals,
                       kappa_weight, mu_weight)
from .observables import (Estimate, LoopFamily, mf_ratio, perimeter,
                          rect_loop)
from .sampler import (ChainState, RunConfig, mf_ratio_scan,
                      resample_percolation, resample_spins, run_chain,
                      sweep)
from .duality import (dual_params, dual_state, verify_duality_exact,
                      verify_duality_mc)

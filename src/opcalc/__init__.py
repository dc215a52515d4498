"""opcalc: quantization and dequantization via square-integrable operator families."""

import os as _os

# OPCALC_THREADS caps BLAS parallelism; BLAS reads its variables when numpy is
# first imported, so they are set here, before the submodules import numpy.
if _os.environ.get("OPCALC_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["OPCALC_THREADS"])

from .core import (DEFAULT_TOL, MeasureSpace, Symbol, hs_inner, hs_norm,
                   integrate, l2_inner, l2_norm, op_norm, product_space,
                   random_symbol, random_unit_vector, random_vector, rank_one,
                   trace, trace_norm, vec_inner, vec_norm)
from .family import (OperatorFamily, SqReport, adjoint_family,
                     bounded_overlap_check, coefficient, commutant_dim,
                     compress, direct_sum, direct_sum_product,
                     invariant_subspace_check, tensor, verify_sq)
from .calculus import (Quantizer, build_quantizer, dequantize, e_symbol,
                       involution, involution_explicit, mixed_trace,
                       pairing_with_e, project_b2, quantize, quantize_measure,
                       star, star_explicit, symbol_norms, trace_pairing)
from .berezin import (Frame, analysis, berezin_as_quantization, berezin_op,
                      covariant_berezin_symbol, covariant_symbol_sigma,
                      covariant_symbol_tau, frame_identities,
                      kernel_projector, make_frame, resolution_residual,
                      synthesis, toeplitz_op, upsilon_transform)
from .inftensor import (RestrictedProduct, berezin_truncated, build_restricted,
                        frame_kernel_inf, projected_overlap, sq_defect)
from .backends import (abelian_metaplectic, backend_from_spec, cyclic_character,
                       cyclic_table, discrete_weyl, finite_group_backend,
                       s3_sign_irrep, s3_standard_irrep, s3_table,
                       trivial_backend)
from .magnetic import (MagneticBackend, composition_residual,
                       gauge_transform_check, gaussian_symbol, magnetic_moyal,
                       magnetic_study, op_a, reduction_residual)

__version__ = "0.1.0"

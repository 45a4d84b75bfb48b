"""Information geometry of deformed exponential families on finite
probability simplices: deformed logarithms, the two dual entropy/metric
structures, maximum-entropy fitting, and generalized Cramer-Rao reports."""

from .deform import (Deformation, ProbVec, chi_dual, escort, exp_of_log,
                     h_phi, ts_dual, uniform)
from .errors import (BoundaryError, BracketError, BranchError,
                     ConvergenceError, DivergentIntegralError, DomainError,
                     InfeasibleTargetError, NoNormalizationError, PhigeoError,
                     PoleError, RangeError)
from .families import CdParams, auto_r, cd_family, cd_params, identity, \
    stretched, tsallis
from .geometry import (DualityReport, MetricMatrix, cd_entropy_aligned,
                       cd_entropy_alignment_constant, cd_entropy_closed,
                       cd_metrics_closed, conformal_check, divergence_amari,
                       divergence_naudts, entropy_amari, entropy_from_phi_nu,
                       entropy_naudts, metric_amari, metric_fd_oracle,
                       metric_naudts, t_operator, ts_metric_transform)
from .maxent import (ConfigMatrix, PhiExpFamily, eta_coords,
                     fit_escort_moments, fit_linear_moments, massieu,
                     normalize, psi_forms, varphi_dual)
from .estimation import (CRReport, Estimator, amari_identity_check, cr_report,
                         dp_dtheta, fisher_general, naudts_identity_check)
from .specfun import integrate, lambert_w, numeric_diff, upper_gamma

__version__ = "0.1.0"

"""Pseudospectral cubic NLS toolkit: Gevrey norms, analyticity-radius
tracking, dispersive-norm audits, and the radius lower-bound bookkeeping."""

__version__ = "0.1.0"

from .grid import Field, FourierGrid
from .spectral import (apply_exp_gevrey, dealiased_cubic, forward_transform,
                       inverse_transform, l4_norm)
from .norms import (a_sigma, a_sigmas, energy, gevrey_norm, mass,
                    norm_report, NormReport, radius_estimate, RadiusEstimate)
from .integrator import evolve, SolverConfig, Trajectory
from .bookkeeper import (BookkeeperParams, InductionTrace, local_delta,
                         radius_floor, run_induction, sigma_for_T)
from .spacetime import SpaceTimeSpectrum, xsb_norm
from .audits import (audit_f_estimate, audit_gagliardo_nirenberg,
                     audit_multiplier_inequality, audit_trilinear, AuditReport,
                     f_of_v, sigma_halving_ratio)

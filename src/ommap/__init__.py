"""Small-ball mode analysis and MAP estimation on truncated sequence spaces.

The package computes Onsager-Machlup functionals for Gaussian and
Besov-1 measures, estimates small-ball probabilities and their ratio
limits, probes variational convergence (liminf inequality, recovery
sequences, equicoercivity, mode convergence), solves MAP problems for
linear-Gaussian and weighted-l1 posteriors, and reproduces a collection
of closed-form counterexample measures that act as ground-truth oracles.
"""

from .errors import (ConfigError, InputError, NumericsError, OmmapError,
                     ParameterError, RegimeError)
from .spaces import RANK_TOL, SpectralOperator, WeightedSeqSpace, project, row_norms, weighted_norm
from .measures import (BallMass, BallRatioEstimate, BesovMeasure, Density1D,
                       GaussianMeasure, LaplaceFactor, NormalFactor, ProductMeasure,
                       RatioOpts, ball_mass, ball_ratio_curve, besov_weights, default_space,
                       measure_from_json, radius_schedule, sample, sublevel_halfwidth,
                       sup_ball_mass)
from .om import (ClassifyOpts, ModeClassification, OmFunctional, classify_mode,
                 density_om, m_property_probe, om_difference_check, posterior_om, prior_om)
from .gamma import (FunctionalSequence, GammaReport, LiminfOpts, ModeConvOpts,
                    besov_om_family, besov_recovery_sequence, continuous_convergence_probe,
                    equicoercivity_probe, gamma_liminf_probe, gaussian_om_family,
                    gaussian_recovery_sequence, mode_convergence_check, om_family,
                    recovery_gap, recovery_sequence, sum_rule_check)
from .bip import (LinearObservation, MapSolution, Potential, ProxOpts,
                  constrained_prior_minimum, coordinate_descent_weighted_l1, kkt_residual,
                  map_solve, map_solve_besov, map_solve_besov_linear, perturbation_experiment,
                  projected_potential, quadratic_potential, small_noise_experiment)
from .counterexamples import (CrossesMeasure, LiminfOnlyMeasure,
                              MixtureFamily, OmNotStrongMeasure, SpikeFamily,
                              crosses_ball_masses, crosses_om_difference,
                              kl_gaussians, kl_gaussians_quadrature,
                              liminf_only_ratios, mixture_kl,
                              mixture_kl_exponent, mixture_modes,
                              om_not_strong_suite, spike_kl, spike_mode)

__version__ = "0.1.0"

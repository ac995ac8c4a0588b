"""Numerical certificates of global minimality, minimal foliations, and the
two-dimensional rigidity experiment for compactly supported perturbations of
Laplace's equation."""

__version__ = "0.1.0"

from .potential import (BumpFunction, Potential, ProductPotential,
                        Example446Potential, make_bump, product_potential,
                        example_446_potential, to_log_form, k_constant,
                        u_bound_function, zero_potential, scale_potential,
                        rescale_log_potential)
from .odeflow import (IntegratorConfig, PhaseState, Trajectory,
                      integrate_radial_ivp, integrate_hamiltonian,
                      hamiltonian_value, asymptotic_match_outer,
                      flow_volume_check)
from .jacobi import (JacobiField, RiccatiTrace, integrate_jacobi,
                     find_vanishing, riccati_from_jacobi, riccati_blowup_window,
                     omega_region_bound, riccati_bounds_check,
                     nonvanishing_field, is_disconjugate)
from .certify import (Certificate, hardy_identity_check, check_condition_A,
                      check_condition_B, sphere_volume, second_variation,
                      energy_gap_lower_bound, SupportedFunction)
from .foliation import (LeafFamily, build_NA_family, build_MA_family,
                        check_ordering, example_446_check,
                        select_example_446_variant)
from .rigidity import (conjugate_point_scan, gibbs_density,
                       rescaled_inequality_sides, scaling_exponent_fit,
                       discriminant_inequality_check, verify_finding,
                       verify_findings)
from .config import ExperimentConfig, load_config, validate_config

"""Stochastic kinetics of an energy-carrying reaction mixture.

Subpackages: ``model`` (configuration), ``kinetics`` (event-driven particle
engine), ``meanfield`` (kinetic-equation and reduced-ODE integrators),
``thermo`` (ideal-mixture thermodynamics), ``oracle`` (pair-interaction
combinatorics and exact small-system checks), ``stats`` (test statistics),
``scenarios`` (named verification pipelines), ``cli`` (command line).
"""

from .model import (
    ConfigError,
    EnergyLaw,
    EnsembleSpec,
    InitialDistribution,
    RateTable,
    SpeciesSpec,
    TypeKernel,
    ValidationReport,
    load_config,
    save_config,
    validate_spec,
)
from .kinetics import (
    EnsembleState,
    EventLog,
    EventRecord,
    Snapshot,
    run,
    sample_initial_state,
)
from .meanfield import (
    DensityField,
    MacroState,
    integrate_boltzmann,
    onsager_flux,
    reduced_macro_ode,
    reduced_two_state,
    survival_gbeta,
)
from .thermo import (
    ThermoPoint,
    affinity_and_kappa,
    chemical_potential,
    gibbs_identity_check,
    hess_delta_H,
    lambda_B,
    markov_entropy,
    potentials,
    standard_potential,
    variational_check,
)
from .oracle import (
    PairModel,
    chaos_statistic,
    classify,
    extract_theta_v,
    scaled_essential_count,
    series_marginal,
)

__version__ = "0.1.0"

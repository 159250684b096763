"""latticekit: ring-cavity optical lattice modeling and fitting toolkit."""

from .constants import (
    CONST,
    RB85,
    PhysicalConstants,
    Species,
    reduced_mass,
    thermal_de_broglie,
    thermal_velocity,
)
from .cavity import (
    CavitySpec,
    MirrorSpec,
    ModeGeometry,
    circulating_power,
    finesse_from_linewidth,
    finesse_from_losses,
    free_spectral_range,
    linewidth_from_ring_down,
    mode_volume,
    power_buildup,
    ring_down_from_linewidth,
)
from .trap import (
    CloudShape,
    RegimeFlags,
    TrapParameters,
    TrapState,
    classify_regimes,
    collective_coupling,
    density_squared_integral,
    dipole_depth_and_scatter,
    mean_density,
    peak_density,
    phase_space_density,
    polarizability,
    secular_frequencies,
    thermal_cloud_shape,
    trap_parameters,
)
from .losses import (
    LossParams,
    PopulationTrajectory,
    integrate_eq1,
    loss_partition,
    population,
    xi_from_beta,
)
from .evaporation import (
    EvapParams,
    TemperatureTrajectory,
    beta_esc,
    epsilon,
    eta,
    evaporation_rate,
    mean_potential_energy,
    pac_scaling_comparator,
    removed_energy_mean,
    temperature,
    unitarity_cross_section,
)
from .heating import (
    HeatingRates,
    NoiseSpectrum,
    bound_gamma_tot,
    combined_temperature,
    combined_temperature_ode,
    parametric_rate,
    total_rate,
)
from .protocols import (
    ExpansionSeries,
    RampProfile,
    RampResult,
    adiabatic_final_temperature,
    expansion_sigma,
    fit_expansion,
    ramp_simulate,
    synthesize_expansion,
)
from .fitting import (
    Dataset,
    FitResult,
    fit_decay,
    fit_epsilon,
    residual_report,
)
from .errors import ConfigError, DomainError

__version__ = "0.1.0"

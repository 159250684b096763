"""Ring-resonator figures of merit.

Free spectral range, linewidth from the ring-down time, finesse by two
independent routes (spectral and mirror loss budget), fundamental-mode
volume, resonant power build-up and the mode matching implied by an observed
circulating power, for a triangular ring cavity. The mirrors, the cavity and
the mode are namedtuple records (MirrorSpec, CavitySpec, ModeGeometry) whose
constructors check the values.
"""

import math
from collections import namedtuple

from .constants import CONST
from .errors import DomainError


class MirrorSpec(namedtuple("MirrorSpec", "transmission scatter_loss")):
    """One mirror: power transmission and scatter loss as fractions."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.transmission < 0 or self.scatter_loss < 0:
            raise ValueError("mirror losses must be non-negative")
        if self.transmission + self.scatter_loss >= 1:
            raise ValueError("mirror loss fractions must sum below 1")
        return self

    @property
    def total_loss(self) -> float:
        return self.transmission + self.scatter_loss


class CavitySpec(namedtuple(
    "CavitySpec",
    "mirrors round_trip_length input_power_per_mode mode_matching_efficiency",
    defaults=(0.0, 1.0),
)):
    """Triangular ring cavity: three mirrors plus geometry and drive.

    The round-trip length is in m and the input power in W per traveling
    mode (default 0); the mode-matching efficiency defaults to 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.mirrors) != 3:
            raise ValueError("a triangular ring needs exactly 3 mirrors")
        if self.round_trip_length <= 0:
            raise ValueError("round trip length must be positive")
        if self.input_power_per_mode < 0:
            raise ValueError("input power must be >= 0")
        if not 0 <= self.mode_matching_efficiency <= 1:
            raise ValueError("mode matching efficiency must be in [0, 1]")
        if self.round_trip_loss >= 1:
            raise ValueError("total round-trip loss must stay below 1")
        return self

    @property
    def round_trip_loss(self) -> float:
        """Summed fractional power loss per round trip."""
        return sum(m.total_loss for m in self.mirrors)

    @property
    def incoupler(self) -> MirrorSpec:
        """The incoupling mirror, identified by maximal transmission."""
        return max(self.mirrors, key=lambda m: m.transmission)


class ModeGeometry(namedtuple("ModeGeometry", "waist_sagittal waist_transversal")):
    """Fundamental Gaussian mode, 1/e^2 intensity radii (m)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.waist_sagittal <= 0 or self.waist_transversal <= 0:
            raise ValueError("waists must be positive")
        return self

    @property
    def effective_waist(self) -> float:
        """Geometric mean of the two waists, m."""
        return math.sqrt(self.waist_sagittal * self.waist_transversal)


def free_spectral_range(cavity: CavitySpec) -> float:
    """Longitudinal mode spacing c / L for a ring of round-trip length L, Hz."""
    return CONST.c / cavity.round_trip_length


def linewidth_from_ring_down(tau: float) -> float:
    """FWHM linewidth 1 / (2 pi tau) from the 1/e intensity decay time, Hz."""
    if tau <= 0:
        raise ValueError("ring-down time must be positive")
    return 1.0 / (2.0 * math.pi * tau)


def finesse_from_linewidth(fsr: float, linewidth: float) -> float:
    """Finesse as free spectral range over linewidth."""
    if fsr <= 0 or linewidth <= 0:
        raise ValueError("FSR and linewidth must be positive")
    return fsr / linewidth


def finesse_from_losses(cavity: CavitySpec) -> float:
    """Finesse 2 pi / (summed round-trip loss), high-reflectivity limit.

    The deviation from the exact Airy expression is below 1e-4 for the
    ppm-scale loss budgets this toolkit targets.
    """
    loss = cavity.round_trip_loss
    if loss <= 0:
        raise DomainError("zero round-trip loss: finesse is unbounded")
    return 2.0 * math.pi / loss


def mode_volume(mode: ModeGeometry, cavity: CavitySpec) -> float:
    """Effective fundamental-mode volume (pi/4) w_s w_t L, m^3."""
    return (
        math.pi / 4.0
        * mode.waist_sagittal
        * mode.waist_transversal
        * cavity.round_trip_length
    )


def power_buildup(cavity: CavitySpec) -> float:
    """On-resonance power build-up factor per traveling mode.

    Impedance form eta_mm * T_in / (loss/2)^2 with the incoupler taken as
    the highest-transmission mirror. Real cavities fall short of this ideal
    through imperfect mode matching; see implied_mode_matching.
    """
    loss = cavity.round_trip_loss
    if loss <= 0:
        raise DomainError("zero round-trip loss: build-up is unbounded")
    t_in = cavity.incoupler.transmission
    return cavity.mode_matching_efficiency * t_in / (loss / 2.0) ** 2


def circulating_power(cavity: CavitySpec) -> float:
    """Circulating power per traveling mode, W."""
    return cavity.input_power_per_mode * power_buildup(cavity)


def implied_mode_matching(cavity: CavitySpec, observed_circulating_power: float) -> float:
    """Mode-matching efficiency implied by an observed circulating power.

    Ratio of the observed power to the ideal (eta_mm = 1) prediction; values
    below 1 quantify how far the drive chain falls short of critical
    incoupling.
    """
    if observed_circulating_power < 0:
        raise ValueError("circulating power must be >= 0")
    ideal = CavitySpec(
        mirrors=cavity.mirrors,
        round_trip_length=cavity.round_trip_length,
        input_power_per_mode=cavity.input_power_per_mode,
        mode_matching_efficiency=1.0,
    )
    reference = circulating_power(ideal)
    if reference == 0:
        raise DomainError("no input power: implied efficiency undefined")
    return observed_circulating_power / reference

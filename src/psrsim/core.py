"""Shared parameter types, unit conventions and validation.

Internal unit system: the coherence decay rate gamma is 1, all
frequencies (detuning, drive intensity as a squared Rabi scale,
sideband frequencies) are expressed in units of gamma, and positions
along the cell are measured in units of the cell length.  The quantum
noise limit is 1.

Laboratory quantities enter through :meth:`EnsembleParams.from_cooperativity`
(gamma in rad/s, the cell length in metres; the density, temperature
and beam waist are only checked) and :func:`ghz_to_gamma`; drive
intensities are given in gamma^2 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

C_LIGHT = 299_792_458.0          # m/s


class ValidationError(ValueError):
    """A parameter record violates its contract; carries the field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


class NumericalError(RuntimeError):
    """A solver failed; carries the parameter point that triggered it."""

    def __init__(self, message: str, point: dict | None = None):
        self.point = dict(point) if point else {}
        if self.point:
            message = f"{message} at {self.point}"
        super().__init__(message)


class DataError(ValueError):
    """Malformed measured-data input (CSV ingestion)."""


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ValidationError(field_name, message)


@dataclass(frozen=True)
class EnsembleParams:
    """Atomic-ensemble parameters: what the model reads.

    The model works in units of the coherence decay rate (gamma = 1);
    the cooperativity C (the optical depth) sets every atomic
    coefficient, and ``gamma_raw``, that rate in rad/s, with the cell
    length sets the GHz detunings and the transit phase.  The coupling g
    and the atom number N enter only through C = g^2 N l / (gamma_raw c).
    """

    cooperativity: float = 0.0         # C, dimensionless
    cell_length: float = 0.075         # l, metres
    gamma_raw: float = 1.0             # rad/s

    def __post_init__(self):
        for name in ("cooperativity", "cell_length", "gamma_raw"):
            _require(math.isfinite(getattr(self, name)), name,
                     "must be finite")
        _require(self.cooperativity >= 0, "cooperativity", "must be >= 0")
        _require(self.cell_length > 0, "cell_length", "must be > 0")
        _require(self.gamma_raw > 0, "gamma_raw", "must be > 0")

    @classmethod
    def from_cooperativity(cls, cooperativity: float, *, gamma_raw: float = 1.0,
                           cell_length: float = 0.075, density: float = 1.0e17,
                           temperature: float = 300.0,
                           beam_waist: float = 425e-6) -> "EnsembleParams":
        """The record of a cell of cooperativity C.

        ``density``, ``temperature`` and ``beam_waist`` describe the
        cell in the lab; they are checked (> 0) but enter no output,
        since C already holds the atom number and the coupling.
        """
        for name, value in (("gamma_raw", gamma_raw),
                            ("cell_length", cell_length),
                            ("density", density), ("temperature", temperature),
                            ("beam_waist", beam_waist)):
            _require(value > 0, name, "must be > 0")
        return cls(cooperativity=cooperativity, cell_length=cell_length,
                   gamma_raw=gamma_raw)

    @property
    def transit_time(self) -> float:
        """gamma * l / c: the cell transit time in 1/gamma units."""
        return self.gamma_raw * self.cell_length / C_LIGHT


@dataclass(frozen=True)
class DriveParams:
    """The linearly polarized drive, in gamma units.

    ``intensity`` is the mean-field intensity I_x = |g <a_x>|^2 in
    units of gamma^2.  The saturation s and the linear dephasing
    delta0 are always recomputed from the stored fields, never cached.
    """

    intensity: float                   # I_x, units of gamma^2
    detuning: float                    # Delta, units of gamma

    def __post_init__(self):
        for name in ("intensity", "detuning"):
            _require(math.isfinite(getattr(self, name)), name,
                     "must be finite")
        _require(self.intensity >= 0, "intensity", "must be >= 0")

    @property
    def saturation(self) -> float:
        """s = I_x / (gamma^2 + Delta^2), gamma = 1."""
        return self.intensity / (1.0 + self.detuning**2)

    def linear_dephasing(self, ens: EnsembleParams) -> float:
        """delta0 = C gamma / (2 Delta).  Undefined on resonance."""
        if self.detuning == 0.0:
            raise ValidationError("detuning",
                                  "linear dephasing undefined at Delta = 0")
        return ens.cooperativity / (2.0 * self.detuning)


def ghz_to_gamma(x, gamma_raw: float):
    """Frequency in GHz (float or array) in units of gamma_raw (rad/s)."""
    return x * 1e9 * 2.0 * math.pi / gamma_raw

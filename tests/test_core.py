import math
import os
import subprocess
import sys

import pytest
from conftest import thermal_doppler_width_ghz

from psrsim.core import (DriveParams, EnsembleParams, ValidationError,
                         ghz_to_gamma)

GAMMA_D2 = 2 * math.pi * 3.033e6


def test_saturation_definition():
    d = DriveParams(intensity=1.0 + 4.0**2, detuning=4.0)
    assert d.saturation == pytest.approx(1.0, rel=1e-15)
    assert DriveParams(intensity=0.0, detuning=2.0).saturation == 0.0


def test_linear_dephasing():
    ens = EnsembleParams.from_cooperativity(1000.0)
    d = DriveParams(intensity=10.0, detuning=50.0)
    assert d.linear_dephasing(ens) == pytest.approx(10.0, rel=1e-15)
    with pytest.raises(ValidationError):
        DriveParams(intensity=10.0, detuning=0.0).linear_dephasing(ens)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("record, field", [
    (EnsembleParams, "cooperativity"), (EnsembleParams, "cell_length"),
    (EnsembleParams, "gamma_raw"), (DriveParams, "intensity"),
    (DriveParams, "detuning")])
def test_records_reject_non_finite_values(record, field, value):
    """An infinite cooperativity or intensity used to pass and end in a
    numpy warning or a NaN diffusion table."""
    fields = {EnsembleParams: {}, DriveParams: {"intensity": 1.0,
                                                "detuning": 2.0}}[record]
    with pytest.raises(ValidationError, match="must be finite") as exc:
        record(**{**fields, field: value})
    assert exc.value.field_name == field


def test_doppler_width_matches_cell_conditions():
    # 345 K, 780 nm, D2 gamma: about 109 gamma (0.33 GHz 1/e half-width)
    width_ghz = thermal_doppler_width_ghz(345.0, 780.241e-9)
    assert 100.0 < ghz_to_gamma(width_ghz, GAMMA_D2) < 120.0
    assert width_ghz == pytest.approx(0.329, abs=0.01)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_openblas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, psrsim; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == expected

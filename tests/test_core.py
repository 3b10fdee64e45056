import math
import os
import subprocess
import sys

import pytest

from psrsim.core import (DriveParams, EnsembleParams, LabParams, SidebandGrid,
                         ValidationError, denormalize_units, doppler_width,
                         normalize_units)

GAMMA_D2 = 2 * math.pi * 3.033e6


def lab(**kw):
    base = dict(gamma=GAMMA_D2, cell_length=0.075, density=1.0e17,
                temperature=345.0, power=0.030, cooperativity=1500.0)
    base.update(kw)
    return LabParams(**base)


def test_detuning_normalizes_to_gamma_units():
    ens, drive = normalize_units(lab(detuning=GAMMA_D2))
    assert ens.gamma == 1.0
    assert drive.detuning == pytest.approx(1.0, rel=1e-12)


def test_zero_power_gives_zero_saturation():
    _, drive = normalize_units(lab(power=0.0, detuning=3 * GAMMA_D2))
    assert drive.intensity == 0.0
    assert drive.saturation == 0.0


def test_saturation_definition():
    d = DriveParams(intensity=1.0 + 4.0**2, detuning=4.0)
    assert d.saturation == pytest.approx(1.0, rel=1e-15)
    assert DriveParams(intensity=0.0, detuning=2.0).saturation == 0.0


def test_round_trip_lab_units():
    raw = lab(detuning=0.7 * GAMMA_D2, ellipticity=0.0349)
    ens, drive = normalize_units(raw)
    back = denormalize_units(ens, drive)
    for name in ("gamma", "cell_length", "density", "temperature",
                 "beam_waist", "power", "detuning", "ellipticity"):
        assert getattr(back, name) == pytest.approx(getattr(raw, name),
                                                    rel=1e-12)
    assert back.cooperativity == pytest.approx(raw.cooperativity, rel=1e-12)


def test_validation_errors_name_the_field():
    with pytest.raises(ValidationError) as err:
        normalize_units(lab(gamma=-1.0))
    assert err.value.field_name == "gamma"
    with pytest.raises(ValidationError) as err:
        normalize_units(lab(cell_length=0.0))
    assert err.value.field_name == "cell_length"
    with pytest.raises(ValidationError) as err:
        normalize_units(lab(temperature=-3.0))
    assert err.value.field_name == "temperature"


def test_cooperativity_consistency_enforced():
    ens = EnsembleParams.from_cooperativity(800.0, gamma_raw=GAMMA_D2)
    # direct construction with a mismatched coupling must fail
    with pytest.raises(ValidationError):
        EnsembleParams(gamma=1.0, cooperativity=800.0,
                       cell_length=ens.cell_length, density=ens.density,
                       temperature=ens.temperature,
                       coupling=2.0 * ens.coupling,
                       atom_number=ens.atom_number, gamma_raw=GAMMA_D2)


def test_linear_dephasing():
    ens = EnsembleParams.from_cooperativity(1000.0)
    d = DriveParams(intensity=10.0, detuning=50.0)
    assert d.linear_dephasing(ens) == pytest.approx(10.0, rel=1e-15)
    with pytest.raises(ValidationError):
        DriveParams(intensity=10.0, detuning=0.0).linear_dephasing(ens)


def test_ellipticity_bounds():
    with pytest.raises(ValidationError):
        DriveParams(intensity=1.0, detuning=0.0, ellipticity=math.pi / 3)


def test_sideband_grid_validation():
    SidebandGrid(frequencies=(0.0, 0.5, 1.0))
    with pytest.raises(ValidationError):
        SidebandGrid(frequencies=())
    with pytest.raises(ValidationError):
        SidebandGrid(frequencies=(0.5, 0.5))
    with pytest.raises(ValidationError):
        SidebandGrid(frequencies=(-1.0, 0.5))


def test_doppler_width_matches_cell_conditions():
    # 345 K, 780 nm, D2 gamma: about 109 gamma (0.33 GHz 1/e half-width)
    w = doppler_width(345.0, 780.241e-9, GAMMA_D2)
    assert 100.0 < w < 120.0
    assert w * GAMMA_D2 / (2 * math.pi * 1e9) == pytest.approx(0.329, abs=0.01)


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

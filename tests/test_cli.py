import json
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "psrsim.cli", *args],
                          capture_output=True, text=True)


def write_cfg(tmp_path, payload, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return p


def parse_csv(path):
    meta, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def strict_json(path):
    """The JSON at ``path``, refusing the NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


NOISE_CFG = {
    "ensemble": {"cooperativity": 0.0},
    "drive": {"intensity": 4.0, "detuning": 1.0},
    "noise": {"omegas": [0.5, 1.0], "theta_points": 16},
}


def test_noise_without_atoms_is_at_the_qnl(tmp_path):
    cfg = write_cfg(tmp_path, NOISE_CFG)
    out = tmp_path / "noise.csv"
    res = run_cli("noise", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta, header, rows = parse_csv(out)
    assert header[:4] == ["detuning", "omega", "s_min_db", "s_max_db"]
    for row in rows:
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0
    assert any("config_sha256=" in m for m in meta)
    assert any("psr-sim v" in m for m in meta)


def test_undriven_noise_is_at_the_qnl_down_to_zero_omega(tmp_path):
    """I_x = 0 with omega = 0 used to exit 3 on the removable pole D(0)."""
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 15.0},
        "drive": {"intensity": 0.0, "detuning": 2.0},
        "noise": {"omegas": [0.0, 0.5], "theta_points": 16},
    })
    out = tmp_path / "noise.csv"
    res = run_cli("noise", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.5]
    for row in rows:
        assert abs(float(row[2])) <= 1e-12
        assert abs(float(row[3])) <= 1e-12


def test_sweep_has_no_jobs_option(tmp_path):
    """A sweep is one composite_spectrum call; --jobs is for noise only."""
    out = tmp_path / "maps"
    res = run_cli("sweep", "--config", "d2-sweep", "--out", str(out),
                  "--jobs", "2")
    assert res.returncode == 2
    assert "--jobs" in res.stderr
    assert not out.exists()


def test_outputs_are_deterministic_across_workers(tmp_path, monkeypatch):
    """--jobs is accepted and ignored: no process pool starts, and the
    bytes do not depend on it."""
    import concurrent.futures

    from psrsim import cli

    def no_pool(*_args, **_kwargs):
        raise AssertionError("noise started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg_payload = {
        "ensemble": {"cooperativity": 20.0},
        "drive": {"intensity": 900.0},
        "noise": {"detunings": [-1.0, 0.0, 1.0], "omegas": [0.5, 1.0],
                  "theta_points": 31},
    }
    cfg = write_cfg(tmp_path, cfg_payload)
    outs = []
    for tag, jobs in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / f"noise_{tag}.csv"
        monkeypatch.setattr(sys, "argv", ["psr-sim", "noise", "--config",
                                          str(cfg), "--out", str(out),
                                          "--jobs", jobs])
        cli.main()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_noise_rejects_fewer_than_one_job(tmp_path, jobs):
    out = tmp_path / "noise.csv"
    res = run_cli("noise", "--config", "hot-vapour-d2", "--out", str(out),
                  "--jobs", jobs)
    assert res.returncode == 2
    assert "--jobs" in res.stderr
    assert not out.exists()


def test_noise_help_does_not_list_jobs():
    res = run_cli("noise", "--help")
    assert res.returncode == 0, res.stderr
    assert "--jobs" not in res.stdout


def test_sweep_single_point_without_atoms(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 0.0},
        "sweep": {"detunings_ghz": [0.0], "intensities_mw": [1.0],
                  "intensity_scale": 100.0, "doppler_width_ghz": 0.0,
                  "lines": [{"center_ghz": 0.0, "strength": 1.0}]},
    })
    outdir = tmp_path / "maps"
    res = run_cli("sweep", "--config", str(cfg), "--out", str(outdir))
    assert res.returncode == 0, res.stderr
    _, _, t_rows = parse_csv(outdir / "transmission.csv")
    _, _, g_rows = parse_csv(outdir / "psr_gl.csv")
    assert float(t_rows[0][1]) == 1.0
    assert float(g_rows[0][1]) == 0.0


def test_sweep_preset_runs_and_matches_json(tmp_path):
    out_csv = tmp_path / "d1csv"
    out_json = tmp_path / "d1json"
    r1 = run_cli("sweep", "--config", "d1-sweep", "--out", str(out_csv))
    r2 = run_cli("sweep", "--config", "d1-sweep", "--out", str(out_json),
                 "--format", "json")
    assert r1.returncode == 0 and r2.returncode == 0
    payload = json.loads((out_json / "sweep.json").read_text())
    assert set(payload) == {"meta", "data"}
    assert payload["meta"]["command"] == "sweep"
    _, _, rows = parse_csv(out_csv / "transmission.csv")
    i_22 = payload["data"]["intensities_mw"].index(22.3)
    assert float(rows[0][1 + 0]) == pytest.approx(
        payload["data"]["transmission"][0][0], rel=1e-12)
    assert 0.0 < min(r[i_22 + 1] is not None and float(r[i_22 + 1])
                     for r in rows)


def test_config_error_exit_code_names_field(tmp_path):
    cfg = write_cfg(tmp_path, {"ensemble": {"cooperativity": -5.0},
                               "drive": {"intensity": 1.0},
                               "noise": {"omegas": [1.0]}})
    res = run_cli("noise", "--config", str(cfg), "--out",
                  str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "cooperativity" in res.stderr


@pytest.mark.parametrize("key, value", [("gamma", -1.0),
                                        ("cell_length", 0.0),
                                        ("density", 0.0),
                                        ("temperature", 0.0),
                                        ("beam_waist", 0.0),
                                        ("beam_waist", -425e-6)])
def test_non_positive_cell_geometry_is_a_config_error(tmp_path, capsys,
                                                      key, value):
    """Used to divide by zero, take the root of a negative number, or
    (a negative waist) pass unnoticed."""
    from psrsim import cli
    cfg = write_cfg(tmp_path, {"ensemble": {"cooperativity": 15.0,
                                            key: value},
                               "drive": {"intensity": 1000.0},
                               "noise": {"omegas": [0.5]}})
    argv = ["psr-sim", "noise", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv")]
    with mock.patch.object(sys, "argv", argv), \
            pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert f"ensemble.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("deplete", [False, True])
@pytest.mark.parametrize("preset", ["hot-vapour-d2", "hot-vapour-d1",
                                    "cold-atom-kerr"])
def test_lab_keys_are_checked_and_enter_no_output(tmp_path, preset,
                                                  deplete):
    """density, temperature and beam_waist only have to be > 0: changed,
    they leave every byte of the spectra and the theta scan but the
    config hash."""
    from psrsim import cli
    cfg, _ = cli.load_config(preset)
    sec = cfg["ensemble"]
    sec.update(density=37.0 * float(sec.get("density", 1.0e17)),
               temperature=1.0, beam_waist=1.0e-5)
    outs = []
    for config in (preset, str(write_cfg(tmp_path, cfg))):
        out = tmp_path / f"noise_{len(outs)}.csv"
        argv = ["psr-sim", "noise", "--config", config, "--out", str(out),
                "--theta-scan"] + (["--deplete"] if deplete else [])
        with mock.patch.object(sys, "argv", argv):
            cli.main()
        outs.append([line for path in (out, out.with_name(
                         out.stem + "_theta.csv"))
                     for line in path.read_text().splitlines()
                     if not line.startswith("# config_sha256=")])
    assert outs[0] == outs[1]


def test_non_finite_spectrum_is_a_numerical_error(tmp_path):
    """The transport overflows at C = 1e9: exit 3 naming the point."""
    cfg = write_cfg(tmp_path, {"ensemble": {"cooperativity": 1e9},
                               "drive": {"intensity": 1e6, "detuning": 3.0},
                               "noise": {"omegas": [0.5, 1.0],
                                         "theta_points": 16}})
    out = tmp_path / "x.csv"
    res = run_cli("noise", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 3
    assert "'detuning': 3.0" in res.stderr and "'omega': 0.5" in res.stderr
    assert not out.exists()


def test_sub_qnl_uncertainty_product_is_a_numerical_error(tmp_path, capsys):
    """Covariances with S_min S_max = 0.25 < 1: exit 3 naming the point."""
    from psrsim import cli, fluct
    cfg = write_cfg(tmp_path, {**NOISE_CFG,
                               "ensemble": {"cooperativity": 15.0}})
    out = tmp_path / "x.csv"

    def squeezed(gen, _src):
        """Maps that halve every covariance."""
        half = np.zeros_like(gen)
        half[0, 0] = half[1, 1] = 0.5 ** 0.5
        return half, np.zeros_like(gen)

    argv = ["psr-sim", "noise", "--config", str(cfg), "--out", str(out)]
    with mock.patch.object(fluct, "_transport", squeezed), \
            mock.patch.object(sys, "argv", argv), \
            pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "uncertainty product below 1 (0.25)" in err
    assert "'detuning': 1.0" in err and "'omega': 0.5" in err
    assert not out.exists()


@pytest.mark.parametrize("deplete", [False, True])
def test_corrupted_output_commutator_is_a_numerical_error(tmp_path, capsys,
                                                          deplete):
    """<da da> at omega = 1 moved by 1e-6 of the covariances' size: no
    spectrum reads that entry, but S(w) - S(-w)^T no longer equals the
    vacuum commutator, so the command exits 3 naming the point."""
    from psrsim import cli, fluct
    cfg = write_cfg(tmp_path, {**NOISE_CFG,
                               "ensemble": {"cooperativity": 15.0}})
    out = tmp_path / "x.csv"

    name = "_sigma_out_depleted" if deplete else "_sigma_out"
    real = getattr(fluct, name)

    def corrupted(*args):
        sig = real(*args)
        sig[0, 0, 1] += 1e-6 * np.abs(sig[..., 1]).max()   # omega = +1
        return sig

    argv = ["psr-sim", "noise", "--config", str(cfg), "--out", str(out)]
    argv += ["--deplete"] if deplete else []
    with mock.patch.object(fluct, name, corrupted), \
            mock.patch.object(sys, "argv", argv), \
            pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "output commutator not preserved" in err
    assert "'detuning': 1.0" in err and "'omega': 1.0" in err
    assert not out.exists()


@pytest.mark.parametrize("c", [1e7, 1e8])
def test_strongly_amplifying_cell_passes_the_uncertainty_gate(tmp_path, c):
    """S_min S_max reaches 1e34 at C = 1e7 and 1e269 at C = 1e8, and the
    commutator residual 1e2 and 4e119 in absolute terms (4e-16 of the
    covariances' size): exit 0, and no floating-point warning from
    either gate."""
    cfg = write_cfg(tmp_path, {"ensemble": {"cooperativity": c},
                               "drive": {"intensity": 1e6, "detuning": 3.0},
                               "noise": {"omegas": [0.5, 1.0],
                                         "theta_points": 16}})
    res = subprocess.run([sys.executable, "-W", "error", "-m", "psrsim.cli",
                          "noise", "--config", str(cfg), "--out",
                          str(tmp_path / "x.csv")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_overflowing_spectrum_exits_3_without_a_warning(tmp_path):
    """The transport overflows at C = 3.28e5, I_x = 2980, Delta = -7.93,
    omega = 0.186.  Its non-finite covariances are caught before any
    arithmetic on them, so with RuntimeWarning raised as an error the
    command still exits 3 and names the point."""
    cfg = write_cfg(tmp_path, {"ensemble": {"cooperativity": 3.28e5},
                               "drive": {"intensity": 2980.0,
                                         "detuning": -7.93},
                               "noise": {"omegas": [0.186],
                                         "theta_points": 16}})
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-m", "psrsim.cli", "noise", "--config", str(cfg),
                          "--out", str(tmp_path / "x.csv")],
                         capture_output=True, text=True)
    assert res.returncode == 3, res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert "non-finite quadrature variance" in res.stderr
    assert "'detuning': -7.93" in res.stderr
    assert "'omega': 0.186" in res.stderr


@pytest.mark.parametrize("override, field", [
    ({"noise": {"omegas": [1.0], "theta_points": 2.9}}, "noise.theta_points"),
    ({"drive": {"intensity": 4.0, "ellipticity": 0.3}}, "drive.ellipticity"),
    ({"drive": {"intensity": float("inf")}}, "drive.intensity"),
    ({"noise": {"omegas": [1.0], "omega_floor": float("nan")}},
     "noise.omega_floor"),
    ({"noise": {"omegas": ["abc"]}}, "noise.omegas"),
    ({"noise": {"omegas": []}}, "noise.omegas"),
    ({"noise": {"omegas": [0.5, 0.5]}}, "noise.omegas"),
    ({"noise": {"omegas": [-1.0, 0.5]}}, "noise.omegas"),
])
def test_noise_rejects_reinterpreted_values(tmp_path, override, field):
    cfg = write_cfg(tmp_path, {**NOISE_CFG, **override})
    res = run_cli("noise", "--config", str(cfg), "--out",
                  str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert field in res.stderr


def test_no_command_loads_scipy(tmp_path):
    """A fresh interpreter runs noise (with and without --deplete), limits,
    matsko, sweep and a seeded fit: no scipy module loads, no process pool
    with one worker, and psrsim.ensemble only once sweep runs."""
    fit_cfg = write_fit_cfg(tmp_path)
    limits_cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 100.0},
        "limits": {"rows": [{"detuning": 50.0, "omega": 5.0,
                             "saturation": 0.5}]}}, "limits.yaml")
    matsko_cfg = write_cfg(tmp_path, {"matsko": {"rotation_strength": 1.5}},
                           "matsko.yaml")
    runs = {"noise": ["noise", "--config", "hot-vapour-d2",
                      "--out", str(tmp_path / "d2.csv")],
            "deplete": ["noise", "--config", "hot-vapour-d1", "--deplete",
                        "--jobs", "1", "--out", str(tmp_path / "d1.csv")],
            "limits": ["limits", "--config", str(limits_cfg),
                       "--out", str(tmp_path / "limits.csv")],
            "matsko": ["matsko", "--config", str(matsko_cfg),
                       "--out", str(tmp_path / "matsko.csv")],
            "sweep": ["sweep", "--config", "d1-sweep",
                      "--out", str(tmp_path / "maps")],
            "fit": ["fit", "--config", str(fit_cfg),
                    "--out", str(tmp_path / "fit.csv")]}
    probe = (
        "import json, sys\n"
        "import psrsim.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy'\n"
        "                  or m == 'concurrent.futures.process'\n"
        "                  or m == 'psrsim.ensemble')\n"
        "seen = {'import': loaded()}\n"
        f"for name, args in {runs!r}.items():\n"
        "    sys.argv = ['psr-sim', *args]\n"
        "    psrsim.cli.main()\n"
        "    seen[name] = loaded()\n"
        "print(json.dumps(seen))\n")
    res = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    ensemble = ["psrsim.ensemble"]
    assert seen == {"import": [], "noise": [], "deplete": [], "limits": [],
                    "matsko": [], "sweep": ensemble, "fit": ensemble}
    for out in ("d2.csv", "d1.csv", "maps/psr_gl.csv", "fit.csv",
                "limits.csv", "matsko.csv"):
        assert (tmp_path / out).exists()


def test_missing_config_is_a_config_error(tmp_path):
    res = run_cli("noise", "--config", str(tmp_path / "nope.yaml"),
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_polarimetry_conversion(tmp_path):
    data = tmp_path / "pol.csv"
    data.write_text("detuning_ghz,v1,v2\n0.0,1.0,1.0\n0.1,3.0,1.0\n"
                    "0.2,0.0,2.0\n")
    cfg = write_cfg(tmp_path, {"polarimetry": {"input_csv": str(data)}})
    out = tmp_path / "phi.csv"
    res = run_cli("polarimetry", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, _, rows = parse_csv(out)
    phis = [float(r[3]) for r in rows]
    assert phis == [0.0, 0.25, -0.5]


def test_polarimetry_rejects_nonpositive_sum(tmp_path):
    data = tmp_path / "pol.csv"
    data.write_text("detuning_ghz,v1,v2\n0.0,1.0,1.0\n0.1,0.0,0.0\n")
    cfg = write_cfg(tmp_path, {"polarimetry": {"input_csv": str(data)}})
    res = run_cli("polarimetry", "--config", str(cfg), "--out",
                  str(tmp_path / "phi.csv"))
    assert res.returncode == 4
    assert "row 2" in res.stderr


def test_matsko_scan_reports_optimum(tmp_path):
    cfg = write_cfg(tmp_path, {"matsko": {"rotation_strength": 1.5,
                                          "absorption": 0.0,
                                          "chi_points": 360}})
    out = tmp_path / "matsko.csv"
    res = run_cli("matsko", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta, header, rows = parse_csv(out)
    assert header == ["chi", "variance"]
    assert len(rows) == 360
    db_line = [m for m in meta if "min_variance_db=" in m][0]
    assert float(db_line.split("=")[1]) == pytest.approx(-6.0206, abs=1e-3)


@pytest.mark.parametrize("rotation, fmt", [(0.0, "json"), (0.0, "csv"),
                                            (1.5, "json")])
def test_matsko_json_holds_no_nan(tmp_path, rotation, fmt):
    """Without rotation no phase is optimal: chi_star is null in JSON
    (it was a bare NaN token) and stays nan in the CSV header."""
    cfg = write_cfg(tmp_path, {"matsko": {"rotation_strength": rotation}})
    out = tmp_path / f"matsko.{fmt}"
    res = run_cli("matsko", "--config", str(cfg), "--out", str(out),
                  "--format", fmt)
    assert res.returncode == 0, res.stderr
    if fmt == "csv":
        assert "# chi_star=nan" in parse_csv(out)[0]
        return
    opt = strict_json(out)["data"]["optimum"]
    if rotation == 0.0:
        assert opt == {"chi_star": None, "min_variance": 1.0,
                       "min_variance_db": 0.0}
    else:
        assert opt["min_variance_db"] == pytest.approx(-6.0206, abs=1e-3)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_value_exits_3(tmp_path, monkeypatch, capsys, fmt):
    """A NaN or an infinity in an output is a numerical error in either
    format, and no file is written."""
    from psrsim import cli, matsko

    cfg = write_cfg(tmp_path, {"matsko": {"rotation_strength": 1.5}})
    out = tmp_path / f"matsko.{fmt}"
    monkeypatch.setattr(matsko, "variance", lambda *_: float("inf"))
    monkeypatch.setattr(sys, "argv", ["psr-sim", "matsko", "--config",
                                      str(cfg), "--out", str(out),
                                      "--format", fmt])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 3
    assert f"matsko: non-finite value in the {fmt.upper()} output" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_a_non_finite_map_writes_no_file(tmp_path, fmt):
    """A gamma so small that the detunings overflow gives NaN map cells:
    exit 3, and neither map file is written."""
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 100.0, "gamma": 1.0e-300},
        "sweep": {"detunings_ghz": [-0.5, 0.0, 0.5],
                  "intensities_mw": [1.0, 20.0], "intensity_scale": 400.0,
                  "doppler_width_ghz": 0.3,
                  "lines": [{"center_ghz": 0.0, "strength": 1.0}]}})
    out = tmp_path / "maps"
    res = run_cli("sweep", "--config", str(cfg), "--out", str(out),
                  "--format", fmt)
    assert res.returncode == 3, res.stderr
    assert f"sweep: non-finite value in the {fmt.upper()} output" \
        in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_undriven_limits_row_leaves_empty_deviations(tmp_path, fmt):
    """With no drive kappa and its high-sideband limit are both 0: the
    deviation cell is empty, not 0/0 (a RuntimeWarning and a nan)."""
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 1600.0},
        "limits": {"rows": [{"detuning": 100.0, "omega": 10.0,
                             "intensity": 0.0}]}})
    out = tmp_path / f"limits.{fmt}"
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-m", "psrsim.cli", "limits", "--config", str(cfg),
                          "--out", str(out), "--format", fmt],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    if fmt == "csv":
        _, header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
    else:
        row = strict_json(out)["data"]["rows"][0]
    assert row["hsb_valid"] in ("1", True)
    assert row["hsb_kappa_dev"] == ""
    assert 0.0 < float(row["hsb_gamma_dev"]) < 1.0


def test_limits_table_flags(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 100.0},
        "limits": {"rows": [
            {"detuning": 0.0, "omega": 1.0, "intensity": 4.0},
            {"detuning": 50.0, "omega": 5.0, "saturation": 0.5},
            {"detuning": 2.0, "omega": 1.0, "intensity": 400.0},
        ]},
    })
    out = tmp_path / "limits.csv"
    res = run_cli("limits", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, header, rows = parse_csv(out)
    idx = {name: k for k, name in enumerate(header)}
    # on-resonance row: every far-detuned limit invalid, no deviations
    assert rows[0][idx["hsb_valid"]] == "0"
    assert rows[0][idx["hsb_kappa_dev"]] == ""
    assert rows[0][idx["kerr_valid"]] == "0"
    # canonical high-sideband point valid with a small deviation
    assert rows[1][idx["hsb_valid"]] == "1"
    assert float(rows[1][idx["hsb_kappa_dev"]]) <= 0.02
    # saturated row valid for the high-saturation limit
    assert rows[2][idx["hsat_valid"]] == "1"
    assert float(rows[2][idx["hsat_kappa_dev"]]) <= 0.05


@pytest.mark.parametrize("row, key", [
    ({"omega": -5.0, "intensity": 4.0}, "limits.rows[1].omega"),
    ({"omega": 5.0, "saturation": -0.5}, "limits.rows[1].saturation"),
    ({"omega": 5.0, "intensity": -4.0}, "limits.rows[1].intensity"),
], ids=["omega", "saturation", "intensity"])
def test_limits_errors_name_the_config_key(tmp_path, row, key):
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 100.0},
        "limits": {"rows": [{"detuning": 50.0, "omega": 5.0,
                             "saturation": 0.5},
                            {"detuning": 50.0, **row}]}})
    out = tmp_path / "limits.csv"
    res = run_cli("limits", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2
    assert f"config error: {key}: must be >= 0" in res.stderr
    assert not out.exists()


def write_fit_cfg(tmp_path):
    """A fit config on noise-free D1 traces of (1.1, 0.02 GHz, 350, 2.8)."""
    from psrsim import ensemble as ens_mod
    from psrsim.core import EnsembleParams

    gamma_raw = 1.8062e7
    ens = EnsembleParams.from_cooperativity(2000.0, gamma_raw=gamma_raw)
    conv = 1e9 * 2 * 3.141592653589793 / gamma_raw
    man = ens_mod.LineManifold(lines=((0.0, 0.25), (0.8145 * conv, 0.75)),
                               doppler_width=0.3232 * conv)
    det = np.linspace(-0.7, 1.55, 120)
    truth = np.array([1.1, 0.02, 350.0, 2.8])
    t_mod, gl_mod = ens_mod._fit_model(man, ens, det, 22.3, truth)
    t_csv = tmp_path / "t.csv"
    g_csv = tmp_path / "gl.csv"
    t_csv.write_text("detuning_ghz,value\n" + "\n".join(
        f"{d:.9f},{v:.9f}" for d, v in zip(det, t_mod)))
    g_csv.write_text("detuning_ghz,value\n" + "\n".join(
        f"{d:.9f},{v:.9f}" for d, v in zip(det, gl_mod)))
    return write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 2000.0, "gamma": gamma_raw},
        "fit": {"lines": [{"center_ghz": 0.0, "strength": 0.25},
                          {"center_ghz": 0.8145, "strength": 0.75}],
                "doppler_width_ghz": 0.3232,
                "transmission_csv": str(t_csv),
                "rotation_csv": str(g_csv),
                "intensity_mw": 22.3,
                "initial": {"intensity_scale": 300.0}},
    }, "fit.yaml")


def test_fit_cli_round_trip(tmp_path):
    cfg = write_fit_cfg(tmp_path)
    out = tmp_path / "fit.json"
    res = run_cli("fit", "--config", str(cfg), "--out", str(out),
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = strict_json(out)
    pars = payload["data"]["parameters"]
    assert pars["density_scale"] == pytest.approx(1.1, rel=0.02)
    assert pars["intensity_scale"] == pytest.approx(350.0, rel=0.02)
    assert payload["data"]["rms_residual"] < 1e-6


def test_fit_out_of_evaluations_exits_3_with_the_best_point(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    from psrsim import cli, ensemble

    cfg = write_fit_cfg(tmp_path)
    monkeypatch.setattr(ensemble, "_FIT_MAX_NFEV", 3)
    monkeypatch.setattr(sys, "argv", ["psr-sim", "fit", "--config", str(cfg),
                                      "--out", str(tmp_path / "fit.csv")])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert "did not converge in 3 evaluations" in err and "'best'" in err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_writes_a_sigma_only_for_a_valid_variance(tmp_path, monkeypatch,
                                                      fmt):
    """A negative, infinite or NaN variance has no sigma: null in JSON,
    nan in CSV (a negative one used to give sqrt(|c|))."""
    import dataclasses

    from psrsim import cli, ensemble

    fit = ensemble.fit

    def bad_variances(*args):
        res = fit(*args)
        return dataclasses.replace(
            res, covariance=np.diag([-4.0, np.inf, np.nan, 4.0]))

    cfg = write_fit_cfg(tmp_path)
    out = tmp_path / f"fit.{fmt}"
    monkeypatch.setattr(ensemble, "fit", bad_variances)
    monkeypatch.setattr(sys, "argv", ["psr-sim", "fit", "--config", str(cfg),
                                      "--out", str(out), "--format", fmt])
    cli.main()
    if fmt == "csv":
        assert [r[2] for r in parse_csv(out)[2]] == ["nan", "nan", "nan", "2"]
    else:
        assert list(strict_json(out)["data"]["sigmas"].values()) \
            == [None, None, None, 2.0]


@pytest.mark.parametrize("name, line, column, cell", [
    ("t.csv", 6, 1, "nan"), ("gl.csv", 40, 0, "inf")])
def test_fit_rejects_a_non_finite_trace_cell(tmp_path, name, line, column,
                                             cell):
    """A nan or inf cell is a data error (exit 4) naming path:line."""
    cfg = write_fit_cfg(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[column] = cell
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines))
    res = run_cli("fit", "--config", str(cfg), "--out",
                  str(tmp_path / "fit.csv"))
    assert res.returncode == 4, res.stderr
    assert f"{path}:{line}: non-finite value" in res.stderr
    assert not (tmp_path / "fit.csv").exists()


def test_hot_preset_noise_magnitude(tmp_path):
    """Peak excess noise of the hot D2 preset sits near +10 dB."""
    out = tmp_path / "hot.csv"
    res = run_cli("noise", "--config", "hot-vapour-d2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, _, rows = parse_csv(out)
    mins = [float(r[2]) for r in rows]
    maxs = [float(r[3]) for r in rows]
    assert min(mins) > 0.0
    assert 7.0 <= max(maxs) <= 13.0


def test_noise_deplete_flag_runs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": {"cooperativity": 2.0},
        "drive": {"intensity": 50.0, "detuning": 5.0},
        "noise": {"omegas": [1.0], "theta_points": 8},
    })
    out = tmp_path / "dep.csv"
    res = run_cli("noise", "--config", str(cfg), "--out", str(out),
                  "--deplete")
    assert res.returncode == 0, res.stderr
    _, _, rows = parse_csv(out)
    assert len(rows) == 1


def test_noise_theta_scan_and_preset(tmp_path):
    out = tmp_path / "cold.csv"
    res = run_cli("noise", "--config", "cold-atom-kerr", "--out", str(out),
                  "--theta-scan")
    assert res.returncode == 0, res.stderr
    _, _, rows = parse_csv(out)
    mins = [float(r[2]) for r in rows]
    assert min(mins) < 0.0  # squeezing in the cold preset
    scan = tmp_path / "cold_theta.csv"
    assert scan.exists()
    _, header, srows = parse_csv(scan)
    assert header == ["detuning", "omega", "theta", "s_db"]
    assert len(srows) > 100


def main_exit(*args):
    """The exit code of ``psr-sim *args`` run in this process."""
    from psrsim import cli
    with mock.patch.object(sys, "argv", ["psr-sim", *args]):
        try:
            cli.main()
        except SystemExit as exc:
            return exc.code
    return 0


SWEEP_CFG = {"ensemble": {"cooperativity": 100.0, "gamma": 1.8062e7},
             "sweep": {"detunings_ghz": {"start": -0.5, "stop": 0.5,
                                         "points": 3},
                       "intensities_mw": [1.0], "intensity_scale": 400.0,
                       "doppler_width_ghz": 0.3,
                       "lines": [{"center_ghz": 0.0, "strength": 1.0}]}}
LIMITS_CFG = {"ensemble": {"cooperativity": 100.0},
              "limits": {"rows": [{"detuning": 50.0, "omega": 5.0,
                                   "saturation": 0.5}]}}


def with_key(cfg, path, key="bogus", value=1.0):
    """A deep copy of ``cfg`` with ``key`` added to the mapping at
    ``path``, a tuple of keys and list indices."""
    out = yaml.safe_load(yaml.safe_dump(cfg))
    node = out
    for step in path:
        node = node[step]
    node[key] = value
    return out


@pytest.mark.parametrize("command, cfg, path", [
    ("noise", NOISE_CFG, ("ensemble",)),
    ("noise", NOISE_CFG, ("drive",)),
    ("noise", NOISE_CFG, ("noise",)),
    ("noise", {**NOISE_CFG, "noise": {"omegas": {"start": 0.5, "stop": 1.0,
                                                 "points": 2}}},
     ("noise", "omegas")),
    ("sweep", SWEEP_CFG, ("sweep",)),
    ("sweep", SWEEP_CFG, ("sweep", "detunings_ghz")),
    ("sweep", SWEEP_CFG, ("sweep", "lines", 0)),
    ("limits", LIMITS_CFG, ("limits",)),
    ("limits", LIMITS_CFG, ("limits", "rows", 0)),
    ("matsko", {"matsko": {"rotation_strength": 1.5}}, ("matsko",)),
    ("polarimetry", {"polarimetry": {"input_csv": "v.csv"}},
     ("polarimetry",)),
], ids=["ensemble", "drive", "noise", "noise-axis", "sweep", "sweep-axis",
        "sweep-line", "limits", "limits-row", "matsko", "polarimetry"])
def test_unknown_config_keys_are_config_errors(tmp_path, capsys,
                                               monkeypatch, command, cfg,
                                               path):
    """The config as given runs; a key the command does not read is
    exit 2, naming it, before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.csv").write_text("detuning_ghz,v1,v2\n0.1,1.0,0.5\n")
    out = str(tmp_path / "out")
    good = write_cfg(tmp_path, yaml.safe_load(yaml.safe_dump(cfg)))
    assert main_exit(command, "--config", str(good), "--out", out) == 0
    capsys.readouterr()
    bad = write_cfg(tmp_path, with_key(cfg, path), "bad.yaml")
    out = str(tmp_path / "bad-out")
    assert main_exit(command, "--config", str(bad), "--out", out) == 2
    name = ".".join(str(p) for p in path).replace(".0", "[0]")
    err = capsys.readouterr().err
    assert f"config error: {name}.bogus: unknown key" in err
    assert not Path(out).exists()


def test_misspelled_optional_keys_are_config_errors(tmp_path, capsys):
    """A copy of hot-vapour-d2 with noise.omega_flor or drive.intensty
    used to run on the defaults, exit 0."""
    from psrsim import cli
    preset, _ = cli.load_config("hot-vapour-d2")
    for path, key in ((("noise",), "omega_flor"), (("drive",), "intensty")):
        cfg = write_cfg(tmp_path, with_key(preset, path, key, 5.0))
        assert main_exit("noise", "--config", str(cfg), "--out",
                         str(tmp_path / "x.csv")) == 2
        assert f"{path[0]}.{key}: unknown key" in capsys.readouterr().err


def test_unknown_fit_keys_are_config_errors(tmp_path, capsys):
    cfg = yaml.safe_load(write_fit_cfg(tmp_path).read_text())
    for path in (("fit",), ("fit", "initial"), ("fit", "lines", 1)):
        bad = write_cfg(tmp_path, with_key(cfg, path), "bad.yaml")
        assert main_exit("fit", "--config", str(bad), "--out",
                         str(tmp_path / "fit.csv")) == 2
        name = ".".join(str(p) for p in path).replace(".1", "[1]")
        assert f"{name}.bogus: unknown key" in capsys.readouterr().err


def test_limits_row_with_intensity_and_saturation_is_a_config_error(
        tmp_path, capsys):
    """The saturation used to be dropped in silence."""
    cfg = write_cfg(tmp_path, with_key(LIMITS_CFG, ("limits", "rows", 0),
                                       "intensity", 8e4))
    assert main_exit("limits", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")) == 2
    assert ("limits.rows[0].saturation: give intensity or saturation, "
            "not both") in capsys.readouterr().err


@pytest.mark.parametrize("command, preset", [
    ("noise", "hot-vapour-d1"), ("noise", "hot-vapour-d2"),
    ("noise", "cold-atom-kerr"), ("sweep", "d1-sweep"),
    ("sweep", "d2-sweep")])
def test_presets_hold_only_keys_their_command_reads(tmp_path, command,
                                                    preset):
    assert main_exit(command, "--config", preset, "--out",
                     str(tmp_path / "out")) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, key, good, bad", [
    ("sweep", "intensities_mw", [0.0, 1.0], [-20.0, 1.0]),
    ("fit", "intensity_mw", 22.3, -22.3)])
def test_a_negative_intensity_is_a_config_error(tmp_path, capsys, command,
                                                key, good, bad, fmt):
    """A negative drive power was computed: sweep wrote nan cells after
    two RuntimeWarnings (exit 0 in CSV, 3 in JSON) and fit exited 3 on
    non-finite residuals.  It is exit 2 naming the key, with no file
    written and no warning; 0 mW stays valid."""
    cfg = (yaml.safe_load(yaml.safe_dump(SWEEP_CFG)) if command == "sweep"
           else yaml.safe_load(write_fit_cfg(tmp_path).read_text()))
    codes = []
    for tag, value in (("good", good), ("bad", bad)):
        cfg[command][key] = value
        path = write_cfg(tmp_path, cfg, f"{tag}.yaml")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            codes.append(main_exit(command, "--config", str(path), "--out",
                                   str(tmp_path / tag), "--format", fmt))
    assert codes == [0, 2]
    assert (f"config error: {command}.{key}: "
            in capsys.readouterr().err)
    assert (tmp_path / "good").exists() and not (tmp_path / "bad").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_noise_converts_theta_rows_only_for_the_scan(tmp_path, monkeypatch,
                                                     fmt):
    """Without --theta-scan no S_theta row goes to dB; with it, one per
    detuning.  The summary is the same bytes either way."""
    from psrsim import fluct
    calls = []
    to_db = fluct.QuadratureSpectrum.to_db

    def counted(spec):
        calls.append(spec.detuning)
        return to_db(spec)

    monkeypatch.setattr(fluct.QuadratureSpectrum, "to_db", counted)
    outs = []
    for tag, flags in (("plain", ()), ("scan", ("--theta-scan",))):
        out = tmp_path / f"{tag}.{fmt}"
        assert main_exit("noise", "--config", "hot-vapour-d2", "--out",
                         str(out), "--format", fmt, *flags) == 0
        outs.append(out.read_bytes())
        if tag == "plain":
            assert calls == []
    assert len(calls) == 13
    if fmt == "csv":
        assert outs[0] == outs[1]
    else:
        plain, scan = (json.loads(o) for o in outs)
        assert "theta_scan" not in plain["data"]
        assert plain["data"]["summary"] == scan["data"]["summary"]

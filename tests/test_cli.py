import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sgipair import cli, design, dynamics, entanglement
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

PHYS_CFG = """
M = 1e-9
omega = 0.1
d = 30e-6
F_q = 1e-17
S_FF = 1e-64
omega_t = 1e3
n_p = 10
nv_dB = 1.0
"""


@pytest.fixture
def phys_config(tmp_path):
    path = tmp_path / "phys.cfg"
    path.write_text(PHYS_CFG)
    return str(path)


def run(args):
    return cli.main(args)


def error_line(capsys):
    """The message of the single 'sgipair: error: ...' line a failed run printed."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sgipair: error: "), lines
    return lines[0].removeprefix("sgipair: error: ")


def read_csv(path):
    metadata, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return metadata, header, rows


class TestSweep:
    def test_single_point_matches_direct_evaluation(self, tmp_path):
        """Every grid row equals the one-point open_qrdm + evaluate_negativity result."""
        grids = [
            ["--axis", "g:0.1:0.2:2", "--fq", "1.0"],
            [
                "--axis", "s:0.05:1:3:log",
                "--axis", "n_p:0:4:2",
                "--axis", "gamma_x:0:0.03:3",
                "--g", "0.2", "--fq", "1.3", "--gamma-z", "0.002",
            ],
            [
                "--axis", "g:1e-3:0.45:4:log",
                "--axis", "s:0.1:1:2",
                "--constraint-force", "--np", "2", "--gamma-x", "0.01", "--gamma-z", "0.001",
            ],
        ]
        for index, grid in enumerate(grids):
            out = tmp_path / f"grid{index}.csv"
            assert run(["sweep", *grid, "--out", str(out)]) == 0
            _, header, rows = read_csv(out)
            for values in rows:
                row = dict(zip(header, values))
                g = row["g"]
                f_q = design.required_force(g) if "--constraint-force" in grid else row["f_q"]
                params = UnitlessParams(
                    f_q=f_q,
                    g=g,
                    s=row["s"],
                    n_p=row["n_p"],
                    gamma_x=row["gamma_x"],
                    gamma_z=row["gamma_z"],
                )
                tau = final_time(g)
                rho, contrasts, phase = dynamics.open_qrdm(params, tau)
                result = entanglement.evaluate_negativity(rho, phase, contrasts)
                assert values == [
                    f_q,
                    g,
                    params.s,
                    params.n_p,
                    params.gamma_x,
                    params.gamma_z,
                    tau,
                    phase,
                    contrasts.c_s_np_1,
                    contrasts.c_s_np_2,
                    contrasts.c_gamma_1,
                    contrasts.c_gamma_2,
                    contrasts.c_z,
                    result.exact,
                    result.closed_form,
                    result.witness_trace,
                    result.witness_trace,  # default selector
                ]

    def test_constraint_force_reproduces_ideal_negativity(self, tmp_path):
        out = tmp_path / "grid.csv"
        run(
            [
                "sweep",
                "--axis",
                "g:1e-6:1e-5:3:log",
                "--constraint-force",
                "--out",
                str(out),
            ]
        )
        _, header, rows = read_csv(out)
        for row_values in rows:
            row = dict(zip(header, row_values))
            assert row["neg_witness"] == pytest.approx(math.sin(math.pi / 20.0), abs=1e-4)

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        args = [
            "sweep",
            "--axis",
            "g:0.01:0.3:4:log",
            "--axis",
            "f_q:0.5:2:3",
            "--gamma-x",
            "0.01",
        ]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        run(args + ["--out", str(paths[0])])
        run(args + ["--out", str(paths[1])])
        run(args + ["--out", str(paths[2]), "--workers", "2"])
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_row_major_ordering(self, tmp_path):
        out = tmp_path / "grid.csv"
        run(
            [
                "sweep",
                "--axis",
                "g:0.1:0.2:2",
                "--axis",
                "f_q:1:2:2",
                "--out",
                str(out),
            ]
        )
        _, header, rows = read_csv(out)
        gs = [row[header.index("g")] for row in rows]
        fqs = [row[header.index("f_q")] for row in rows]
        assert gs == [0.1, 0.1, 0.2, 0.2]
        assert fqs == [1.0, 2.0, 1.0, 2.0]

    def test_state_selector_pins_preparation(self, tmp_path):
        out = tmp_path / "grid.csv"
        run(
            [
                "sweep",
                "--axis",
                "g:0.01:0.1:2",
                "--state",
                "ground",
                "--s",
                "0.5",
                "--np",
                "7",
                "--fq",
                "1",
                "--out",
                str(out),
            ]
        )
        _, header, rows = read_csv(out)
        assert all(row[header.index("s")] == 1.0 for row in rows)
        assert all(row[header.index("n_p")] == 0.0 for row in rows)

    def test_requires_axis(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep"])
        assert exit_info.value.code == 2
        assert error_line(capsys) == "sweep requires at least one --axis"

    def test_bad_axis_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep", "--axis", "mass:1:2:3"])
        assert exit_info.value.code == 2
        assert "unknown parameter" in error_line(capsys)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--axis", "g:0.1:0.6:6", "--fq", "1"], r"^coupling g=0\.5 outside \[0, 1/2\)"),
            (["--axis", "g:0:0.2:3", "--constraint-force"], r"^coupling g=0\.0 must be > 0"),
            (["--axis", "s:0.5:2:3"], r"^squeezing s=1\.25 must lie in \(0, 1\]"),
            (["--axis", "g:0.1:0.2:3", "--tau", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["--axis", "g:0.1:0.2:3", "--tau", "nan"], r"^tau=nan must be finite and >= 0$"),
        ],
    )
    def test_out_of_domain_column_fails_before_evaluation(
        self, tmp_path, monkeypatch, capsys, args, message
    ):
        def never(*_):
            raise AssertionError("a closed form ran on an out-of-domain grid")

        monkeypatch.setattr(dynamics, "open_qrdm", never)
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep", *args, "--out", str(out)])
        assert exit_info.value.code == 2
        assert re.match(message, error_line(capsys))
        assert not out.exists()


class TestTrajectories:
    def test_zero_force_paths_are_trivial(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(["trajectories", "--fq", "0", "--g", "0.1", "--steps", "5", "--out", str(out)])
        _, header, rows = read_csv(out)
        for row in rows:
            assert row[3:] == [0.0, 0.0, 0.0, 0.0]

    def test_uncoupled_paths_close_at_two_pi(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(
            [
                "trajectories",
                "--fq",
                "1",
                "--g",
                "0",
                "--tau-max",
                "2pi",
                "--steps",
                "9",
                "--out",
                str(out),
            ]
        )
        _, header, rows = read_csv(out)
        final_rows = rows[-4:]
        for row in final_rows:
            assert max(abs(v) for v in row[3:]) < 1e-12

    def test_metadata_and_shape(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(["trajectories", "--fq", "1", "--g", "0.1", "--steps", "7", "--out", str(out)])
        metadata, header, rows = read_csv(out)
        assert header == ["tau", "q1_bit", "q2_bit", "x1", "p1", "x2", "p2"]
        assert len(rows) == 7 * 4
        assert "residual_separation" in metadata
        assert float(metadata["closure_time"]) == pytest.approx(final_time(0.1))


class TestPointReports:
    def test_decohered_point_verdict(self, capsys):
        run(["qrdm", "--fq", "1", "--g", "0.1", "--gamma-z", "5.0"])
        text = capsys.readouterr().out
        assert "no entanglement" in text

    def test_negativity_alias_matches_unitary_limit(self, capsys):
        run(["negativity", "--fq", "1", "--g", "0.1", "--tau", "final"])
        text = capsys.readouterr().out
        phase = dynamics.entangling_phase(1.0, 0.1, final_time(0.1))
        assert f"phase: {format(phase, '.17g')}" in text
        assert "entangled" in text

    def test_physical_config_input(self, phys_config, capsys):
        run(["qrdm", "--config", phys_config, "--tau", "2pi"])
        text = capsys.readouterr().out
        assert "verdict" in text

    @pytest.mark.parametrize(
        "args, message",
        [
            (["qrdm", "--tau", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["qrdm", "--tau", "nan"], r"^tau=nan must be finite and >= 0$"),
            (["negativity", "--tau", "inf"], r"^tau=inf must be finite and >= 0$"),
            (["trajectories", "--tau-max", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["trajectories", "--tau-max", "nan"], r"^tau=nan must be finite and >= 0$"),
        ],
    )
    def test_bad_tau_fails_before_evaluation(self, tmp_path, monkeypatch, capsys, args, message):
        def never(*_):
            raise AssertionError("a closed form ran at an out-of-domain tau")

        monkeypatch.setattr(dynamics, "open_qrdm", never)
        monkeypatch.setattr(dynamics, "branch_trajectories", never)
        out = tmp_path / "point.out"
        with pytest.raises(SystemExit) as exit_info:
            run([*args, "--fq", "1", "--g", "0.1", "--out", str(out)])
        assert exit_info.value.code == 2
        assert re.match(message, error_line(capsys))
        assert not out.exists()


class TestExpand:
    def test_report_matches_catalogue(self, phys_config, capsys):
        run(["expand", "--config", phys_config, "--kind", "newton", "--theta", "parallel"])
        text = capsys.readouterr().out
        assert "coefficients" in text and "catalogue" in text
        run(["expand", "--config", phys_config, "--kind", "newton", "--theta", "0.3"])
        assert "catalogue" not in capsys.readouterr().out


class TestBounds:
    @staticmethod
    def _section(text, name):
        lines = text.splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip().startswith(name))
        values = {}
        for line in lines[start + 1 :]:
            if not line.startswith("    "):
                break
            key, _, value = line.strip().partition(":")
            try:
                values[key.strip()] = float(value)
            except ValueError:
                values[key.strip()] = value.strip()
        return values

    def test_reference_windows(self, phys_config, capsys):
        run(["bounds", "--config", phys_config])
        text = capsys.readouterr().out
        unitary = self._section(text, "mass_window_unitary_kg")
        assert unitary["M_min"] == pytest.approx(2.18e-15, rel=0.02)
        assert unitary["M_max"] == pytest.approx(2.02e-6, rel=0.02)
        assert "mass_window_noisy_kg" in text
        nv = self._section(text, "nv")
        assert nv["constraint_omega"] == pytest.approx(0.05, rel=0.25)

    def test_noisy_window_contains_nanogram(self, phys_config, capsys):
        run(["bounds", "--config", phys_config])
        text = capsys.readouterr().out
        noisy = self._section(text, "mass_window_noisy_kg")
        assert noisy["M_min"] < 1e-9 < noisy["M_max"]


class TestVerify:
    def test_fast_suite_passes(self, tmp_path):
        out = tmp_path / "verify.txt"
        json_out = tmp_path / "verify.json"
        code = run(
            ["verify", "--level", "fast", "--out", str(out), "--json-out", str(json_out)]
        )
        assert code == 0
        assert "overall: pass" in out.read_text()
        payload = json.loads(json_out.read_text())
        assert payload["passed"] is True

    def test_negative_control_fails_with_named_quantity(self, tmp_path):
        out = tmp_path / "verify.txt"
        json_out = tmp_path / "verify.json"
        code = run(
            [
                "verify",
                "--level",
                "fast",
                "--negative-control",
                "--out",
                str(out),
                "--json-out",
                str(json_out),
            ]
        )
        assert code == 1
        payload = json.loads(json_out.read_text())
        assert payload["passed"] is False
        assert payload["failures"]
        assert all("/" in name for name in payload["failures"])


class TestFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "grid.csv"
        run(["sweep", "--axis", "g:0.1:0.3:2", "--fq", "1", "--out", str(out)])
        content = out.read_text()
        value = format(1.0 / 3.0, ".17g")
        assert len(value.replace("0.", "")) == 17
        # round-trip safety: parsing the emitted floats reproduces them
        _, header, rows = read_csv(out)
        second = [
            [float(v) for v in line.split(",")]
            for line in content.splitlines()
            if not line.startswith("#") and not line[0].isalpha()
        ]
        assert rows == second

    def test_seedless_flag_accepted(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--axis", "g:0.1:0.2:2", "--fq", "1", "--seedless", "--out", str(out)]) == 0


@pytest.mark.parametrize("module", ["sgipair.cli", "sgipair.dynamics"])
def test_import_loads_no_scipy(module):
    # scipy is needed only for expm in the propagator reference
    # (`propagator_expm`); importing it costs most of the CLI start-up time.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "False"

import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import csv_document
from sgipair import cli, design, dynamics, entanglement, oracle
from sgipair.phase_space import final_time
from sgipair.potentials import HBAR, UnitlessParams

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


DEMOS = Path(__file__).resolve().parents[1] / "demos"


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


_FINITE_AXIS = r"min, max and max - min must be finite"


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
                _, contrasts, phase = dynamics.open_qrdm(params, tau)
                result = entanglement.evaluate_negativity(phase, contrasts)
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

    def test_byte_identical_reruns(self, tmp_path):
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
        run(args + ["--out", str(paths[2])])
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
            (
                ["--axis", "g:0:0.2:3", "--constraint-force"],
                r"^coupling g=0\.0 must be finite and > 0",
            ),
            (["--axis", "s:0.5:2:3"], r"^squeezing s=1\.25 must lie in \(0, 1\]"),
            (["--axis", "g:0.1:0.2:3", "--tau", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["--axis", "g:0.1:0.2:3", "--tau", "nan"], r"^tau=nan must be finite and >= 0$"),
            (
                ["--axis", "g:0.1:0.2:3", "--tau", "abc"],
                r"^--tau='abc' must be 'final', '2pi' or a number$",
            ),
            # axes that conflict with each other or with --constraint-force
            (
                ["--axis", "g:0.1:0.2:2", "--axis", "g:0.3:0.4:2", "--fq", "1"],
                r"^axis g is given more than once$",
            ),
            (
                ["--axis", "g:0.1:0.2:2", "--axis", "f_q:1:2:2", "--constraint-force"],
                r"^axis f_q conflicts with --constraint-force, which sets f_q$",
            ),
            (["--axis", "g:0.1:0.2:abc"], r"^axis 'g:0\.1:0\.2:abc': points must be an integer$"),
            (["--axis", "g:0.1:high:3"], r"^axis 'g:0\.1:high:3': min and max must be numbers$"),
            # a bound or a span that is not finite is named by its axis, before numpy runs
            *(
                (["--axis", axis, "--fq", "1"], rf"^axis '{re.escape(axis)}': {_FINITE_AXIS}$")
                for axis in ("g:-1.0:inf:3", "gamma_x:inf:inf:3", "n_p:nan:1:2", "g:-1e308:1e308:3")
            ),
            (
                ["--axis", "g:1e-320:1e-3:3", "--constraint-force"],
                r"^coupling g=1e-320 must keep the required force 1/sqrt\(120 g\) finite$",
            ),
        ],
    )
    def test_out_of_domain_column_fails_before_evaluation(
        self, tmp_path, monkeypatch, capsys, args, message
    ):
        def never(*_):
            raise AssertionError("a closed form ran on an out-of-domain grid")

        monkeypatch.setattr(dynamics, "open_phase_contrasts", never)
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep", *args, "--out", str(out)])
        assert exit_info.value.code == 2
        assert re.match(message, error_line(capsys))
        assert not out.exists()

    @pytest.mark.parametrize(
        "target", ["numpy.meshgrid", "sgipair.dynamics.open_phase_contrasts"]
    )
    def test_grid_too_large_for_memory_fails_with_one_line(
        self, tmp_path, monkeypatch, capsys, target
    ):
        def no_memory(*_, **__):
            raise MemoryError

        monkeypatch.setattr(target, no_memory)
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep", "--axis", "g:0.1:0.2:3", "--axis", "f_q:1:2:4", "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == "sweep grid of 12 rows does not fit in memory"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "bounds"])
    def test_no_qrdm_is_assembled(self, tmp_path, monkeypatch, phys_config, command):
        # both commands report phases, contrasts and negativities only
        def never(*_):
            raise AssertionError("a QRDM was assembled and thrown away")

        monkeypatch.setattr(dynamics, "_qrdm_from_components", never)
        args = {
            "sweep": ["sweep", "--axis", "g:0.1:0.2:3", "--fq", "1"],
            "bounds": ["bounds", "--config", phys_config],
        }[command]
        assert run([*args, "--out", str(tmp_path / "result.out")]) == 0

    @pytest.mark.parametrize(
        "axis, fixed, column, values",
        [
            (["--axis", "s:0.5:1:2"], ["--np", "3"], "n_p", [0.5, 1.0]),
            (["--axis", "n_p:0:3:2"], ["--s", "0.5"], "s", [0.0, 3.0]),
        ],
    )
    def test_preparation_axis_sweeps_beside_a_fixed_value(
        self, tmp_path, axis, fixed, column, values
    ):
        # an s or n_p axis is swept as given, and the other preparation value
        # stays the one passed on the command line
        out = tmp_path / "grid.csv"
        args = [*axis, "--g", "0.1", "--fq", "1", *fixed]
        assert run(["sweep", *args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        swept = axis[1].split(":")[0]
        assert [row[header.index(swept)] for row in rows] == values
        assert all(row[header.index(column)] == float(fixed[1]) for row in rows)

    def test_explicit_squeezing_reaches_every_phonon_row(self, tmp_path):
        out = tmp_path / "grid.csv"
        args = ["--axis", "n_p:0:3:2", "--g", "0.1", "--fq", "1", "--s", "0.5"]
        assert run(["sweep", *args, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [row[header.index("n_p")] for row in rows] == [0.0, 3.0]
        assert all(row[header.index("s")] == 0.5 for row in rows)


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

    def test_rows_match_branch_trajectories(self, tmp_path):
        # row (slot, label): tau, the label's two bits, then its path at tau
        out = tmp_path / "traj.csv"
        run(["trajectories", "--fq", "1.5", "--g", "0.2", "--steps", "6", "--out", str(out)])
        taus = np.linspace(0.0, final_time(0.2), 6)
        moments = dynamics.branch_trajectories(1.5, 0.2, taus)
        labels = sorted(moments, key=lambda label: label.qrdm_index)
        rows = [
            [tau, *divmod(label.qrdm_index[0], 2), *moments[label].vector.real[slot]]
            for slot, tau in enumerate(taus)
            for label in labels
        ]
        header = ["tau", "q1_bit", "q2_bit", "x1", "p1", "x2", "p2"]
        assert out.read_text().endswith(csv_document({}, header, rows))

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

    def test_report_matches_unitary_limit(self, capsys):
        run(["qrdm", "--fq", "1", "--g", "0.1", "--tau", "final"])
        text = capsys.readouterr().out
        phase = dynamics.entangling_phase(1.0, 0.1, final_time(0.1))
        assert f"phase: {format(phase, '.17g')}" in text
        assert "entangled" in text

    def test_negativity_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["negativity", "--fq", "1", "--g", "0.1"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("sgipair: error: argument command: invalid choice:")
        assert "'negativity'" in errors[0]

    def test_report_lists_each_contrast_field_once(self, capsys):
        run(["qrdm", "--fq", "1", "--g", "0.1"])
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("  contrasts:") + 1
        names = [line.split(":")[0].strip() for line in lines[start : lines.index("  qrdm:")]]
        assert names == ["c_s_np_1", "c_s_np_2", "c_gamma_1", "c_gamma_2", "c_z"]

    def test_physical_config_input(self, phys_config, capsys):
        run(["qrdm", "--config", phys_config, "--tau", "2pi"])
        text = capsys.readouterr().out
        assert "verdict" in text

    @pytest.mark.parametrize(
        "args, message",
        [
            (["qrdm", "--tau", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["qrdm", "--tau", "nan"], r"^tau=nan must be finite and >= 0$"),
            (["qrdm", "--tau", "inf"], r"^tau=inf must be finite and >= 0$"),
            (["trajectories", "--tau-max", "-3"], r"^tau=-3\.0 must be finite and >= 0$"),
            (["trajectories", "--tau-max", "nan"], r"^tau=nan must be finite and >= 0$"),
            (["qrdm", "--tau", "abc"], r"^--tau='abc' must be 'final', '2pi' or a number$"),
            (
                ["trajectories", "--tau-max", "xyz"],
                r"^--tau-max='xyz' must be 'final', '2pi' or a number$",
            ),
            (["trajectories", "--steps", "0"], r"^--steps=0 must be >= 1$"),
            (["trajectories", "--steps", "-3"], r"^--steps=-3 must be >= 1$"),
        ],
    )
    def test_bad_tau_fails_before_evaluation(self, tmp_path, monkeypatch, capsys, args, message):
        def never(*_):
            raise AssertionError("a closed form ran at an out-of-domain tau")

        monkeypatch.setattr(dynamics, "open_qrdm", never)
        monkeypatch.setattr(dynamics, "open_phase_contrasts", never)
        monkeypatch.setattr(dynamics, "branch_trajectories", never)
        out = tmp_path / "point.out"
        with pytest.raises(SystemExit) as exit_info:
            run([*args, "--fq", "1", "--g", "0.1", "--out", str(out)])
        assert exit_info.value.code == 2
        assert re.match(message, error_line(capsys))
        assert not out.exists()


    @pytest.mark.parametrize(
        "args, value",
        [
            (["qrdm", "--fq", "inf"], "f_q=inf"),
            (["qrdm", "--gamma-x", "inf"], "gamma_x=inf"),
            (["qrdm", "--gamma-z", "inf"], "gamma_z=inf"),
            (["qrdm", "--np", "nan"], "n_p=nan"),
            (["sweep", "--axis", "g:0.1:0.2:3", "--gamma-x", "inf"], "gamma_x=inf"),
            (["trajectories", "--fq", "nan"], "f_q=nan"),
            (["trajectories", "--fq", "inf"], "f_q=inf"),
            (["trajectories", "--fq", "-1"], "f_q=-1.0"),
        ],
    )
    def test_non_finite_or_negative_parameter_fails_with_one_line(
        self, tmp_path, capsys, args, value
    ):
        # the last --fq given wins, so the defaults come first
        out = tmp_path / "point.out"
        with pytest.raises(SystemExit) as exit_info:
            run([args[0], "--fq", "1", "--g", "0.1", *args[1:], "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == f"{value} must be finite and >= 0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qrdm", "sweep"])
    def test_subnormal_squeezing_fails_with_one_line(self, tmp_path, capsys, command):
        # 1/s overflows at s = 1e-310; the run must stop on s, before any warning
        out = tmp_path / "point.out"
        axis = ["--axis", "g:0.1:0.2:3"] if command == "sweep" else ["--g", "0.1"]
        argv = [command, "--fq", "1", *axis, "--s", "1e-310", "--tau", "1", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exit_info:
                run(argv)
        assert exit_info.value.code == 2
        assert error_line(capsys).startswith("squeezing s=1e-310 ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            *(
                (
                    [command, "--fq", "1", *axis, "--s", s, "--np", "3", "--gamma-x", "0.01",
                     "--tau", tau],
                    "contrast c_s_np_1=inf must be finite",
                )
                for command, axis in [
                    ("qrdm", ["--g", "0.45"]),
                    ("sweep", ["--axis", "g:0.44:0.45:2"]),
                ]
                for s, tau in [("2.3e-308", "1"), ("1e-307", "2")]
            ),
            # f_q^2 overflows, and so does the phase
            (
                ["qrdm", "--fq", "1e200", "--g", "0.1"],
                "f_q=1e+200 must keep the entangling phase finite at tau=7.024814731040727",
            ),
            (
                ["qrdm", "--fq", "1e150", "--g", "0.1", "--tau", "1e300"],
                "f_q=1e+150 must keep the entangling phase finite at tau=1e+300",
            ),
            (
                ["sweep", "--axis", "f_q:1:1e200:3:log", "--g", "0.1"],
                "f_q=1e+200 must keep the entangling phase finite at tau=7.024814731040727",
            ),
            # f_q^2 is finite, but the diffusion prefactor f_q^2/(8 w^5) overflows against a
            # zero rate and a zero shape: a NaN exponent, named by f_q and tau
            (
                ["qrdm", "--fq", "1e154", "--g", "0.4999", "--tau", "0"],
                "f_q=1e+154 must keep the diffusion contrasts finite at tau=0.0",
            ),
            (
                ["sweep", "--axis", "f_q:1:1e154:3:log", "--g", "0.4999", "--tau", "0.5"],
                "f_q=1e+154 must keep the diffusion contrasts finite at tau=0.5",
            ),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else "",
    )
    def test_overflowing_contrast_fails_with_one_line(self, tmp_path, capsys, argv, message):
        # s is a normal float, but (1+2 n_p) f_q^2/(2 w^4 s) overflows: named, without a warning;
        # at tau 2 the QRDM's both-flip exponent 4 c_s_np_2 overflows too.  A phase that
        # overflows stops the same way, naming f_q and tau.
        out = tmp_path / "point.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exit_info:
                run([*argv, "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "point, lambda_min",
        [
            (["--fq", "1", "--s", "1e-307", "--gamma-x", "0.01"], "0.25"),
            # c_s_np_2 = 1.38e308 is finite, but its both-flip exponent 4 c_s_np_2 overflows
            # to inf, so the - block is diag(0, 1/4)
            (["--fq", "2", "--s", "2.3e-308"], "0"),
        ],
        ids=["1e-307", "2.3e-308"],
    )
    def test_closure_zeroes_an_overflowed_antisymmetric_contrast(
        self, tmp_path, point, lambda_min
    ):
        # at closure the c_s_np_1 bracket is exactly 0 while its prefactor overflows to inf
        out = tmp_path / "point.out"
        argv = ["qrdm", "--g", "0.45", *point, "--np", "3", "--tau", "final", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        text = out.read_text()
        assert "\n    c_s_np_1: 0\n" in text and f"\n    lambda_min: {lambda_min}\n" in text


class TestExpand:
    def test_report_matches_catalogue(self, phys_config, capsys):
        run(["expand", "--config", phys_config, "--kind", "newton", "--theta", "parallel"])
        text = capsys.readouterr().out
        assert "coefficients" in text and "catalogue" in text
        run(["expand", "--config", phys_config, "--kind", "newton", "--theta", "0.3"])
        assert "catalogue" not in capsys.readouterr().out

    @pytest.mark.parametrize("theta", ["nan", "inf", "east"])
    def test_bad_theta_fails_with_one_line(self, phys_config, capsys, theta):
        with pytest.raises(SystemExit) as exit_info:
            run(["expand", "--config", phys_config, "--theta", theta])
        assert exit_info.value.code == 2
        assert error_line(capsys) == (
            f"--theta={theta} must be 'parallel', 'linear' or a finite angle in rad"
        )


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

    @pytest.mark.parametrize(
        "text",
        [
            *(pytest.param(cfg.read_text(), id=cfg.name) for cfg in sorted(DEMOS.glob("*.cfg"))),
            pytest.param(PHYS_CFG, id="phys"),
            # the force the detection constraint asks of this g, 1/sqrt(120 g) in f_q
            pytest.param(PHYS_CFG.replace("F_q = 1e-17", "F_q = 6e-23"), id="constrained-force"),
        ],
    )
    def test_budget_agrees_with_the_exact_negativity(self, tmp_path, capsys, text):
        # the budget spends the state's own single-flip exponent at closure, so it is feasible
        # exactly where the QRDM at closure is entangled
        config = tmp_path / "phys.cfg"
        config.write_text(text)
        run(["qrdm", "--config", str(config), "--tau", "final"])
        exact = self._section(capsys.readouterr().out, "negativity")["exact"]
        run(["bounds", "--config", str(config)])
        budget = self._section(capsys.readouterr().out, "noise_budget")
        assert budget["feasible"] == ("true" if exact > 0.0 else "false")
        assert budget["exact_negativity"] == exact


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

    def test_full_negative_control_fails_on_the_fock_entries(self, tmp_path):
        json_out = tmp_path / "verify.json"
        args = ["verify", "--level", "full", "--negative-control", "--out", str(tmp_path / "v.txt")]
        assert run(args + ["--json-out", str(json_out)]) == 1
        failures = json.loads(json_out.read_text())["failures"]
        g_sensitive = ["arbitration/qrdm", "arbitration/phase(tau_f)", "arbitration/c1"]
        assert set(g_sensitive + ["diffusive/qrdm"]) <= set(failures)
        assert "arbitration/c2-adopted" not in failures  # the closure contrast has no g in it

    # One closed-form contrast term scaled by a factor, and the entries of `verify --level
    # full` that must then fail.  Still uncaught, so not listed: dropping the (1+2 n_p)
    # factor of c_s_np_2 and the s-dependence of c_s_np_1 (every Fock point has s = 1, n_p = 0).
    MUTATION_CENSUS = {
        ("c_z", 2.0): ["diffusive/qrdm"],
        ("c_z", 1.0 + 1e-6): ["diffusive/qrdm"],
        ("c_gamma_1", 1.0 + 1e-6): ["diffusive/qrdm"],
        ("c_gamma_2", 1.0 + 1e-6): ["diffusive/qrdm"],
        ("c_s_np_1", 1.0 + 1e-6): ["arbitration/qrdm", "arbitration/c1", "diffusive/qrdm"],
        ("c_s_np_2", 1.0 + 1e-6): [
            "arbitration/qrdm", "arbitration/c2-adopted", "diffusive/qrdm",
        ],
    }

    @pytest.mark.parametrize(
        "term, factor", MUTATION_CENSUS, ids=[f"{term}*{k}" for term, k in MUTATION_CENSUS]
    )
    def test_mutation_census(self, tmp_path, monkeypatch, term, factor):
        closed_form = dynamics._open_contrasts

        def mutated(params, tau):
            contrasts = closed_form(params, tau)
            return replace(contrasts, **{term: factor * getattr(contrasts, term)})

        monkeypatch.setattr(dynamics, "_open_contrasts", mutated)
        json_out = tmp_path / "verify.json"
        args = ["verify", "--level", "full", "--out", str(tmp_path / "v.txt")]
        assert run(args + ["--json-out", str(json_out)]) == 1
        assert json.loads(json_out.read_text())["failures"] == self.MUTATION_CENSUS[term, factor]


class TestOutputPaths:
    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--axis", "g:0.1:0.2:2", "--fq", "1", "--out", "{missing}/grid.csv"],
            ["trajectories", "--fq", "1", "--g", "0.1", "--out", "{missing}/traj.csv"],
            ["qrdm", "--fq", "1", "--g", "0.1", "--out", "{missing}/point.txt"],
            ["verify", "--out", "{missing}/verify.txt"],
            ["verify", "--json-out", "{missing}/verify.json"],
        ],
    )
    def test_missing_directory_fails_before_any_work(self, tmp_path, monkeypatch, capsys, args):
        def never(*_, **__):
            raise AssertionError("work ran before the output path was checked")

        for module, name in [
            (dynamics, "open_qrdm"),
            (dynamics, "open_phase_contrasts"),
            (dynamics, "branch_trajectories"),
            (oracle, "verify_moments"),
        ]:
            monkeypatch.setattr(module, name, never)
        missing = tmp_path / "missing"
        args = [arg.format(missing=missing) for arg in args]
        with pytest.raises(SystemExit) as exit_info:
            run(args)
        assert exit_info.value.code == 2
        option, path = args[-2:]
        assert error_line(capsys) == f"{option} {path}: directory {missing} does not exist"
        assert not missing.exists()

    def test_directory_as_output_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["trajectories", "--fq", "1", "--g", "0.1", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == f"--out {tmp_path}: is a directory"


_RANGE = "out of float range"
_COEFFICIENTS = f"the expansion coefficients {_RANGE}"


class TestConfigFile:
    @pytest.mark.parametrize("command", ["qrdm", "expand", "bounds"])
    @pytest.mark.parametrize(
        "kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)]
    )
    def test_unreadable_config_fails_with_one_line(self, tmp_path, capsys, command, kind, code):
        config = tmp_path / "nope.cfg"
        if kind == "directory":
            config.mkdir()
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == f"--config {config}: {os.strerror(code)}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qrdm", "expand", "bounds"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            ("M = 2e-9\n", "{path}:10: M is already given on line 2"),
            ("nv_chim = -6e-9\n", "{path}:10: unknown parameter 'nv_chim'"),
            ("nv_g_factor = 2\n", "{path}:10: unknown parameter 'nv_g_factor'"),
            ("nv_mu_B = 9.27e-24\n", "{path}:10: unknown parameter 'nv_mu_B'"),
            ("nv_mu_0 = 1.26e-6\n", "{path}:10: unknown parameter 'nv_mu_0'"),
            ("T_m = nan\n", "{path}:10: T_m=nan must be finite"),
            ("Q = -inf\n", "{path}:10: Q=-inf must be finite"),
        ],
    )
    def test_silent_config_input_fails_with_one_line(
        self, tmp_path, capsys, command, extra, message
    ):
        config = tmp_path / "phys.cfg"
        config.write_text(PHYS_CFG + extra)
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--config", str(config)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == message.format(path=config)

    @pytest.mark.parametrize(
        "line, given, message",
        [
            ("n_p = 10", "T_m = -5", "T_m=-5.0 must be >= 0"),
            ("omega_t = 1e3", "omega_t = -1", "omega_t=-1.0 must be > 0"),
            ("n_p = 10", "rho_m = -1", "rho_m=-1.0 must be > 0"),
            ("n_p = 10", "eps_r = 0.5", "eps_r=0.5 must be >= 1 (a dielectric)"),
            (
                "M = 1e-9",
                "M = 3e-6",
                "M=3e-06, d=3e-05, omega=0.1 put coupling g=0.7415888888888887 outside"
                " [0, 1/2); the trap is unstable at g >= 1/2",
            ),
        ],
    )
    def test_config_value_out_of_domain_fails_with_one_line(
        self, tmp_path, capsys, line, given, message
    ):
        config = tmp_path / "phys.cfg"
        config.write_text(PHYS_CFG.replace(line, given))
        out = tmp_path / "bounds.txt"
        with pytest.raises(SystemExit) as exit_info:
            run(["bounds", "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qrdm", "expand", "bounds"])
    def test_nv_key_without_gradient_fails_with_one_line(self, tmp_path, capsys, command):
        config = tmp_path / "phys.cfg"
        config.write_text(PHYS_CFG.replace("nv_dB = 1.0", "nv_chi_m = -1e-9"))
        out = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == f"{config}: nv_chi_m is given without nv_dB"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, command, message",
        [
            ("M", "1e-300", "expand", f"M=1e-300, omega=0.1, d=3e-05 put {_COEFFICIENTS}"),
            ("M", "1e-300", "bounds", f"F_q=1e-17, M=1e-300, omega=0.1 put f_q {_RANGE}"),
            ("M", "1e-300", "qrdm", f"F_q=1e-17, M=1e-300, omega=0.1 put f_q {_RANGE}"),
            ("M", "1e300", "expand", f"M=1e+300 put the newton strength A {_RANGE}"),
            ("M", "1e300", "bounds", f"M=1e+300, omega=0.1 put x0 {_RANGE}"),
            # g = 2.5e305 is a float: the report names it as the unstable coupling it is
            (
                "M",
                "1e300",
                "qrdm",
                "M=1e+300, d=3e-05, omega=0.1 put coupling g=2.4719629629629624e+305"
                " outside [0, 1/2); the trap is unstable at g >= 1/2",
            ),
            ("d", "1e-300", "expand", f"M=1e-09, omega=0.1, d=1e-300 put {_COEFFICIENTS}"),
            ("d", "1e-300", "bounds", f"M=1e-09, d=1e-300, omega=0.1 put g {_RANGE}"),
            ("d", "1e-300", "qrdm", f"M=1e-09, d=1e-300, omega=0.1 put g {_RANGE}"),
            ("d", "1e300", "expand", f"M=1e-09, d=1e+300, omega=0.1 put g {_RANGE}"),
            ("d", "1e300", "bounds", f"M=1e-09, d=1e+300, omega=0.1 put g {_RANGE}"),
            ("d", "1e300", "qrdm", f"M=1e-09, d=1e+300, omega=0.1 put g {_RANGE}"),
            ("omega", "1e-300", "expand", f"M=1e-09, omega=1e-300, d=3e-05 put {_COEFFICIENTS}"),
            ("omega", "1e-300", "bounds", f"F_q=1e-17, M=1e-09, omega=1e-300 put f_q {_RANGE}"),
            ("omega", "1e-300", "qrdm", f"F_q=1e-17, M=1e-09, omega=1e-300 put f_q {_RANGE}"),
            ("omega", "1e300", "expand", f"M=1e-09, omega=1e+300 put x0 {_RANGE}"),
            ("omega", "1e300", "bounds", f"M=1e-09, omega=1e+300 put x0 {_RANGE}"),
            ("omega", "1e300", "qrdm", f"F_q=1e-17, M=1e-09, omega=1e+300 put f_q {_RANGE}"),
            ("eps_r", "-2", "casimir", "eps_r=-2.0 must be >= 1 (a dielectric)"),
            ("rho_m", "0", "casimir", "rho_m=0.0 must be > 0"),
        ],
    )
    def test_config_value_out_of_float_range_fails_with_one_line(
        self, tmp_path, capsys, key, value, command, message
    ):
        # every SI formula gives a float or one line naming the config keys it reads
        config = tmp_path / "phys.cfg"
        lines = [*PHYS_CFG.splitlines(), "eps_r = 5.7", "rho_m = 3500"]
        kept = [line for line in lines if not line.startswith(f"{key} =")]
        config.write_text("\n".join([*kept, f"{key} = {value}"]))
        argv = {
            "expand": ["expand", "--kind", "newton", "--theta", "linear"],
            "casimir": ["expand", "--kind", "casimir"],
        }.get(command, [command])
        out = tmp_path / "report.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exit_info:
                run([*argv, "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert error_line(capsys) == message
        assert not out.exists()

    def test_bounds_reads_the_config_once(self, phys_config, monkeypatch, capsys):
        reads = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        run(["bounds", "--config", phys_config])
        assert reads == [phys_config]
        assert "nv:" in capsys.readouterr().out


def _awkward_rows(count):
    # signed zeros in one column, infinities and NaN, Python ints, repeats
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0, 5e-324, -1e300, 0.1]
    return [
        [values[k % 9], -0.0 if k % 3 else 0.0, k % 2, k, values[(5 * k) % 9] * k, 0.1 * k]
        for k in range(count)
    ]


class TestCsvWriter:
    METADATA = {"generator": "test", "command": "rows"}
    HEADER = ["a", "b", "bit", "index", "scaled", "tenth"]

    @pytest.mark.parametrize(
        "count",
        [0, 1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS + 7, 2 * cli._CSV_BLOCK_ROWS + 3],
    )
    def test_matches_cell_by_cell_formatter(self, tmp_path, capsys, count):
        rows = _awkward_rows(count)
        expected = csv_document(self.METADATA, self.HEADER, rows)
        columns = {name: [row[i] for row in rows] for i, name in enumerate(self.HEADER)}
        out = tmp_path / "rows.csv"
        cli._write_csv(str(out), self.METADATA, columns)
        assert out.read_bytes() == expected.encode()
        for target in (None, "-"):
            cli._write_csv(target, self.METADATA, columns)
            assert capsys.readouterr().out == expected

    def test_an_alias_is_formatted_once_per_block(self, tmp_path, monkeypatch):
        # a column given under two names (the sweep's negativity) is formatted once,
        # and a broadcast constant is written without being materialized
        count = cli._CSV_BLOCK_ROWS + 5
        values = np.linspace(-1.0, 1.0, count)
        constant = np.broadcast_to(np.float64(-0.0), (count,))
        formatted = []
        format_column = cli._format_column

        def counting(column):
            formatted.append(len(column))
            return format_column(column)

        monkeypatch.setattr(cli, "_format_column", counting)
        out = tmp_path / "alias.csv"
        cli._write_csv(str(out), {}, {"v": values, "c": constant, "alias": values})
        assert formatted == [cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS, 5, 5]
        rows = [[v, -0.0, v] for v in values]
        assert out.read_text() == csv_document({}, ["v", "c", "alias"], rows)

    def test_sweep_stdout_matches_out_file(self, tmp_path, capsys):
        args = ["sweep", "--axis", "g:0.05:0.3:3", "--axis", "f_q:0:1:2", "--gamma-x", "0.01"]
        out = tmp_path / "grid.csv"
        run([*args, "--out", str(out)])
        capsys.readouterr()
        run(args)
        assert capsys.readouterr().out.encode() == out.read_bytes()
        columns = cli.run_sweep(
            cli.SweepSpec(
                axes=(cli.SweepAxis.parse("g:0.05:0.3:3"), cli.SweepAxis.parse("f_q:0:1:2")),
                fixed={"gamma_x": 0.01},
            )
        )
        rows = zip(*columns.values())
        assert out.read_text().endswith(csv_document({}, list(columns), rows))

    @pytest.mark.parametrize("selector", ["exact", "closed", "witness"])
    def test_sweep_table_is_named_columns(self, selector):
        spec = cli.SweepSpec(
            axes=(cli.SweepAxis.parse("g:0.05:0.3:3"), cli.SweepAxis.parse("s:0.1:1:2")),
            fixed={"f_q": 1.0, "n_p": 2.0},
            negativity_selector=selector,
        )
        columns = cli.run_sweep(spec)
        assert list(columns) == [
            *dynamics._PARAM_NAMES,
            "tau",
            "phi",
            "c_s_np_1",
            "c_s_np_2",
            "c_gamma_1",
            "c_gamma_2",
            "c_z",
            "neg_exact",
            "neg_closed",
            "neg_witness",
            "negativity",
        ]
        assert all(column.shape == (6,) for column in columns.values())
        assert columns["negativity"] is columns[f"neg_{selector}"]
        # a fixed value is a 0-stride view, not a materialized column
        assert columns["n_p"].strides == (0,) and columns["n_p"][0] == 2.0


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

    @pytest.mark.parametrize(
        "flag", [["--seedless"], ["--workers", "2"], ["--state", "ground"]]
    )
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys, flag):
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exit_info:
            run(["sweep", "--axis", "g:0.1:0.2:2", "--fq", "1", *flag, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


_SELECTORS = ["--tau", "3", "--negativity", "exact"]


@pytest.mark.parametrize(
    "args",
    [
        ["trajectories", "--fq", "1", "--g", "0.1", *_SELECTORS],
        ["expand", "--config", "{config}", *_SELECTORS],
        ["bounds", "--config", "{config}", *_SELECTORS],
        ["verify", *_SELECTORS],
        # no option is matched by its prefix, so --tau is not read as --tau-max
        ["trajectories", "--fq", "1", "--g", "0.1", "--tau", "3"],
    ],
)
def test_time_and_negativity_selectors_only_where_read(phys_config, capsys, args):
    # --tau and --negativity pick the point a sweep or qrdm report evaluates;
    # elsewhere they would be silently ignored, so the parser rejects them.
    args = [arg.format(config=phys_config) for arg in args]
    with pytest.raises(SystemExit) as exit_info:
        run(args)
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    selectors = " ".join(args[args.index("--tau") :])
    assert errors == [f"sgipair: error: unrecognized arguments: {selectors}"]


@pytest.mark.parametrize("module", ["sgipair.cli", "sgipair.dynamics"])
def test_import_loads_no_scipy(module):
    # The library needs no scipy; only the test suite's references in
    # `tests/oracles.py` use it.  Importing it would cost most of the CLI start-up time.
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


# --------------------------------------------------------------------------
# Every command on the float edges
# --------------------------------------------------------------------------

# Zeros of both signs, the smallest subnormal, the smallest normal float, huge and tiny
# magnitudes, the infinities, NaN, the stability edge g = 1/2 and a point just inside it, and
# an f_q whose square nears the float limit.
FLOAT_EDGES = (
    "0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e300", "-1e300", "1e-300",
    "-1e-300", "inf", "-inf", "nan", "0.5", "0.4999", "1e154",
)
_EDGE = st.sampled_from(FLOAT_EDGES)
_TIME = st.sampled_from(("final", "2pi", *FLOAT_EDGES))


def _options(names, values=_EDGE):
    """Some of the options ``names``, each as one ``--name=value`` argument.

    The '=' keeps a negative value attached: argparse reads ``--g -1e-3`` as a missing value.
    """
    pairs = st.dictionaries(st.sampled_from(names), values)
    return pairs.map(lambda chosen: [f"{name}={value}" for name, value in chosen.items()])


_UNITLESS = _options(("--fq", "--g", "--s", "--np", "--gamma-x", "--gamma-z"))
_AXIS = st.builds(
    "--axis={}:{}:{}:{}{}".format,
    st.sampled_from(dynamics._PARAM_NAMES),
    _EDGE,
    _EDGE,
    st.sampled_from((2, 3)),
    st.sampled_from(("", ":log", ":linear")),
)
_SWEEP = st.builds(
    lambda axes, force, unitless, tau: ["sweep", *axes, *force, *unitless, *tau],
    st.lists(_AXIS, min_size=1, max_size=2),
    st.sampled_from(([], ["--constraint-force"])),
    _UNITLESS,
    _options(("--tau",), _TIME),
)
_QRDM = st.builds(
    lambda unitless, tau: ["qrdm", *unitless, *tau], _UNITLESS, _options(("--tau",), _TIME)
)
_TRAJECTORIES = st.builds(
    lambda f_q, g, tau, steps: ["trajectories", f"--fq={f_q}", f"--g={g}", *tau, *steps],
    _EDGE,
    _EDGE,
    _options(("--tau-max",), _TIME),
    _options(("--steps",), st.sampled_from(("0", "1", "3"))),
)
# A working config for every kind, some of whose keys (or further ones) take edge values.
_BASE_CONFIG = {
    "M": "1e-9", "omega": "0.1", "d": "30e-6", "F_q": "1e-17", "Q": "1e-15", "eps_r": "5.7",
    "rho_m": "3500",
}
_CONFIG_KEYS = (
    *_BASE_CONFIG, "S_FF", "Gamma_z_phys", "omega_t", "n_p", "T_m", "nv_dB", "nv_chi_m",
)
_CONFIG = st.dictionaries(st.sampled_from(_CONFIG_KEYS), _EDGE, max_size=4).map(
    lambda edges: {**_BASE_CONFIG, **edges}
)
_CONFIG_COMMAND = st.one_of(
    st.just(["qrdm"]),
    st.just(["bounds"]),
    st.builds(
        lambda kind, theta: ["expand", f"--kind={kind}", *theta],
        st.sampled_from(("newton", "coulomb", "casimir")),
        _options(("--theta",), st.sampled_from(("parallel", "linear", *FLOAT_EDGES))),
    ),
)
# (argv, config file keys or None)
_CASES = st.one_of(
    st.tuples(st.one_of(_SWEEP, _QRDM, _TRAJECTORIES), st.none()),
    st.tuples(_CONFIG_COMMAND, _CONFIG),
)


def _expected_warnings(argv, config, status) -> list[str]:
    """The one designed warning: ``expand`` succeeding at a config where x0/d >= 0.1."""
    if argv[0] != "expand" or status != 0:
        return []
    M, omega, d = (float(config[key]) for key in ("M", "omega", "d"))
    warns = math.sqrt(HBAR / (2.0 * M * omega)) / d >= 0.1
    return ["quartic truncation is unreliable"] if warns else []


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_CASES)
# sweep axes with an infinite bound, where np.linspace would make NaN with a warning
@example(case=(["sweep", "--axis=g:-1.0:inf:3", "--tau=1e300", "--g=0.1", "--fq=1"], None))
@example(case=(["sweep", "--axis=gamma_x:inf:inf:3", "--constraint-force"], None))
@example(case=(["sweep", "--axis=g:-1e308:1e308:3"], None))  # a span past the float range
# a subnormal g under --constraint-force, where 1/(120 g) overflows
@example(case=(["sweep", "--axis=g:1e-320:1e-3:3", "--constraint-force"], None))
@example(case=(["expand"], {**_BASE_CONFIG, "d": "1e-12"}))  # x0/d = 0.73: the designed warning
def test_every_command_ends_whole_or_in_one_error_line(tmp_path_factory, case):
    # Each run exits 0 with no NaN in its output, or exits 2 with exactly one error line, and
    # warns of nothing but expand's designed quartic-truncation caveat.
    argv, config = case
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "edges.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv = [*argv, f"--config={path}"]
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            status = cli.main(argv)
        except SystemExit as exit_info:
            status = exit_info.code
    lines = err.getvalue().splitlines()
    if status == 0:
        assert lines == [] and not re.search(r"\bnan\b", out.getvalue()), argv
    else:
        assert status == 2 and out.getvalue() == "", (argv, status)
        assert len(lines) == 1 and lines[0].startswith("sgipair: error: "), (argv, lines)
    warned = [str(w.message).partition(": ")[2] for w in caught]
    assert warned == _expected_warnings(argv, config, status), argv

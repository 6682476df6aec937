import argparse
import csv
import hashlib
import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bnls.cli import main

FAST = [
    "--points", "512",
    "--box", "40",
    "--tol", "1e-9",
]
COMMANDS = ["constants", "ground-state", "action-gss", "verify", "sweep"]
SHARED_FLAGS = [  # a value for every config-key flag that every subcommand takes
    "--N", "2", "--p", "5", "--eps", "0.5", "--relaxed", "--points", "64", "--box", "12.5",
    "--max-iters", "9", "--tol", "1e-7", "--seed", "4", "--init", "random_bandlimited",
    "--out-dir", "o",
]
OWN_FLAGS = {"ground-state": ["--mass", "3"], "action-gss": ["--omega", "2"],
             "verify": ["--samples", "3"]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_table_and_json(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "constants", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "c_eps" in out
        doc = json.loads((tmp_path / "constants.json").read_text())
        assert doc["c_eps"] == pytest.approx(2.0 * doc["C"] ** (-1.0 / 3.0), rel=1e-10)

    def test_vanishing_exit_3(self, tmp_path, capsys, monkeypatch):
        import bnls.cli
        from bnls.errors import VanishingError

        def collapse(params, grid, solver):
            raise VanishingError("iterate collapsed to zero")

        monkeypatch.setattr(bnls.cli, "route_Q", collapse)
        code, out, err = run(
            capsys, "constants", "--N", "1", "--p", "8", "--eps", "1", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "solver failure: iterate collapsed to zero" in err
        assert "c_eps" not in out and not (tmp_path / "constants.json").exists()

    def test_regime_violation_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "constants", "--N", "1", "--p", "6", "--eps", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "window" in err

    def test_eps_defaults_with_notice(self, tmp_path, capsys, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="bnls"):
            code, _, _ = run(
                capsys, "constants", "--N", "1", "--p", "8",
                *FAST, "--out-dir", str(tmp_path),
            )
        assert code == 0
        assert any("defaulting to eps = 1" in r.message for r in caplog.records)

    def test_print_config(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "constants", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path), "--print-config",
        )
        assert code == 0
        cfg = json.loads(out[: out.index("}") + 1] + "")
        assert cfg["points"] == 512

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"N": 1, "p": 8.0, "eps": 1.0, "points": 512,
                                        "box": 40.0, "tol_residual": 1e-9}))
        code, out, _ = run(
            capsys, "constants", "--config", str(cfg_path),
            "--p", "7.5", "--out-dir", str(tmp_path), "--print-config",
        )
        assert code == 0
        assert json.loads(out[: out.index("}") + 1])["p"] == 7.5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "constants", "--config", str(cfg_path))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("key", ["relaxation", "filter", "petviashvili_gamma"])
    def test_deleted_solver_key_rejected(self, key, tmp_path, capsys):
        # the knobs that Anderson mixing made moot are gone; a config file that
        # still names one is refused, not silently ignored
        from bnls.cli import build_parser, resolve_config
        from bnls.errors import ConfigurationError

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"N": 1, "p": 8.0, key: 1.0}))
        args = build_parser().parse_args(["constants", "--config", str(cfg_path)])
        with pytest.raises(ConfigurationError, match=key):
            resolve_config(args)
        code, _, err = run(capsys, "constants", "--config", str(cfg_path))
        assert code == 2
        assert key in err

    def test_unread_samples_not_range_checked(self, tmp_path, capsys):
        # only verify reads samples (its --samples 0 exits 2): a config's
        # samples 0 once stopped constants too
        (tmp_path / "c.json").write_text(json.dumps({"samples": 0}))
        code, _, err = run(
            capsys, "constants", "--config", str(tmp_path / "c.json"), "--N", "1", "--p", "8",
            "--eps", "1", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0, err


class TestGroundStateCommand:
    def test_solve_and_files(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        state = tmp_path / "ground_state_critical_mass.bnls"
        assert state.exists()
        side = json.loads((tmp_path / "ground_state_critical_mass.bnls.json").read_text())
        assert side["route"] == "weinstein_Q"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(
                capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
                *FAST, "--seed", "3", "--out-dir", str(out_dir),
            )
            assert code == 0
        name = "ground_state_critical_mass.bnls"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / (name + ".json")).read_text() == (out_b / (name + ".json")).read_text()

    def test_mass_flag_switches_route(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            "--mass", "8.0", "--points", "2048", "--box", "20",
            "--tol", "1e-7", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "ground_state_mass_flow.bnls").exists()
        assert "mass_flow" in out
        side = json.loads((tmp_path / "ground_state_mass_flow.bnls.json").read_text())
        assert side["params"]["mass_c"] == 8.0 and side["params"]["omega"] is None

    def test_sidecar_records_no_unread_omega(self, tmp_path, capsys):
        # ground-state reads no omega: a config's omega 5 was once stored
        # beside a state whose omega is 1.8467
        (tmp_path / "c.json").write_text(json.dumps({"omega": 5}))
        code, _, _ = run(
            capsys, "ground-state", "--config", str(tmp_path / "c.json"), "--N", "1", "--p", "8",
            "--eps", "1", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        side = json.loads((tmp_path / "ground_state_critical_mass.bnls.json").read_text())
        assert side["params"]["omega"] is None and side["params"]["mass_c"] is None

    def test_load_reports_stored_state(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "ground_state_critical_mass.bnls"
        code, out, _ = run(capsys, "ground-state", "--load", str(path))
        assert code == 0
        assert "mass=" in out

    def test_loaded_state_gets_no_eps_notice(self, tmp_path, capsys, caplog):
        import logging

        code, _, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = str(tmp_path / "ground_state_critical_mass.bnls")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="bnls"):
            assert run(capsys, "ground-state", "--load", path)[0] == 0
            code, _, _ = run(
                capsys, "verify", "--energy-state", path, "--tol", "1e-9", "--samples", "20",
                "--out-dir", str(tmp_path),
            )
        assert code == 0
        assert not any("defaulting to eps" in r.message for r in caplog.records)

    def test_load_prints_the_stored_problem(self, tmp_path, capsys):
        # --print-config beside --load once printed the default 1D problem
        import numpy as np

        from bnls.fieldio import write_field
        from bnls.grid import BoxGrid, Field

        grid = BoxGrid(2, 32, 10.0)
        bump = np.exp(-sum(x**2 for x in grid.coordinates()))
        path = write_field(tmp_path / "x.bnls", Field(grid, bump),
                           sidecar={"params": {"bigN": 2, "p": 5, "eps": 0.5}})
        code, out, _ = run(capsys, "ground-state", "--load", str(path), "--print-config")
        assert code == 0
        cfg = json.loads(out[: out.index("}") + 1])
        assert {key: cfg[key] for key in ("N", "p", "eps", "relaxed", "points", "box")} == {
            "N": 2, "p": 5.0, "eps": 0.5, "relaxed": False, "points": 32, "box": 10.0}
        assert f"loaded {path}" in out

    def test_load_corrupted_magic_exit_2_with_offset(self, tmp_path, capsys):
        path = tmp_path / "bad.bnls"
        good = struct.pack("<4sIIId", b"BNLS", 1, 1, 32, 1.0) + b"\x00" * (32 * 8)
        path.write_bytes(b"XXXX" + good[4:])
        code, _, err = run(capsys, "ground-state", "--load", str(path))
        assert code == 2
        assert "byte offset 0" in err

    def test_load_without_sidecar_exit_2(self, tmp_path, capsys):
        # the binary file does not record p or eps: read with guessed defaults
        # this p = 7 state passed as a p = 8 state with the wrong omega
        code, _, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "7", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "ground_state_critical_mass.bnls"
        sidecar = tmp_path / "ground_state_critical_mass.bnls.json"
        sidecar.unlink()
        for argv in (
            ["ground-state", "--load", str(path)],
            ["verify", "--energy-state", str(path), "--out-dir", str(tmp_path)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert "sidecar" in err
            assert "omega=" not in out
        sidecar.write_text("{}")
        code, _, err = run(capsys, "ground-state", "--load", str(path))
        assert code == 2
        assert "'p'" in err

    @pytest.mark.parametrize(
        "sidecar, offset",
        [(b"not json", 0), (b'{"params": \xff}', 11), (b'["bigN", "p"]', 0)],
        ids=["not-json", "not-utf8", "not-an-object"],
    )
    def test_load_malformed_sidecar_exit_2(self, tmp_path, capsys, sidecar, offset):
        from bnls.fieldio import write_field
        from bnls.grid import BoxGrid, Field

        path = write_field(tmp_path / "x.bnls", Field(BoxGrid(1, 32, 1.0), [0.0] * 32))
        (tmp_path / "x.bnls.json").write_bytes(sidecar)
        code, out, err = run(capsys, "ground-state", "--load", str(path))
        assert code == 2
        assert "x.bnls.json" in err and f"byte offset {offset})" in err
        assert "omega=" not in out

    @pytest.mark.parametrize(
        "params",
        [5, {"bigN": 1, "p": "eight", "eps": 1.0}, {"bigN": 1, "p": 8.0, "eps": None}],
        ids=["params-not-an-object", "p-not-a-number", "eps-null"],
    )
    def test_load_sidecar_params_not_numbers_exit_2(self, tmp_path, capsys, params):
        from bnls.fieldio import write_field
        from bnls.grid import BoxGrid, Field

        path = write_field(tmp_path / "x.bnls", Field(BoxGrid(1, 32, 1.0), [0.0] * 32))
        (tmp_path / "x.bnls.json").write_text(json.dumps({"params": params}))
        code, out, err = run(capsys, "ground-state", "--load", str(path))
        assert code == 2
        assert "x.bnls.json" in err and "params" in err
        assert "omega=" not in out

    def test_load_refuses_mismatched_pair(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        state = tmp_path / "ground_state_critical_mass.bnls"
        sidecar = Path(str(state) + ".json")
        doc = json.loads(sidecar.read_text())
        assert doc["sha256"] == hashlib.sha256(state.read_bytes()).hexdigest()
        code, _, _ = run(capsys, "ground-state", "--load", str(state))
        assert code == 0
        # zeroing the last sample (at the box edge) leaves a readable field
        # that no longer matches its sidecar
        state.write_bytes(state.read_bytes()[:-8] + b"\x00" * 8)
        code, out, err = run(capsys, "ground-state", "--load", str(state))
        assert code == 2
        assert str(state) in err and str(sidecar) in err and "sha256" in err
        assert "omega=" not in out
        # a sidecar written before the hash was recorded still loads
        del doc["sha256"]
        sidecar.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ground-state", "--load", str(state))
        assert code == 0
        assert "omega=" in out

    def test_divergence_exit_3_with_history(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "action-gss", "--N", "1", "--p", "8", "--eps", "1", "--omega", "2.0",
            "--points", "512", "--box", "40", "--tol", "1e-14", "--max-iters", "4",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "residual history" in err

    def test_vanishing_exit_3_with_history(self, tmp_path, capsys, lp_vanishes_on_third_sweep):
        code, out, err = run(
            capsys, "action-gss", "--N", "1", "--p", "8", "--eps", "1", "--omega", "2.0",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "solver failure: nonlinearity vanished" in err
        (tail,) = [line for line in err.splitlines() if line.startswith("residual history")]
        assert len(tail.split(",")) == 2
        assert "mass=" not in out and not (tmp_path / "action_gss.bnls").exists()

    def test_mass_flow_stall_exit_3_with_history(self, tmp_path, capsys):
        # at twice the desk problem's critical mass the energy descent reaches
        # 9.6e-16 in 28 iterations and floors there, in double-precision
        # roundoff, above a tolerance of 1e-16; the state's spectral tail
        # (3.9e-5) exceeds its boundary ratio, so the grid is named
        code, out, err = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1",
            "--points", "1024", "--box", "40", "--mass", "7.5259022329534",
            "--tol", "1e-16", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "energy descent stalled" in err and "tolerance 1.0e-16" in err
        assert "spectral tail ratio" in err and "under-resolve" in err
        assert "residual history" in err
        assert "mass=" not in out
        assert not (tmp_path / "ground_state_mass_flow.bnls.json").exists()


class TestActionGssCommand:
    def test_with_explicit_omega(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "action-gss", "--N", "1", "--p", "8", "--eps", "1", "--omega", "2.0",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "action_gss.bnls").exists()

    def test_omega_defaults_to_optimizer_frequency(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "action-gss", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        side = json.loads((tmp_path / "action_gss.bnls.json").read_text())
        assert side["params"]["omega"] == pytest.approx(1.8467, rel=1e-3)

    def test_sidecar_records_no_unread_mass(self, tmp_path, capsys):
        # action-gss reads no mass: a config's mass 3 was once stored as mass_c
        (tmp_path / "c.json").write_text(json.dumps({"mass": 3}))
        code, _, _ = run(
            capsys, "action-gss", "--config", str(tmp_path / "c.json"), "--N", "1", "--p", "8",
            "--eps", "1", "--omega", "2.0", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        side = json.loads((tmp_path / "action_gss.bnls.json").read_text())
        assert side["params"]["mass_c"] is None and side["params"]["omega"] == 2.0


class TestVerifyCommand:
    def test_fresh_pass_exit_0(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "verify", "--fresh", "--N", "1", "--p", "8", "--eps", "1",
            *FAST, "--samples", "50", "--out-dir", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["passed"] is True
        assert doc["counts"] == {"failed": 0, "passed": 39, "skipped": 0, "total": 39}
        assert "PASS: 39 passed" in out

    def test_fresh_2d_runs_every_check(self, tmp_path, capsys):
        # the K ascent runs too: 39 checks, const.k_numeric_close among them
        code, out, _ = run(
            capsys, "verify", "--fresh", "--N", "2", "--p", "5", "--eps", "1",
            "--points", "128", "--box", "40", "--samples", "50", "--out-dir", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["counts"] == {"failed": 0, "passed": 39, "skipped": 0, "total": 39}
        assert "PASS: 39 passed" in out

    def test_fresh_3d_runs_every_check(self, tmp_path, capsys):
        # the fast 3D desk problem: the K ascent climbs on 32^3 and polishes on
        # 64^3.  The small --samples is what keeps it in Tier-1: each GN sample
        # is a 64^3 field
        code, out, _ = run(
            capsys, "verify", "--fresh", "--N", "3", "--p", "4", "--eps", "1",
            "--points", "64", "--box", "32", "--tol", "1e-8", "--samples", "20",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["counts"] == {"failed": 0, "passed": 39, "skipped": 0, "total": 39}
        (check,) = [c for c in doc["checks"] if c["name"] == "const.k_numeric_close"]
        assert "on 32 points per axis" in check["detail"]
        assert "PASS: 39 passed" in out

    def test_verify_stored_states(self, tmp_path, capsys):
        for cmd in ("ground-state", "action-gss"):
            code, _, _ = run(
                capsys, cmd, "--N", "1", "--p", "8", "--eps", "1",
                *FAST, "--out-dir", str(tmp_path),
            )
            assert code == 0
        code, out, _ = run(
            capsys, "verify",
            "--energy-state", str(tmp_path / "ground_state_critical_mass.bnls"),
            "--action-state", str(tmp_path / "action_gss.bnls"),
            "--tol", "1e-9", "--samples", "30", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "problem, tol",
        [(["--N", "2", "--p", "5", "--points", "128", "--box", "40"], []),
         (["--N", "3", "--p", "4", "--points", "64", "--box", "32"], ["--tol", "1e-8"])],
        ids=["2d", "3d"],
    )
    def test_stored_round_trip(self, problem, tol, tmp_path, capsys):
        # stored states are verified on their own problem and grid, with no
        # problem flag
        from bnls.fieldio import read_field

        for cmd in ("ground-state", "action-gss"):
            assert run(capsys, cmd, *problem, "--eps", "1", *tol, "--out-dir", str(tmp_path))[0] == 0
        energy = tmp_path / "ground_state_critical_mass.bnls"
        code, out, _ = run(
            capsys, "verify", "--energy-state", str(energy),
            "--action-state", str(tmp_path / "action_gss.bnls"), *tol, "--samples", "20",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "PASS: 39 passed" in out
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["counts"] == {"failed": 0, "passed": 39, "skipped": 0, "total": 39}
        grid = read_field(energy).grid
        assert doc["provenance"]["params"] == {"bigN": grid.dim, "p": float(problem[3]), "eps": 1.0}
        assert doc["provenance"]["grid"] == {"dim": grid.dim, "points": grid.points_per_axis,
                                             "box": grid.box_length}

    def test_action_state_alone_sets_the_problem(self, tmp_path, capsys, caplog):
        # a p 7 state verified alone once ran route_Q and the K ascent on the
        # default p 8 problem, then exited 2
        import logging

        code, _, _ = run(
            capsys, "action-gss", "--N", "1", "--p", "7", "--eps", "1", *FAST,
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="bnls"):
            code, out, _ = run(
                capsys, "verify", "--action-state", str(tmp_path / "action_gss.bnls"),
                "--tol", "1e-9", "--samples", "20", "--out-dir", str(tmp_path),
            )
        assert code == 0
        assert "PASS: 39 passed" in out
        provenance = json.loads((tmp_path / "verify_report.json").read_text())["provenance"]
        assert provenance["params"] == {"bigN": 1, "p": 7.0, "eps": 1.0}
        assert provenance["grid"]["points"] == 512
        assert not any("defaulting to eps" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "doc, code", [({"points": 256}, 2), ({"tol_residual": 1e-9}, 0)],
        ids=["problem-key", "solver-key"],
    )
    def test_config_beside_stored_state(self, doc, code, tmp_path, capsys):
        # a problem key in the config file is refused beside a stored state,
        # as its flag is; a solver key is read
        state = tmp_path / "ground_state_critical_mass.bnls"
        assert run(capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "1", *FAST,
                   "--out-dir", str(tmp_path))[0] == 0
        (tmp_path / "c.json").write_text(json.dumps(doc))
        got, out, err = run(
            capsys, "verify", "--energy-state", str(state), "--config", str(tmp_path / "c.json"),
            "--samples", "20", "--out-dir", str(tmp_path),
        )
        assert got == code, err
        if code == 2:
            (line,) = err.splitlines()
            assert line.startswith("error: --energy-state takes no points in ")
        assert (tmp_path / "verify_report.json").exists() == (code == 0)

    def test_states_of_different_problems_exit_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        import bnls.cli
        import bnls.verify

        for p in ("8", "7"):
            assert run(capsys, "ground-state", "--N", "1", "--p", p, "--eps", "1", *FAST,
                       "--out-dir", str(tmp_path / p))[0] == 0
        solves = []
        for module in (bnls.cli, bnls.verify):
            monkeypatch.setattr(module, "route_Q", lambda *args: solves.append(args))
        name = "ground_state_critical_mass.bnls"
        code, out, err = run(
            capsys, "verify", "--energy-state", str(tmp_path / "8" / name),
            "--action-state", str(tmp_path / "7" / name), "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert solves == []
        (line,) = err.splitlines()
        assert "different (N, p, eps, relaxed)" in line
        assert "(1, 8.0, 1.0, False)" in line and "(1, 7.0, 1.0, False)" in line
        assert not (tmp_path / "verify_report.json").exists()


class TestRelaxedMode:
    def test_second_order_oracle_via_cli(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "action-gss", "--N", "1", "--p", "8", "--eps", "0", "--relaxed",
            "--omega", "1.0", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        side = json.loads((tmp_path / "action_gss.bnls.json").read_text())
        assert side["params"]["eps"] == 0.0
        assert side["params"]["relaxed"] is True

    @pytest.mark.parametrize("command", ["constants", "ground-state", "action-gss", "verify",
                                         "sweep"])
    def test_quotient_routes_refuse_eps_0(self, command, tmp_path, capsys):
        # the quotient route has no eps = 0 form; it divided by eps
        code, _, err = run(
            capsys, command, "--N", "1", "--p", "8", "--eps", "0", "--relaxed", *FAST,
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error:") and "eps > 0" in line

    def test_mass_flow_takes_eps_0(self, tmp_path, capsys):
        # the energy descent needs no quotient solve, so eps = 0 is not refused
        # there where a minimizer exists: p < 2 + 4/N is mass-subcritical
        code, _, _ = run(
            capsys, "ground-state", "--N", "1", "--p", "5", "--eps", "0", "--relaxed",
            "--mass", "5", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0

    def test_mass_flow_refuses_eps_0_without_a_ground_state(self, tmp_path, capsys):
        # at eps = 0 and p > 2 + 4/N the energy is unbounded below on the mass
        # sphere; the flow used to report a grid artefact (omega 32632) as a state
        code, out, err = run(
            capsys, "ground-state", "--N", "1", "--p", "8", "--eps", "0", "--relaxed",
            "--mass", "5", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error:") and "p < 2 + 4/N" in line
        assert "mass=" not in out
        assert not (tmp_path / "ground_state_mass_flow.bnls").exists()


class TestSweepCommand:
    def test_five_row_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BNLS_THREADS", "2")
        code, out, _ = run(
            capsys, "sweep", "--N", "1", "--p-grid", "7,7.5,8,8.5,9",
            "--eps", "1", *FAST, "--out-dir", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert [float(r["p"]) for r in rows] == [7.0, 7.5, 8.0, 8.5, 9.0]
        assert all(r["identities_pass"] == "True" for r in rows)
        # the c_eps column reflects each exponent's own scaling constants
        assert all(float(r["c_eps"]) > 0 for r in rows)

    def test_csv_is_byte_identical_at_any_thread_count(self, tmp_path, capsys, monkeypatch):
        # BNLS_THREADS sets the sweep's worker count, the one place bnls
        # starts threads; rows are solved in any order but written in grid order
        written = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BNLS_THREADS", threads)
            out_dir = tmp_path / threads
            code, _, _ = run(
                capsys, "sweep", "--N", "1", "--p-grid", "7,8,9",
                "--eps", "1", *FAST, "--out-dir", str(out_dir),
            )
            assert code == 0
            written.append((out_dir / "sweep.csv").read_bytes())
        assert written[0] == written[1]

    def test_rows_take_every_solver_flag(self, tmp_path, capsys, monkeypatch):
        import bnls.cli
        from bnls.errors import DivergenceError
        from bnls.solvers import SolverConfig

        seen = []

        def spy(params, grid, solver):
            seen.append((params, grid, solver))
            raise DivergenceError("spy: no solve needed")

        monkeypatch.setattr(bnls.cli, "route_Q", spy)
        code, _, _ = run(
            capsys, "sweep", "--N", "1", "--p-grid", "8", "--eps", "1", *FAST,
            "--init", "random_bandlimited", "--relaxed", "--seed", "5", "--max-iters", "77",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        (params, grid, solver), = seen
        assert params.relaxed is True
        assert (grid.points_per_axis, grid.box_length) == (512, 40.0)
        assert solver == SolverConfig(max_iters=77, tol_residual=1e-9, seed=5,
                                      init="random_bandlimited")

    def test_retries_on_the_cause(self, tmp_path, capsys):
        # at 256 points and L 40 the p 6.4 state outgrows the box and the p 9.6
        # state the grid: each row is solved again in a doubled box or on doubled
        # points, and every row is written with the grid it was solved on
        code, _, err = run(
            capsys, "sweep", "--N", "1", "--p-grid", "6.4,7.2,8,8.8,9.6", "--eps", "1",
            "--points", "256", "--box", "40", "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        with (tmp_path / "sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [float(r["p"]) for r in rows] == [6.4, 7.2, 8.0, 8.8, 9.6]
        assert [(int(r["points"]), float(r["box"])) for r in rows] == [
            (1024, 160.0), (256, 40.0), (256, 40.0), (256, 40.0), (512, 40.0)
        ]
        assert all(r["identities_pass"] == "True" and r["status"] == "ok" for r in rows)

    def test_failed_row_is_named(self, tmp_path, capsys):
        # five iterations solve no row, and running out of them is no cause to
        # retry: every row is written with its status and named on stderr
        code, out, err = run(
            capsys, "sweep", "--N", "1", "--p-grid", "8,9", "--eps", "1", *FAST,
            "--max-iters", "5", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "wrote 2 rows" in out
        with (tmp_path / "sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["p"], r["status"], r["identities_pass"]) for r in rows] == [
            ("8.0", "iterations", "False"), ("9.0", "iterations", "False")
        ]
        assert all(r["C"] == r["K"] == r["residual_pde"] == "" for r in rows)
        for p in ("8", "9"):
            assert (f"solver failure: sweep row p = {p}, eps = 1 (iterations): quotient "
                    "optimizer: no convergence") in err
        assert err.count("residual history (tail): ") == 2

    def test_retries_stop_at_the_largest_desk_grid(self, tmp_path, capsys, monkeypatch):
        # a 3D row that stalls on the grid again and again is retried on 128^3
        # and no further: 256^3 would pass SWEEP_MAX_POINTS
        import bnls.cli
        from bnls.errors import DivergenceError

        seen = []

        def spy(params, grid, solver):
            seen.append((grid.points_per_axis, grid.box_length))
            raise DivergenceError("spy: stalled", cause="grid", history=[1e-3])

        monkeypatch.setattr(bnls.cli, "route_Q", spy)
        code, _, err = run(
            capsys, "sweep", "--N", "3", "--p-grid", "4", "--eps", "1", "--points", "64",
            "--box", "32", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert seen == [(64, 32.0), (128, 32.0)]
        assert "sweep row p = 4, eps = 1 (grid): spy: stalled" in err
        with (tmp_path / "sweep.csv").open() as handle:
            (row,) = csv.DictReader(handle)
        assert (row["points"], row["box"], row["status"]) == ("128", "32.0", "grid")

    def test_vanishing_row_is_not_retried(self, monkeypatch):
        # a collapsed iterate is a DivergenceError of cause "vanishing", which
        # no retry mends: the row gets that status and keeps the error
        import bnls.cli
        from bnls.errors import VanishingError
        from bnls.functionals import Params
        from bnls.grid import BoxGrid
        from bnls.solvers import SolverConfig

        raised = []

        def collapse(params, grid, solver):
            raised.append(VanishingError("iterate collapsed to zero"))
            raise raised[-1]

        monkeypatch.setattr(bnls.cli, "route_Q", collapse)
        row, exc = bnls.cli._sweep_row(
            (Params(bigN=1, p=8.0, eps=1.0), BoxGrid(1, 512, 40.0), SolverConfig())
        )
        assert raised == [exc]
        assert (row["status"], row["identities_pass"], row["points"]) == ("vanishing", False, 512)
        assert str(exc) == "sweep row p = 8, eps = 1 (vanishing): iterate collapsed to zero"

    def test_eps_grid_gets_no_eps_notice(self, tmp_path, capsys, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="bnls"):
            code, _, _ = run(
                capsys, "sweep", "--N", "1", "--p-grid", "8", "--eps-grid", "1,2", *FAST,
                "--out-dir", str(tmp_path),
            )
        assert code == 0
        assert not any("defaulting to eps" in r.message for r in caplog.records)
        with (tmp_path / "sweep.csv").open() as handle:
            assert [float(r["eps"]) for r in csv.DictReader(handle)] == [1.0, 2.0]

    def test_regime_violation_fails_fast(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sweep", "--N", "1", "--p-grid", "5,8",
            "--eps", "1", "--out-dir", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("tol, code", [("1e-10", 0), ("1e-5", 1)], ids=["converged", "loose"])
    def test_identity_columns_are_verify_checks(self, tol, code, tmp_path, capsys):
        # on the 1D desk problem, the sweep row's residual columns and flag are
        # the q checks of verify's report for the same seed; at tol 1e-5 the
        # PDE residual check fails in both
        problem = ["--N", "1", "--p", "8", "--eps", "1", "--points", "1024", "--box", "40",
                   "--seed", "3", "--tol", tol, "--out-dir", str(tmp_path)]
        assert run(capsys, "sweep", *problem)[0] == code
        verified = run(capsys, "verify", "--fresh", *problem, "--samples", "20")
        assert verified[0] == code
        with (tmp_path / "sweep.csv").open() as handle:
            (row,) = csv.DictReader(handle)
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        check = {c["name"]: c for c in doc["checks"]}
        columns = {"residual_pde": "q.pde_residual", "nehari_rel": "q.nehari_zero",
                   "pohozaev_rel": "q.pohozaev_zero"}
        for column, name in columns.items():
            assert float(row[column]) == check[name]["residual"]
        together = [*columns.values(), "q.mass_equals_critical"]
        assert row["identities_pass"] == str(all(check[name]["passed"] for name in together))
        assert row["identities_pass"] == str(code == 0)


class TestInputErrors:
    """An input that cannot be read or converted exits 2 with one error line,
    before anything is solved or written."""

    @pytest.mark.parametrize(
        "argv, threads",
        [
            (["constants", "--points", "100"], None),
            (["constants", "--box", "-1"], None),
            (["constants", "--config", "missing.json"], None),
            (["constants", "--config", "malformed.json"], None),
            (["constants", "--config", "points-abc.json"], None),
            (["sweep", "--p-grid", "8,x"], None),
            (["ground-state", "--load", "missing.bnls"], None),
            (["verify", "--energy-state", "missing.bnls"], None),
            (["sweep", "--p-grid", "8"], "abc"),
            (["sweep", "--p-grid", "8"], "-1"),
        ],
        ids=[
            "points-100", "box-negative", "config-missing", "config-malformed",
            "config-points-abc", "p-grid-x", "load-missing", "energy-state-missing",
            "threads-abc", "threads-negative",
        ],
    )
    def test_exit_2_without_traceback(self, argv, threads, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "malformed.json").write_text('{"N": 1,')
        (tmp_path / "points-abc.json").write_text(json.dumps({"points": "abc"}))
        if threads is None:
            monkeypatch.delenv("BNLS_THREADS", raising=False)
        else:
            monkeypatch.setenv("BNLS_THREADS", threads)
        code, out, err = run(capsys, *argv, "--out-dir", "out")
        assert code == 2
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "argv, stored, named",
        [
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}, "iters": "many"}), "iters"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}, "warnings": 5}), "warnings"),
            (["ground-state", "--load", "x.bnls"],
             (2, {"params": {"bigN": 3, "p": 4.5, "eps": 1}}), "bigN 3"),
            (["verify", "--config", "c.json"], {"samples": "abc"}, "samples"),
            (["constants", "--config", "c.json"], {"out_dir": 5}, "out_dir"),
            (["verify", "--samples", "0"], None, "samples must be an integer >= 1"),
            # bool("false") is True: read as a truth value, it once switched the
            # regime guard off
            (["constants", "--config", "c.json"], {"relaxed": "false", "p": 5},
             "relaxed must be true or false"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1, "relaxed": "false"}}),
             "relaxed must be true or false"),
            # a config value of the wrong JSON type was cast, or ran into the
            # solver: N 1.7 and N true solved the 1D problem, max_iters true
            # and box true ended as a divergence (exit 3)
            (["ground-state", "--config", "c.json"], {"N": 1.7}, "c.json: N must be"),
            (["ground-state", "--config", "c.json"], {"N": True}, "c.json: N must be"),
            (["ground-state", "--config", "c.json"], {"points": 1024.9}, "c.json: points"),
            (["ground-state", "--config", "c.json"], {"seed": 3.9}, "c.json: seed"),
            (["ground-state", "--config", "c.json"], {"p": "8"}, "c.json: p must be"),
            (["ground-state", "--config", "c.json"], {"max_iters": True}, "c.json: max_iters"),
            (["ground-state", "--config", "c.json"], {"box": True}, "c.json: box"),
            # a non-finite eps, omega or mass, and a negative seed, crashed in
            # the solver (exit 1) or were blamed on the field samples
            (["ground-state", "--config", "c.json"], {"eps": float("inf")}, "eps must be finite"),
            (["ground-state", "--config", "c.json"], {"mass": float("inf")}, "mass_c must be"),
            (["ground-state", "--eps", "inf"], None, "eps must be finite"),
            (["verify", "--seed", "-8"], None, "seed must be a nonnegative integer"),
            (["ground-state", "--init", "random_bandlimited", "--seed", "-1"], None,
             "seed must be a nonnegative integer"),
            # a sidecar value of the wrong type was cast: "abc" became three
            # warnings, iters 2.9 became 2, true a dimension and "8" an exponent
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}, "warnings": "abc"}),
             "x.bnls.json: warnings must be a list of strings"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}, "iters": 2.9}),
             "x.bnls.json: iters must be an integer"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}, "route": 7}),
             "x.bnls.json: route must be a string"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": True, "p": 8, "eps": 1}}),
             "x.bnls.json: params.bigN must be an integer"),
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": "8", "eps": 1}}),
             "x.bnls.json: params.p must be a number"),
            # an infinite tolerance stopped a solve after one iteration at PDE
            # residual 3.5, which was written and exited 0
            (["ground-state", "--tol", "inf"], None, "tol_residual must be positive finite"),
            (["ground-state", "--config", "c.json"], {"tol_residual": float("inf")},
             "tol_residual must be positive finite"),
            # a stored zero field exited 3, the divergence code, though nothing
            # was solved: no multiplier can be read off it
            (["ground-state", "--load", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}, "zero"),
             "x.bnls holds the zero field"),
            (["verify", "--energy-state", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}, "zero"),
             "x.bnls holds the zero field"),
            # --fresh was not read: the stored state was verified in its place
            (["verify", "--fresh", "--energy-state", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}), "--fresh"),
            (["verify", "--fresh", "--action-state", "x.bnls"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}), "--fresh"),
            # --load reads only the stored state: these flags were ignored (exit 0)
            (["ground-state", "--load", "x.bnls", "--N", "3", "--p", "4", "--out-dir", "zz"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}),
             "--load takes no --N, --p, --out-dir"),
            (["ground-state", "--load", "x.bnls", "--config", "c.json"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}), "--load takes no --config"),
            # a stored state sets the problem: these flags were checked, then
            # overridden by the state's p 8 on 32 points (exit 0)
            (["verify", "--energy-state", "x.bnls", "--p", "7", "--points", "256"],
             (1, {"params": {"bigN": 1, "p": 8, "eps": 1}}),
             "--energy-state takes no --p, --points"),
            (["constants", "--config", "c.json"], [1, 2], "does not hold a JSON object"),
        ],
        ids=["sidecar-iters-many", "sidecar-warnings-5", "sidecar-2d-field-bign-3",
             "config-samples-abc", "config-out-dir-5", "samples-0", "config-relaxed-false",
             "sidecar-relaxed-false", "config-n-1.7", "config-n-true", "config-points-1024.9",
             "config-seed-3.9", "config-p-string", "config-max-iters-true", "config-box-true",
             "config-eps-infinity", "config-mass-infinity", "eps-inf", "verify-seed-negative",
             "random-init-seed-negative", "sidecar-warnings-abc", "sidecar-iters-2.9",
             "sidecar-route-7", "sidecar-bign-true", "sidecar-p-string", "tol-inf",
             "config-tol-infinity", "load-zero-field", "verify-zero-energy-state",
             "verify-fresh-energy-state", "verify-fresh-action-state", "load-beside-flags",
             "load-beside-config", "energy-state-beside-problem-flags", "config-json-list"],
    )
    def test_malformed_value_exit_2(self, argv, stored, named, tmp_path, capsys, monkeypatch):
        # a value of the wrong type or range, in a sidecar, a config file or a
        # flag, is refused where it is read, before anything is solved or
        # written; a 2D p 4.5 state (p 4.5 lies in the 2D and the 3D window)
        # is not taken for a 3D one; a stored tuple's third entry "zero" stores
        # the zero field in place of the bump, and an empty c.json lies beside it
        import numpy as np

        from bnls.fieldio import write_field
        from bnls.grid import BoxGrid, Field

        monkeypatch.chdir(tmp_path)
        if isinstance(stored, tuple):
            dim, sidecar, *zero = stored
            grid = BoxGrid(dim, 32, 10.0)
            bump = np.exp(-sum(x**2 for x in grid.coordinates()))
            write_field("x.bnls", Field(grid, 0.0 * bump if zero else bump), sidecar=sidecar)
            Path("c.json").write_text("{}")
        elif stored is not None:
            Path("c.json").write_text(json.dumps(stored))
        inputs = {path.name for path in tmp_path.iterdir()}
        code, out, err = run(capsys, *argv)
        assert code == 2
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert named in line
        assert "Traceback" not in err and "omega=" not in out
        assert {path.name for path in tmp_path.iterdir()} == inputs


    @given(data=st.data())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_wrong_json_type_names_its_key(self, data, tmp_path):
        # every config key refuses a JSON value of another type: no bool is a
        # number, no float or string an int, no number a string or a bool
        from bnls.cli import CONFIG_KEYS, build_parser, build_problem, resolve_config
        from bnls.errors import ConfigurationError

        numbers = st.integers() | st.floats()
        wrong = {
            int: st.booleans() | st.floats() | st.text(),
            float: st.booleans() | st.text(),
            float | None: st.booleans() | st.text(),
            bool: numbers | st.text(),
            str: numbers | st.booleans(),
        }
        key = data.draw(st.sampled_from(sorted(CONFIG_KEYS)))
        value = data.draw(wrong[CONFIG_KEYS[key][1]])
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        args = build_parser().parse_args(["constants", "--config", str(path)])
        with pytest.raises(ConfigurationError, match=f"c.json: {key} must be "):
            build_problem(resolve_config(args))


class TestConfigTable:
    """CONFIG_KEYS and the subcommands' flags describe the same keys and types."""

    def test_every_key_has_a_flag_of_its_type(self):
        # a key that one subcommand alone reads has its flag there only; every
        # other key has its flag on every subcommand
        from bnls.cli import CONFIG_KEYS, READ_BY, build_parser

        parser = build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subs.choices) == sorted(COMMANDS)
        for command, sub in subs.choices.items():
            actions = {action.dest: action for action in sub._actions}
            for key, (_, kind, _, _) in CONFIG_KEYS.items():
                action = actions.get(key)
                takes = READ_BY.get(key, command) == command
                assert (action is not None) == takes, (command, key)
                if action is None:
                    continue
                # --relaxed stores a constant; a flag without a type reads a string
                flag_type = action.type or (str if action.const is None else type(action.const))
                assert flag_type is {float | None: float}.get(kind, kind), (command, key)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "flag, key, reader",
        [("--mass", "mass", "ground-state"), ("--omega", "omega", "action-gss"),
         ("--samples", "samples", "verify")],
    )
    def test_single_reader_flag(self, flag, key, reader, command, capsys):
        # each subcommand once took --mass, --omega and --samples and ignored
        # the two it does not read; now argparse refuses them (exit 2)
        from bnls.cli import build_parser

        if command == reader:
            assert getattr(build_parser().parse_args([command, flag, "3"]), key) == 3
            return
        with pytest.raises(SystemExit) as done:
            build_parser().parse_args([command, flag, "3"])
        assert done.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [("constants", []),
         *((command, SHARED_FLAGS + OWN_FLAGS.get(command, [])) for command in COMMANDS)],
        ids=["defaults", *(f"every-flag-{command}" for command in COMMANDS)],
    )
    def test_print_config_round_trips(self, command, flags, tmp_path, capsys, monkeypatch):
        # what --print-config prints, read back through --config, prints again
        import bnls.cli
        from bnls.cli import CONFIG_KEYS, READ_BY

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bnls.cli, "cmd_" + command.replace("-", "_"), lambda args, cfg: 0)
        code, printed, _ = run(capsys, command, "--print-config", *flags)
        assert code == 0
        if flags:  # every flag of the subcommand is given, so none prints its default
            taken = [key for key in CONFIG_KEYS if READ_BY.get(key, command) == command]
            assert all(json.loads(printed)[key] != CONFIG_KEYS[key][0] for key in taken)
        Path("c.json").write_text(printed)
        code, again, _ = run(capsys, command, "--print-config", "--config", "c.json")
        assert code == 0
        assert again == printed
        assert not (tmp_path / "o").exists()


class TestHelp:
    """The shared flags come from one parent parser, and a key that one
    subcommand alone reads has its flag there; every help text is its golden
    in tests/data/help, written by Python 3.11's argparse at 80 columns."""

    @pytest.mark.parametrize(
        "command", ["bnls", "constants", "ground-state", "action-gss", "verify", "sweep"]
    )
    def test_help_text_unchanged(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command == "bnls" else [command, "--help"]
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        expected = (Path(__file__).parent / "data" / "help" / f"{command}.txt").read_text()
        assert capsys.readouterr().out == expected

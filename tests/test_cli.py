"""End-to-end checks of the command line front end.

Scenario physics is covered elsewhere; these tests pin the plumbing:
exit codes, the full-violation listing on bad configs, determinism of
the JSON reports, and the plot-data format.
"""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varq import cli

HARMONIC_SYSTEM = {
    "hbar": 1.0,
    "mass": 1.0,
    "potential": {"kind": "harmonic", "strength": 1.0, "center": 0.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def eigen_config(tmp_path, **overrides):
    payload = {
        "grid": {"points": 128, "min": -8.0, "max": 8.0,
                 "boundary": "dirichlet"},
        "system": dict(HARMONIC_SYSTEM),
        "count": 2,
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


def evolve_config(tmp_path, **overrides):
    payload = {
        "grid": {"points": 128, "min": -6.0, "max": 6.0,
                 "boundary": "dirichlet"},
        "system": dict(HARMONIC_SYSTEM),
        "initial": {"center": 0.5, "width": 0.7071067811865476},
        "method": "fields",
        "dt": 0.001,
        "steps": 20,
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestExitCodes:
    def test_success_writes_report(self, tmp_path):
        cfg = eigen_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "eigen_report.json").read_text())
        assert report["scenario"] == "eigen"
        assert len(report["results"]["eigenvalues"]) == 2
        assert report["results"]["eigenvalues"][0] == pytest.approx(0.5,
                                                                    abs=1e-2)

    def test_invalid_config_lists_every_violation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": {"points": 128, "min": 3.0, "max": -3.0,
                     "boundary": "weird"},
            "system": {"mass": -2.0},
            "steps": 0,
        })
        code = cli.main(["evolve", "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "grid.boundary must be 'dirichlet' or 'periodic'" in err
        assert "grid.max must exceed grid.min" in err
        assert "system.mass must be positive" in err
        assert "dt is required" in err
        assert "steps must be positive" in err

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        # steep quartic drains the over-extended tail until it breaks up
        # next to the wall
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 256, "min": -6.0, "max": 6.0},
            "system": {"mass": 1.0, "potential": {
                "kind": "polynomial",
                "coefficients": [0.0, 0.0, 0.0, 0.0, 0.1]}},
            "initial": {"center": 0.0, "width": 0.7071},
            "steps": 400,
        })
        code = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        assert "a wall tail broke up" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["eigen", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["eigen", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["utf16-bom", "deep-nesting"])
    def test_undecodable_config_is_not_valid_json(self, tmp_path, capsys,
                                                  content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code = cli.main(["eigen", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert (f"config error: {path} is not valid JSON: "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("blocked, flags", [
        ("eigen_report.json", []),
        ("eigen_state_0.dat", ["--emit-plots"])], ids=["report", "plot"])
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys,
                                                  blocked, flags):
        (tmp_path / blocked).mkdir()
        code = cli.main(["eigen", "--config", eigen_config(tmp_path),
                         "--out", str(tmp_path), *flags])
        assert code == cli.EXIT_CONFIG
        assert (f"config error: cannot write {tmp_path / blocked}: "
                in capsys.readouterr().err)

    def test_unknown_scenario_rejected(self, tmp_path):
        cfg = eigen_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["frobnicate", "--config", cfg])


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = eigen_config(tmp_path, richardson=True)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["eigen", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["eigen", "--config", cfg, "--out", str(out_b)]) == 0
        assert ((out_a / "eigen_report.json").read_bytes()
                == (out_b / "eigen_report.json").read_bytes())

    def test_sampling_deterministic_for_fixed_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1,
            "samples": 2000, "seed": 7,
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["fluctuate", "--config", cfg,
                             "--out", str(out)]) == 0
        assert ((out_a / "fluctuate_report.json").read_bytes()
                == (out_b / "fluctuate_report.json").read_bytes())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1,
            "samples": 2000, "seed": 7,
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["fluctuate", "--config", cfg,
                         "--out", str(out_a)]) == 0
        assert cli.main(["fluctuate", "--config", cfg, "--seed", "8",
                         "--out", str(out_b)]) == 0
        rep_a = json.loads((out_a / "fluctuate_report.json").read_text())
        rep_b = json.loads((out_b / "fluctuate_report.json").read_text())
        assert rep_a["results"]["seed"] == 7
        assert rep_b["results"]["seed"] == 8
        assert (rep_a["results"]["sample_mean"]
                != rep_b["results"]["sample_mean"])

    def test_report_hash_matches_canonical_config(self, tmp_path):
        cfg_path = eigen_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["eigen", "--config", cfg_path,
                         "--out", str(out)]) == 0
        report = json.loads((out / "eigen_report.json").read_text())
        assert report["config_sha256"] == cli.config_hash(report["config"])


class TestValidation:
    def test_fluctuate_requires_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"system": {"mass": 1.0}, "dt": 0.1})
        code = cli.main(["fluctuate", "--config", cfg,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed, flag", [
        (7, ["--seed", "-1"]),
        (7, ["--seed", str(2**64)]),
        (-1, []),
        (2**64, []),
    ], ids=["flag_negative", "flag_2_64", "config_negative", "config_2_64"])
    def test_seed_outside_uint64_rejected(self, tmp_path, capsys,
                                          config_seed, flag):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 10,
            "seed": config_seed,
        })
        code = cli.main(["fluctuate", "--config", cfg, *flag,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config error: seed must be" in err
        assert "Traceback" not in err

    def test_window_below_sigma_floor_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "seed": 1,
            "window": [0.5],
        })
        code = cli.main(["fluctuate", "--config", cfg,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "standard deviations" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, complaint", [
        ({"window": [1e200]}, "window[0] = 1e+200 is too wide"),
        # the default window of a heavy mass over a tiny step
        ({"system": {"mass": 1e300}, "dt": 1e-10}, "window[0] = 6 is too wide"),
        # each axis alone is finite; their sum overflows at the corners
        ({"system": {"mass": [1.0, 1.0]}, "dt": 0.5,
          "window": [1e154, 1e154]}, "window[1] = 1e+154 is too wide"),
    ], ids=["explicit", "default", "corner"])
    def test_overflowing_kinetic_cost_exits_two(self, tmp_path, capsys,
                                               overrides, complaint):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 10, "seed": 1,
            **overrides})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["fluctuate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and complaint in err
        assert not (out / "fluctuate_report.json").exists()

    @pytest.mark.parametrize("scenario, cfg, complaint", [
        ("eigen", {"grid": {"points": 32, "min": -1e308, "max": 1e308}},
         "grid.max - grid.min overflows"),
        ("eigen", {"grid": {"points": 32, "min": -1e300, "max": 6.0}},
         "system.potential is not finite at every grid node"),
        ("eigen", {"grid": {"points": 32, "min": -1e-300, "max": 1e-300}},
         "the kinetic scale hbar^2 / (2 m dx^2) overflows"),
        ("bipartite", {"pair": {"mass_a": 1.0, "mass_b": 2.0, "points": 16,
                                "length": 1e-300}},
         "the kinetic scale hbar^2 / (2 m dx^2) overflows"),
        ("three-route", {"pair": {"mass_a": 1.0, "mass_b": 2.0, "points": 16,
                                  "length": 1e300,
                                  "interaction": {"kind": "harmonic"}}},
         "pair.interaction is not finite at every grid node"),
    ], ids=["span", "potential", "spacing", "pair_spacing", "interaction"])
    def test_unrepresentable_hamiltonian_rejected(self, tmp_path, capsys,
                                                  scenario, cfg, complaint):
        if "grid" in cfg:
            cfg = {**cfg, "system": dict(HARMONIC_SYSTEM)}
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"config error: {complaint}" in err
        assert not out.exists()

    def test_huge_initial_width_is_a_flat_start(self, tmp_path):
        # the squared width overflows to inf, not to an OverflowError
        cfg = evolve_config(tmp_path, steps=2,
                            initial={"center": 0.0, "width": 1e300})
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "evolve_report.json").read_text())
        assert report["results"]["final_mean"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("scenario", ["evolve", "compare-propagators"])
    @pytest.mark.parametrize("center", [0.0, 0.01], ids=["node", "off-node"])
    def test_initial_width_whose_square_underflows(self, tmp_path, capsys,
                                                   scenario, center):
        # 1e-200 squares to zero: 0/0 at a node, x^2/0 everywhere else
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 513, "min": -6.0, "max": 6.0},
            "initial": {"center": center, "width": 1e-200}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: initial.width = 1e-200 is too narrow: its square "
            "underflows to zero\n")
        assert not out.exists()

    def test_fluctuate_needs_two_samples(self, tmp_path, capsys):
        # a sample variance of one draw is NaN, so no report could be written
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 1, "seed": 1})
        code = cli.main(["fluctuate", "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config error: samples must be at least 2" in err

    def test_fluctuate_sigma_underflow_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"mass": 1e30}, "dt": 1e-300, "samples": 10, "seed": 1})
        code = cli.main(["fluctuate", "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config error: sigma = sqrt(hbar dt / 2m) on axis 0" in err
        assert "Traceback" not in err

    def test_pair_mass_entry_sign_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": -2.0,
                     "interaction": {"kind": "harmonic", "strength": 1.0},
                     "points": 48, "length": 12.0},
        })
        code = cli.main(["bipartite", "--config", cfg,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "pair.mass_b must be positive" in capsys.readouterr().err

    def test_odd_pair_point_count_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0,
                     "interaction": {"kind": "harmonic", "strength": 1.0},
                     "points": 49, "length": 12.0},
        })
        code = cli.main(["bipartite", "--config", cfg,
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "pair.points must be even" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, block, payload, bound", [
        ("eigen", "grid",
         {"grid": {"min": -8.0}, "system": HARMONIC_SYSTEM},
         cli.MAX_LINE_POINTS),
        ("three-route", "pair",
         {"pair": {"mass_a": 1.0, "mass_b": 2.0}}, cli.MAX_PAIR_POINTS),
    ])
    def test_grid_size_bounded(self, tmp_path, capsys, scenario, block,
                               payload, bound):
        # the block lacks a required key, so no run builds its grid; only
        # the point count above the bound is named
        for points, over in ((bound + 1, True), (bound, False)):
            cfg = json.loads(json.dumps(payload))
            cfg[block]["points"] = points
            code = cli.main([scenario, "--config", write_config(tmp_path, cfg),
                             "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == cli.EXIT_CONFIG
            assert "is required" in err
            assert (f"config error: {block}.points must be at most {bound}"
                    in err) == over
            assert "Traceback" not in err

    @staticmethod
    def pair_config(tmp_path, interaction=None, points=96, **extra):
        return write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0,
                     "interaction": interaction or {"kind": "harmonic",
                                                    "strength": 1.0},
                     "points": points, "length": 12.0},
            **extra,
        })

    @pytest.mark.parametrize("potential, message", [
        ({"kind": "harmonic", "center": "abc"},
         "system.potential.center must be a number"),
        ({"kind": "harmonic", "center": math.nan},
         "system.potential.center must be a number"),
        ("harmonic", "system.potential must be an object"),
        ({"kind": "harmonic", "strength": True},
         "system.potential.strength must be a non-negative number"),
        pytest.param(
            {"kind": "polynomial", "coefficients": [0, 0, 1e308, 0, 0, 1e308]},
            "system.potential is not finite at every grid node",
            id="polynomial-overflow"),
    ])
    def test_malformed_potential_rejected(self, tmp_path, capsys, potential,
                                          message):
        system = dict(HARMONIC_SYSTEM, potential=potential)
        cfg = eigen_config(tmp_path, system=system)
        code = cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, interaction, extra, message", [
        ("bipartite", {"kind": "harmonic", "center": [1]}, {},
         "pair.interaction.center must be a number"),
        ("three-route", None, {"count": 96},
         "count asks for 96 levels, but 97 grid points hold at most 95"),
        ("bipartite", None, {"points": 4}, "pair.points must be at least 8"),
        ("three-route", None, {"points": 4},
         "pair.points must be at least 8"),
    ])
    def test_malformed_pair_rejected(self, tmp_path, capsys, scenario,
                                     interaction, extra, message):
        cfg = self.pair_config(tmp_path, interaction, **extra)
        code = cli.main([scenario, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_stiff_dt_warns_but_succeeds(self, tmp_path, capsys):
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 64, "min": -20.0, "max": 20.0},
            "initial": {"center": 0.0, "width": 2.0},
            "method": "unitary",
            "dt": 0.05, "steps": 5,
        })
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert "dt max|V|" in capsys.readouterr().err
        report = json.loads((out / "evolve_report.json").read_text())
        assert len(report["warnings"]) == 1

    @staticmethod
    def periodic_packet(tmp_path, dt):
        return evolve_config(tmp_path, **{
            "grid": {"points": 32, "min": -8.0, "max": 8.0,
                     "boundary": "periodic"},
            "initial": {"center": 0.0, "width": 2.0},
            "dt": dt, "steps": 1,
        })

    @pytest.mark.parametrize("scenario", ["evolve", "compare-propagators"])
    def test_fields_route_substeps_bounded(self, tmp_path, capsys, scenario):
        # dt = 1e6 asks for 1.78e7 RK4 substeps in one step
        out = tmp_path / "out"
        code = cli.main([scenario, "--config",
                         self.periodic_packet(tmp_path, 1e6), "--out",
                         str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == ("config error: dt = 1e+06 needs 1.78e+07 RK4 substeps "
                       "per step, 1.78e+07 in all, above "
                       f"{cli.MAX_RUN_SUBSTEPS:,}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["evolve", "compare-propagators"])
    def test_substep_cap_shrinks_on_large_grids(self, tmp_path, capsys,
                                                scenario):
        # 30,591 substeps per step on 65,536 nodes: 30 steps stay under
        # the 1,000,000 of a 512-point grid but would run for hours
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 65_536, "min": -6.0, "max": 6.0},
            "initial": {"center": 1.0, "width": 0.7071067811865476},
            "dt": 1e-3, "steps": 30,
        })
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == ("config error: dt = 0.001 needs 3.06e+04 RK4 substeps "
                       "per step, 9.18e+05 in all, above 7,812\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["evolve", "compare-propagators"])
    def test_overflowing_dt_rejected(self, tmp_path, capsys, scenario):
        # dt times the stiffest rate is inf, which no substep count holds
        out = tmp_path / "out"
        code = cli.main([scenario, "--config",
                         self.periodic_packet(tmp_path, 1e308), "--out",
                         str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == ("config error: dt = 1e+308 times the stiffest rate of "
                       "the fields route is not finite\n")
        assert not out.exists()


    @pytest.mark.parametrize("strength, bound", [(1e300, "1.8e+301"),
                                                 (1e200, "1.8e+201")])
    def test_constraint_check_energy_bound_overflow(self, tmp_path, capsys,
                                                    strength, bound):
        # the slope of S = -E t over two slices of 1e-3 squares to an
        # infinity once the energy bound passes about 4e156 on this grid
        cfg = write_config(tmp_path, {
            "grid": {"points": 32, "min": -6.0, "max": 6.0},
            "system": {**HARMONIC_SYSTEM, "potential": {
                "kind": "harmonic", "strength": strength}},
            "level": 1,
        })
        out = tmp_path / "out"
        code = cli.main(["constraint-check", "--config", cfg, "--out",
                         str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == (f"config error: the energy bound max|V| + 2 hbar^2 / "
                       f"(m dx^2) = {bound} is too large: the kinetic density "
                       f"(E 2 dt / dx)^2 / 2m of S = -E t overflows at "
                       f"dt = 0.001\n")
        assert not out.exists()


class TestPlotData:
    def test_plot_files_reference_config_hash(self, tmp_path):
        cfg = eigen_config(tmp_path, count=1)
        out = tmp_path / "out"
        assert cli.main(["eigen", "--config", cfg, "--out", str(out),
                         "--emit-plots"]) == 0
        report = json.loads((out / "eigen_report.json").read_text())
        lines = (out / "eigen_state_0.dat").read_text().splitlines()
        assert lines[0] == f"# config {report['config_sha256']}"
        assert lines[1] == "# columns: x amplitude"
        table = np.loadtxt(str(out / "eigen_state_0.dat"))
        assert table.shape == (128, 2)

    def test_plots_skipped_without_flag(self, tmp_path):
        cfg = eigen_config(tmp_path, count=1)
        out = tmp_path / "out"
        assert cli.main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        assert not list(out.glob("*.dat"))

    def test_compare_plot_carries_both_routes(self, tmp_path):
        cfg = evolve_config(tmp_path, steps=10)
        out = tmp_path / "out"
        assert cli.main(["compare-propagators", "--config", cfg,
                         "--out", str(out), "--emit-plots"]) == 0
        table = np.loadtxt(str(out / "compare-propagators_final_densities.dat"))
        assert table.shape == (128, 3)
        assert np.max(np.abs(table[:, 1] - table[:, 2])) < 1e-4


class TestScenarioOutputs:
    def test_unitary_evolution_reports_norm_drift(self, tmp_path):
        cfg = evolve_config(tmp_path, method="unitary")
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "evolve_report.json").read_text())
        assert report["results"]["norm_drift"] < 1e-10

    def test_constraint_check_reports_bracket(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"points": 256, "min": -8.0, "max": 8.0},
            "system": dict(HARMONIC_SYSTEM),
            "level": 0,
        })
        out = tmp_path / "out"
        assert cli.main(["constraint-check", "--config", cfg,
                         "--out", str(out)]) == 0
        res = json.loads((out / "constraint-check_report.json")
                         .read_text())["results"]
        assert res["bracket_consistent"] is True
        assert res["classical_force_vanishes"] is False
        assert res["energy"] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("level", [1, 2])
    def test_constraint_check_excited_residuals_skip_the_nodes(
            self, tmp_path, level):
        # Q diverges at the nodes of an excited state; the residuals are
        # read on the resolved nodes, as vanishing-momentum reads them
        cfg = json.loads((pathlib.Path(__file__).resolve().parents[1]
                          / "configs" / "constraint_ground.json").read_text())
        cfg = write_config(tmp_path, dict(cfg, level=level))
        out = tmp_path / "out"
        assert cli.main(["constraint-check", "--config", cfg,
                         "--out", str(out)]) == 0
        res = json.loads((out / "constraint-check_report.json")
                         .read_text())["results"]
        assert res["density_residual_max"] <= 1e-6
        assert res["action_residual_max"] <= 1e-6

    def test_vanishing_momentum_lists_trivial_branch(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"points": 256, "min": -8.0, "max": 8.0},
            "system": dict(HARMONIC_SYSTEM),
            "count": 2,
        })
        out = tmp_path / "out"
        assert cli.main(["vanishing-momentum", "--config", cfg,
                         "--out", str(out)]) == 0
        res = json.loads((out / "vanishing-momentum_report.json")
                         .read_text())["results"]
        branches = {row["label"]: row["branch"] for row in res["branches"]}
        assert branches["uniform"] == "trivial"
        assert all(b == "nontrivial" for lbl, b in branches.items()
                   if lbl != "uniform")
        assert res["nonlinear_ok"] is True

    def test_three_route_gap_small(self, tmp_path):
        cfg = write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0,
                     "interaction": {"kind": "harmonic", "strength": 1.0},
                     "points": 48, "length": 12.0},
            "count": 2,
        })
        out = tmp_path / "out"
        assert cli.main(["three-route", "--config", cfg,
                         "--out", str(out)]) == 0
        res = json.loads((out / "three-route_report.json")
                         .read_text())["results"]
        assert res["max_gap"] < 1e-10
        assert res["translation_residual"] == 0.0

    def test_bipartite_information_ratio(self, tmp_path):
        cfg = write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0,
                     "interaction": {"kind": "harmonic", "strength": 1.0},
                     "points": 48, "length": 12.0},
        })
        out = tmp_path / "out"
        assert cli.main(["bipartite", "--config", cfg,
                         "--out", str(out)]) == 0
        res = json.loads((out / "bipartite_report.json")
                         .read_text())["results"]
        assert res["information_ratio"] == pytest.approx(2.0, rel=1e-10)
        assert res["translation_force_vanishes"] is True

    def test_bundled_configs_parse(self, tmp_path):
        cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        bundled = sorted(cfg_dir.glob("*.json"))
        assert len(bundled) >= 8
        for path in bundled:
            json.loads(path.read_text())


class TestSolverPreconditions:
    """Inputs the solvers reject must end in exit 2 before any solve."""

    @staticmethod
    def wide_packet(tmp_path, **extra):
        # a wide packet in a weak trap, off center: its density at the
        # near wall is about 1e-4 of the peak, so |psi| there is about 1e-2
        k = 0.6
        return write_config(tmp_path, {
            "grid": {"points": 512, "min": -6.0, "max": 6.0,
                     "boundary": "dirichlet"},
            "system": {"hbar": 1.0, "mass": 1.0, "potential": {
                "kind": "harmonic", "strength": k, "center": 0.0}},
            "initial": {"center": 1.5,
                        "width": 1.3 * math.sqrt(0.5 / math.sqrt(k))},
            "dt": 1e-3,
            "steps": 100,
            **extra,
        })

    @pytest.mark.parametrize("scenario, extra", [
        ("compare-propagators", {}),
        ("evolve", {"method": "unitary"}),
    ])
    def test_packet_not_vanishing_on_wall(self, tmp_path, capsys, scenario,
                                          extra):
        cfg = self.wide_packet(tmp_path, **extra)
        code = cli.main([scenario, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config error: initial state must vanish on the hard wall" \
            in err
        assert "Traceback" not in err

    def test_fields_route_accepts_wide_packet(self, tmp_path):
        # only the unitary route pins the wall values
        cfg = self.wide_packet(tmp_path, method="fields", steps=5)
        assert cli.main(["evolve", "--config", cfg,
                         "--out", str(tmp_path)]) == cli.EXIT_OK

    @pytest.mark.parametrize("scenario, overrides, message", [
        ("eigen", {"count": 127}, "count asks for 127 levels, but 128 grid "
         "points hold at most 126"),
        ("eigen", {"grid": {"points": 128, "min": -8.0, "max": 8.0,
                            "boundary": "periodic"}},
         "grid.boundary must be 'dirichlet'"),
        ("constraint-check", {"level": 126}, "level asks for 127 levels"),
        ("vanishing-momentum", {"grid": {"points": 128, "min": -8.0,
                                         "max": 8.0, "boundary": "periodic"}},
         "grid.boundary must be 'dirichlet'"),
    ])
    def test_eigen_levels_checked(self, tmp_path, capsys, scenario,
                                  overrides, message):
        cfg = eigen_config(tmp_path, **overrides)
        code = cli.main([scenario, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_largest_level_count_accepted(self, tmp_path):
        cfg = eigen_config(tmp_path, count=126)
        assert cli.main(["eigen", "--config", cfg,
                         "--out", str(tmp_path)]) == cli.EXIT_OK


POLYNOMIAL_TRAP = {"mass": 1.0, "potential": {
    "kind": "polynomial", "coefficients": [0, 0, 0.5]}}


class TestFieldKinds:
    """Every field accepts one JSON kind; booleans are never numbers."""

    @staticmethod
    def fluctuate_config(tmp_path, **overrides):
        payload = {"system": {"mass": 1.0}, "dt": 0.1, "samples": 2000,
                   "seed": 7}
        payload.update(overrides)
        return write_config(tmp_path, payload)

    @pytest.mark.parametrize("scenario, overrides, message", [
        ("eigen", {"system": {"mass": 1.0, "potential": {
            "kind": "polynomial", "coefficients": [True, 0, 0.5]}}},
         "system.potential.coefficients must be a list of numbers"),
        ("fluctuate", {"system": {"mass": [True, 2.0]}},
         "system.mass must be a number or a pair of numbers"),
        ("eigen", {"richardson": "no"}, "richardson must be a boolean"),
        ("evolve", {"method": []}, "method must be 'fields' or 'unitary'"),
        ("eigen", {"grid": {"points": 128, "min": -8.0, "max": 8.0,
                            "boundary": 0}},
         "grid.boundary must be 'dirichlet' or 'periodic'"),
        ("fluctuate", {"window": [math.nan]},
         "window must be a list of numbers"),
    ])
    def test_wrong_kind_rejected(self, tmp_path, capsys, scenario, overrides,
                                 message):
        make = {"eigen": eigen_config, "evolve": evolve_config,
                "fluctuate": self.fluctuate_config}[scenario]
        cfg = make(tmp_path, **overrides)
        code = cli.main([scenario, "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_capped_transition_grid_warns(self, tmp_path, capsys):
        # the default 6-unit window needs 1.7 million nodes at 10 per
        # sigma = sqrt(hbar dt / 2m) = 7.1e-5; the 1D cap is 524,289
        cfg = self.fluctuate_config(tmp_path, dt=1e-8)
        out = tmp_path / "out"
        assert cli.main(["fluctuate", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        assert ("transition grid capped at 524289 nodes on axis 0: 3.09 "
                "nodes per sigma, below 10") in capsys.readouterr().err
        report = json.loads((out / "fluctuate_report.json").read_text())
        assert len(report["warnings"]) == 1


class TestRuntimeFailures:
    @staticmethod
    def small_pair(tmp_path, count):
        return write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0,
                     "interaction": {"kind": "harmonic", "strength": 1.0},
                     "points": 16, "length": 12.0},
            "count": count,
        })

    def test_unresolved_level_exits_one(self, tmp_path, capsys):
        # on 16 pair points every node of separation mode 7 lies next to
        # one of its sign changes, so no node is left to read an energy from
        out = tmp_path / "out"
        assert cli.main(["three-route", "--config",
                         self.small_pair(tmp_path, 7),
                         "--out", str(out)]) == cli.EXIT_OK
        assert "NaN" not in (out / "three-route_report.json").read_text()
        (out / "three-route_report.json").unlink()
        code = cli.main(["three-route", "--config",
                         self.small_pair(tmp_path, 8), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert "runtime error: level 7 is unresolved" in err
        assert not (out / "three-route_report.json").exists()

    def test_unconverged_eigensolve_exits_one(self, tmp_path, capsys):
        # a mass of 1e-300 puts 1e300 entries in the tridiagonal matrix
        cfg = write_config(tmp_path, {
            "grid": {"points": 32, "min": -6.0, "max": 6.0},
            "system": {"mass": 1e-300}, "count": 2})
        code = cli.main(["eigen", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "runtime error: stebz (eigh_tridiagonal) did not converge")

    def test_single_node_ground_state_exits_one(self, tmp_path, capsys):
        # a trap of strength 1e300 holds the separation mode on one node
        cfg = write_config(tmp_path, {
            "pair": {"mass_a": 1.0, "mass_b": 2.0, "points": 16,
                     "length": 12.0,
                     "interaction": {"kind": "harmonic", "strength": 1e300}}})
        out = tmp_path / "out"
        code = cli.main(["bipartite", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_RUNTIME
        assert ("runtime error: level 0 is unresolved"
                in capsys.readouterr().err)
        assert not (out / "bipartite_report.json").exists()

    def test_non_finite_result_writes_no_report(self, tmp_path, capsys,
                                                monkeypatch):
        solve = cli.eigensolve_1d

        def nan_solve(*args, **kwargs):
            spec = solve(*args, **kwargs)
            return dataclasses.replace(spec,
                                       eigenvalues=spec.eigenvalues * np.nan)

        monkeypatch.setattr(cli, "eigensolve_1d", nan_solve)
        out = tmp_path / "out"
        code = cli.main(["eigen", "--config", eigen_config(tmp_path),
                         "--out", str(out)])
        assert code == cli.EXIT_RUNTIME
        assert "runtime error: report not written" in capsys.readouterr().err
        assert not (out / "eigen_report.json").exists()


CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

# the scenario each shipped config is written for (see the README table)
CONFIG_SCENARIOS = {
    "bipartite_ground.json": "bipartite",
    "compare_propagators.json": "compare-propagators",
    "constraint_ground.json": "constraint-check",
    "eigen_harmonic.json": "eigen",
    "evolve_coherent.json": "evolve",
    "fluctuate_pair.json": "fluctuate",
    "fluctuate_single.json": "fluctuate",
    "three_route.json": "three-route",
    "vanishing_momentum.json": "vanishing-momentum",
}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_config_runs(tmp_path, path):
    assert path.name in CONFIG_SCENARIOS, f"no scenario listed for {path.name}"
    scenario = CONFIG_SCENARIOS[path.name]
    code = cli.main([scenario, "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / f"{scenario}_report.json").read_text())
    assert report["config"] == json.loads(path.read_text())


def test_richardson_refines_a_polynomial_trap(tmp_path):
    # Horner's 0.5 x x rounds like the harmonic 0.5 (x - 0)^2, so the
    # polynomial is the same trap, on the doubled grid too
    cfg = json.loads((CONFIG_DIR / "eigen_harmonic.json").read_text())
    results = []
    for system in (cfg["system"], POLYNOMIAL_TRAP):
        out = tmp_path / str(len(results))
        path = write_config(tmp_path, {**cfg, "system": system})
        assert cli.main(["eigen", "--config", path, "--out", str(out)]) == 0
        results.append(json.loads((out / "eigen_report.json").read_text())
                       ["results"])
    harmonic, polynomial = results
    for key in ("eigenvalues", "refined_eigenvalues", "residuals"):
        assert polynomial[key] == harmonic[key]


def config_fields(node, prefix=""):
    """(dotted path, value) for every key of a config, blocks included."""
    for key, value in node.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from config_fields(value, prefix + key + ".")


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array",
            dict: "object"}[type(value)]


JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "array": st.lists(st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def replaced(cfg: dict, path: str, value) -> dict:
    """A copy of cfg with the value at a dotted path replaced."""
    cfg = json.loads(json.dumps(cfg))
    *blocks, key = path.split(".")
    node = cfg
    for block in blocks:
        node = node[block]
    node[key] = value
    return cfg


@pytest.mark.parametrize("name", sorted(CONFIG_SCENARIOS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_json_kind_names_the_field(tmp_path, name, data):
    scenario = CONFIG_SCENARIOS[name]
    shipped = json.loads((CONFIG_DIR / name).read_text())
    for path, value in config_fields(shipped):
        accepted = {json_kind(value)}
        if scenario == "fluctuate" and path == "system.mass":
            accepted |= {"number", "array"}  # one mass or a pair of them
        wrong = data.draw(st.one_of(*(strategy for kind, strategy
                                      in JSON_KINDS.items()
                                      if kind not in accepted)), label=path)
        cfg_path = write_config(tmp_path, replaced(shipped, path, wrong))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([scenario, "--config", cfg_path,
                             "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG, err.getvalue()
        assert path in err.getvalue()
        assert "Traceback" not in err.getvalue()


# -- fluctuate config fuzz ---------------------------------------------------

# edge values first: zero, signs, the ends of the float range, a subnormal
FUZZ_NUMBER = (st.sampled_from([0, 0.0, -1.0, 1.0, 2, 0.05, 1e-300, 5e-324,
                                1e300, -1e300, 1e30, 1e-30])
               | st.floats() | st.integers(-10**20, 10**20))
FUZZ_NUMBERS = st.lists(FUZZ_NUMBER, min_size=1, max_size=3)
# any JSON value, numbers twice as likely as each other kind
FUZZ_ANY = (FUZZ_NUMBER | FUZZ_NUMBER | st.none() | st.booleans()
            | st.text(max_size=4) | st.lists(FUZZ_NUMBER, max_size=3)
            | st.dictionaries(st.text(max_size=3), FUZZ_NUMBER, max_size=2))
# the draw count stays small, so a passing run takes milliseconds of sampling
FUZZ_SAMPLES = (st.integers(-3, 1000) | st.floats(max_value=1000)
                | st.none() | st.booleans() | st.text(max_size=4)
                | st.lists(FUZZ_NUMBER, max_size=2))
FUZZ_FIELDS = {
    "hbar": FUZZ_NUMBER | FUZZ_ANY,
    "dt": FUZZ_NUMBER | FUZZ_ANY,
    "mass": FUZZ_NUMBER | FUZZ_NUMBERS | FUZZ_ANY,
    "window": FUZZ_NUMBERS | FUZZ_ANY,
    "samples": FUZZ_SAMPLES,
}


@st.composite
def fluctuate_configs(draw) -> dict:
    """A valid 1D or 2D config with one to three fields replaced by
    arbitrary JSON, left out, or joined by a stray key."""
    cfg = {"system": {"hbar": 1.0,
                      "mass": draw(st.sampled_from([1.0, [1.0, 2.0]]))},
           "dt": 0.1, "samples": 200, "seed": 3}
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(["system", "system.hbar", "system.mass",
                                     "dt", "samples", "window", "seed"]))
        *blocks, key = path.split(".")
        node = cfg if not blocks else cfg.get(blocks[0])
        if not isinstance(node, dict):
            continue
        action = draw(st.sampled_from(["replace", "replace", "drop",
                                       "stray"]))
        if action == "drop":
            node.pop(key, None)
        elif action == "stray":
            node[draw(st.text(max_size=4))] = draw(FUZZ_ANY)
        else:
            node[key] = draw(FUZZ_FIELDS.get(key, FUZZ_ANY))
    return cfg


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=fluctuate_configs())
def test_fluctuate_config_fuzz(tmp_path, cfg):
    path = write_config(tmp_path, cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        code = cli.main(["fluctuate", "--config", path,
                         "--out", str(tmp_path / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_CONFIG)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")


# -- config fuzz of the other scenarios --------------------------------------

_LINE = {"grid": {"points": 32, "min": -6.0, "max": 6.0},
         "system": dict(HARMONIC_SYSTEM)}
_PAIR_BLOCK = {"pair": {"mass_a": 1.0, "mass_b": 2.0, "points": 16,
                        "length": 12.0, "interaction": {"kind": "harmonic"}}}
_PACKET = {"initial": {"center": 0.5, "width": 0.8}, "dt": 0.01, "steps": 3}
# test id -> (scenario, a small valid config); evolve once per method
FUZZ_BASES = {
    "eigen": ("eigen", {**_LINE, "count": 2}),
    "evolve": ("evolve", {**_LINE, **_PACKET, "method": "fields"}),
    "evolve-unitary": ("evolve", {**_LINE, **_PACKET, "method": "unitary"}),
    "compare-propagators": ("compare-propagators", {**_LINE, **_PACKET}),
    "constraint-check": ("constraint-check", {**_LINE, "level": 1}),
    "vanishing-momentum": ("vanishing-momentum", {**_LINE, "count": 2}),
    "three-route": ("three-route", {**_PAIR_BLOCK, "count": 2}),
    "bipartite": ("bipartite", _PAIR_BLOCK),
}


def capped(cap: int):
    """Any JSON value; the integers and floats stay at or below cap."""
    return (st.integers(-3, cap) | st.floats(max_value=cap) | st.none()
            | st.booleans() | st.text(max_size=4)
            | st.lists(FUZZ_NUMBER, max_size=2))


# keys whose size sets the run time, bounded like `samples` above
FUZZ_CAPS = {"grid.points": capped(64), "pair.points": capped(16),
             "count": capped(64), "level": capped(64), "steps": capped(5)}


@st.composite
def scenario_configs(draw, scenario: str, base: dict) -> dict:
    """The base config with one to three of the scenario table's fields,
    blocks or the seed replaced by arbitrary JSON, left out, or joined
    by a stray key."""
    cfg = json.loads(json.dumps(base))
    table = [row[0] for row in cli.SCENARIOS[scenario][0]]
    blocks = sorted({path.rsplit(".", 1)[0] for path in table if "." in path})
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(table + blocks + ["seed"]))
        *parents, key = path.split(".")
        node = cfg
        for block in parents:
            node = node.setdefault(block, {})
            if not isinstance(node, dict):
                break
        if not isinstance(node, dict):
            continue
        action = draw(st.sampled_from(["replace", "replace", "drop",
                                       "stray"]))
        if action == "drop":
            node.pop(key, None)
        elif action == "stray":
            node[draw(st.text(max_size=4))] = draw(FUZZ_ANY)
        else:
            node[key] = draw(FUZZ_CAPS.get(path, FUZZ_ANY))
    return cfg


@pytest.mark.parametrize("name", sorted(FUZZ_BASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scenario_config_fuzz(tmp_path, name, data):
    scenario, base = FUZZ_BASES[name]
    cfg = data.draw(scenario_configs(scenario, base), label="config")
    path = write_config(tmp_path, cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        code = cli.main([scenario, "--config", path,
                         "--out", str(tmp_path / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_CONFIG)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_CONFIG:
        assert all(line.startswith("config error: ")
                   for line in err.getvalue().splitlines())

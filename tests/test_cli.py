"""End-to-end checks of the command line front end.

Scenario physics is covered elsewhere; these tests pin the plumbing:
exit codes, the full-violation listing on bad configs, determinism of
the JSON reports, and the plot-data format.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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

    def test_output_under_a_file_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        code = cli.main(["eigen", "--config", eigen_config(tmp_path),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"config error: cannot create {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == ""
        assert not list(tmp_path.glob("**/eigen_report.json"))

    def test_unknown_scenario_rejected(self, tmp_path):
        cfg = eigen_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["frobnicate", "--config", cfg])

    def test_shared_parser_carries_no_state_between_calls(
            self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; flags of one call must
        # not reach the next, and a bad command line still ends in exit 2
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        try:
            cfg = write_config(tmp_path, {"system": {"mass": 1.0},
                                          "dt": 0.1, "samples": 2000,
                                          "seed": 11})
            first, second = tmp_path / "first", tmp_path / "second"
            assert cli.main(["fluctuate", "--config", cfg, "--out",
                             str(first), "--emit-plots", "--seed", "5"]) == 0
            assert cli.main(["fluctuate", "--config", cfg, "--out",
                             str(second)]) == 0
            seeds = [json.loads((out / "fluctuate_report.json").read_text())
                     ["results"]["seed"] for out in (first, second)]
            assert seeds == [5, 11]
            assert list(first.glob("*.dat"))
            assert not list(second.glob("*.dat"))
            capsys.readouterr()
            for argv in (["frobnicate", "--config", cfg], ["fluctuate"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                assert exc.value.code == 2
                assert capsys.readouterr().err.startswith("usage: varq ")
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()


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


# a line whose kinetic scale hbar^2 / (2 m dx^2) is finite, 1.277e308, but
# whose Hamiltonian's diagonal V + 2 hbar^2 / (2 m dx^2) is not
DIAGONAL_OVERFLOW = {
    "grid": {"points": 49, "min": -5.352085520528632e-41,
             "max": 5.352085520528632e-41},
    "system": {"hbar": 2.2375292688229723e+76, "mass": 3.940245377363585e-73,
               "potential": {"kind": "harmonic",
                             "strength": 1.8981633854843374e-227}}}


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
        # the default window of 8 sigma = 1.8e154 at a huge hbar
        ({"system": {"hbar": 1e308, "mass": 1.0}},
         "window[0] = 1.78885e+154 is too wide"),
        # each axis alone is finite; their sum overflows at the corners
        ({"system": {"mass": [1.0, 1.0]}, "dt": 0.5,
          "window": [1e154, 1e154]}, "window[1] = 1e+154 is too wide"),
        # or underflows: dx^2 = (sigma / 10)^2 is 0, and the report would
        # read a variance of 0 and a wrong KL, for any window
        *(({"system": {"hbar": 1e-300, "mass": 1.0}, "dt": 1e-23, **window},
           "sigma = sqrt(hbar dt / 2m) on axis 0 is 2.22276e-162: dx^2 = 0 "
           "is not a finite normal float")
          for window in ({"window": [1.778e-161]}, {})),
    ], ids=["explicit", "default", "corner", "subnormal-explicit",
            "subnormal-default"])
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
        # m_a m_b underflows to zero, or overflows to inf
        *((scenario, {"pair": {"mass_a": mass, "mass_b": mass, "points": 8,
                               "length": 12.0}},
           "pair.mass_a and pair.mass_b give a reduced mass")
          for mass in (1e-300, 1e300)
          for scenario in ("bipartite", "three-route")),
        # half the length, the separation grid's bound, rounds to 0
        *((scenario, {"pair": {"mass_a": 1.0, "mass_b": 1.0, "points": 16,
                               "length": 5e-324}},
           "pair.length 4.94e-324 is too small")
          for scenario in ("bipartite", "three-route")),
        # hbar^2 / (2 m dx^2) is 1.277e308, but the bands' diagonal,
        # V + 2 hbar^2 / (2 m dx^2), overflows
        *((scenario, {**DIAGONAL_OVERFLOW, "count": 3, "level": 2},
           "the diagonal V + hbar^2 / (m dx^2) of H overflows")
          for scenario in ("eigen", "vanishing-momentum",
                           "constraint-check")),
        *((scenario, {"pair": {"mass_a": 7.88049075472717e-73,
                               "mass_b": 7.88049075472717e-73,
                               "hbar": 2.2375292688229723e+76, "points": 16,
                               "length": 3.568e-41,
                               "interaction": {"kind": "harmonic",
                                               "strength": 1e-227}},
                      "count": 2},
           "the diagonal V + hbar^2 / (m dx^2) of H overflows")
          for scenario in ("bipartite", "three-route")),
    ], ids=["span", "potential", "spacing", "pair_spacing", "interaction",
            "reduced_mass_underflow_bipartite",
            "reduced_mass_underflow_three_route",
            "reduced_mass_overflow_bipartite",
            "reduced_mass_overflow_three_route",
            "half_length_underflow_bipartite",
            "half_length_underflow_three_route",
            "band_diagonal_eigen", "band_diagonal_vanishing_momentum",
            "band_diagonal_constraint_check", "band_diagonal_bipartite",
            "band_diagonal_three_route"])
    def test_unrepresentable_hamiltonian_rejected(self, tmp_path, capsys,
                                                  scenario, cfg, complaint):
        if "grid" in cfg:
            cfg = {"system": dict(HARMONIC_SYSTEM), **cfg}
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        # the one complaint: a potential that is not finite, or a kinetic
        # scale that overflows, is not read again as an overflowing diagonal
        assert err.startswith(f"config error: {complaint}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario", [
        "eigen", "vanishing-momentum", "evolve", "compare-propagators"])
    def test_overflowing_hbar_squared_rejected(self, tmp_path, capsys,
                                               scenario):
        # hbar^2 and 2 m dx^2 both overflow: the bands would read the
        # kinetic term as 0 over an inf 2 m dx^2
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 16, "min": -1e150, "max": 1e150},
            "system": {"mass": 1e300, "hbar": 1e300},
            "initial": {"center": 0.0, "width": 1e149}})
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(
            "config error: the kinetic scale hbar^2 / (2 m dx^2) overflows")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mass, scale", [(1.0, "0.00484"),
                                             (1e-10, "4.84e+07")],
                             ids=["2m_dx2", "dx2"])
    @pytest.mark.parametrize("scenario", ["eigen", "compare-propagators"])
    def test_kinetic_scale_lost_to_an_overflowing_spacing_rejected(
            self, tmp_path, capsys, scenario, mass, scale):
        # dx ~ 1e155: dx^2 overflows, and with mass 1 so does 2 m dx^2, yet
        # hbar^2 / (2 m dx^2) is a normal float that the run would read as 0
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 64, "min": -3.2e156, "max": 3.2e156,
                     "boundary": "dirichlet"},
            "system": {"hbar": 1e154, "mass": mass,
                       "potential": {"kind": "free"}},
            "initial": {"center": 0.0, "width": 5e155}, "count": 2})
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(
            f"config error: the kinetic scale hbar^2 / (2 m dx^2) = {scale} "
            "cannot be formed")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["evolve", "compare-propagators"])
    def test_initial_density_that_is_not_a_number_rejected(
            self, tmp_path, capsys, scenario):
        # (x - c)^2 / (2 w^2) is inf / inf at the grid's edges
        cfg = evolve_config(tmp_path, **{
            "grid": {"points": 16, "min": -1e160, "max": 1e160},
            "system": {"mass": 1.0},
            "initial": {"center": 0.0, "width": 2.5e159}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(
            "config error: initial density is not a number on this grid")
        assert "Traceback" not in err
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

    @pytest.mark.parametrize("scenario, payload, complaint", [
        ("eigen", {"grid": {"points": 64, "min": -5.0, "max": 5.0},
                   "system": {"hbar": 1.0, "mass": 1.0,
                              "potential": {"kind": "polynomial"}}},
         "system.potential.coefficients is required"),
        # exp(-(x - 1000)^2 / w^2) underflows at every node of [-5, 5]
        ("evolve", {"grid": {"points": 64, "min": -5.0, "max": 5.0},
                    "system": dict(HARMONIC_SYSTEM),
                    "initial": {"center": 1000.0, "width": 0.7},
                    "dt": 0.001, "steps": 2},
         "initial density vanishes on this grid"),
        ("eigen", [], "top level must be a JSON object"),
        ("fluctuate", {"system": {"mass": 1.0}, "dt": 0.1, "seed": 1,
                       "window": [8.0, 8.0]},
         "window must list one half-width per axis"),
    ], ids=["polynomial-coefficients", "vanishing-density", "top-level-list",
            "window-length"])
    def test_config_error_writes_no_report(self, tmp_path, capsys, scenario,
                                           payload, complaint):
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", write_config(tmp_path, payload),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == f"config error: {complaint}\n"
        assert not (out / f"{scenario}_report.json").exists()

    def test_fluctuate_needs_two_samples(self, tmp_path, capsys):
        # a sample variance of one draw is NaN, so no report could be written
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 1, "seed": 1})
        code = cli.main(["fluctuate", "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "config error: samples must be at least 2" in err

    def test_fluctuate_samples_bounded_by_int64(self, tmp_path, capsys):
        # the sampler counts draws in int64
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 2**63, "seed": 1})
        code = cli.main(["fluctuate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == ("config error: samples must be at most "
                       f"{2**63 - 1}\n")
        assert not (out / "fluctuate_report.json").exists()

    def test_fluctuate_takes_a_quadrillion_samples(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "system": {"mass": 1.0}, "dt": 0.1, "samples": 10**15, "seed": 1})
        assert cli.main(["fluctuate", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        res = json.loads((out / "fluctuate_report.json").read_text())
        assert res["results"]["samples"] == 10**15

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

    @pytest.mark.parametrize("strength", [1e300, 1e200])
    def test_trap_too_strong_for_its_grid_is_unresolved(
            self, tmp_path, capsys, recwarn, strength):
        # the first excited state of a trap far too strong for 32 points
        # on [-6, 6] has density only beside its own node, where no
        # residual is read: constraint-check ends as vanishing-momentum
        # does on the same trap, on the unresolved level
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
        assert code == cli.EXIT_RUNTIME
        assert err.startswith("runtime error: level 1 is unresolved")
        assert err.count("\n") == 1
        assert [w for w in recwarn if w.category is RuntimeWarning] == []
        assert not (out / "constraint-check_report.json").exists()


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

    def test_bipartite_is_level_0_of_three_route(self, tmp_path):
        pair = {"mass_a": 1.0, "mass_b": 3.0, "hbar": 0.7,
                "interaction": {"kind": "harmonic", "strength": 2.0},
                "points": 32, "length": 10.0}
        out = tmp_path / "out"
        res = {}
        for scenario, extra in (("bipartite", {}), ("three-route",
                                                    {"count": 1})):
            cfg = write_config(tmp_path, {"pair": pair, **extra})
            assert cli.main([scenario, "--config", cfg,
                             "--out", str(out)]) == 0
            res[scenario] = json.loads((out / f"{scenario}_report.json")
                                       .read_text())["results"]
        bipartite, three = res["bipartite"], res["three-route"]
        assert bipartite["ground_energy"] == three["rows"][0]["energy_reduced"]
        assert (bipartite["translation_residual"]
                == three["translation_residual"])

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
        # a 6-unit window needs 1.7 million nodes at 10 per
        # sigma = sqrt(hbar dt / 2m) = 7.1e-5; the 1D cap is 524,289
        cfg = self.fluctuate_config(tmp_path, dt=1e-8, window=[6.0])
        out = tmp_path / "out"
        assert cli.main(["fluctuate", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        assert ("transition grid capped at 524289 nodes on axis 0: 3.09 "
                "nodes per sigma, below 10") in capsys.readouterr().err
        report = json.loads((out / "fluctuate_report.json").read_text())
        assert len(report["warnings"]) == 1


# a box 1.4e-97 wide, whose ground energy is 1.9e7
TINY_BOX = {
    "grid": {"points": 42, "min": -6.923373807343605e-98,
             "max": 6.923373807343605e-98},
    "system": {"hbar": 8.91896350512529e-107,
               "mass": 1.0725388749644573e-25,
               "potential": {"kind": "harmonic",
                             "strength": 1.2695133484928664e-260}},
    "level": 0}


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

    @pytest.mark.parametrize("scenario", ["bipartite", "three-route"])
    def test_lifted_density_underflow_exits_one(self, tmp_path, capsys,
                                                scenario):
        # on a 1e300 ring psi^2 ~ 1e-600 underflows and dx^2 overflows
        cfg = write_config(tmp_path, {"pair": {
            "mass_a": 1.0, "mass_b": 1.0, "points": 8, "length": 1e300}})
        out = tmp_path / "out"
        code = cli.main([scenario, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert "runtime error: level 0 is unresolved" in err
        assert "Traceback" not in err
        assert not (out / f"{scenario}_report.json").exists()

    @pytest.mark.parametrize("scenario, payload", [
        # the Poisson bracket's action gradient overflows
        ("constraint-check",
         {"grid": {"points": 16, "min": -1e-300, "max": 1e-300},
          "system": {"hbar": 1e-300, "mass": 1e300}}),
        # the Crank-Nicolson set-up overflows
        ("vanishing-momentum",
         {"grid": {"points": 16, "min": -1e150, "max": 1e150},
          "system": {"hbar": 1e-300, "mass": 1e-300,
                     "potential": {"kind": "harmonic"}}}),
        # the quantum potential of the ground state overflows
        ("vanishing-momentum",
         {"grid": {"points": 16, "min": -1e150, "max": 1e150},
          "system": {"mass": 1e-300}, "count": 1}),
    ], ids=["bracket", "propagator", "quantum-potential"])
    def test_overflowing_run_exits_one(self, tmp_path, capsys, recwarn,
                                       scenario, payload):
        out = tmp_path / "out"
        code = cli.main([scenario, "--config",
                         write_config(tmp_path, payload), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert "runtime error: the run overflowed" in err
        assert "Traceback" not in err
        # the runtime-error line is all: numpy's warnings on the way to
        # the overflow are not shown. pytest records a shown warning
        # instead of printing it, so recwarn is where one would land
        assert "RuntimeWarning" not in err
        assert [w for w in recwarn if w.category is RuntimeWarning] == []
        assert not (out / f"{scenario}_report.json").exists()

    # the propagator system above, with a packet of width 1e149 that is
    # finite everywhere and vanishes on the walls: its set-up overflows
    UNITARY_OVERFLOW = {
        "grid": {"points": 16, "min": -1e150, "max": 1e150},
        "system": {"hbar": 1e-300, "mass": 1e-300,
                   "potential": {"kind": "harmonic"}},
        "initial": {"center": 0.0, "width": 1e149},
        "dt": 0.001, "steps": 2}

    def test_overflowing_unitary_evolve_exits_one(self, tmp_path, capsys,
                                                  recwarn):
        # I + i dt H / 2 hbar has an infinite diagonal; LAPACK would solve
        # with it without complaint and step psi to a finite -psi
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           dict(self.UNITARY_OVERFLOW, method="unitary"))
        code = cli.main(["evolve", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert "runtime error: the run overflowed" in err
        assert "Crank-Nicolson" in err
        assert "Traceback" not in err
        assert [w for w in recwarn if w.category is RuntimeWarning] == []
        assert not (out / "evolve_report.json").exists()

    def test_overflowing_comparison_stops_at_validation(self, tmp_path,
                                                        capsys):
        # the fields route's stiffness check reads the same system first,
        # so compare-propagators never reaches the unitary route
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.UNITARY_OVERFLOW)
        code = cli.main(["compare-propagators", "--config", cfg, "--out",
                         str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: the initial density's quantum "
                              "potential Q is not finite on this grid")
        for named in ("system.hbar = 1e-300", "system.mass = 1e-300",
                      "grid spacing 1.33333e+149"):
            assert named in err
        assert "Traceback" not in err
        assert not (out / "compare-propagators_report.json").exists()

    def test_successful_run_still_shows_its_warnings(self, tmp_path, recwarn,
                                                     monkeypatch):
        solve = cli.eigensolve_1d

        def noisy_solve(*args, **kwargs):
            np.float64(1.0) / np.float64(0.0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "eigensolve_1d", noisy_solve)
        code = cli.main(["eigen", "--config", eigen_config(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        shown = [str(w.message) for w in recwarn
                 if w.category is RuntimeWarning]
        assert len(shown) == 1 and "divide by zero" in shown[0]

    def test_tiny_box_reports_a_finite_ensemble_energy(self, tmp_path,
                                                      recwarn):
        # the ground density's gradient, about 1e194, squares past the
        # float range in config units; the information density takes its
        # squares at a power of two
        out = tmp_path / "out"
        code = cli.main(["constraint-check", "--config",
                         write_config(tmp_path, TINY_BOX), "--out", str(out)])
        assert code == cli.EXIT_OK
        res = json.loads(
            (out / "constraint-check_report.json").read_text())["results"]
        assert math.isfinite(res["ensemble_energy"])
        assert res["ensemble_energy"] == pytest.approx(res["energy"], rel=0.1)
        assert [w for w in recwarn if w.category is RuntimeWarning] == []

    def test_unwritable_report_shows_only_its_error(self, tmp_path, capsys,
                                                    recwarn, monkeypatch):
        # the tiny box, whose ensemble_energy of 1.8e7 the patched runner
        # scales past the float range, so it is inf. numpy's
        # overflow warning on the way says nothing that the runtime-error
        # line does not
        fields, rules, run = cli.SCENARIOS["constraint-check"]

        def overflowing_run(values, plots):
            results, notes = run(values, plots)
            results["ensemble_energy"] = float(
                np.float64(results["ensemble_energy"]) * np.finfo(float).max)
            return results, notes

        monkeypatch.setitem(cli.SCENARIOS, "constraint-check",
                            (fields, rules, overflowing_run))
        cfg = write_config(tmp_path, TINY_BOX)
        out = tmp_path / "out"
        code = cli.main(["constraint-check", "--config", cfg, "--out",
                         str(out)])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: report not written: Out of range float values "
            "are not JSON compliant: inf\n")
        assert [w for w in recwarn if w.category is RuntimeWarning] == []
        assert not (out / "constraint-check_report.json").exists()

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


@pytest.mark.parametrize("name", ["eigen_harmonic.json",
                                  "vanishing_momentum.json",
                                  "constraint_ground.json"])
def test_trap_in_a_time_unit_of_1e_minus_72_runs(tmp_path, name):
    # T = 1e-72 turns hbar = 1 into 1e72 and a strength of 1 into 1e144:
    # a valid config whose Hamiltonian bands are about 1e147, beyond what
    # LAPACK's eigensolver holds unscaled. Eigenvalues scale by
    # hbar w = 1e144. The bisection stops within about 2 eps |H|_1, with
    # |H|_1 about 5.3e3 hbar w on this grid, so 2.3e-12 hbar w, or
    # 4.7e-12 of the lowest eigenvalue hbar w / 2; the decimal units add
    # a few ulps. The bound is 1e-11, relative
    scenario = CONFIG_SCENARIOS[name]
    cfg = json.loads((CONFIG_DIR / name).read_text())
    if scenario == "eigen":
        cfg["richardson"] = False
    reports = []
    for hbar, strength in ((1.0, 1.0), (1e72, 1e144)):
        cfg["system"]["hbar"] = hbar
        cfg["system"]["potential"]["strength"] = strength
        out = tmp_path / str(len(reports))
        code = cli.main([scenario, "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        reports.append(json.loads(
            (out / f"{scenario}_report.json").read_text())["results"])
    if scenario == "eigen":
        unit, scaled = (np.array(r["eigenvalues"]) for r in reports)
        assert np.all(np.abs(scaled / 1e144 - unit) <= 1e-11 * unit)


def test_eigensolve_with_huge_bands_writes_finite_residuals(tmp_path):
    # a mass of 1e-300 puts 1e300 entries in the tridiagonal matrix, and
    # 1e-200 puts 1e200: the residuals are read in the eigensolve's
    # power-of-two units, so their squares do not overflow. A residual is
    # a few eps |H|_1, and |H|_1 is about 390 ground energies here, so a
    # residual is about 1e-13 of an eigenvalue
    for mass in (1e-300, 1e-200):
        cfg = write_config(tmp_path, {
            "grid": {"points": 32, "min": -6.0, "max": 6.0},
            "system": {"mass": mass}, "count": 2})
        out = tmp_path / "out"
        assert cli.main(["eigen", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        res = json.loads((out / "eigen_report.json").read_text())["results"]
        vals, resid = np.array(res["eigenvalues"]), np.array(res["residuals"])
        assert np.all(np.isfinite(resid))
        assert np.all(resid <= 1e-12 * vals)


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
FUZZ_FIELDS = {
    "hbar": FUZZ_NUMBER | FUZZ_ANY,
    "dt": FUZZ_NUMBER | FUZZ_ANY,
    "mass": FUZZ_NUMBER | FUZZ_NUMBERS | FUZZ_ANY,
    "window": FUZZ_NUMBERS | FUZZ_ANY,
    # the draw costs the same at any count, so counts past the int64
    # bound cost nothing to try
    "samples": st.integers(-3, 2**64) | st.floats() | FUZZ_ANY,
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


# any positive scale, log-uniform over almost the whole float range
LOG_UNIFORM = st.floats(-305.0, 305.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hbar=LOG_UNIFORM, masses=st.lists(LOG_UNIFORM, min_size=1, max_size=2),
       dt=LOG_UNIFORM)
def test_every_fluctuate_report_is_right_at_any_scale(tmp_path, hbar, masses,
                                                      dt):
    # a scale the transition grid cannot hold ends in exit 1 or 2, never
    # in a report of a wrong distribution
    cfg = {"system": {"hbar": hbar,
                      "mass": masses if len(masses) == 2 else masses[0]},
           "dt": dt, "samples": 100, "seed": 3}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["fluctuate", "--config", path, "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_CONFIG)
    if code != cli.EXIT_OK:
        return
    res = json.loads((out / "fluctuate_report.json").read_text())["results"]
    assert res["kl_numeric_vs_closed"] <= 1e-8
    assert np.allclose(res["optimized_variance"], res["analytic_variance"],
                       rtol=2e-4, atol=0.0)


# fluctuate report key -> its dimension as powers of length, mass and time;
# every other key (iterations, kl_numeric_vs_closed, samples, seed) is a
# pure number
FLUCTUATE_DIMENSIONS = {
    "sigma": (1, 0, 0), "window": (1, 0, 0), "sample_mean": (1, 0, 0),
    "analytic_variance": (2, 0, 0), "optimized_variance": (2, 0, 0),
    "sample_variance": (2, 0, 0), "sample_covariance": (2, 0, 0),
    "covariance_mc_sigma": (2, 0, 0),
    "uncertainty_product": (2, 1, -1), "expected_product": (2, 1, -1),
}


def run_in_units(tmp_path, scenario, name, units):
    """Exit code and report of a shipped config in units of length, mass
    and time 2^units: hbar scales by M L^2 / T, a mass by M, a trap
    strength by M / T^2, a coordinate, width or length by L and a time
    step by T."""
    l, m, t = units
    cfg = json.loads((CONFIG_DIR / name).read_text())
    system = cfg.get("system") or cfg["pair"]
    system["hbar"] = math.ldexp(system["hbar"], 2 * l + m - t)
    for key in ("mass", "mass_a", "mass_b"):
        if key in system:
            system[key] = (math.ldexp(system[key], m)
                           if isinstance(system[key], float)
                           else [math.ldexp(x, m) for x in system[key]])
    trap = system.get("potential") or system.get("interaction")
    if trap is not None:
        trap["strength"] = math.ldexp(trap["strength"], m - 2 * t)
        trap["center"] = math.ldexp(trap["center"], l)
    for block, keys in (("grid", ("min", "max")),
                        ("initial", ("center", "width")),
                        ("pair", ("length",))):
        for key in keys if block in cfg else ():
            cfg[block][key] = math.ldexp(cfg[block][key], l)
    if "dt" in cfg:
        cfg["dt"] = math.ldexp(cfg["dt"], t)
    out = tmp_path / "_".join(map(str, units))
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([scenario, "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_CONFIG)
    if code != cli.EXIT_OK:
        assert err.getvalue().startswith(("config error: ", "runtime error: "))
        return code, None
    return code, json.loads((out / f"{scenario}_report.json").read_text())


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["fluctuate_single.json", "fluctuate_pair.json"]),
       units=st.tuples(*[st.integers(-200, 200)] * 3))
@example(name="fluctuate_pair.json", units=(3, -5, 7))
@example(name="fluctuate_pair.json", units=(40, 20, -30))
@example(name="fluctuate_single.json", units=(-100, 60, 90))
def test_fluctuate_reports_scale_with_power_of_two_units(tmp_path, name,
                                                         units):
    # a power-of-two change of units scales every product, quotient and
    # square root exactly, and leaves the transition masses and so the
    # draws alike: an exit-0 report is the unit report times each key's
    # dimension, bit for bit
    code, report = run_in_units(tmp_path, "fluctuate", name, units)
    if code != cli.EXIT_OK:
        return
    _, unit = run_in_units(tmp_path, "fluctuate", name, (0, 0, 0))
    assert report["warnings"] == unit["warnings"]
    assert report["results"].keys() == unit["results"].keys()
    for key, value in unit["results"].items():
        if key not in FLUCTUATE_DIMENSIONS or value is None:
            assert report["results"][key] == value, key
            continue
        power = sum(d * u for d, u in zip(FLUCTUATE_DIMENSIONS[key], units))
        scaled = ([math.ldexp(v, power) for v in value]
                  if isinstance(value, list) else math.ldexp(value, power))
        assert report["results"][key] == scaled, key


# units whose eigen run must exit 0: their hbar^2 alone overflows, but
# the kinetic scale hbar^2 / (2 m dx^2) is finite
MUST_SOLVE = {(188, 102, -179)}


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(units=st.tuples(st.integers(-100, 100).map(lambda a: 2 * a),
                       st.integers(-200, 200), st.integers(-200, 200)))
@example(units=(0, 100, 550))
@example(units=(0, 100, 530))
@example(units=(0, -100, -550))
@example(units=(40, 20, -30))
@example(units=(188, 102, -179))
def test_eigen_reports_scale_with_power_of_two_units(tmp_path, units):
    # every eigen result is an energy, E M L^2 / T^2: an exit-0 report is
    # the unit report times it, bit for bit, also where the bands are
    # scaled for LAPACK. Lengths change by even powers of two, since the
    # eigenfunctions scale by the square root of the length unit
    code, report = run_in_units(tmp_path, "eigen", "eigen_harmonic.json",
                                units)
    if code != cli.EXIT_OK:
        assert units not in MUST_SOLVE
        return
    _, unit = run_in_units(tmp_path, "eigen", "eigen_harmonic.json",
                           (0, 0, 0))
    l, m, t = units
    assert report["warnings"] == unit["warnings"]
    assert report["results"].keys() == unit["results"].keys() == {
        "eigenvalues", "residuals", "refined_eigenvalues"}
    for key, values in unit["results"].items():
        scaled = [math.ldexp(v, 2 * l + m - 2 * t) for v in values]
        assert report["results"][key] == scaled, key


# shipped config -> (scenario, the step of its length exponent, its report
# keys' dimensions as powers of length, mass and time). A key not listed
# is a pure number, a flag or a label, and must keep its value; a key
# listed as None does not scale by its definition, and is not compared:
# - bracket_scale adds squares of different dimension in each of its two
#   norms, (hbar / L)^2 with 1 / L^4, and E^2 with 1 / (L T)^2, and so
#   bracket_consistent, which weighs a force against it and an absolute
#   WEAK_ATOL, flips too: at 2^(-30, -94, -134) the bracket, -5.9e28, is
#   above 1e-4 of the scale, 3.4e31;
# - classical_force_vanishes weighs a force against 1e-10 max|V|, an
#   energy, plus an absolute 1e-12;
# - vanishing-momentum's density_rate comes from a Crank-Nicolson run of
#   200 steps of dt = 1e-3 in the config's time unit.
# Eigenstates scale by the square root of the length unit, so lengths
# change by even powers of two. The fields route (evolve,
# compare-propagators) keeps its bits under mass and time units only: in
# another length unit u = ln(rho) / 2 of a density in 1 / L shifts by a
# constant that no float holds exactly, so lengths are not changed there.
ENERGY, MOMENTUM, FORCE = (2, 1, -2), (1, 1, -1), (1, 1, -2)
SCALED_CONFIGS = {
    "constraint_ground.json": ("constraint-check", 2, {
        "energy": ENERGY, "ensemble_energy": ENERGY,
        "density_residual_max": ENERGY, "action_residual_max": (-1, 0, -1),
        "local_momentum_value": MOMENTUM, "bracket_value": FORCE,
        "bracket_scale": None, "bracket_consistent": None,
        "classical_force_peak": FORCE,
        "classical_force_vanishes": None}),
    "vanishing_momentum.json": ("vanishing-momentum", 2, {
        "energy": ENERGY, "stationarity_residual": ENERGY,
        "energy_gap": ENERGY, "multiplier": (1, 0, -1),
        "momentum_gradient": MOMENTUM, "momentum_norm": MOMENTUM,
        "amplitude_momentum_norm": MOMENTUM, "nonlinear_residual": MOMENTUM,
        "density_rate": None}),
    "three_route.json": ("three-route", 2, {
        "energy_reduced": ENERGY, "energy_operator": ENERGY,
        "energy_extremal": ENERGY, "max_gap": ENERGY,
        "stationarity_residual": ENERGY, "action_residual": (-2, 0, -1),
        "total_momentum": MOMENTUM, "relative_density": (-3, 0, 0)}),
    "bipartite_ground.json": ("bipartite", 2, {
        "ground_energy": ENERGY, "information_a": (0, 0, -1),
        "information_b": (0, 0, -1), "translation_force_peak": FORCE}),
    "evolve_coherent.json": ("evolve", 0, {
        "times": (0, 0, 1), "final_mean": (1, 0, 0),
        "final_variance": (2, 0, 0)}),
    "compare_propagators.json": ("compare-propagators", 0, {
        "elapsed_time": (0, 0, 1)}),
}

# (config, units) that must exit 0: energy units of 2^540 and 2^604, where
# the wall rows' roundoff on the constant S = -E t of a slice with t != 0
# squares past the float range in the kinetic density; the residuals are
# read at t = 0, where S = 0
MUST_SCALE = {("constraint_ground.json", (0, 0, -270)),
              ("constraint_ground.json", (2, 0, -300)),
              ("vanishing_momentum.json", (2, 0, -300))}
# units where d rho/dx squares past the float range in config units: the
# information density takes its squares at a power of two, so these run
# without a numpy warning too
MUST_SCALE_QUIETLY = {("three_route.json", (-192, -42, 22)),
                      ("three_route.json", (-196, 65, -140))}


def assert_scaled(report, unit, dims: dict, units, path="results"):
    """report is unit with each number times 2^(its key's dimension .
    units), bit for bit; rows of a list are compared key by key."""
    assert report.keys() == unit.keys(), path
    for key, value in unit.items():
        got, dim = report[key], dims.get(key, (0, 0, 0))
        if dim is None:
            continue
        if isinstance(value, list) and value and isinstance(value[0], dict):
            assert len(got) == len(value), f"{path}.{key}"
            for j, (row, unit_row) in enumerate(zip(got, value)):
                assert_scaled(row, unit_row, dims, units, f"{path}.{key}[{j}]")
            continue
        power = sum(d * u for d, u in zip(dim, units))
        scale = (lambda v: math.ldexp(v, power)
                 if isinstance(v, float) else v)
        expected = ([scale(v) for v in value] if isinstance(value, list)
                    else scale(value))
        assert got == expected, f"{path}.{key}"


@st.composite
def scaled_cases(draw):
    name = draw(st.sampled_from(sorted(SCALED_CONFIGS)))
    step = SCALED_CONFIGS[name][1]
    return name, (step * draw(st.integers(-100, 100)),
                  draw(st.integers(-200, 200)), draw(st.integers(-200, 200)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=scaled_cases())
@example(case=("constraint_ground.json", (0, 0, -270)))
@example(case=("constraint_ground.json", (2, 0, -300)))
@example(case=("vanishing_momentum.json", (2, 0, -300)))
@example(case=("three_route.json", (40, 20, -30)))
@example(case=("bipartite_ground.json", (-100, 60, 90)))
@example(case=("evolve_coherent.json", (0, -5, 7)))
@example(case=("compare_propagators.json", (0, 20, -30)))
@example(case=("three_route.json", (-192, -42, 22)))
@example(case=("three_route.json", (-196, 65, -140)))
def test_reports_scale_with_power_of_two_units(tmp_path, case):
    # the other six shipped configs: an exit-0 report is the unit report
    # times each key's dimension, bit for bit; run_in_units checks that
    # any other exit prints its message
    name, units = case
    scenario, _, dims = SCALED_CONFIGS[name]
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code, report = run_in_units(tmp_path, scenario, name, units)
    if case in MUST_SCALE_QUIETLY:
        assert [str(w.message) for w in shown
                if issubclass(w.category, RuntimeWarning)] == []
    if code != cli.EXIT_OK:
        assert case not in MUST_SCALE | MUST_SCALE_QUIETLY
        return
    _, unit = run_in_units(tmp_path, scenario, name, (0, 0, 0))
    assert report["warnings"] == unit["warnings"]
    assert_scaled(report["results"], unit["results"], dims, units)
    if scenario == "three-route":
        assert report["results"]["total_momentum"] == 0.0


def test_pair_with_huge_sigmas_writes_its_covariance_sigma(tmp_path):
    # sample variances 1.3e259 and 8.8e190: their product overflows, so
    # covariance_mc_sigma takes the square roots first
    cfg = {"system": {"hbar": 7.9e199, "mass": [1.65e-115, 1.69e-47]},
           "dt": 4.09e-56, "samples": 100, "seed": 3}
    out = tmp_path / "out"
    assert cli.main(["fluctuate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    res = json.loads((out / "fluctuate_report.json").read_text())["results"]
    var_a, var_b = res["sample_variance"]
    assert var_a * var_b == math.inf
    assert res["covariance_mc_sigma"] == pytest.approx(
        math.sqrt(var_a) * math.sqrt(var_b) / 10.0, rel=1e-15)
    assert res["covariance_mc_sigma"] == pytest.approx(9.568e223, rel=1e-3)


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


# keys whose size sets the run time, bounded so a passing run stays quick
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

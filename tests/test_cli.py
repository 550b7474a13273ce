import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satprecode.cli
import satprecode.evaluate
import satprecode.precoding
from satprecode.cli import main
from satprecode.config import _SCHEMA, ScenarioConfig, config_echo, parse_config
from satprecode.evaluate import run_monte_carlo
from satprecode.exceptions import ConfigError
from satprecode.gateway import overhead_per_gateway

from oracles import curve_csv_per_cell, results_csv_per_cell

MINIMAL = """
[channel]
beams = 7
users_per_beam = 2

[run]
scenarios = mbim
trials = 4
power_sweep_dbw = 25
seed = 3
"""


# 13 beams over 3 gateways split 5/4/4: ranking the closest peer by index
# and by beam-cluster centroid distance disagree for gateway 2.
UNEQUAL_SPLIT = """
[channel]
beams = 13

[run]
scenarios = gw_closest:1, gw_icp, gw_msvdgc
trials = 1
power_sweep_dbw = 40

[gateway]
gateways = 3
"""


@pytest.fixture
def minimal_cfg(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text(MINIMAL)
    return path


@pytest.fixture
def unequal_split_cfg(tmp_path):
    path = tmp_path / "unequal.cfg"
    path.write_text(UNEQUAL_SPLIT)
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, minimal_cfg):
        cfg = parse_config(minimal_cfg)
        assert cfg.beams == 7
        assert cfg.pool_per_beam == 2
        assert cfg.rolloff == 0.25
        echo = config_echo(cfg)
        assert any(line.startswith("link_budget.rolloff = 0.25") for line in echo)
        assert any(line.startswith("run.grouping = none") for line in echo)

    def test_every_schema_key_echoed(self, minimal_cfg):
        from satprecode.config import _SCHEMA

        echo = config_echo(parse_config(minimal_cfg))
        for section, keys in _SCHEMA.items():
            for key in keys:
                assert any(line.startswith(f"{section}.{key} =") for line in echo)

    def test_schema_keys_are_the_config_fields_in_order(self):
        from satprecode.config import _SCHEMA

        keys = [key for keys in _SCHEMA.values() for key in keys]
        assert keys == [f.name for f in dataclasses.fields(ScenarioConfig)]

    def test_pool_smaller_than_group_names_both_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[channel]\nusers_per_beam = 3\npool_per_beam = 2\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "pool_per_beam" in str(err.value)
        assert "users_per_beam" in str(err.value)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[channel]\nbeamz = 7\n")
        with pytest.raises(ConfigError, match="beamz"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[orbit]\nheight = 1\n")
        with pytest.raises(ConfigError, match="orbit"):
            parse_config(path)

    def test_type_error_names_key_and_type(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\ntrials = many\n")
        with pytest.raises(ConfigError, match="run.trials expects int"):
            parse_config(path)

    def test_float_type_error_names_key_and_type(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[link_budget]\nrolloff = steep\n")
        with pytest.raises(ConfigError, match="link_budget.rolloff expects float"):
            parse_config(path)

    def test_bad_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nscenarios = warp_drive\n")
        with pytest.raises(ConfigError, match="warp_drive"):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")


class TestShippedConfigs:
    def shipped(self, name):
        from importlib import resources

        ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
        with resources.as_file(ref) as path:
            return parse_config(path)

    def test_paper_scale_dimensions(self):
        cfg = self.shipped("paper_scale.cfg")
        assert cfg.beams == 245
        assert cfg.beams * cfg.feeds_per_beam == 245
        assert cfg.users_per_beam in (2, 3)
        assert cfg.trials == 500
        assert cfg.pool_per_beam == 200
        assert cfg.phase_sigma_deg == 10.0

    def test_scheme_comparison_recipe(self):
        cfg = self.shipped("figure3_recipe.cfg")
        assert len(cfg.power_sweep_dbw) >= 6
        assert set(cfg.scenarios) == {"mbim", "rzf", "avg_mmse", "four_color"}
        assert cfg.trials == 500

    def test_gateway_recipe(self):
        cfg = self.shipped("gateway_desk.cfg")
        assert cfg.gateways == 3
        assert cfg.beams == 12

    def test_desk_recipe(self):
        cfg = self.shipped("desk.cfg")
        assert cfg.beams == 7


class TestCliVerbs:
    def test_validate_exits_zero(self, minimal_cfg, capsys):
        code = main(["validate", "--config", str(minimal_cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "channel.beams = 7" in out
        assert "execution plan" in out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\ntrials = -3\n")
        code = main(["validate", "--config", str(path)])
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_dry_run_produces_no_artifacts(self, minimal_cfg, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(minimal_cfg), "--out",
                     str(out_dir), "--dry-run"])
        assert code == 0
        assert "execution plan" in capsys.readouterr().out
        assert not out_dir.exists()

    def test_run_writes_results_and_summary(self, minimal_cfg, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(minimal_cfg), "--out", str(out_dir)])
        assert code == 0
        results = (out_dir / "results.csv").read_text()
        assert "# run.seed = 3" in results
        assert "scenario,p_total_dbw,beam" in results
        summary = (out_dir / "summary.txt").read_text()
        assert "skipped_cells: 0" in summary
        fields = dict(line.split(": ", 1) for line in summary.splitlines()
                      if ": " in line and not line.startswith(" "))
        assert float(fields["peak_rss_mib"]) > 0
        assert int(fields["minor_page_faults"]) > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario, p_dbw", [
        # The precoder underflows, so its power norm is 0.
        ("avg_mmse", "-3000"),
    ])
    def test_unscalable_power_skips_every_cell(self, tmp_path, capsys,
                                               scenario, p_dbw):
        path = tmp_path / "extreme.cfg"
        path.write_text(f"[run]\ntrials = 2\nscenarios = {scenario}\n"
                        f"power_sweep_dbw = {p_dbw}\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert "2/2 scenario cells skipped" in capsys.readouterr().err
        lines = (out_dir / "results.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert len(rows) == 7
        for row in rows:
            assert (row["trials"], row["skipped"]) == ("0", "2")
            assert math.isnan(float(row["mean_throughput_bps"]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rzf_stands_at_an_extreme_power(self, tmp_path, capsys):
        # The design is scale-free: at 3000 dBW the regularizer KQ/P_T is
        # 1e-300, and the zero-forcing precoder it tends to still has a
        # finite power scale, so no cell is skipped.
        path = tmp_path / "extreme.cfg"
        path.write_text("[run]\ntrials = 2\nscenarios = rzf\n"
                        "power_sweep_dbw = 3000\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        assert "skipped" not in capsys.readouterr().err
        lines = (out_dir / "results.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert len(rows) == 7
        for row in rows:
            assert (row["trials"], row["skipped"]) == ("2", "0")
            assert math.isfinite(float(row["mean_throughput_bps"]))

    def test_run_writes_one_curve_file_per_scenario(self, tmp_path):
        path = tmp_path / "multi.cfg"
        path.write_text(
            "[channel]\nbeams = 7\n\n[run]\nscenarios = mbim, four_color\n"
            "trials = 3\npower_sweep_dbw = 20, 25, 30, 35, 40, 45\nseed = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        for name in ("mbim", "four_color"):
            lines = (out_dir / f"curve_{name}.csv").read_text().splitlines()
            assert lines[0] == "p_total_dbw,mean_throughput_bps,std_throughput_bps"
            assert len(lines) == 1 + 6

    def test_output_path_collision_fails_cleanly(self, minimal_cfg, tmp_path,
                                                 capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["run", "--config", str(minimal_cfg), "--out", str(blocker)])
        assert code == 2
        assert "not writable" in capsys.readouterr().err

    def test_identical_runs_byte_identical_results(self, minimal_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(minimal_cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(minimal_cfg), "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_seed_override_changes_results(self, minimal_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(minimal_cfg), "--out", str(a)])
        main(["run", "--config", str(minimal_cfg), "--out", str(b),
              "--seed", "99"])
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_sweep_verb_overrides_power_points(self, minimal_cfg, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(minimal_cfg), "--out",
                     str(out_dir), "--power-dbw", "20,30"])
        assert code == 0
        text = (out_dir / "results.csv").read_text()
        assert ",20.0," in text and ",30.0," in text
        assert ",25.0," not in text

    @pytest.mark.parametrize("points", ["20,abc", "20,nan", "20,20", "20,4000",
                                        "20,-4000"])
    def test_sweep_rejects_bad_power_points(self, minimal_cfg, tmp_path,
                                            capsys, points):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(minimal_cfg), "--out",
                     str(out_dir), "--power-dbw", points])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_overhead_verb_writes_accounting(self, tmp_path):
        path = tmp_path / "gw.cfg"
        path.write_text(
            "[channel]\nbeams = 12\n\n[run]\nscenarios = gw_closest:2\n"
            "trials = 1\npower_sweep_dbw = 30\n\n"
            "[gateway]\ngateways = 3\n"
        )
        out_dir = tmp_path / "out"
        code = main(["overhead", "--config", str(path), "--out", str(out_dir)])
        assert code == 0
        text = (out_dir / "overhead.csv").read_text()
        assert "closest:2,3,4,4,64" in text

    def test_mostly_skipped_run_fails(self, tmp_path, capsys):
        path = tmp_path / "fail.cfg"
        path.write_text(
            "[channel]\nbeams = 7\n\n[run]\nscenarios = gw_icp\ntrials = 3\n"
            "power_sweep_dbw = 25\n\n[gateway]\ngateways = 7\n"
        )
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out_dir)])
        assert code == 1
        assert "skipped" in capsys.readouterr().err

    def test_overhead_counts_the_simulated_plans(self, unequal_split_cfg,
                                                 tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(unequal_split_cfg), "--out",
                     str(out_dir)]) == 0
        with open(out_dir / "overhead.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        plans = run_monte_carlo(parse_config(unequal_split_cfg)).plans
        expected = []
        for name, label in (("gw_closest:1", "closest:1"), ("gw_icp", "icp"),
                            ("gw_msvdgc", "msvdgc")):
            plan = plans[name]
            counts = overhead_per_gateway(plan)
            expected += [
                [label, "3", str(plan.beams_per_gateway[g]),
                 str(plan.feeds_per_gateway[g]), str(counts[g])]
                for g in range(3)
            ]
        assert rows == expected
        # Every gateway's closest cluster is the 5-beam one or sees it.
        assert [row[4] for row in rows[:3]] == ["40", "40", "40"]

    def test_run_and_overhead_verbs_write_the_same_report(
            self, unequal_split_cfg, tmp_path):
        a, b = tmp_path / "run", tmp_path / "overhead"
        assert main(["run", "--config", str(unequal_split_cfg), "--out",
                     str(a)]) == 0
        assert main(["overhead", "--config", str(unequal_split_cfg), "--out",
                     str(b)]) == 0
        assert (a / "overhead.csv").read_bytes() == (b / "overhead.csv").read_bytes()

    def test_run_builds_layout_and_plans_once(self, unequal_split_cfg,
                                              tmp_path, monkeypatch):
        calls = {"hex_layout": 0, "make_plan": 0}
        for name in calls:
            original = getattr(satprecode.evaluate, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(satprecode.evaluate, name, counting)
        assert main(["run", "--config", str(unequal_split_cfg), "--out",
                     str(tmp_path / "out")]) == 0
        assert calls == {"hex_layout": 1, "make_plan": 3}

    @pytest.mark.parametrize("body", [
        # A cooperation count needs that many peers besides the gateway.
        "[channel]\nbeams = 12\n[run]\nscenarios = gw_closest:3\n"
        "[gateway]\ngateways = 3\n",
        # A repeated name would write every row twice.
        "[run]\nscenarios = mbim, mbim\n",
        # gateway_mode = closest needs closest_c peers besides the gateway,
        # though only the echo reads either key.
        "[channel]\nbeams = 12\n[run]\nscenarios = mbim\n"
        "[gateway]\ngateways = 3\ngateway_mode = closest\nclosest_c = 3\n",
        # Only gw_closest carries a count.
        "[run]\nscenarios = mbim:3\n",
    ], ids=["closest_count", "repeated_name", "closest_c", "suffix"])
    @pytest.mark.parametrize("verb", ["validate", "run", "overhead"])
    def test_bad_scenario_list_exits_2(self, tmp_path, capsys, body, verb):
        path = tmp_path / "bad.cfg"
        path.write_text(body.replace("[run]\n", "[run]\ntrials = 1\n"))
        out_dir = tmp_path / "out"
        code = main([verb, "--config", str(path), "--out", str(out_dir)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("gateway", ["", "[gateway]\ngateways = 3\n"
                                         "gateway_mode = closest\n"])
    def test_overhead_needs_a_gateway_scenario(self, minimal_cfg, tmp_path,
                                               capsys, gateway):
        # overhead reports the configured gw_* plans and nothing else.
        path = tmp_path / "no_gw.cfg"
        path.write_text(minimal_cfg.read_text() + gateway)
        out_dir = tmp_path / "out"
        code = main(["overhead", "--config", str(path), "--out", str(out_dir)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()
        assert main(["validate", "--config", str(path)]) == 0

    def test_overhead_verb_rejects_bad_geometry(self, tmp_path, capsys):
        path = tmp_path / "polar.cfg"
        path.write_text(
            "[channel]\nbeams = 12\ncenter_lat = 85\n\n"
            "[run]\nscenarios = gw_icp\n\n[gateway]\ngateways = 3\n"
        )
        out_dir = tmp_path / "out"
        code = main(["overhead", "--config", str(path), "--out", str(out_dir)])
        assert code == 2
        assert "below the horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("[channel]\nbeams = 12\ncenter_lat = 85\n", "below the horizon"),
        ("[channel]\nbeam_radius_3db_deg = 3\nbeam_spacing_deg = 1\n",
         "share a color"),
    ], ids=["below_horizon", "color_clash"])
    @pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
    def test_rejected_layout_exits_2(self, tmp_path, capsys, body, message,
                                     verb):
        path = tmp_path / "bad.cfg"
        path.write_text(body + "\n[run]\ntrials = 1\nscenarios = mbim\n")
        out_dir = tmp_path / "out"
        argv = [verb, "--config", str(path), "--out", str(out_dir)]
        if verb == "sweep":
            argv += ["--power-dbw", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("run", "csi_error_ratio", "nan"),
        ("run", "csi_error_ratio", "inf"),
        ("channel", "center_lat", "nan"),
        ("channel", "phase_sigma_deg", "inf"),
        ("link_budget", "g_over_t_db", "-inf"),
        ("channel", "phase_sigma_deg", "-1"),
        ("channel", "center_lat", "-90.5"),
        ("channel", "beam_spacing_deg", "0"),
    ], ids=["nan_csi_error", "inf_csi_error", "nan_lat", "inf_phase_sigma",
            "minus_inf_g_over_t", "negative_phase_sigma", "lat_beyond_pole",
            "zero_spacing"])
    @pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
    def test_bad_float_exits_2_naming_its_key(self, tmp_path, capsys, section,
                                              key, value, verb):
        path = tmp_path / "bad.cfg"
        path.write_text(_config_text({(section, key): value}))
        out_dir = tmp_path / "out"
        argv = [verb, "--config", str(path), "--out", str(out_dir)]
        if verb == "sweep":
            argv += ["--power-dbw", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key} must")
        assert not out_dir.exists()

    @pytest.mark.parametrize("run_keys, extra, message", [
        ("seed = -1\n", [], "error: run.seed must"),
        ("", ["--seed", "-1"], "error: run.seed must"),
        # 10**400.0 overflows a float; 10**-400.0 is 0 W, so KQ/P_T is not
        # finite.
        ("power_sweep_dbw = 15, 4000\n", [], "error: run.power_sweep_dbw"),
        ("power_sweep_dbw = 15, -4000\n", [], "error: run.power_sweep_dbw"),
        ("modcod_file = {dir}/non_numeric.txt\n", [], "non_numeric.txt:2:"),
        ("modcod_file = {dir}/repeated.txt\n", [],
         "repeated.txt: thresholds must be strictly increasing"),
        # Every threshold below the SINRs: an infinite or NaN top
        # efficiency would be paid to every beam, a NaN threshold sorted
        # into the table.
        ("modcod_file = {dir}/inf_efficiency.txt\n", [],
         "inf_efficiency.txt: thresholds and efficiencies must be finite"),
        ("modcod_file = {dir}/nan_efficiency.txt\n", [],
         "nan_efficiency.txt: thresholds and efficiencies must be finite"),
        ("modcod_file = {dir}/nan_threshold.txt\n", [],
         "nan_threshold.txt: thresholds and efficiencies must be finite"),
    ], ids=["negative_seed", "negative_seed_flag", "power_overflows",
            "power_underflows", "modcod_non_numeric", "modcod_repeated",
            "modcod_inf_efficiency", "modcod_nan_efficiency",
            "modcod_nan_threshold"])
    @pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
    def test_unusable_run_input_exits_2(self, tmp_path, capsys, run_keys,
                                        extra, message, verb):
        (tmp_path / "non_numeric.txt").write_text("0.0 1.0\nabc def\n")
        (tmp_path / "repeated.txt").write_text("0.0 1.0\n0.0 2.0\n")
        (tmp_path / "inf_efficiency.txt").write_text("-50 1.0\n-40 inf\n")
        (tmp_path / "nan_efficiency.txt").write_text("-50 1.0\n-40 nan\n")
        (tmp_path / "nan_threshold.txt").write_text("-50 1.0\nnan 1.0\n")
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\ntrials = 1\nscenarios = mbim\n"
                        + run_keys.format(dir=tmp_path))
        out_dir = tmp_path / "out"
        argv = [verb, "--config", str(path), "--out", str(out_dir), *extra]
        if verb == "sweep":
            argv += ["--power-dbw", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not out_dir.exists()


def _desk_cfg() -> Path:
    return Path(satprecode.cli.__file__).parent / "data" / "configs" / "desk.cfg"


def _outputs(out_dir: Path) -> dict:
    """The bytes of every output a run writes but the timestamped summary."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


class TestAllocatorPolicy:
    """`run` and `sweep` set glibc's allocator policy; no output depends on it."""

    @staticmethod
    def _fresh_run(out_dir: Path, policy: bool) -> None:
        """`run` on desk.cfg in a fresh interpreter, whose allocator no
        earlier run has touched."""
        script = ("import sys, satprecode.cli as cli\n"
                  + ("" if policy else "cli._keep_freed_heap = lambda: None\n")
                  + "sys.exit(cli.main(sys.argv[1:]))")
        env = {**os.environ,
               "PYTHONPATH": str(Path(satprecode.cli.__file__).parents[1])}
        subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(_desk_cfg()),
             "--out", str(out_dir)],
            env=env, check=True, capture_output=True, timeout=120,
        )

    def test_policy_changes_no_output_byte(self, tmp_path):
        self._fresh_run(tmp_path / "default", policy=False)
        self._fresh_run(tmp_path / "policy", policy=True)
        default = _outputs(tmp_path / "default")
        assert "results.csv" in default and "curve_mbim.csv" in default
        assert _outputs(tmp_path / "policy") == default

    @pytest.mark.parametrize("cdll", [
        lambda name: types.SimpleNamespace(),  # a C library without mallopt
        mock.Mock(side_effect=OSError("no C library")),
    ])
    def test_run_without_mallopt_writes_the_same_bytes(self, tmp_path,
                                                       monkeypatch, cdll):
        argv = ["run", "--config", str(_desk_cfg())]
        assert main([*argv, "--out", str(tmp_path / "policy")]) == 0
        monkeypatch.setattr(satprecode.cli.ctypes, "CDLL", cdll)
        assert main([*argv, "--out", str(tmp_path / "none")]) == 0
        assert _outputs(tmp_path / "none") == _outputs(tmp_path / "policy")

    @pytest.mark.parametrize("argv, calls", [
        (["validate"], 0),
        (["run", "--dry-run"], 0),
        (["sweep", "--power-dbw", "30", "--dry-run"], 0),
        (["overhead"], 0),
        (["run"], 1),
        (["sweep", "--power-dbw", "30"], 1),
    ])
    def test_only_run_and_sweep_set_the_policy(self, tmp_path, monkeypatch,
                                               capsys, argv, calls):
        path = tmp_path / "gw.cfg"
        path.write_text("[channel]\nbeams = 7\n\n[run]\nscenarios = gw_icp\n"
                        "trials = 1\npower_sweep_dbw = 25\n\n"
                        "[gateway]\ngateways = 2\n")
        seen = []
        monkeypatch.setattr(satprecode.cli, "_keep_freed_heap",
                            lambda: seen.append(1))
        verb, *rest = argv
        assert main([verb, "--config", str(path), "--out",
                     str(tmp_path / "out"), *rest]) == 0
        assert len(seen) == calls


class TestOutputsMatchPerCellReference:
    """`results.csv` and every curve file against the per-cell oracle,
    with skipped trials and with none at all. Warnings are errors, as in
    the installed-console-script CI step: an all-skipped cell must not
    raise "Mean of empty slice"."""

    @staticmethod
    def _run(tmp_path, monkeypatch, trials):
        path = tmp_path / "skips.cfg"
        path.write_text(
            "[channel]\nbeams = 7\n\n[run]\n"
            "scenarios = mbim, avg_mmse, four_color\n"
            f"trials = {trials}\npower_sweep_dbw = 20, 25, 30\nseed = 6\n"
        )
        results = []

        def keeping(*args):
            results.append(run_monte_carlo(*args))
            return results[-1]

        monkeypatch.setattr(satprecode.cli, "run_monte_carlo", keeping)
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(out_dir)])
            (result,) = results
            header = [line[2:] for line in
                      (out_dir / "results.csv").read_text().splitlines()
                      if line.startswith("# ")]
            assert (out_dir / "results.csv").read_bytes() == \
                results_csv_per_cell(result, header).encode()
            for name in result.scenarios:
                assert (out_dir / f"curve_{name}.csv").read_bytes() == \
                    curve_csv_per_cell(result, name).encode()
        return code, result

    @pytest.mark.parametrize("trials, failing", [
        # 2 of 4 trials; and 2 of 11, which leaves 9 survivors, so the
        # curve sums run the 8-way unrolled pairwise reduction.
        (4, {1, 3}),
        (11, {0, 6}),
    ])
    def test_skipped_trials(self, tmp_path, monkeypatch, trials, failing):
        trial = iter(range(trials))
        current = []
        original_channels = satprecode.evaluate._trial_channels
        original_avg = satprecode.precoding._avg_mmse_unscaled
        original_four = satprecode.evaluate.baseline_four_color

        def counting_channels(*args):
            current[:] = [next(trial)]
            return original_channels(*args)

        def avg_failing_at_25_dbw(ch, p_w):
            if current[0] in failing and np.any(p_w == 10.0 ** 2.5):
                raise np.linalg.LinAlgError("modelled failure")
            return original_avg(ch, p_w)

        def four_color_failing_at_30_dbw(ch, layout, p_w):
            if np.any(p_w == 1000.0):
                raise np.linalg.LinAlgError("modelled failure")
            return original_four(ch, layout, p_w)

        monkeypatch.setattr(satprecode.evaluate, "_trial_channels",
                            counting_channels)
        # avg_mmse's precoder, in the stacked pass and on its own.
        for module in (satprecode.evaluate, satprecode.precoding):
            monkeypatch.setattr(module, "_avg_mmse_unscaled",
                                avg_failing_at_25_dbw)
        monkeypatch.setattr(satprecode.evaluate, "baseline_four_color",
                            four_color_failing_at_30_dbw)
        code, result = self._run(tmp_path, monkeypatch, trials)
        # Rows mbim, avg_mmse, four_color; columns 20, 25, 30 dBW.
        assert result.skipped.tolist() == [
            [0, 0, 0], [0, len(failing), 0], [0, 0, trials]]
        assert code == 1

    def test_zero_trials(self, tmp_path, monkeypatch):
        code, result = self._run(tmp_path, monkeypatch, 0)
        assert result.throughput.shape == (3, 3, 0, 7)
        assert code == 0


def _config_text(overrides: dict) -> str:
    """A one-trial, one-power config with `overrides` {(section, key): value}."""
    sections = {"run": {"trials": "1", "power_sweep_dbw": "25",
                        "scenarios": "rzf, four_color"}}
    for (section, key), value in overrides.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        sections.setdefault(section, {})[key] = str(value)
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )


def _schema_keys(kind: type) -> list[tuple[str, str]]:
    return [(section, key) for section, keys in _SCHEMA.items()
            for key in keys if type(getattr(ScenarioConfig, key)) is kind]


_FLOAT_KEYS = _schema_keys(float)
_INT_KEYS = _schema_keys(int)

# 10**400.0 overflows a float and 10**-400.0 is 0 W.
_UNUSABLE_POWERS = (4000.0, -4000.0)


@st.composite
def _overrides(draw):
    """A few float keys set to a valid, negative or non-finite value, a few
    int keys to a small or negative value, and maybe a power sweep with an
    unusable point."""
    keys = draw(st.lists(st.sampled_from(_FLOAT_KEYS + _INT_KEYS), max_size=3,
                         unique=True))
    overrides = {}
    for section, key in keys:
        default = getattr(ScenarioConfig, key)
        if isinstance(default, float):
            choices = [1.1 * default, -(abs(default) + 0.5), math.nan,
                       math.inf, -math.inf]
        else:
            choices = [1, 2, 0, -1]
        overrides[(section, key)] = draw(st.sampled_from(choices))
    if draw(st.booleans()):
        overrides[("run", "power_sweep_dbw")] = tuple(draw(st.lists(
            st.sampled_from((25.0, 10.0) + _UNUSABLE_POWERS),
            min_size=1, max_size=2, unique=True)))
    return overrides


def _exit_code(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error:")
    return code


@settings(deadline=None, max_examples=60)
@given(_overrides(), st.integers(1, 3))
@example({("run", "csi_error_ratio"): math.nan}, 3)
@example({("run", "csi_error_ratio"): math.inf}, 3)
@example({("channel", "center_lat"): math.nan}, 3)
@example({("channel", "phase_sigma_deg"): math.inf}, 3)
@example({("run", "seed"): -1}, 3)
@example({("run", "power_sweep_dbw"): (25.0, 4000.0)}, 3)
@example({("run", "power_sweep_dbw"): (25.0, -4000.0)}, 3)
def test_validate_and_run_agree_and_reject_non_finite_floats(overrides, beams):
    """`validate` and a one-trial `run` exit 0 or 2 (never a traceback), agree,
    and a non-finite float, a negative seed or an unusable power point always
    exits 2."""
    overrides.setdefault(("channel", "beams"), beams)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.cfg"
        path.write_text(_config_text(overrides))
        checked = _exit_code(["validate", "--config", str(path)])
        ran = _exit_code(["run", "--config", str(path), "--out",
                          str(Path(tmp) / "out")])
    assert checked == ran
    powers = overrides.get(("run", "power_sweep_dbw"), ())
    if (any(isinstance(v, float) and not math.isfinite(v)
            for v in overrides.values())
            or overrides.get(("run", "seed"), 0) < 0
            or set(powers) & set(_UNUSABLE_POWERS)):
        assert checked == 2

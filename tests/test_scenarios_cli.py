"""Scenario configs, runners, report determinism, and the CLI contract."""

import json
import math
import pathlib
from dataclasses import replace

import pytest

from dyadlab.cli import main
from dyadlab.lattice import max_depth
from dyadlab.scenarios import (
    ConfigError,
    ScenarioConfig,
    ap_window_grid,
    make_family,
    parse_config,
    run_characteristics,
    run_counterexample,
    run_domination,
)


CONFIG_TEXT = """
# comment lines and blanks are fine

[scenario]
name = unit
dim = 1
depth = 6
depth_min = 5
trials = 3
subcollections = 2
family_size = 2
restarts = 4
iterations = 10
p = 4
q = 2

[weights]
mu = power(1.0)
lam = lebesgue
"""

HEADER_KEYS = ("schema", "scenario", "seed", "dim", "depth", "half_width")
POWERS_AT_0 = "\n[weights]\nmu = power(1.0)\nlam = power(-0.5)\n"


def _numbers(obj):
    """Every numeric leaf of a JSON value."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _check_report(out_a, out_b, stem, keys):
    """The report carries the header and `keys`, only finite numbers, and a rerun's bytes."""
    report = json.loads((out_a / f"{stem}.json").read_text())
    assert [k for k in HEADER_KEYS + keys if k not in report] == []
    assert all(math.isfinite(v) for v in _numbers(report))
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    return report


def _strict_json(path):
    """The JSON of a file, refusing the NaN and infinity tokens that strict JSON lacks."""

    def refuse(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestConfigParsing:
    def test_full_round(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.name == "unit" and cfg.depth == 6 and cfg.mu == "power(1.0)"
        assert cfg.half_width == 4.0  # desk default K = 2

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError) as err:
            parse_config("depth = 6\nbogus line\n")
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("\nwibble = 3\n")
        assert "line 2" in str(err.value)

    def test_type_errors_carry_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\ndepth = three\n")
        assert "line 2" in str(err.value)

    def test_guard_rails(self):
        with pytest.raises(ConfigError):
            parse_config("[scenario]\ndim = 2\ndepth = 9\n")
        with pytest.raises(ConfigError):
            ScenarioConfig(p=1.0)

    @pytest.mark.parametrize("dim,depth", [(1, 14), (2, 8), (3, 5), (5, 3)])
    def test_guard_rail_bounds_the_cell_count(self, dim, depth):
        """The deepest accepted tree has at most 2^16 cells; one level more is refused."""
        assert depth == max_depth(dim)
        assert ScenarioConfig(dim=dim, depth=depth).tree().n_cells <= 2**16
        with pytest.raises(ConfigError, match="guard rail"):
            ScenarioConfig(dim=dim, depth=depth + 1)

    @pytest.mark.parametrize("dim,depth,exponent,ok", [
        (1, 8, 1022, True), (1, 8, 1023, False), (2, 8, 510, True), (2, 8, 511, False),
        (1, 8, -1015, True), (1, 8, -1016, False), (2, 8, -504, True), (2, 8, -505, False),
    ])
    def test_half_width_keeps_volumes_normal_floats(self, dim, depth, exponent, ok):
        """2^(d(K+1)) and 2^(d(K+1-depth)), the root and cell volumes, are normal floats."""
        if ok:
            tree = ScenarioConfig(dim=dim, depth=depth, half_width_exponent=exponent).tree()
            assert 0.0 < tree.cell_volume and tree.volume(0) < math.inf
        else:
            with pytest.raises(ConfigError, match="half_width_exponent"):
                ScenarioConfig(dim=dim, depth=depth, half_width_exponent=exponent)


class TestFamilies:
    @pytest.mark.parametrize("name", ["half-splits", "random-haar", "indicators", "power-bumps", "spiky", "mixed"])
    def test_generators_produce_requested_count(self, name, rng):
        from dyadlab.lattice import DyadicTree

        tree = DyadicTree(1, 5, 1.0)
        fam = make_family(name, tree, 7, rng)
        assert len(fam) == 7
        assert all(g.tree == tree for g in fam)

    def test_unknown_family(self, rng):
        from dyadlab.lattice import DyadicTree

        with pytest.raises(ConfigError):
            make_family("nope", DyadicTree(1, 3, 1.0), 2, rng)


class TestWindowGrid:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_thirteen_points_bracketing(self, p):
        grid = ap_window_grid(p)
        assert len(grid) == (11 if p == 2.0 else 13)  # p = 2 repeats -0.5 and 0.5
        assert len(set(grid)) == len(grid)
        assert -1.0 in grid and (p - 1.0) in grid
        assert min(grid) < -1.0 and max(grid) > p - 1.0


class TestRunners:
    def test_characteristics_deterministic_bytes(self, tmp_path):
        cfg = parse_config(CONFIG_TEXT)
        cfg1 = ScenarioConfig(**{**cfg.__dict__, "out_dir": str(tmp_path / "a")})
        cfg2 = ScenarioConfig(**{**cfg.__dict__, "out_dir": str(tmp_path / "b")})
        run_characteristics(cfg1, sweep=False)
        run_characteristics(cfg2, sweep=False)
        for stem in ("characteristics.json", "characteristics.csv"):
            a = (tmp_path / "a" / stem).read_bytes()
            b = (tmp_path / "b" / stem).read_bytes()
            assert a == b

    def test_flat_weight_characteristics_all_one(self, tmp_path):
        cfg = ScenarioConfig(depth=6, depth_min=5, mu="lebesgue", lam="lebesgue",
                             out_dir=str(tmp_path))
        report = run_characteristics(cfg, sweep=False)
        for label in ("mu", "lam"):
            assert all(abs(v - 1.0) < 1e-12 for v in report["results"][label]["ap"])

    def test_domination_runner_passes(self, tmp_path):
        cfg = ScenarioConfig(depth=5, trials=4, subcollections=3, out_dir=str(tmp_path))
        report = run_domination(cfg)
        assert report["passed"] and report["failures"] == 0
        assert report["worst_domination_slack"] <= 0.0
        assert report["max_stopping_mass_ratio"] <= 0.5

    def test_schema_version_stamped(self, tmp_path):
        cfg = ScenarioConfig(depth=5, trials=1, subcollections=1, out_dir=str(tmp_path))
        report = run_domination(cfg)
        assert report["schema"] == 1
        assert report["half_width"] == cfg.half_width  # root size rides along

    def test_characteristics_track_induced_weight(self, tmp_path):
        """A power pair also reports the intermediate weight it induces."""
        cfg = ScenarioConfig(depth=6, depth_min=5, mu="power(1.0)", lam="power(0.25)",
                             p=4.0, q=2.0, out_dir=str(tmp_path))
        report = run_characteristics(cfg, sweep=False)
        assert "nu" in report["results"]
        assert all(v >= 1.0 for v in report["results"]["nu"]["ap"])

    def test_bloom_classical_diagonal_regime(self, tmp_path):
        """p = q with flat weights: the ratio interval is finite and positive."""
        from dyadlab.scenarios import run_bloom_comparability

        cfg = ScenarioConfig(
            depth=5, p=2.0, q=2.0, family_size=4, restarts=5, iterations=20,
            b_family="half-splits", out_dir=str(tmp_path),
        )
        report = run_bloom_comparability(cfg)
        assert report["regime"] == "p<=q"
        lo, hi = report["ratio_paraproduct"]["min"], report["ratio_paraproduct"]["max"]
        assert 0.0 < lo <= hi < 50.0


class TestSweptRunners:
    """The runners that sweep depths, each at two points, with a rerun."""

    def test_counterexample_two_points(self, tmp_path):
        for out in ("a", "b"):
            cfg = ScenarioConfig(depth=6, depth_min=4, restarts=4, iterations=5,
                                 out_dir=str(tmp_path / out))
            run_counterexample(cfg)
        report = _check_report(tmp_path / "a", tmp_path / "b", "counterexample",
                               ("points", "verdicts"))
        assert [pt["depth"] for pt in report["points"]] == [4, 6]
        assert len(report["points"][0]["multiplier_grid"]["c"]) == 33
        rows = (tmp_path / "a" / "counterexample.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["4", "6"]

    def test_bloom_q_below_p_through_cli(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(CONFIG_TEXT)  # p = 4, q = 2, mu = power(1.0), family_size = 2
        for out in ("a", "b"):
            assert main(["bloom", "--config", str(cfgfile), "--out", str(tmp_path / out),
                         "--depth", "5"]) == 0
        report = _check_report(tmp_path / "a", tmp_path / "b", "bloom",
                               ("members", "ratio_paraproduct", "ratio_commutator",
                                "characteristics", "regime"))
        assert report["regime"] == "q<p"
        assert [m["member"] for m in report["members"]] == [0, 1]

    def test_characteristics_with_power_window_sweep(self, tmp_path):
        for out in ("a", "b"):
            cfg = ScenarioConfig(depth=5, depth_min=4, mu="power(1.0)", lam="power(0.25)",
                                 out_dir=str(tmp_path / out))
            run_characteristics(cfg)
        report = _check_report(tmp_path / "a", tmp_path / "b", "characteristics",
                               ("results", "depths"))
        assert report["depths"] == [4, 5]
        assert len(report["results"]["sweep_flags"]) == 37  # 13 + 11 + 13 grid points
        rows = (tmp_path / "a" / "characteristics.csv").read_text().splitlines()[1:]
        assert len(rows) == (3 * 2 + 37) * 2  # mu, lam, nu for A_p and A_inf; the grid

    def test_char_reports_a_piecewise_weight_at_its_depth(self, tmp_path):
        density = tmp_path / "w.csv"
        density.write_text("\n".join(repr(1.0 + (i % 7) / 4.0) for i in range(256)) + "\n")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"[scenario]\ndepth = 8\n\n[weights]\nmu = piecewise({density})\n")
        out = tmp_path / "out"
        assert main(["char", "--config", str(cfgfile), "--out", str(out), "--no-sweep"]) == 0
        report = json.loads((out / "characteristics.json").read_text())
        assert [len(s) for s in report["results"]["mu"].values()] == [1, 1]
        assert len(report["results"]["lam"]["ap"]) == 3  # depths 6, 7, 8
        rows = [r.split(",") for r in (out / "characteristics.csv").read_text().splitlines()[1:]]
        piecewise = [r for r in rows if r[0].startswith("piecewise(")]
        assert [(r[1], r[2], r[4]) for r in piecewise] == [("A_4", "8", "0"), ("A_inf", "8", "0")]


class TestCli:
    def test_config_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("depth = なん\n")
        code = main(["char", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["norms", "--plots"],  # a removed flag
        ["norms", "--seed", "seven"],
        ["char", "--depth", "5.5"],
        ["sweep"],
        [],
    ], ids=["removed-flag", "non-integer-seed", "non-integer-depth", "unknown-command", "no-command"])
    def test_usage_error_exit_3(self, tmp_path, capsys, argv):
        """A malformed command line is a configuration error, never a violated inequality."""
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_config_file_exit_3(self, tmp_path):
        assert main(["char", "--config", str(tmp_path / "nope.cfg")]) == 3

    @pytest.mark.parametrize("argv", [
        ["char", "--dim", "2", "--depth", "5"],  # depth_min is 6
        ["counterexample", "--depth", "3"],  # the sweep starts at depth 4
        ["counterexample", "--depth", "5"],  # and at depth_min
    ])
    def test_empty_depth_sweep_exit_3(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_dim_below_one_exit_3(self, tmp_path, capsys):
        assert main(["char", "--dim", "0", "--out", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("dim,depth", [(5, 8), (3, 6)])
    def test_too_many_cells_exit_3(self, tmp_path, capsys, dim, depth):
        """2^40 and 2^18 cells: refused as a config, before any array is built."""
        assert main(["norms", "--dim", str(dim), "--depth", str(depth), "--out", str(tmp_path)]) == 3
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_depth_exit_3(self, tmp_path, capsys):
        assert main(["norms", "--depth", "-1", "--out", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["trials", "subcollections", "family_size", "restarts",
                                     "iterations"])
    def test_negative_count_exit_3(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"[scenario]\ndepth = 5\n{key} = -1\n")
        out = tmp_path / "out"
        assert main(["dominate", "--config", str(cfgfile), "--out", str(out)]) == 3
        assert f"{key} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exponent,code", [(2000, 3), (-2000, 3), (60, 0)])
    def test_half_width_exponent_exit_code(self, tmp_path, capsys, exponent, code):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"[scenario]\ndepth = 5\ntrials = 3\nhalf_width_exponent = {exponent}\n")
        assert main(["dominate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert ("config error:" in err) == (code == 3)

    def test_unparsable_weight_spec_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\ndepth = 5\n\n[weights]\nmu = power(abc)\n")
        assert main(["norms", "--config", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "power(abc)" in err

    @pytest.mark.parametrize("command,text", [
        ("counterexample", "depth = 4\ndepth_min = 4\nhalf_width_exponent = 0\n"),
        ("bloom", "depth = 0\nb_family = random-haar\nfamily_size = 2\n"),
        ("bloom", "depth = 0\nb_family = mixed\nfamily_size = 2\n"),
    ], ids=["counterexample-window-of-one", "random-haar-at-depth-0", "mixed-at-depth-0"])
    def test_config_the_run_cannot_take_exit_3(self, tmp_path, capsys, command, text):
        """A counterexample window H <= 1 (its tail points lie past it) and a random-haar
        member at depth 0 (no level below the root) are refused before a report is
        written."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[scenario]\n" + text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 3
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,stem,text", [
        ("char", "characteristics", "depth = 2\ndepth_min = 0\n"),
        ("char", "characteristics", "depth = 0\ndepth_min = 0\n" + POWERS_AT_0),
        ("bloom", "bloom", "depth = 0\nfamily_size = 2\nrestarts = 1\niterations = 1\n"
         + POWERS_AT_0),
        ("norms", "norms", "depth = 0\n" + POWERS_AT_0),
        ("char", "characteristics", "depth = 4\ndepth_min = 3\nhalf_width_exponent = 1\n"
         "p = 2\nq = 1.5\n\n[weights]\nmu = power(1.0)\nlam = power(-1.0)\n"),
        ("norms", "norms", "depth = 4\nhalf_width_exponent = -3\np = 2\nq = 1.5\n\n[weights]\n"
         "mu = power(1.0)\nlam = power(0.5)\n"),
    ], ids=["char-sweep-from-depth-0", "char-powers-at-depth-0", "bloom-powers-at-depth-0",
            "norms-powers-at-depth-0", "char-exponent-a-rounding-off-minus-1",
            "norms-exponent-a-rounding-off-minus-1"])
    def test_config_the_run_takes_exit_0(self, tmp_path, command, stem, text):
        """Configs that once ended in a traceback or a refusal.  A depth-0 tree's power
        weights take their one density at radius s sqrt(d) / 4.  A derived exponent (a dual
        of nu) a rounding away from -1 once gave d = 1 cells away from 0 a zero mass, b^e -
        a^e having cancelled; those masses are now taken through expm1."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[scenario]\n" + text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
        assert all(math.isfinite(v) for v in _numbers(_strict_json(out / f"{stem}.json")))

    def test_char_without_sweep_runs_from_depth_0(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[scenario]\ndepth = 2\ndepth_min = 0\n")
        assert main(["char", "--config", str(cfgfile), "--out", str(tmp_path), "--no-sweep"]) == 0

    def test_norms_takes_a_depth_below_depth_min(self, tmp_path):
        """`norms` sweeps no depths, so depth_min does not bound it."""
        assert main(["norms", "--depth", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "norms.json").exists()

    def test_char_runs_and_writes(self, tmp_path, capsys):
        code = main(["char", "--out", str(tmp_path), "--depth", "6", "--no-sweep"])
        assert code == 0
        assert (tmp_path / "characteristics.json").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(CONFIG_TEXT)
        code = main(["dominate", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--depth", "5", "--seed", "7"])
        assert code == 0
        report = json.loads((tmp_path / "domination.json").read_text())
        assert report["seed"] == 7

    def test_norms_subcommand(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(CONFIG_TEXT)
        code = main(["norms", "--config", str(cfgfile), "--out", str(tmp_path), "--depth", "5"])
        assert code == 0
        payload = json.loads((tmp_path / "norms.json").read_text())
        assert "paraproduct_norm" in payload["values"]
        rep = payload["reports"]["paraproduct_norm"]
        assert rep["value"] == payload["values"]["paraproduct_norm"]
        cert = tmp_path / rep["certificate-ref"]
        assert cert.exists() and len(cert.read_text().splitlines()) == 2**5
        # multiplier trace serializes as (c, value) pairs
        assert all(len(t) == 2 for t in payload["reports"]["multiplier_inf"]["trace"])

    def test_violation_exit_2(self, tmp_path, monkeypatch, capsys):
        import dyadlab.cli as cli

        monkeypatch.setattr(cli, "run_domination", lambda cfg: {"passed": False})
        assert main(["dominate", "--out", str(tmp_path)]) == 2
        assert "FAILED" in capsys.readouterr().err

    def test_assertion_exit_2(self, tmp_path, monkeypatch):
        import dyadlab.cli as cli

        def boom(cfg, sweep=True):
            raise AssertionError("inequality violated in battery")

        monkeypatch.setattr(cli, "run_characteristics", boom)
        assert main(["char", "--out", str(tmp_path)]) == 2


class TestFilesWritten:
    """Each command writes exactly its report files, and nothing else."""

    @pytest.mark.parametrize("argv,files", [
        (["char", "--no-sweep"], {"characteristics.json", "characteristics.csv"}),
        (["bloom"], {"bloom.json", "bloom.csv"}),
        (["counterexample", "--depth", "6"], {"counterexample.json", "counterexample.csv"}),
        (["dominate"], {"domination.json"}),
    ], ids=["char", "bloom", "counterexample", "dominate"])
    def test_report_files(self, tmp_path, argv, files):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfgfile), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == files

    def test_norms_files_and_certificate_refs(self, tmp_path):
        """At q < p: the JSON, two grid-function certificates and one sparse family;
        every file-name `certificate-ref` names one of them."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(CONFIG_TEXT)  # p = 4, q = 2
        out = tmp_path / "out"
        assert main(["norms", "--config", str(cfgfile), "--out", str(out), "--depth", "5"]) == 0
        certificates = {"certificate_sharp_r_norm.csv", "certificate_paraproduct_norm.csv",
                        "certificate_discretized_sup.sparse.txt"}
        assert {p.name for p in out.iterdir()} == {"norms.json"} | certificates
        reports = json.loads((out / "norms.json").read_text())["reports"]
        refs = {name: rep["certificate-ref"] for name, rep in reports.items()}
        assert {r for r in refs.values() if isinstance(r, str)} == certificates
        assert isinstance(refs["multiplier_inf"], float)


class TestStrictJson:
    """Reports are strict JSON: an undefined value is null, never NaN or infinity."""

    def test_bloom_commutator_is_null_at_d2(self, tmp_path):
        """[b, H] is the Hilbert transform's commutator, defined at d = 1 only.

        The JSON writes it null and the CSV nan."""
        out = tmp_path / "out"
        assert main(["bloom", "--dim", "2", "--depth", "3", "--out", str(out)]) == 0
        members = _strict_json(out / "bloom.json")["members"]
        assert [m["commutator_norm"] for m in members] == [None] * ScenarioConfig().family_size
        rows = (out / "bloom.csv").read_text().splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == ["nan"] * len(members)

    @pytest.mark.parametrize("trials,subcollections,unchecked", [
        (0, 3, ["worst_witness_ratio", "worst_domination_slack", "worst_envelope_slack"]),
        (2, 0, ["worst_domination_slack"]),
    ], ids=["no-trials", "no-subcollections"])
    def test_dominate_worst_is_null_when_nothing_checked(self, tmp_path, trials, subcollections,
                                                         unchecked):
        cfg = ScenarioConfig(depth=4, trials=trials, subcollections=subcollections,
                             out_dir=str(tmp_path))
        run_domination(cfg)
        report = _strict_json(tmp_path / "domination.json")
        assert report["passed"]
        worst = ["worst_witness_ratio", "worst_domination_slack", "worst_envelope_slack"]
        assert [k for k in worst if report[k] is None] == unchecked

    def test_counterexample_tail_slope_is_null_without_two_positive_points(
            self, tmp_path, monkeypatch):
        import dyadlab.scenarios as scenarios

        monkeypatch.setattr(scenarios, "sharp_window_values", lambda b, nu, xs, n_left: 0.0 * xs)
        cfg = ScenarioConfig(depth=6, depth_min=4, restarts=4, iterations=5, out_dir=str(tmp_path))
        run_counterexample(cfg)
        points = _strict_json(tmp_path / "counterexample.json")["points"]
        assert [pt["tail_slope"] for pt in points] == [None, None]
        rows = (tmp_path / "counterexample.csv").read_text().splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == ["nan", "nan"]


def test_dominate_builds_one_bound_per_trial(tmp_path, monkeypatch):
    """The envelope and every sampled sub-collection of a trial share its one bound."""
    import dyadlab.scenarios as scenarios
    import dyadlab.sparse as sparse

    calls = []
    bound = sparse.domination_bound
    for module in (scenarios, sparse):  # a call from either module counts
        monkeypatch.setattr(module, "domination_bound",
                            lambda *args: calls.append(1) or bound(*args))
    workload = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads" / "dominate-d1.cfg"
    cfg = replace(parse_config(workload.read_text()), seed=1, out_dir=str(tmp_path))
    report = run_domination(cfg)
    assert report["passed"] and report["trials"] == 40
    assert len(calls) == 40


def test_dominate_draws_and_checks_once_per_trial(tmp_path, monkeypatch):
    """A trial's sub-collections are one draw and one row-stacked check, beside the
    envelope's, and no level is stacked along the way."""
    import numpy as np

    import dyadlab.scenarios as scenarios
    import dyadlab.sparse as sparse

    calls = []
    for module, name in ((scenarios, "random_subcollection"), (sparse, "random_subcollection"),
                         (scenarios, "pointwise_dominated"), (sparse, "pointwise_dominated"),
                         (np, "stack")):  # a call from either module counts
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, fn=fn, **kw: calls.append(name) or fn(*args, **kw))
    workload = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads" / "dominate-d1.cfg"
    cfg = replace(parse_config(workload.read_text()), seed=1, out_dir=str(tmp_path))
    report = run_domination(cfg)
    assert report["passed"] and report["trials"] == 40
    assert [calls.count(name) for name in ("random_subcollection", "pointwise_dominated", "stack")] \
        == [40, 80, 0]


def test_norms_computes_the_sharp_maximal_function_once(tmp_path, monkeypatch):
    """The discretized supremum certifies against the run's own sharp-norm report."""
    import dyadlab.norms as norms
    import dyadlab.operators as operators
    from dyadlab.scenarios import run_norms

    calls = []
    sharp = operators.sharp_maximal
    for module in (norms, operators):  # a call from either module counts
        monkeypatch.setattr(module, "sharp_maximal",
                            lambda *args, **kwargs: calls.append(1) or sharp(*args, **kwargs))
    cfg = ScenarioConfig(depth=5, p=4.0, q=2.0, restarts=2, iterations=3, out_dir=str(tmp_path))
    report = run_norms(cfg)
    assert report["values"]["discretized_sup"] > 0.0
    assert report["reports"]["discretized_sup"]["details"]["sharp_norm"] == (
        report["values"]["sharp_r_norm"])
    assert len(calls) == 1

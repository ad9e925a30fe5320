import json
from types import SimpleNamespace

import numpy as np
import pytest

from holofubini import cli, dirac, family, family_preset, space_preset, theorems
from holofubini.cli import CHECK_NAMES, _emit, _record, main
from holofubini.theorems import CONTOUR_SHRINK, CheckReport

from conftest import PRESET_NAMES


def run_cli(tmp_path, *args, fmt="json"):
    out = tmp_path / "report.jsonl"
    code = main(list(args) + ["--output", str(out), "--format", fmt])
    text = out.read_text() if out.exists() else None
    return code, text


def parse_records(text):
    return [json.loads(line) for line in text.strip().splitlines()]


GEOMETRIC_D2 = {
    "kind": "geometric",
    "params": {"rates": [[0.5, 0.0], [0.4, 0.0]]},
    "domain": {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": [1.0, 1.0]},
    "label": "geometric-d2",
}


def count_family_values(monkeypatch) -> list[int]:
    """Count family values at each kind's _evaluate: the size of every output is appended."""
    counted = []

    def counting(evaluate):
        def wrapper(self, z, t):
            out = evaluate(self, z, t)
            counted.append(np.size(out))
            return out
        return wrapper

    for kind in family.HoloFamily.__subclasses__():
        monkeypatch.setattr(kind, "_evaluate", counting(kind._evaluate))
    return counted


def family_args(tmp_path, d):
    """CLI arguments selecting the geometric family in d = 1 (preset) or d = 2 (file)."""
    if d == 1:
        return ["--family", "geometric"]
    path = tmp_path / "geometric-d2.json"
    path.write_text(json.dumps(GEOMETRIC_D2))
    return ["--family-file", str(path)]


class TestVerify:
    def test_constant_family_all_pass(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--family", "constant", "--p", "2")
        assert code == 0
        records = parse_records(text)
        assert records and all(r["pass"] for r in records)
        assert max(r["residual"] for r in records) <= 1e-13

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_exits_zero(self, tmp_path, name):
        code, text = run_cli(tmp_path, "verify", "--family", name)
        records = parse_records(text)
        failing = [r for r in records if not r["pass"]]
        assert code == 0, failing

    def test_fubini_residual_shrinks_with_nodes(self, tmp_path):
        # the n=64 tolerances legitimately flag n=16 quadrature error, so only
        # the reported residuals matter here
        residuals = {}
        for n in (16, 64):
            _, text = run_cli(tmp_path, "verify", "--family", "geometric",
                              "--p", "1", "--nodes", str(n))
            recs = [r for r in parse_records(text)
                    if r["check"] == "fubini" and r["functional"].startswith("derivative")]
            residuals[n] = max(r["residual"] for r in recs)
        assert residuals[16] >= 100.0 * residuals[64]

    def test_small_node_count_is_usage_error(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--family", "geometric", "--nodes", "3",
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()  # invalid configs abort with no partial output

    @pytest.mark.parametrize("args", [["--nodes", "4"], ["--nodes", "5"], ["--grid", "3"]],
                             ids=["nodes4", "nodes5", "grid3"])
    def test_profile_config_it_cannot_run_is_usage_error(self, tmp_path, monkeypatch,
                                                         capsys, args):
        # the order-PROFILE_MAX_ORDER read needs n > 5 at d = 1, and the region
        # grid at least 4 points; both are refused before any family value
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", "derivative_profile", "--family", "geometric",
                             "--functional", "dirac", *args)
        assert code == 2 and text is None
        assert "configuration error:" in capsys.readouterr().err
        assert counted == []

    @pytest.mark.parametrize("command, d", [(["check", "schwarz"], 1),
                                            (["check", "derivative_profile"], 2),
                                            (["verify"], 2)],
                             ids=["schwarz-d1", "profile-d2", "verify-d2"])
    def test_four_nodes_run_without_the_d1_profile(self, tmp_path, command, d):
        code, text = run_cli(tmp_path, *command, *family_args(tmp_path, d), "--nodes", "4",
                             "--functional", "dirac")
        assert code != 2 and text is not None
        assert "derivative_profile" not in {r["check"] for r in parse_records(text)}

    def test_unknown_family_is_usage_error(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--family", "nonexistent")
        assert code == 2 and text is None

    def test_bad_exponent_is_usage_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "verify", "--family", "constant", "--p", "0.5")
        assert code == 2

    def test_deterministic_output(self, tmp_path):
        args = ("verify", "--family", "geometric", "--seed", "7")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        assert first == second

    def test_record_schema(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--family", "geometric")
        keys = {"check", "family", "functional", "p", "alpha", "lhs", "rhs",
                "residual", "tol", "pass", "n", "seed"}
        records = parse_records(text)
        assert all(set(r) == keys for r in records)
        infs = [r for r in records if r["p"] == "inf"]
        assert infs  # p = infinity serializes as the string "inf"

    def test_no_duplicate_check_combinations(self, tmp_path):
        _, text = run_cli(tmp_path, "verify", "--family", "geometric")
        records = parse_records(text)
        combos = [(r["check"], r["functional"], str(r["p"]), str(r["alpha"]))
                  for r in records]
        assert len(combos) == len(set(combos))

    def test_non_finite_values_are_strict_json(self, tmp_path):
        rep = CheckReport.failed("order_bound", "geometric", ValueError("no verdict"))
        out = tmp_path / "report.jsonl"
        _emit([_record(rep, SimpleNamespace(n=64, seed=0))], "json", str(out))

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        record = json.loads(out.read_text(), parse_constant=reject)
        assert record["lhs"] == "inf" and record["residual"] == "inf"
        assert record["pass"] is False

    @pytest.mark.parametrize("override", [[], ["--tol", "1e-7"]], ids=["default", "tol"])
    def test_tolerance_rule(self, tmp_path, override):
        # the same finite sum on both sides gets TOL_EXACT, a quadrature side against
        # an exact action TOL_QUADRATURE; --tol replaces both
        code, text = run_cli(tmp_path, "verify", "--family", "geometric", *override)
        assert code == 0
        expected = {"linearization": theorems.TOL_EXACT, "fubini": theorems.TOL_EXACT,
                    "derivative_consistency": theorems.TOL_QUADRATURE,
                    "diff_under_integral": theorems.TOL_QUADRATURE}
        seen = set()
        for r in parse_records(text):
            if r["check"] not in expected:
                continue
            tol = expected[r["check"]]
            if r["check"] == "fubini" and r["functional"].startswith("derivative"):
                tol = theorems.TOL_QUADRATURE
            assert r["tol"] == (1e-7 if override else tol), r
            seen.add((r["check"], r["functional"].partition(":")[0]))
        assert seen >= {("linearization", "dirac"), ("fubini", "dirac"),
                        ("fubini", "random"), ("fubini", "derivative"),
                        ("derivative_consistency", ""), ("diff_under_integral", "")}

    def test_csv_format(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--family", "constant",
                             "--p", "2", fmt="csv")
        assert code == 0
        header = text.splitlines()[0]
        assert header.startswith("check,family,functional,p,alpha,lhs,rhs,residual")


class TestSampleOnce:
    # Family values of one `verify` of the geometric family on uniform-16 (k = 16
    # atoms) at n nodes with the default --grid 32, counted at each kind's _evaluate.
    # Every boundary point set is sampled once per run:
    #   contour grid (centre, 0.95 r, n), shared by both derivative functionals,
    #     derivative_consistency, diff_under_integral, order_bound's Taylor table
    #     and the sups of norm_bound and telescoping:  n^d * k
    #   dirac node 1 * k and random-measure nodes 8 * k
    # plus the work that evaluates points of its own:
    #   fubini's direct Dirac action f(z0, .), once per p:  3 * k
    #   span, 4 functionals x (8 + 16) sample points:  96 * k
    #   order_bound's 200 sample points:  200 * k
    #   d = 1 only, schwarz per atom: centre 1 + 1000 samples + the n-node contour
    #     ring, and derivative_profile: 32 contours of n nodes, shared by orders 0-4
    #   d = 2 only, telescoping's 2 * 200 sample points:  400 * k
    # The closed-form derivatives that derivative_consistency, diff_under_integral
    # and the derivative functionals' fubini read are no family values here.
    # d = 1, n = 64: k * (64 + 9 + 3 + 96 + 200 + 1065 + 32*64) = 55,760
    # d = 2, n = 64: k * (4096 + 9 + 3 + 96 + 200 + 400) = 76,864
    # d = 2, n = 32: k * (1024 + 9 + 3 + 96 + 200 + 400) = 27,712
    # ids name only d (and n where it is not 64), so re-pinning a count keeps the
    # test's name
    @pytest.mark.parametrize("d, n, expected", [(1, 64, 55_760), (2, 64, 76_864),
                                                (2, 32, 27_712)],
                             ids=["d1", "d2", "d2-n32"])
    def test_family_value_count(self, tmp_path, monkeypatch, d, n, expected):
        counted = count_family_values(monkeypatch)
        code, _ = run_cli(tmp_path, "verify", *family_args(tmp_path, d),
                          "--space", "uniform-16", "--nodes", str(n))
        assert code == 0
        assert sum(counted) == expected

    def test_order_bound_and_telescoping_read_the_contour_sample(self, monkeypatch):
        # after derivative_consistency has sampled the n = 64 contour grid, the
        # checks evaluate only their own points: 200 * k and 2 * 200 * k random
        # points, and norm_bound the 1 * k node of its Dirac functional
        fam, space = family.family_from_json(json.dumps(GEOMETRIC_D2)), space_preset("uniform-16")
        sampler = fam.sampler(space)
        theorems.derivative_consistency(fam, space, fam.domain.center, cli._alpha_battery(2),
                                        fam.domain.radius * CONTOUR_SHRINK, n=64,
                                        sampler=sampler)
        counted = count_family_values(monkeypatch)
        assert theorems.order_bound_check(fam, space, n=64, sampler=sampler).passed
        assert sum(counted) == 200 * 16
        counted.clear()
        assert theorems.telescoping_residual(fam, space, sampler=sampler).passed
        assert sum(counted) == 400 * 16
        counted.clear()
        reports = theorems.norm_bound_check([dirac([0.3, -0.2j])], fam, space, 2, n=64,
                                            sampler=sampler)
        assert reports[0].passed
        assert sum(counted) == 1 * 16

    @pytest.mark.parametrize("d", [1, 2])
    def test_shared_samples_match_standalone_checkers(self, tmp_path, d):
        args = cli.build_parser().parse_args(
            ["verify", *family_args(tmp_path, d), "--space", "geometric-16",
             "--nodes", "32", "--seed", "3"])
        config = cli._build_config(args, CHECK_NAMES)
        _, shared = cli.run_suite(config)

        # the same calls as run_suite, but each checker samples for itself
        rng = np.random.default_rng(config.seed)
        duals = {p: cli._random_duals(config.space, rng) for p in config.p_list}
        reports = []
        for calls in cli.CHECKS.values():
            for call in calls(config, duals, rng, None):
                result = call()
                reports.extend(result if isinstance(result, list) else [result])
        alone = sorted((_record(rep, config) for rep in reports),
                       key=lambda r: (r["check"], r["family"], r["functional"],
                                      str(r["p"]), str(r["alpha"])))

        def number(side):
            return complex(*side) if isinstance(side, list) else side

        assert len(shared) == len(alone)
        for a, b in zip(shared, alone):
            assert (a["check"], a["functional"], a["p"], a["alpha"]) == \
                (b["check"], b["functional"], b["p"], b["alpha"])
            assert a["pass"] == b["pass"]
            for key in ("lhs", "rhs", "residual"):
                assert abs(number(a[key]) - number(b[key])) <= 1e-14 * (1 + abs(number(b[key]))), \
                    (key, a, b)


class TestWorkBudget:
    EXPONENTIAL_D4 = {
        "kind": "exponential",
        "params": {"scale": [1.0, 0.0]},
        "domain": {"center": [[0.0, 0.0]] * 4, "radius": [1.0] * 4},
    }

    @staticmethod
    def config(fam, space, n, grid=32, checks=CHECK_NAMES):
        return cli.SuiteConfig(family=fam, space=space_preset(space), functionals=[],
                               p_list=[2.0], n=n, grid=grid, checks=checks)

    @classmethod
    def family_file(cls, tmp_path, d):
        doc = dict(cls.EXPONENTIAL_D4, domain={"center": [[0.0, 0.0]] * d, "radius": [1.0] * d})
        path = tmp_path / f"exponential-d{d}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def assert_refused_before_functionals(self, tmp_path, monkeypatch, space, n):
        path = tmp_path / "exponential-d4.json"
        path.write_text(json.dumps(self.EXPONENTIAL_D4))
        monkeypatch.setattr(cli, "default_functionals", None)
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", str(path), "--space", space, "--nodes", str(n)])
        with pytest.raises(cli.ConfigError, match="work budget"):
            cli._build_config(args, CHECK_NAMES)

    # The budget counts 3k + 5d complex values per contour node: the sample with
    # the transients of its evaluation and the FFT's first transform, and the
    # coordinates with their copies and transients.
    def test_d4_is_refused_before_any_functional_is_built(self, tmp_path, monkeypatch):
        # 64^4 nodes x (3 x 16 atoms + 5 x 4) x 16 B = 17 GiB; nothing of that size
        # is allocated
        self.assert_refused_before_functionals(tmp_path, monkeypatch, "uniform-16", 64)

    def test_contour_coordinates_are_counted(self, tmp_path, monkeypatch):
        # one atom: 64^4 x (3 x 1 + 5 x 4) x 16 B = 5.75 GiB, most of it the
        # coordinates; the three atom arrays alone would take 0.75 GiB
        self.assert_refused_before_functionals(tmp_path, monkeypatch, "uniform-1", 64)

    def test_suite_config_checks_the_budget(self):
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)

    def test_largest_admitted_config(self):
        # d = 3 with 256 atoms at 32 nodes: 32^3 nodes x (3 x 256 atoms + 5 x 3)
        # x 16 B = 0.38 GiB; the order_bound table takes 32^3 x 256 x 16 B
        # = 0.125 GiB
        doc = dict(self.EXPONENTIAL_D4, domain={"center": [[0.0, 0.0]] * 3,
                                                 "radius": [1.0] * 3})
        self.config(family.family_from_json(json.dumps(doc)), "uniform-256", 32)

    def test_lowered_budget(self, monkeypatch):
        # geometric d = 1 on 16 atoms at 4 nodes and --grid 4: the 4 x 4 profile
        # contour nodes take 4 x 4 x 16 x 16 B, as much as the order_bound table on
        # its 16 nodes, more than the 4 x (3 x 16 + 5) values the budget counts on
        # the contour grid.  The budget counts the profile
        # contours whatever the checks; at 4 nodes derivative_profile itself is
        # refused, so the run leaves it out.
        fam = family_preset("geometric")
        few = tuple(name for name in CHECK_NAMES if name != "derivative_profile")
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", 4 * 4 * 16 * 16)
        self.config(fam, "uniform-16", 4, grid=4, checks=few)
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", 4 * 4 * 16 * 16 - 1)
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 4, grid=4, checks=few)
        # at 64 nodes and --grid 32 the 32 profile contours of 64 nodes take
        # 32 x 64 x 16 x 16 B
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", 32 * 64 * 16 * 16)
        self.config(fam, "uniform-16", 64)
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", 32 * 64 * 16 * 16 - 1)
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)
        args = cli.build_parser().parse_args(["verify", "--family", "geometric"])
        with pytest.raises(cli.ConfigError, match="work budget"):
            cli._build_config(args, CHECK_NAMES)

    def test_d4_at_32_nodes_admitted(self):
        # telescoping and norm_bound read their sups from the 32^4 contour grid, so
        # d = 4 on uniform-16 at 32 nodes needs 32^4 x (3 x 16 + 5 x 4) x 16 B = 1.06 GiB
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        assert self.config(fam, "uniform-16", 32).n == 32

    @pytest.mark.parametrize("d, grid", [(1, "2000000")], ids=["d1-grid2000000"])
    def test_grid_is_counted(self, tmp_path, monkeypatch, capsys, d, grid):
        # --grid sets only the d = 1 derivative_profile region grid, whose contours
        # hold 2,000,000 x 64 x 16 x 16 B = 30.5 GiB
        counted = []

        def counting(evaluate):
            def wrapper(self, z, t):
                counted.append(np.size(z))
                return evaluate(self, z, t)
            return wrapper

        for kind in family.HoloFamily.__subclasses__():
            monkeypatch.setattr(kind, "_evaluate", counting(kind._evaluate))
        code = main(["verify", "--family-file", self.family_file(tmp_path, d),
                     "--space", "uniform-16", "--grid", grid])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert counted == []

    @pytest.mark.parametrize("d, space, n", [(1, "uniform-16", 64), (1, "geometric-64", 64),
                                             (2, "uniform-16", 64), (2, "uniform-256", 32),
                                             (3, "uniform-16", 32)])
    def test_bench_configs_admitted(self, tmp_path, d, space, n):
        # every (d, atoms, nodes) of the benchmark matrix at the default --grid 32
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", self.family_file(tmp_path, d), "--space", space,
             "--nodes", str(n)])
        assert cli._build_config(args, CHECK_NAMES).grid == 32

    def test_default_config_admitted(self):
        config = cli._build_config(cli.build_parser().parse_args(["verify"]), CHECK_NAMES)
        assert (config.family.d, config.space.natoms, config.n, config.grid) == (1, 16, 64, 32)


class TestCheckSubcommand:
    def test_single_check(self, tmp_path):
        code, text = run_cli(tmp_path, "check", "fubini", "--family", "geometric")
        assert code == 0
        records = parse_records(text)
        assert records and all(r["check"] == "fubini" for r in records)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_records_carry_the_check_name(self, tmp_path, name):
        _, text = run_cli(tmp_path, "check", name, "--family", "geometric")
        assert {r["check"] for r in parse_records(text)} <= {name}

    @pytest.mark.parametrize("d, nodes", [(1, "512"), (1, "4"), (2, "8"), (2, "4")],
                             ids=["d1-n512", "d1-n4", "d2-n8", "d2-n4"])
    def test_order_bound_at_extreme_node_counts(self, tmp_path, d, nodes):
        # the Taylor degree n // 2 - 1 is capped at MAX_TAYLOR_DEGREE, so n = 512
        # gets a degree-128 table instead of an error; n = 4 and n = 8 get
        # MIN_ORDER_BOUND_DEGREE, read from a 16-node contour grid.  A Dirac
        # functional admits --nodes 4, the least the CLI takes.
        code, text = run_cli(tmp_path, "check", "order_bound", *family_args(tmp_path, d),
                             "--nodes", nodes, "--functional", "dirac")
        assert code == 0
        assert [r["check"] for r in parse_records(text)] == ["order_bound"]

    def test_unknown_check_name(self, tmp_path):
        code = main(["check", "bogus", "--family", "geometric"])
        assert code == 2


class TestDescribe:
    def test_lists_presets(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out


class TestFileInputs:
    def test_family_space_functional_files(self, tmp_path):
        family_doc = {
            "kind": "geometric",
            "params": {"rates": [[0.4, 0.0]]},
            "domain": {"center": [[0.0, 0.0]], "radius": [1.0]},
            "label": "custom-geometric",
        }
        space_doc = {"atoms": [{"param": [0.5, 0.0], "weight": 1.0},
                               {"param": [-0.25, 0.1], "weight": 2.0}]}
        functional_doc = {"label": "nu", "nodes": [[0.1, 0.0], [0.0, 0.2]],
                          "weights": [[1.0, 0.0], [0.5, -0.5]]}
        fam_path = tmp_path / "family.json"
        space_path = tmp_path / "space.json"
        func_path = tmp_path / "functional.json"
        fam_path.write_text(json.dumps(family_doc))
        space_path.write_text(json.dumps(space_doc))
        func_path.write_text(json.dumps(functional_doc))

        code, text = run_cli(
            tmp_path, "verify", "--family-file", str(fam_path),
            "--space", str(space_path), "--functional", str(func_path),
            "--functional", "dirac:0.3", "--functional", "derivative:0:1",
            "--functional", "random:4",
        )
        assert code == 0
        records = parse_records(text)
        labels = {r["functional"] for r in records if r["check"] == "fubini"}
        assert "nu" in labels and any(l.startswith("derivative") for l in labels)
        assert all(r["family"] == "custom-geometric" for r in records)

    def test_complex_entry_of_wrong_length_is_usage_error(self, tmp_path):
        doc = {"kind": "geometric", "params": {"rates": [[0.4, 0.0, 1.0]]},
               "domain": {"center": [[0.0, 0.0]], "radius": [1.0]}}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(tmp_path, "verify", "--family-file", str(path))
        assert code == 2 and text is None

    def test_missing_file_is_usage_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "verify", "--family-file",
                          str(tmp_path / "missing.json"))
        assert code == 2

    @pytest.mark.parametrize("option, content", [
        ("--family-file", None),
        ("--family-file", dict(GEOMETRIC_D2, params={"rates": 5})),
        ("--family-file", [GEOMETRIC_D2]),
        ("--space", {"atoms": 5}),
    ], ids=["family-directory", "family-rates-number", "family-list", "space-atoms-number"])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, option, content):
        path = tmp_path / "input.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(json.dumps(content))
        code, text = run_cli(tmp_path, "verify", option, str(path))
        assert code == 2 and text is None
        assert "configuration error:" in capsys.readouterr().err

    def test_invalid_hypotheses_are_usage_error(self, tmp_path):
        # atoms too large for the geometric rate: analyticity check must abort
        space_doc = {"atoms": [{"param": [3.0, 0.0], "weight": 1.0}]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space_doc))
        code, text = run_cli(tmp_path, "verify", "--family", "geometric",
                             "--space", str(path))
        assert code == 2 and text is None


class TestFailurePath:
    def test_violation_exits_one(self, tmp_path, capsys):
        # an absurdly tight override forces identity checks to fail
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--family", "geometric", "--nodes", "16",
                     "--tol", "1e-300", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "violation" in err
        records = parse_records(out.read_text())
        assert any(not r["pass"] for r in records)

    @pytest.mark.parametrize("functionals", [["--functional", "dirac"], []],
                             ids=["dirac", "default"])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, functionals):
        # the seed reaches np.random.default_rng, which takes no negative seed; the
        # run is refused before any family value is evaluated, also where the
        # default battery's random measure would draw from the seed first
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", "fubini", "--family", "geometric",
                             *functionals, "--seed", "-1")
        assert code == 2 and text is None
        assert "configuration error: --seed" in capsys.readouterr().err
        assert counted == []

    @pytest.mark.parametrize("output", ["", "missing/report.jsonl"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, monkeypatch, capsys, output):
        # refused before the battery runs, not after it when the report is written
        counted = count_family_values(monkeypatch)
        code = main(["verify", "--family", "geometric", "--output", str(tmp_path / output)])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert counted == []

    @pytest.mark.parametrize("args", [["--p", "nan"], ["--tol", "nan"],
                                      ["--functional", "random:0"]],
                             ids=["p-nan", "tol-nan", "random-0"])
    def test_invalid_number_is_usage_error(self, tmp_path, capsys, args):
        # no paper claim fails here: a NaN exponent or tolerance fails every check
        # it reaches, and an empty measure has no nodes to take a sup over
        code, text = run_cli(tmp_path, "verify", "--family", "geometric", *args)
        assert code == 2 and text is None
        assert "configuration error:" in capsys.readouterr().err

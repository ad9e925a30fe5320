import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from holofubini import (Polydisc, cauchy, cli, derivative_functional, dirac, family,
                        family_preset, measure, space_preset, theorems, torus_nodes)
from holofubini.cli import CHECK_NAMES, _emit, _record, main
from holofubini.functional import MeasureFunctional
from holofubini.theorems import CheckReport

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

    @pytest.mark.parametrize("args", [["--nodes", "4"], ["--nodes", "5"]],
                             ids=["nodes4", "nodes5"])
    def test_profile_runs_at_any_node_count(self, tmp_path, monkeypatch, args):
        # the profile reads its orders 0-4 on contours of PROFILE_NODES nodes, not
        # --nodes, so it runs where the run's contour could not resolve order 4:
        # PROFILE_GRID contours of PROFILE_NODES nodes on 16 atoms, and nothing else
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", "derivative_profile", "--family", "geometric",
                             "--functional", "dirac", *args)
        assert code == 0
        records = parse_records(text)
        assert len(records) == theorems.PROFILE_MAX_ORDER + 1
        assert {r["n"] for r in records} == {theorems.PROFILE_NODES}
        assert sum(counted) == 32 * 32 * 16

    @pytest.mark.parametrize("nodes", ["4", "5", "6"])
    def test_default_derivative_functionals_refuse_few_nodes(self, tmp_path, capsys, nodes):
        # verify at d = 1 builds the second-order derivative functional, which needs
        # n > 2 x 2 + 2 nodes
        code, text = run_cli(tmp_path, "verify", "--family", "geometric", "--nodes", nodes)
        assert code == 2 and text is None
        assert "too small for derivative order" in capsys.readouterr().err

    def test_off_centre_derivative_functional_runs(self, tmp_path):
        # derivative:a:alpha reads its contour at 0.95 of the largest polydisc about a
        # inside the domain: radius 0.95 x (1 - 0.5) about a = 0.5
        code, text = run_cli(tmp_path, "verify", "--family", "exponential",
                             "--functional", "derivative:0.5:1")
        assert code == 0
        fubini = [r for r in parse_records(text) if r["check"] == "fubini"]
        assert len(fubini) == 3 and all(r["pass"] for r in fubini)
        phi = cli._parse_functional("derivative:0.5:1", family_preset("exponential"), 64,
                                    0.5, 0)
        np.testing.assert_array_equal(phi.radii, [0.95 * 0.5])

    @pytest.mark.parametrize("a", ["1", "1.5", "0.8+0.8j"])
    def test_derivative_functional_outside_domain_is_usage_error(self, tmp_path, capsys, a):
        code, text = run_cli(tmp_path, "verify", "--family", "exponential",
                             "--functional", f"derivative:{a}:1")
        assert code == 2 and text is None
        assert "center outside the family domain" in capsys.readouterr().err

    def test_default_derivative_functionals_read_the_run_contour(self):
        # at a = the domain center the radii are 0.95 r, the contour sample's, bit for bit
        fam = family.family_from_json(json.dumps(dict(GEOMETRIC_D2, domain={
            "center": [[0.1, 0.2], [-0.3, 0.0]], "radius": [0.7, 1.3]})))
        sample = family.ContourSample(fam, space_preset("uniform-4"), 16)
        first, second = cli.default_functionals(fam, 16, 0.5, 0)[1:3]
        assert sample.on_contour(first) and sample.on_contour(second)

    @pytest.mark.parametrize("command, d, refused", [(["check", "schwarz"], 1, False),
                                                     (["check", "derivative_profile"], 2, True),
                                                     (["verify"], 2, False)],
                             ids=["schwarz-d1", "profile-d2", "verify-d2"])
    def test_four_nodes_run_without_the_d1_profile(self, tmp_path, command, d, refused):
        # verify at d = 2 leaves derivative_profile out; checking it alone there is
        # refused, since it applies at d = 1 only
        code, text = run_cli(tmp_path, *command, *family_args(tmp_path, d), "--nodes", "4",
                             "--functional", "dirac")
        if refused:
            assert code == 2 and text is None
            return
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
        # the keys of README's "Report records" block are those of every JSON record
        # (written with sorted keys) and, in order, the CSV header
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Report records", 1)[1].split("```")[1]
        keys = re.findall(r'"(\w+)":', block)
        code, text = run_cli(tmp_path, "verify", "--family", "geometric")
        records = parse_records(text)
        assert all(list(r) == sorted(keys) for r in records)
        infs = [r for r in records if r["p"] == "inf"]
        assert infs  # p = infinity serializes as the string "inf"
        _, text = run_cli(tmp_path, "verify", "--family", "geometric", fmt="csv")
        assert text.splitlines()[0].split(",") == keys

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

    @pytest.mark.parametrize("d", [1, 2], ids=["default", "d2"])
    def test_tolerance_rule(self, tmp_path, d):
        # the same finite sum on both sides gets TOL_EXACT, a quadrature side against
        # an exact action TOL_QUADRATURE
        code, text = run_cli(tmp_path, "verify", *family_args(tmp_path, d))
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
            assert r["tol"] == tol, r
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
    # atoms) at n nodes, counted at each kind's _evaluate.
    # The run's contour sample and each functional's nodes are evaluated once:
    #   contour grid (centre, 0.95 r, n), shared by both derivative functionals,
    #     derivative_consistency, diff_under_integral, order_bound's Taylor table,
    #     the sups of norm_bound and telescoping and, at d = 1, schwarz's ring:  n^d * k
    #   dirac node 1 * k and random-measure nodes 8 * k
    # plus the work that evaluates points of its own:
    #   fubini's direct Dirac action f(z0, .), kept on the sample for every p:  1 * k
    #   span, 4 functionals x (8 + 8) sample points, each evaluated once:  64 * k
    #   order_bound's 200 sample points:  200 * k
    #   d = 1 only, schwarz per atom: centre 1 + 1000 samples, and
    #     derivative_profile: PROFILE_GRID = 32 contours of PROFILE_NODES = 32 nodes
    #     whatever n, shared by orders 0-4
    #   d = 2 only, telescoping's 2 * 200 sample points:  400 * k
    # The closed-form derivatives that derivative_consistency, diff_under_integral
    # and the derivative functionals' fubini read are no family values here.
    # d = 1, n = 64: k * (64 + 9 + 1 + 64 + 200 + 1001 + 32*32) = 37,808
    # d = 2, n = 64: k * (4096 + 9 + 1 + 64 + 200 + 400) = 76,320
    # d = 2, n = 32: k * (1024 + 9 + 1 + 64 + 200 + 400) = 27,168
    # `check derivative_profile` reads no contour value: k * 32 * 32 = 16,384
    # `check norm_bound` with a derivative functional off the centre: the contour
    #   sample for the grid sup and the functional's own 64 nodes, k * (64 + 64) = 2,048
    # `check linearization` of a Dirac functional reads its one node and no contour
    #   value, not even to share a pairing: k * 1 = 16
    # ids name only d (and n where it is not 64), so re-pinning a count keeps the
    # test's name
    @pytest.mark.parametrize("d, n, command, expected", [
        (1, 64, ["verify"], 37_808),
        (2, 64, ["verify"], 76_320),
        (2, 32, ["verify"], 27_168),
        (1, 64, ["check", "derivative_profile"], 32 * 32 * 16),
        (1, 64, ["check", "norm_bound", "--functional", "derivative:0.5:1"], 2 * 64 * 16),
        (1, 64, ["check", "linearization", "--functional", "dirac:0.3"], 16),
    ], ids=["d1", "d2", "d2-n32", "d1-profile", "d1-off-centre", "d1-dirac"])
    def test_family_value_count(self, tmp_path, monkeypatch, d, n, command, expected):
        counted = count_family_values(monkeypatch)
        code, _ = run_cli(tmp_path, *command, *family_args(tmp_path, d),
                          "--space", "uniform-16", "--nodes", str(n))
        assert code == 0
        assert sum(counted) == expected

    def test_closed_forms_are_evaluated_once(self, tmp_path, monkeypatch):
        # d = 2: fubini reads the Dirac functional's F(z0) at each of 3 p, and each of
        # the 6 multi-indices of |alpha| <= 2 is read at the center by
        # derivative_consistency and diff_under_integral, (1, 0) and (2, 0) also by
        # the derivative functionals' fubini at each p; the sample keeps each vector
        calls = []
        for name in ("vector", "deriv_vector"):
            def counting(self, z, space, *alpha, original=getattr(family.HoloFamily, name),
                         name=name):
                calls.append((name, np.asarray(z).tobytes(), tuple(alpha)))
                return original(self, z, space, *alpha)

            monkeypatch.setattr(family.HoloFamily, name, counting)
        code, _ = run_cli(tmp_path, "verify", *family_args(tmp_path, 2), "--space",
                          "uniform-16", "--nodes", "32")
        assert code == 0
        assert len(calls) == len(set(calls)) == 1 + 6

    def test_sample_reads_the_grid_the_functionals_hold(self, tmp_path):
        # the default derivative functionals are on the run's contour and hold one
        # grid, the one the sample is evaluated on
        args = cli.build_parser().parse_args(
            ["verify", *family_args(tmp_path, 2), "--nodes", "16"])
        config = cli._build_config(args, CHECK_NAMES)
        sample = family.ContourSample(config.family, config.space, config.n,
                                      config.functionals)
        on = [phi for phi in config.functionals if sample.on_contour(phi)]
        assert len(on) == 2 and on[0].nodes is on[1].nodes
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 16).grid()
        assert grid is on[0].nodes

    def test_dual_values_are_shared_by_linearization_and_fubini(self, tmp_path, monkeypatch):
        # d = 2: the 2 derivative functionals apply their full-contour measures to
        # each p's stack of dual vectors (3 p) in one apply_dual, whose pass over the
        # contour gives both their values, for linearization and fubini both: 3 calls
        # where one per functional makes 6 and one per check 12
        counted = []
        apply_dual = MeasureFunctional.apply_dual

        def counting(self, sample, h):
            if self.meaning == "derivative":
                counted.append(len(self.nodes))
            return apply_dual(self, sample, h)

        monkeypatch.setattr(MeasureFunctional, "apply_dual", counting)
        code, _ = run_cli(tmp_path, "verify", *family_args(tmp_path, 2), "--space",
                          "uniform-16", "--nodes", "32")
        assert code == 0
        assert counted == [32 ** 2] * 3

    def test_contour_is_paired_once_per_stack_and_block(self, tmp_path):
        # d = 2 at 32 nodes on 16 atoms: the 1024 contour rows make one block of
        # measure.ROW_BLOCK values, and each p's stack (3 p) meets it in one
        # values @ (h mu).T that both derivative functionals read, in linearization
        # and fubini: 3 products where one per functional and p makes 6; the records
        # equal those of a run whose products are not counted
        class Products(np.ndarray):
            """Contour values that count their products with a stack of dual vectors."""
            count = 0

            def __matmul__(self, other):
                if np.ndim(other) == 2:
                    type(self).count += 1
                return np.asarray(self) @ other

        args = cli.build_parser().parse_args(
            ["verify", *family_args(tmp_path, 2), "--space", "uniform-16", "--nodes", "32"])
        config = cli._build_config(args, ("linearization", "fubini"))
        runs = []
        for counted in (False, True):
            rng = np.random.default_rng(config.seed)
            duals = {p: cli._random_duals(config.space, rng) for p in config.p_list}
            sample = family.ContourSample(config.family, config.space, config.n,
                                          config.functionals)
            if counted:
                sample.__dict__["values"] = sample.values.view(Products)
            runs.append([vars(call()) for name in config.checks
                         for call in cli.CHECKS[name](config, duals, rng, sample)])
        assert 32 ** 2 * 16 <= measure.ROW_BLOCK
        assert Products.count == len(config.p_list) == 3
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_one_fft_of_the_contour_values(self, tmp_path, monkeypatch, d, n):
        # derivative_consistency and order_bound read one Taylor table of the n^d x k
        # contour values; diff_under_integral's FFT takes the (n^d,) pairing with h
        path = tmp_path / "exponential.json"
        path.write_text(json.dumps({**TestWorkBudget.EXPONENTIAL_D4, "domain": {
            "center": [[0.0, 0.0]] * d, "radius": [1.0] * d}}))
        shapes = []
        fft = cauchy._fft_coefficients

        def counting(values, *args):
            shapes.append(values.shape)
            return fft(values, *args)

        monkeypatch.setattr(cauchy, "_fft_coefficients", counting)
        code, _ = run_cli(tmp_path, "verify", "--family-file", str(path), "--space",
                          "uniform-16", "--nodes", str(n))
        assert code == 0
        assert sorted(shapes) == [(n ** d,), (n ** d, 16)]

    def test_order_bound_and_telescoping_read_the_contour_sample(self, monkeypatch):
        # once the contour sample holds its values, the checks evaluate only their
        # own points: 200 * k and 2 * 200 * k random points, and norm_bound the
        # 1 * k node of its Dirac functional
        fam, space = family.family_from_json(json.dumps(GEOMETRIC_D2)), space_preset("uniform-16")
        sample = family.ContourSample(fam, space, 64)
        sample.values
        counted = count_family_values(monkeypatch)
        assert theorems.order_bound_check(sample).passed
        assert sum(counted) == 200 * 16
        counted.clear()
        assert theorems.telescoping_residual(sample).passed
        assert sum(counted) == 400 * 16
        counted.clear()
        reports = theorems.norm_bound_check([dirac([0.3, -0.2j])], sample, [2])
        assert reports[0].passed
        assert sum(counted) == 1 * 16

    @pytest.mark.parametrize("d", [1, 2])
    def test_shared_samples_match_standalone_checkers(self, tmp_path, d):
        args = cli.build_parser().parse_args(
            ["verify", *family_args(tmp_path, d), "--space", "geometric-16",
             "--nodes", "32", "--seed", "3"])
        config = cli._build_config(args, CHECK_NAMES)
        _, shared = cli.run_suite(config)

        # the same calls as run_suite, but each check gets a contour sample of its own
        rng = np.random.default_rng(config.seed)
        duals = {p: cli._random_duals(config.space, rng) for p in config.p_list}
        reports = []
        for name in config.checks:
            own = family.ContourSample(config.family, config.space, config.n)
            for call in cli.CHECKS[name](config, duals, rng, own):
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
    def config(fam, space, n, checks=CHECK_NAMES):
        return cli.SuiteConfig(family=fam, space=space_preset(space), functionals=[],
                               p_list=[2.0], n=n, checks=checks)

    @classmethod
    def family_file(cls, tmp_path, d):
        doc = dict(cls.EXPONENTIAL_D4, domain={"center": [[0.0, 0.0]] * d, "radius": [1.0] * d})
        path = tmp_path / f"exponential-d{d}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def assert_refused_before_functionals(self, tmp_path, monkeypatch, space, n, d=4):
        path = self.family_file(tmp_path, d)
        monkeypatch.setattr(cli, "default_functionals", None)
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", path, "--space", space, "--nodes", str(n)])
        with pytest.raises(cli.ConfigError, match="work budget"):
            cli._build_config(args, CHECK_NAMES)

    # The budget counts per contour node the sample, k, its Taylor table, k / 2^d from
    # n = 6 on, and the grid once, d.  Building the sample and the table adds one
    # evaluation block and one FFT block, which at 64^4 nodes is one column of 64^4
    # values, half the table and 2 for diff_under_integral's pairing and its transform.
    def test_d4_is_refused_before_any_functional_is_built(self, tmp_path, monkeypatch):
        # 64^4 nodes x (16 + 1 + 4 + 1 + 1 / 2 + 2) x 16 B = 6.13 GiB with the 20 x 3 x
        # 16 values of the dual stacks and the evaluation block; nothing of that size
        # is allocated
        self.assert_refused_before_functionals(tmp_path, monkeypatch, "uniform-16", 64)

    def test_contour_coordinates_are_counted(self, tmp_path, monkeypatch):
        # one atom at d = 5: 32^5 x (1 + 1 / 32 + 5 + 1 + 1 / 64 + 2) x 16 B = 4.53 GiB,
        # most of it the coordinates; the atom arrays alone would take 0.52 GiB.  At
        # d = 4 and 64 nodes one atom is counted 2.03 GiB and admitted: a run at 32
        # nodes, 1/16 of its size, peaked at 132 MiB under tracemalloc against 136.5
        # counted
        self.assert_refused_before_functionals(tmp_path, monkeypatch, "uniform-1", 32, d=5)

    def test_suite_config_checks_the_budget(self):
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)

    def test_largest_admitted_config(self):
        # d = 3 with 256 atoms at 32 nodes: 32^3 nodes x (256 + 32 + 3 + 16 + 2) x 16 B
        # = 0.15 GiB, with an evaluation block of 256 rows counted 6 times and an FFT
        # block of 8 columns 0.16 GiB
        doc = dict(self.EXPONENTIAL_D4, domain={"center": [[0.0, 0.0]] * 3,
                                                 "radius": [1.0] * 3})
        self.config(family.family_from_json(json.dumps(doc)), "uniform-256", 32)

    # derivative_profile holds its 5 x PROFILE_GRID x k float magnitudes (half as
    # many complex values), the grid and one block of its contours, counted as
    # 8 x EVAL_BLOCK complex values
    PROFILE_BLOCK = 8 * theorems.EVAL_BLOCK

    def test_lowered_budget(self, monkeypatch):
        # geometric d = 1 on 16 atoms at 4 nodes, with PROFILE_GRID read at call time
        # and set to 4: the profile's 5 x 4 x 16 / 2 + 4 values and its block take
        # more than the (16 + 8) x 16 + 16 of order_bound's own 16-node sample, table
        # and grid with the 16 x (2 + 4 x 16 + 16) + 8 x 16 / 2 of building them, or the
        # 4 x (2 + 4 x 16 + 16) + 3 x 16 / 2 the budget counts for building the contour
        # sample and its table: 2 per node, its 4 rows of 16 values as one evaluation
        # block counted 4 times, its 16 columns as one FFT block and half its table.
        # Beside it the run holds the 4 x 16 values of the sample, its 4-point grid,
        # the 3 x 16 of its degree-2 table, the 20 x 16 of one exponent's dual stack
        # and the 3 x 16 of the closed-form vectors of orders 0 to 2.  The budget
        # counts the profile whatever the checks, and its term does not depend on n.
        fam = family_preset("geometric")
        few = tuple(name for name in CHECK_NAMES if name != "derivative_profile")
        need = ((4 + 3 + 20 + 3) * 16 + 4 + 5 * 4 * 16 // 2 + 4 + self.PROFILE_BLOCK) * 16
        with monkeypatch.context() as patch:
            patch.setattr(theorems, "PROFILE_GRID", 4)
            patch.setattr(cli, "WORK_BUDGET_BYTES", need)
            self.config(fam, "uniform-16", 4)
            patch.setattr(cli, "WORK_BUDGET_BYTES", need - 1)
            with pytest.raises(cli.ConfigError, match="work budget"):
                self.config(fam, "uniform-16", 4, checks=few)
        # at 64 nodes and the 32-point grid the profile counts 5 x 32 x 16 / 2 + 32
        # values beside its block, and the run holds a 32-coefficient table and a
        # 64-point grid
        need = ((64 + 32 + 20 + 3) * 16 + 64 + 5 * 32 * 16 // 2 + 32 + self.PROFILE_BLOCK) * 16
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need)
        self.config(fam, "uniform-16", 64)
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need - 1)
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)
        args = cli.build_parser().parse_args(["verify", "--family", "geometric"])
        with pytest.raises(cli.ConfigError, match="work budget"):
            cli._build_config(args, CHECK_NAMES)
        # exponential d = 2 on 16 atoms at 32 nodes, with no profile: beside the
        # 1024 x 16 values of the sample, its 1024 x 2 grid, the 16^2 x 16 of its table,
        # one dual stack and the 6 closed-form vectors of |alpha| <= 2, building and
        # reading them counts the whole grid as one evaluation block 5 times, the 16
        # columns as one FFT block once, half the table and 2 x 1024 values for
        # diff_under_integral
        doc = {**self.EXPONENTIAL_D4, "domain": {"center": [[0.0, 0.0]] * 2,
                                                 "radius": [1.0] * 2}}
        fam = family.family_from_json(json.dumps(doc))
        need = ((1024 + 256 + 20 + 6) * 16 + 1024 * 2 + (5 + 1) * 1024 * 16 + 256 * 16 // 2
                + 2 * 1024) * 16
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need)
        self.config(fam, "uniform-16", 32)
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need - 1)
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 32)

    def test_held_values_count_functionals(self):
        # each functional holds its weights, one value per node, its slice vector and
        # its closed-form vector; one off the contour also holds its nodes and node
        # values, d + k per node, while one on it holds the run's one grid, counted with
        # the sample.  The sample keeps the closed-form vectors of orders 0 to 2
        # whatever the functionals
        fam, space = family_preset("geometric"), space_preset("uniform-16")
        on = derivative_functional([0.0], (1,), [0.95], n=64)
        off = derivative_functional([0.5], (1,), [0.475], n=64)
        base = cli.SuiteConfig(family=fam, space=space, functionals=[], p_list=[2.0])
        held = cli._held_values(base)
        assert held == (64 + 32 + 20 + 3) * 16 + 64
        assert cli._held_values(replace(base, functionals=[on])) == held + 64 + 2 * 16
        assert cli._held_values(replace(base, functionals=[off])) == \
            held + 64 + 2 * 16 + 64 * (1 + 16)

    @pytest.mark.parametrize("kind", ["geometric", "exponential"])
    def test_counted_values_per_node_cover_the_peak(self, kind):
        # derivative_consistency on a fresh d = 3 sample evaluates it and builds its
        # table, the run's largest transient; the geometric kind's (nodes, k, 3)
        # argument array beside its k results takes about 4k values per node
        doc = {**self.EXPONENTIAL_D4, "domain": {"center": [[0.0, 0.0]] * 3,
                                                 "radius": [1.0] * 3}}
        if kind == "geometric":
            doc.update(kind="geometric", params={"rates": [[0.5, 0.0], [0.4, 0.0],
                                                           [0.3, 0.0]]})
        fam, space, n = family.family_from_json(json.dumps(doc)), space_preset("uniform-64"), 16
        alphas = cli._alpha_battery(3)
        # a first call's one-time imports and caches are no per-node arrays
        theorems.derivative_consistency(family.ContourSample(fam, space, 4), alphas)
        sample = family.ContourSample(fam, space, n)
        tracemalloc.start()
        try:
            theorems.derivative_consistency(sample, alphas, p=[1.0, 2.0, np.inf])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = cli._held_values(self.config(fam, "uniform-64", n)) \
            + cli._build_values(fam, space.natoms, n)
        assert peak <= counted * 16

    @staticmethod
    def traced_run(argv):
        """(exit code, tracemalloc peak, counted complex values) of one run of argv."""
        tracemalloc.start()
        try:
            config = cli._build_config(cli.build_parser().parse_args(argv), CHECK_NAMES)
            code, _ = cli.run_suite(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, peak, cli._counted_values(config)

    def test_counted_values_per_node_cover_the_verify_peak(self, tmp_path):
        # the whole d = 3 exponential battery at n = 32 holds the sample and, from
        # derivative_consistency on, its Taylor table beside the run's held arrays.  On
        # uniform-256 it peaked at 642 values per node while the table's FFT took whole
        # columns, and at 307 against 332 counted once order_bound scaled the table's
        # magnitudes in place; on uniform-16 at 29 against 46, where the contour's
        # pairing with a stack of ten dual vectors, held until it took 10 of every 16
        # values of the sample, gave 38
        path = self.family_file(tmp_path, 3)
        # a first run's one-time imports and caches are no per-node arrays
        main(["verify", "--family-file", path, "--space", "uniform-4", "--nodes", "8",
              "--output", str(tmp_path / "warm-up.jsonl")])
        for k in (16, 256):
            code, peak, counted = self.traced_run(
                ["verify", "--family-file", path, "--space", f"uniform-{k}", "--nodes", "32"])
            assert code == 0
            assert peak <= counted * 16, k

    def test_d3_verify_peaks_within_the_sample_table_and_one_fft_transient(self, tmp_path):
        # the battery-d3 config, exponential d = 3 on uniform-16 at 32 nodes, with its
        # functionals built: the run holds the 32^3 x 16 contour sample (8 MiB) and its
        # degree-15 table (1 MiB), and beyond them the table's FFT holds at most 3/4 of
        # an FFT block (3 MiB) while the checks keep their small products; it peaked
        # 0.1 MiB over the three.  With the contour's (n^d, 10) pairing held per stack
        # and a full transform beside each block's kept half it peaked 6 MiB over them
        path = self.family_file(tmp_path, 3)
        main(["verify", "--family-file", path, "--space", "uniform-4", "--nodes", "8",
              "--output", str(tmp_path / "warm-up.jsonl")])
        config = cli._build_config(cli.build_parser().parse_args(
            ["verify", "--family-file", path, "--space", "uniform-16", "--nodes", "32"]),
            CHECK_NAMES)
        tracemalloc.start()
        try:
            code, _ = cli.run_suite(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        sample, table = 32 ** 3 * 16 * 16, 16 ** 3 * 16 * 16
        assert peak <= sample + table + 3 * cauchy.FFT_BLOCK // 4 * 16 + 2 ** 19

    @pytest.mark.parametrize("k", [4096, 16384])
    def test_counted_values_cover_the_verify_peak(self, tmp_path, k):
        # geometric d = 1 at 64 nodes peaks in derivative_profile, beside the contour
        # sample, its table, the dual stacks, the sample's copy of each and its
        # closed-form vectors: 22.1 MiB against 26.0 MiB counted on 4,096 atoms, 88.0
        # against 104.0 on 16,384.  The
        # budget once counted only the largest check's arrays, 15.0 and 60.0 MiB, while
        # the runs peaked at 27.4 and 109.0 MiB with a copy of each stack per functional
        main(["verify", "--space", "uniform-4", "--output", str(tmp_path / "warm-up.jsonl")])
        code, peak, counted = self.traced_run(["verify", "--space", f"uniform-{k}"])
        assert code == 0
        assert peak <= counted * 16

    def test_counted_profile_values_cover_the_peak(self, monkeypatch):
        # the d = 1 derivative_profile on a 4096-point region grid on 16 atoms
        fam, space = family_preset("geometric"), space_preset("uniform-16")
        sample = family.ContourSample(fam, space, 64)
        # a first call's one-time imports and caches are no profile arrays
        monkeypatch.setattr(theorems, "PROFILE_GRID", 4)
        theorems.derivative_profile(sample)
        monkeypatch.setattr(theorems, "PROFILE_GRID", 4096)
        tracemalloc.start()
        try:
            theorems.derivative_profile(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._profile_values(space.natoms) * 16

    @pytest.mark.parametrize("name, k", [("geometric", 4096), ("polynomial", 256),
                                         ("polynomial", 512)])
    def test_counted_profile_block_covers_a_whole_contour(self, name, k):
        # one contour of PROFILE_NODES k values takes EVAL_BLOCK or more, so a block is
        # that contour: 5 x 32 k values are counted for it (10 MiB on 4,096 atoms), and
        # 8 x EVAL_BLOCK (1 MiB) where that is more, as on 256 atoms; on 512 (32 k =
        # 16,384) the polynomial kinds' evaluation transients weigh most
        fam, space = family_preset(name), space_preset(f"uniform-{k}")
        theorems.derivative_profile(family.ContourSample(fam, space_preset("uniform-4"), 8))
        sample = family.ContourSample(fam, space, 64)
        sample.values
        tracemalloc.start()
        try:
            theorems.derivative_profile(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theorems.PROFILE_NODES * k >= theorems.EVAL_BLOCK
        assert peak <= cli._profile_values(k) * 16

    def test_order_bound_peak_lies_under_the_largest_term(self):
        # order_bound evaluates its 200 sample points for blocks of 40 atoms, so on
        # 4,096 atoms at n = 64 its peak, with the sample's evaluation and its Taylor
        # table, is 10.1 MiB, under the 15.0 MiB of the budget's largest term (the
        # profile's); evaluated for all atoms at once they peaked at 31.1 MiB
        fam, space = family_preset("geometric"), space_preset("uniform-4096")
        # a first call's one-time imports and caches are no order_bound arrays
        theorems.order_bound_check(family.ContourSample(fam, space_preset("uniform-4"), 64))
        sample = family.ContourSample(fam, space, 64)
        tracemalloc.start()
        try:
            theorems.order_bound_check(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = space.natoms
        assert cli._build_values(fam, k, 64) < cli._profile_values(k)
        assert peak <= cli._profile_values(k) * 16

    def test_d4_at_32_nodes_admitted(self):
        # telescoping and norm_bound read their sups from the 32^4 contour grid, so
        # d = 4 on uniform-16 at 32 nodes needs 32^4 x (16 + 1 + 4 + 1 / 2 + 2) x 16 B
        # with the evaluation and FFT blocks, 0.39 GiB
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        assert self.config(fam, "uniform-16", 32).n == 32

    def test_profile_term_refuses_many_atoms(self, capsys, monkeypatch):
        # geometric d = 1 on 4,000,000 atoms at 6 nodes: the profile's magnitudes,
        # grid and block of one contour of PROFILE_NODES nodes take (5 x 32 x
        # 4,000,000 / 2 + 32 + 5 x 32 x 4,000,000) values, the largest of the checks'
        # own arrays, beside the (6 + 3 + 20 x 3 + 3) x 4,000,000 values the run holds:
        # the contour sample, its table, three exponents' dual stacks and the
        # closed-form vectors of orders 0 to 2.  That needs 18.60 GiB, while building
        # the sample counts 2 values per node, one evaluation block of one row counted
        # 4 times, one FFT block of 43,690 columns and half the degree-2 table,
        # 22,262,152 values, and order_bound's own 16-node sample, grid and degree-7
        # table (16 + 8) x 4,000,000 + 16 values beside its build
        fam, k = family_preset("geometric"), 4_000_000
        profile = cli._profile_values(k)
        assert cli._build_values(fam, k, 6) == 6 * 2 + 4 * k + 6 * 43_690 + 3 * k // 2 < profile
        assert (16 + 8) * k + 16 + cli._build_values(fam, k, 16) < profile
        counted = []

        def counting(evaluate):
            def wrapper(self, z, t):
                counted.append(np.size(z))
                return evaluate(self, z, t)
            return wrapper

        for kind in family.HoloFamily.__subclasses__():
            monkeypatch.setattr(kind, "_evaluate", counting(kind._evaluate))
        code = main(["verify", "--family", "geometric", "--space", f"uniform-{k}",
                     "--nodes", "6"])
        assert code == 2
        assert "configuration error:" in (err := capsys.readouterr().err)
        assert "need 18.60 GiB" in err
        assert counted == []

    @pytest.mark.parametrize("d, space, n", [(1, "uniform-16", 64), (1, "geometric-64", 64),
                                             (2, "uniform-16", 64), (2, "uniform-256", 32),
                                             (3, "uniform-16", 32)])
    def test_bench_configs_admitted(self, tmp_path, d, space, n):
        # every (d, atoms, nodes) of the benchmark matrix
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", self.family_file(tmp_path, d), "--space", space,
             "--nodes", str(n)])
        assert cli._build_config(args, CHECK_NAMES).n == n

    def test_default_config_admitted(self):
        config = cli._build_config(cli.build_parser().parse_args(["verify"]), CHECK_NAMES)
        assert (config.family.d, config.space.natoms, config.n) == (1, 16, 64)


class TestCheckSubcommand:
    def test_single_check(self, tmp_path):
        code, text = run_cli(tmp_path, "check", "fubini", "--family", "geometric")
        assert code == 0
        records = parse_records(text)
        assert records and all(r["check"] == "fubini" for r in records)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_records_carry_the_check_name(self, tmp_path, name):
        d = 2 if name == "telescoping" else 1
        _, text = run_cli(tmp_path, "check", name, *family_args(tmp_path, d))
        assert {r["check"] for r in parse_records(text)} == {name}

    @pytest.mark.parametrize("name, d", [("schwarz", 2), ("telescoping", 1),
                                         ("derivative_profile", 2)],
                             ids=["schwarz-d2", "telescoping-d1", "profile-d2"])
    def test_check_that_does_not_apply_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                      name, d):
        # a check that cannot emit a record at the family's d is refused before any
        # family value, not run to an empty report
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", name, *family_args(tmp_path, d))
        assert code == 2 and text is None
        assert "configuration error: no selected check applies" in capsys.readouterr().err
        assert counted == []

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

    @pytest.mark.parametrize("nodes, read", [("9", 16), ("15", 16), ("16", 16), ("17", 17)])
    def test_order_bound_record_carries_the_nodes_it_read(self, tmp_path, nodes, read):
        # below 16 nodes the table and the grid sup come from a 16-node contour
        # sample, and the record says so in place of --nodes
        code, text = run_cli(tmp_path, "check", "order_bound", "--family", "geometric",
                             "--nodes", nodes, "--shrink", "0.1")
        assert code == 0
        [record] = parse_records(text)
        assert record["n"] == read

    def test_unknown_check_name(self, tmp_path):
        code = main(["check", "bogus", "--family", "geometric"])
        assert code == 2


class TestParser:
    def test_parser_is_built_once_per_process(self, tmp_path):
        # main and every caller get the one parser, and parsing leaves it working
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["verify", "--functional", "dirac:0.3"])
        second = parser.parse_args(["check", "fubini", "--nodes", "16"])
        assert first.functional == ["dirac:0.3"] and second.functional is None
        assert (second.command, second.name, second.nodes) == ("check", "fubini", 16)
        assert main(["check", "fubini", "--output", str(tmp_path / "out.jsonl")]) == 0
        assert cli.build_parser() is parser


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
    def test_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        # an absurdly tight exact-identity tolerance forces linearization records to fail
        monkeypatch.setattr(theorems, "TOL_EXACT", 1e-300)
        out = tmp_path / "report.jsonl"
        code = main(["verify", "--family", "geometric", "--nodes", "16",
                     "--output", str(out)])
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

    @pytest.mark.parametrize("args", [["--p", "nan"], ["--functional", "random:0"]],
                             ids=["p-nan", "random-0"])
    def test_invalid_number_is_usage_error(self, tmp_path, capsys, args):
        # no paper claim fails here: a NaN exponent fails every check it reaches, and
        # an empty measure has no nodes to take a sup over
        code, text = run_cli(tmp_path, "verify", "--family", "geometric", *args)
        assert code == 2 and text is None
        assert "configuration error:" in capsys.readouterr().err

import gc
import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

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
    """Count family values at each kind's _evaluate: the size of every output is appended,
    but for a closed-form derivative built on _evaluate (the exponential kind's), which,
    as in the benchmark's tracer, is no family value."""
    counted, deriving = [], []

    def counting(evaluate):
        def wrapper(self, z, t):
            out = evaluate(self, z, t)
            if not deriving:
                counted.append(np.size(out))
            return out
        return wrapper

    def uncounted(derivative):
        def wrapper(self, z, t, alpha):
            deriving.append(alpha)
            try:
                return derivative(self, z, t, alpha)
            finally:
                deriving.pop()
        return wrapper

    for kind in family.HoloFamily.__subclasses__():
        monkeypatch.setattr(kind, "_evaluate", counting(kind._evaluate))
        monkeypatch.setattr(kind, "_derivative", uncounted(kind._derivative))
    return counted


def family_args(tmp_path, d, kind="geometric"):
    """CLI arguments selecting the geometric family in d = 1 (preset) or d = 2 (file), or
    the exponential kind of scale 1 on the unit polydisc of dimension d (file)."""
    if kind == "exponential":
        doc = {"kind": kind, "params": {"scale": [1.0, 0.0]},
               "domain": {"center": [[0.0, 0.0]] * d, "radius": [1.0] * d},
               "label": f"exponential-d{d}"}
    elif d == 1:
        return ["--family", "geometric"]
    else:
        doc = GEOMETRIC_D2
    path = tmp_path / f"{doc['label']}.json"
    path.write_text(json.dumps(doc))
    return ["--family-file", str(path)]


#: (check, d) for d = 1, 2 where the check's table entry applies (True) or not (False)
APPLIES = {applies: [(name, d) for d in (1, 2) for name, check in theorems.CHECKS.items()
                     if check.applies(d) == applies] for applies in (True, False)}


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
        # the profile reads its orders 0-4 on contours of at most PROFILE_NODES nodes,
        # not --nodes, so it runs where the run's contour could not resolve order 4: the
        # geometric family is real and reflective, so the 9 orbits of its 32 region
        # points, 9 contours of PROFILE_NODES / 2 = 16 nodes on 16 atoms, each of which
        # the half rule resolves, and nothing else
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", "derivative_profile", "--family", "geometric",
                             "--functional", "dirac", *args)
        assert code == 0
        records = parse_records(text)
        assert len(records) == theorems.PROFILE_MAX_ORDER + 1
        assert {r["n"] for r in records} == {theorems.PROFILE_NODES // 2}
        assert sum(counted) == 9 * 16 * 16

    @pytest.mark.parametrize("nodes", ["4", "5", "6"])
    def test_default_derivative_functionals_refuse_few_nodes(self, tmp_path, capsys, nodes):
        # verify at d = 1 builds the second-order derivative functional, which needs
        # n > 2 x 2 + 2 nodes
        code, text = run_cli(tmp_path, "verify", "--family", "geometric", "--nodes", nodes)
        assert code == 2 and text is None
        assert "too small for derivative order" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["4", "5", "6"])
    @pytest.mark.parametrize("check, d", [
        ("order_bound", 1), ("schwarz", 1), ("derivative_profile", 1), ("telescoping", 2),
        ("derivative_consistency", 1), ("diff_under_integral", 1)])
    def test_checks_that_read_no_functional_take_few_nodes(self, tmp_path, check, d, nodes):
        # no default functional is built for a check that reads none, so the run is not
        # refused over the default derivative functionals; its own verdict decides
        code, text = run_cli(tmp_path, "check", check, *family_args(tmp_path, d),
                             "--nodes", nodes)
        assert code != 2 and {r["check"] for r in parse_records(text)} == {check}

    @pytest.mark.parametrize("nodes", ["4", "5", "6"])
    def test_linearization_refuses_few_nodes(self, tmp_path, capsys, nodes):
        # linearization reads the default functionals, so they are built and refused
        assert main(["check", "linearization", "--family", "geometric", "--nodes", nodes]) == 2
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

    @pytest.mark.parametrize("kind, params, center", [
        # a string where a list belongs: iterated, "00" read as two zeros, a d = 2 family
        ("geometric", {"rates": "00"}, "00"),
        # a d = 2 coefficient tensor in a d = 1 document, one axis too many
        ("polynomial", {"coeffs": [[[[1.0, 0.0], [0.5, 0.0]]]]}, [[0.0, 0.0]]),
        # ragged: rows of 2 and 1 entries
        ("tabulated_taylor", {"coeffs": [[[1.0, 0.0], [0.5, 0.0]], [[0.25, 0.0]]]},
         [[0.0, 0.0]]),
    ], ids=["string", "depth", "ragged"])
    def test_malformed_family_document_is_usage_error(self, tmp_path, capsys, kind, params,
                                                      center):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": kind, "params": params,
                                    "domain": {"center": center,
                                               "radius": [1.0] * len(center)}}))
        code, text = run_cli(tmp_path, "verify", "--family-file", str(path))
        assert code == 2 and text is None
        assert "cannot parse complex" in capsys.readouterr().err

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_verify_runs_the_checks_that_apply(self, tmp_path, d):
        # verify emits records of exactly the checks whose table entry applies at d
        if d == 3:
            args = ["--family-file", TestWorkBudget.family_file(tmp_path, 3), "--nodes", "16"]
        else:
            args = [*family_args(tmp_path, d), "--nodes", "32"]
        code, text = run_cli(tmp_path, "verify", *args)
        assert code == 0
        assert {r["check"] for r in parse_records(text)} == \
            {name for name, check in theorems.CHECKS.items() if check.applies(d)}

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
    #     norm_bound's sup and each atom's sup for schwarz or telescoping; the
    #     family, centre and atoms are real, the centre is 0 and the atoms are
    #     symmetric, so a one-variable contour is evaluated one row per orbit of
    #     conjugation and the reflection and the others copied, (n / 4 + 1) * k rows
    #     where 4 divides n: 17 at d = 1 and n = 64.  At d = 2 the geometric kind is a
    #     product of one-variable factors, so the grid is filled from one such contour
    #     per axis of its own rate: 2 * 17 rows at n = 64, 2 * 9 at 32
    #   dirac node 1 * k and random-measure nodes 8 * k
    # plus the work that evaluates points of its own:
    #   fubini's direct Dirac action f(z0, .), kept on the sample for every p:  1 * k
    #   the interior sequence, evaluated once for span, order_bound, telescoping and
    #   schwarz: their 200 points, whose first 16 span's 4 functionals share:  200 * k
    #   F at the centre, from which schwarz (d = 1) or telescoping (d = 2) measures
    #     each point's increment, read with the interior pass:  1 * k
    #   d = 1 only, derivative_profile: one of its 32 region points per orbit of the
    #     same moves, (32 + 2 + 0 + 2) / 4 = 9, each a contour read at the even 16 of
    #     its PROFILE_NODES = 32 nodes whatever n, shared by orders 0-4; every atom of
    #     these families is resolved there, so no odd node is evaluated
    # The closed-form derivatives that derivative_consistency, diff_under_integral
    # and the derivative functionals' fubini read are no family values here.
    # d = 1, n = 64: k * (17 + 9 + 1 + 200 + 1 + 9*16) = 5,952
    # d = 2, n = 64: k * (2*17 + 9 + 1 + 200 + 1) = 3,920
    # d = 2, n = 32: k * (2*9 + 9 + 1 + 200 + 1) = 3,664
    # a single check of the interior sequence evaluates only the prefix it reads, beside
    #   the contour the checks read: `check span` its 16 points and the functionals'
    #   slice vectors, k * (2*17 + 9 + 16) = 944; `check order_bound` its 200
    #   points and the contour for its table, k * (2*17 + 200) = 3,744; `check
    #   telescoping` its 200 points, F at the centre and the contour for its sups,
    #   k * (2*17 + 200 + 1) = 3,760
    # `check derivative_profile` reads no contour value: k * 9 * 16 = 2,304
    # `check norm_bound` with a derivative functional off the centre: the contour
    #   sample's 17 rows for the grid sup and the functional's own 64 nodes about 0.5,
    #   a real centre but not 0, so one per conjugate orbit, k * (17 + 33) = 800
    # `check linearization` of a Dirac functional reads its one node and no contour
    #   value, not even to share a pairing: k * 1 = 16
    # A family or centre that is not real is not conjugated: the constant preset (value
    # 2 + 1j) and a complex-rate geometric family are still reflected, half of the
    # contour and of the region grid, k * (32 + 9 + 1 + 200 + 1 + 16*16) = 7,984; a
    # JSON space with a complex atom, not symmetric, keeps both whole,
    # k * (64 + 9 + 1 + 200 + 1 + 32*16) = 12,592; d = 2 with the centre (0.1i, 0):
    # the first axis's contour, about 0.1i, neither conjugated nor reflected, all 64
    # rows, the second's 17, k * (64 + 17 + 9 + 1 + 200 + 1) = 4,672
    # The exponential kind of scale 1 on the unit polydisc is a product of one-variable
    # factors exp(t z_j) at d >= 2 whose axes are all equal, so its grid is filled from
    # one real reflected contour of n nodes whatever d: k * (17 + 211) = 3,648 at d = 2
    # and n = 64, k * (9 + 211) = 3,520 at d = 3 and n = 32, 211 the points of its own
    # beside the contour, as at d = 2 above (9 + 1 + 200 + 1).  Its closed-form
    # derivatives call _evaluate, but are no family values either.
    # ids name only the family and d (and n where it is not 64), so re-pinning a count
    # keeps the test's name
    @pytest.mark.parametrize("kind, d, n, command, expected", [
        ("geometric", 1, 64, ["verify"], 5_952),
        ("geometric", 2, 64, ["verify"], 3_920),
        ("geometric", 2, 32, ["verify"], 3_664),
        ("geometric", 2, 64, ["check", "span"], 944),
        ("geometric", 2, 64, ["check", "order_bound"], 3_744),
        ("geometric", 2, 64, ["check", "telescoping"], 3_760),
        ("geometric", 1, 64, ["check", "derivative_profile"], 9 * 16 * 16),
        ("geometric", 1, 64, ["check", "norm_bound", "--functional", "derivative:0.5:1"],
         50 * 16),
        ("geometric", 1, 64, ["check", "linearization", "--functional", "dirac:0.3"], 16),
        ("exponential", 2, 64, ["verify"], 16 * (17 + 211)),
        ("exponential", 3, 32, ["verify"], 16 * (9 + 211)),
    ], ids=["d1", "d2", "d2-n32", "d2-span", "d2-order-bound", "d2-telescoping",
            "d1-profile", "d1-off-centre", "d1-dirac", "exponential-d2",
            "exponential-d3-n32"])
    def test_family_value_count(self, tmp_path, monkeypatch, kind, d, n, command, expected):
        counted = count_family_values(monkeypatch)
        code, _ = run_cli(tmp_path, *command, *family_args(tmp_path, d, kind),
                          "--space", "uniform-16", "--nodes", str(n))
        assert code == 0
        assert sum(counted) == expected

    @pytest.mark.parametrize("case, expected", [
        ("constant", 7_984), ("complex-rate", 7_984), ("complex-centre", 4_672),
        ("complex-atom", 12_592)], ids=["constant", "complex-rate", "complex-centre",
                                        "complex-atom"])
    def test_family_value_count_not_real(self, tmp_path, monkeypatch, case, expected):
        # a family or centre that is not real is not conjugated, and a space that is not
        # symmetric or a centre that is not 0 not reflected, axis by axis at d = 2
        # (arithmetic above)
        documents = {
            "complex-rate": {**GEOMETRIC_D2, "params": {"rates": [[0.4, 0.2]]},
                             "domain": {"center": [[0.0, 0.0]], "radius": [1.0]},
                             "label": "geometric-complex-rate"},
            "complex-centre": {**GEOMETRIC_D2, "domain": {
                "center": [[0.0, 0.1], [0.0, 0.0]], "radius": [1.0, 1.0]}},
        }
        space = [{"param": [t, 0.0], "weight": 1 / 16} for t in np.linspace(-1.0, 1.0, 16)]
        space[3]["param"][1] = 0.25
        args = {"constant": ["--family", "constant"],
                "complex-atom": ["--family", "geometric", "--space", str(tmp_path / "s.json")]}
        (tmp_path / "s.json").write_text(json.dumps({"atoms": space}))
        if case in documents:
            (tmp_path / "f.json").write_text(json.dumps(documents[case]))
            args[case] = ["--family-file", str(tmp_path / "f.json"), "--space", "uniform-16"]
        counted = count_family_values(monkeypatch)
        code, _ = run_cli(tmp_path, "verify", *args[case])
        assert code == 0
        assert sum(counted) == expected

    # below 16 nodes order_bound and telescoping (d = 2) or schwarz (d = 1) read one
    # 16-node floor contour that the run's sample keeps: at --nodes 8 the run's contour
    # evaluates its orbits of conjugation and the reflection, (8 + 2 + 0 + 2) / 4 = 3
    # at d = 1 and 2 * 3 at d = 2, one one-variable contour per axis, and the floor
    # contour its (16 + 2 + 0 + 2) / 4 = 5 or 2 * 5, each once, on 16 atoms; a contour
    # of each check's own made it twice
    @pytest.mark.parametrize("d, rows, floor_rows", [(2, 2 * 3, 2 * 5), (1, 3, 5)],
                             ids=["d2", "d1"])
    def test_floor_contour_is_evaluated_once(self, tmp_path, monkeypatch, d, rows,
                                             floor_rows):
        counted = count_family_values(monkeypatch)
        evaluated = []
        build = family.ContourSample.values.func

        def recording(sample):
            before = sum(counted)
            values = build(sample)
            evaluated.append((sample.n, sum(counted) - before))
            return values

        values = cached_property(recording)
        values.__set_name__(family.ContourSample, "values")
        monkeypatch.setattr(family.ContourSample, "values", values)
        code, _ = run_cli(tmp_path, "verify", *family_args(tmp_path, d), "--space",
                          "uniform-16", "--nodes", "8")
        assert code in (0, 1)  # 8 nodes miss the quadrature checks' 64-node tolerance
        assert sorted(evaluated) == [(8, rows * 16), (16, floor_rows * 16)]

    @pytest.mark.parametrize("nodes", [64, 8])
    def test_no_sample_outlives_its_run(self, tmp_path, monkeypatch, nodes):
        # reference counting frees a run's samples, the floor contour's at --nodes 8 too,
        # when the run returns: a sample that kept itself as its floor made a cycle, so each
        # run's arrays waited for the cyclic collector (peak RSS 100 MB against 49 MB on
        # battery-d2, 207 MB against 55 MB on battery-d3)
        samples = []
        init = family.ContourSample.__init__

        def tracking(sample, *args, **kwargs):
            init(sample, *args, **kwargs)
            samples.append((sample.n, weakref.ref(sample)))

        monkeypatch.setattr(family.ContourSample, "__init__", tracking)
        gc.collect()
        gc.disable()
        try:
            code, _ = run_cli(tmp_path, "verify", "--nodes", str(nodes))
            alive = [n for n, ref in samples if ref() is not None]
        finally:
            gc.enable()
        assert code in (0, 1) and (16 in {n for n, _ in samples}) == (nodes < 16)
        assert alive == []

    def test_closed_forms_are_evaluated_once(self, tmp_path, monkeypatch):
        # d = 2: fubini reads the Dirac functional's F(z0) at each of 3 p, telescoping
        # F at the center, and each of the 6 multi-indices of |alpha| <= 2 is read at
        # the center by derivative_consistency and diff_under_integral, (1, 0) and
        # (2, 0) also by the derivative functionals' fubini at each p; the sample keeps
        # each vector
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
        assert len(calls) == len(set(calls)) == 2 + 6

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
                                          config.functionals, config.checks)
            if counted:
                sample.__dict__["values"] = sample.values.view(Products)
            runs.append([vars(rep) for rep in theorems.run_checks(sample, duals)])
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

    # a sample built without checks serves the same three readers
    @pytest.mark.parametrize("checks", [("span", "telescoping", "order_bound"), ()],
                             ids=["three-checks", "no-checks"])
    def test_order_bound_and_telescoping_read_the_contour_sample(self, monkeypatch, checks):
        # once the contour sample holds its values, the checks evaluate only the
        # interior sequence, once for the sample's checks: order_bound, which reads it
        # first, evaluates its 200 points, which telescoping shares, and telescoping's F
        # at the center; span and telescoping then evaluate nothing, and norm_bound the
        # 1 * k node of its Dirac functional
        fam = family.family_from_json(json.dumps(GEOMETRIC_D2))
        sample = family.ContourSample(fam, space_preset("uniform-16"), 64, checks=checks)
        sample.values
        counted = count_family_values(monkeypatch)
        assert theorems.order_bound_check(sample).passed
        assert sum(counted) == (200 + 1) * 16
        counted.clear()
        assert theorems.span_monotonicity(dirac([0.3, -0.2j]), sample).passed
        assert theorems.telescoping_residual(sample).passed
        assert sum(counted) == 1 * 16  # span's slice vector of the Dirac functional
        counted.clear()
        reports = theorems.norm_bound_check([dirac([0.3, -0.2j])], sample, [2])
        assert reports[0].passed
        assert sum(counted) == 1 * 16

    def test_a_check_the_sample_is_not_built_for_is_refused(self, monkeypatch):
        # a sample built for span keeps no order_bound maxima and makes no second pass
        fam = family.family_from_json(json.dumps(GEOMETRIC_D2))
        sample = family.ContourSample(fam, space_preset("uniform-16"), 64,
                                      checks=("span",))
        sample.values
        counted = count_family_values(monkeypatch)
        for check in (theorems.order_bound_check, theorems.telescoping_residual):
            with pytest.raises(ValueError, match="built for"):
                check(sample)
        assert counted == []
        assert theorems.span_monotonicity(dirac([0.3, -0.2j]), sample).passed
        assert sum(counted) == 16 * 16 + 1 * 16

    def test_one_orthogonalization_serves_every_functional(self, tmp_path, monkeypatch):
        # the four default functionals' span records read one basis of the interior
        # sequence's first 16 points, for both nested sets
        built = []
        init = theorems._Span.__init__
        monkeypatch.setattr(theorems._Span, "__init__",
                            lambda self, space, rows: built.append(len(rows)) or
                            init(self, space, rows))
        code, text = run_cli(tmp_path, "check", "span", *family_args(tmp_path, 2),
                             "--space", "uniform-16", "--nodes", "32")
        assert code == 0
        assert len(parse_records(text)) == 4
        assert built == [16]

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
            own = family.ContourSample(config.family, config.space, config.n,
                                       config.functionals, (name,), config.shrink,
                                       config.seed)
            reports += theorems.run_checks(own, duals)
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


def _budget_family_doc(kind, d):
    """The budget property's families at dimension d, on the unit polydisc."""
    if kind == "geometric":
        params = {"rates": [[rate, 0.0] for rate in (0.5, 0.4, 0.3)[:d]]}
    elif kind == "exponential":
        params = {"scale": [1.0, 0.0]}
    else:  # 1 + t z_1^2
        coeffs = np.zeros((3,) * d + (2, 2))
        coeffs[(0,) * d + (0, 0)] = coeffs[(2,) + (0,) * (d - 1) + (1, 0)] = 1.0
        params = {"coeffs": coeffs.tolist()}
    return {"kind": kind, "params": params, "label": f"{kind}-d{d}",
            "domain": {"center": [[0.0, 0.0]] * d, "radius": [1.0] * d}}


BUDGET_KINDS = ("geometric", "exponential", "polynomial")


@st.composite
def budget_configs(draw):
    """(d, atoms, n, kind, functional specs or None for the defaults, checks) with
    n^d atoms <= 2^18."""
    d = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 4, 16, 256, 1024]))
    n = draw(st.integers(4, max(n for n in range(4, 65) if n ** d * k <= 2 ** 18)))
    specs = ["dirac", "derivative", "derivative:" + ",".join(["0.1"] * d), "random:4"]
    functionals = draw(st.none() | st.lists(st.sampled_from(specs), min_size=1, max_size=3))
    subsets = st.sets(st.sampled_from(CHECK_NAMES), min_size=1).map(sorted).map(tuple)
    checks = draw(st.just(CHECK_NAMES) | subsets)
    return d, k, n, draw(st.sampled_from(BUDGET_KINDS)), functionals, checks


@pytest.fixture(scope="module")
def budget_families(tmp_path_factory):
    """A directory of the property's family files, each run once first: a first run's
    one-time imports and caches are no arrays of the run."""
    root = tmp_path_factory.mktemp("budget")
    for kind in BUDGET_KINDS:
        for d in (1, 2, 3):
            path = root / f"{kind}-d{d}.json"
            path.write_text(json.dumps(_budget_family_doc(kind, d)))
            main(["verify", "--family-file", str(path), "--space", "uniform-4", "--nodes", "8",
                  "--output", str(root / "warm-up.jsonl")])
    return root


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

    @staticmethod
    def traced_run(argv, checks=CHECK_NAMES):
        """(exit code, tracemalloc peak in bytes, counted complex values, whether the run
        read its contour sample) of building and running argv."""
        samples = []

        class Recorded(family.ContourSample):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                samples.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "ContourSample", Recorded)
            gc.collect()  # arrays of an earlier run are not held through this one
            tracemalloc.start()
            try:
                config = cli._build_config(cli.build_parser().parse_args(argv), checks)
                code, _ = cli.run_suite(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        read = any("values" in vars(sample) for sample in samples)
        return code, peak, cli._counted_values(config), read

    # The work budget's count is held to the arrays a run makes, not to pinned figures:
    # on every drawn configuration the tracemalloc peak of building and running it lies
    # under the count, and wherever the run reads a contour sample of 1 MiB or more the
    # count lies within 3 times the peak.  The first example is the telescoping check's
    # pairs, which it once evaluated for every atom at once: 18.9 MiB against 15.8
    # counted.  The second is a block of derivative_profile's contours, one contour of
    # 32 x 16,384 values, which the count once took for 8 EVAL_BLOCK values.  The third
    # is the exponential kind's product fill at d = 3, which holds the product of its
    # first two axes, two planes of 10^2 x 256 floats, beside the 10^3 x 256 sample it
    # fills; linearization reads little else (5.6 MiB traced against 10.3 counted).
    @given(drawn=budget_configs())
    @example(drawn=(2, 1024, 16, "geometric", None, CHECK_NAMES))
    @example(drawn=(1, 16384, 8, "geometric", None, ("derivative_profile",)))
    @example(drawn=(3, 256, 10, "exponential", None, ("linearization",)))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_counted_values_bound_the_traced_peak(self, budget_families, drawn):
        d, k, n, kind, functionals, checks = drawn
        argv = ["verify", "--family-file", str(budget_families / f"{kind}-d{d}.json"),
                "--space", f"uniform-{k}", "--nodes", str(n)]
        for spec in functionals or ():
            argv += ["--functional", spec]
        try:
            _, peak, counted, read = self.traced_run(argv, checks)
        except cli.ConfigError:
            reject()
        assert peak <= counted * 16
        if read and n ** d * k * 16 >= 2 ** 20:
            assert counted * 16 <= 3 * peak

    def test_lowered_budget(self, monkeypatch):
        # a budget of exactly the counted bytes admits a configuration and one byte less
        # refuses it, before any functional is built; derivative_profile's arrays count
        # only where it runs
        fam = family_preset("geometric")
        need = cli._counted_values(self.config(fam, "uniform-16", 64)) * 16
        few = tuple(name for name in CHECK_NAMES if name != "derivative_profile")
        assert cli._counted_values(self.config(fam, "uniform-16", 64, checks=few)) * 16 < need
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need)
        self.config(fam, "uniform-16", 64)
        monkeypatch.setattr(cli, "WORK_BUDGET_BYTES", need - 1)
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)
        monkeypatch.setattr(cli, "default_functionals", None)
        args = cli.build_parser().parse_args(["verify", "--family", "geometric"])
        with pytest.raises(cli.ConfigError, match="work budget"):
            cli._build_config(args, CHECK_NAMES)

    def test_held_values_count_functionals(self):
        # a derivative functional off the contour holds its nodes' values, k per node,
        # which one on it reads from the contour sample
        fam, space = family_preset("geometric"), space_preset("uniform-16")
        on = derivative_functional([0.0], (1,), [0.95], n=64)
        off = derivative_functional([0.5], (1,), [0.475], n=64)
        base = cli.SuiteConfig(family=fam, space=space, functionals=[], p_list=[2.0])
        assert cli._counted_values(replace(base, functionals=[off])) >= \
            cli._counted_values(replace(base, functionals=[on])) + 64 * 16

    @pytest.mark.parametrize("kind", ["geometric", "exponential"])
    def test_counted_values_per_node_cover_the_peak(self, kind):
        # derivative_consistency on a fresh d = 3 sample evaluates it and builds its
        # table; the geometric kind's (nodes, k, 3) argument array weighs most
        doc = {**self.EXPONENTIAL_D4, "domain": {"center": [[0.0, 0.0]] * 3,
                                                 "radius": [1.0] * 3}}
        if kind == "geometric":
            doc.update(kind="geometric", params={"rates": [[0.5, 0.0], [0.4, 0.0],
                                                           [0.3, 0.0]]})
        fam, space, n = family.family_from_json(json.dumps(doc)), space_preset("uniform-64"), 16
        alphas = theorems._alpha_battery(3)
        # a first call's one-time imports and caches are no per-node arrays
        theorems.derivative_consistency(family.ContourSample(fam, space, 4), alphas)
        sample = family.ContourSample(fam, space, n)
        tracemalloc.start()
        try:
            theorems.derivative_consistency(sample, alphas, p=[1.0, 2.0, np.inf])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = cli._counted_values(
            self.config(fam, "uniform-64", n, checks=("derivative_consistency",)))
        assert peak <= counted * 16

    def test_counted_values_per_node_cover_the_verify_peak(self, tmp_path):
        # the whole d = 3 exponential battery at n = 32, on samples of 2^19 and 2^23
        # values, beyond the property's.  On uniform-256 the count is tightest per node,
        # and a table FFT that took whole columns once peaked over it there
        path = self.family_file(tmp_path, 3)
        # a first run's one-time imports and caches are no per-node arrays
        main(["verify", "--family-file", path, "--space", "uniform-4", "--nodes", "8",
              "--output", str(tmp_path / "warm-up.jsonl")])
        for k in (16, 256):
            code, peak, counted, _ = self.traced_run(
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
        # the default battery, d = 1 at 64 nodes, on more atoms than the property draws:
        # the sample and the dual stacks are held beside derivative_profile's arrays,
        # which the budget once counted alone
        main(["verify", "--space", "uniform-4", "--output", str(tmp_path / "warm-up.jsonl")])
        code, peak, counted, _ = self.traced_run(["verify", "--space", f"uniform-{k}"])
        assert code == 0
        assert peak <= counted * 16

    def test_floor_covers_the_uncounted_transients(self):
        # _counted_values counts no dual-stack product and no derivative_profile atom
        # block: the 8 EVAL_BLOCK floor of its transients holds both at these constants
        floor = 8 * theorems.EVAL_BLOCK
        assert measure.ROW_BLOCK <= floor, (
            "count the dual-stack product, 10 min(nodes, max(1, ROW_BLOCK // max(k, 10))), "
            "among cli._counted_values' transients")
        assert 5 * theorems.PROFILE_NODES * theorems.PROFILE_GRID <= floor, (
            "count derivative_profile's atom block, 5 PROFILE_NODES PROFILE_GRID, "
            "among cli._counted_values' transients")

    @pytest.mark.parametrize("name, k", [("geometric", 4096), ("polynomial", 256),
                                         ("polynomial", 512)])
    def test_counted_profile_block_covers_a_whole_contour(self, name, k):
        # on these spaces one contour of every atom, PROFILE_NODES k values, takes
        # EVAL_BLOCK or more; derivative_profile's blocks are 8 atoms' 32 contours
        # whatever k, so the magnitudes, which grow with k, hold the peak beside them
        # (5.7 MiB at 4096 atoms); on 512 atoms the polynomial kinds' evaluation
        # transients weigh most
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
        checks = ("derivative_profile",)
        assert peak <= cli._counted_values(self.config(fam, f"uniform-{k}", 64, checks)) * 16

    def test_order_bound_peak_lies_under_the_largest_term(self):
        # the interior pass of a sample built for order_bound evaluates its 200 points
        # for blocks of 40 atoms; evaluated for all 4,096 atoms at once they peaked at
        # 31.1 MiB at n = 64
        fam, space = family_preset("geometric"), space_preset("uniform-4096")
        # a first call's one-time imports and caches are no order_bound arrays
        theorems.order_bound_check(family.ContourSample(fam, space_preset("uniform-4"), 64))
        sample = family.ContourSample(fam, space, 64, checks=("order_bound",))
        tracemalloc.start()
        try:
            theorems.order_bound_check(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        checks = ("order_bound",)
        assert peak <= cli._counted_values(self.config(fam, "uniform-4096", 64, checks)) * 16

    def assert_refused_before_any_family_value(self, capsys, monkeypatch, argv):
        counted = count_family_values(monkeypatch)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "work budget" in err
        assert counted == []

    def test_d4_is_refused_before_any_functional_is_built(self, tmp_path, capsys, monkeypatch):
        self.assert_refused_before_any_family_value(capsys, monkeypatch, [
            "verify", "--family-file", self.family_file(tmp_path, 4), "--space", "uniform-16",
            "--nodes", "64"])

    def test_contour_coordinates_are_counted(self, tmp_path, capsys, monkeypatch):
        # one atom at d = 5: most of what the run would hold is the grid's coordinates
        self.assert_refused_before_any_family_value(capsys, monkeypatch, [
            "verify", "--family-file", self.family_file(tmp_path, 5), "--space", "uniform-1",
            "--nodes", "32"])

    def test_profile_term_refuses_many_atoms(self, capsys, monkeypatch):
        # at d = 1 on 4,000,000 atoms the per-atom arrays, derivative_profile's among
        # them, refuse the run whatever the nodes
        self.assert_refused_before_any_family_value(capsys, monkeypatch, [
            "verify", "--family", "geometric", "--space", "uniform-4000000", "--nodes", "6"])

    def test_suite_config_checks_the_budget(self):
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        with pytest.raises(cli.ConfigError, match="work budget"):
            self.config(fam, "uniform-16", 64)

    def test_largest_admitted_config(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", self.family_file(tmp_path, 3), "--space", "uniform-256",
             "--nodes", "64"])
        assert cli._build_config(args, CHECK_NAMES).n == 64

    def test_d4_at_32_nodes_admitted(self):
        fam = family.family_from_json(json.dumps(self.EXPONENTIAL_D4))
        assert self.config(fam, "uniform-16", 32).n == 32

    @pytest.mark.parametrize("d, space, n", [(1, "uniform-16", 64), (1, "geometric-64", 64),
                                             (2, "uniform-16", 64), (2, "uniform-256", 32),
                                             (3, "uniform-16", 32)])
    def test_bench_configs_admitted(self, tmp_path, d, space, n):
        # every (d, atoms, nodes) of the benchmark matrix
        args = cli.build_parser().parse_args(
            ["verify", "--family-file", self.family_file(tmp_path, d), "--space", space,
             "--nodes", str(n)])
        assert cli._build_config(args, CHECK_NAMES).n == n

    # the count on the benchmark's families, spaces and nodes with the default
    # functionals and checks and p = 1,2,inf, so a term that moves fails here by name;
    # ids leave out the count, so re-pinning it keeps the test's name
    @pytest.mark.parametrize("d, space, n, counted", [
        (1, "uniform-16", 64, 70_530), (1, "geometric-64", 64, 84_498),
        (2, "uniform-16", 64, 370_555), (2, "uniform-256", 32, 626_203),
        (3, "uniform-16", 32, 1_148_868)],
        ids=["d1-uniform-16", "d1-geometric-64", "d2-uniform-16", "d2-uniform-256-n32",
             "d3-uniform-16-n32"])
    def test_counted_values_of_the_bench_configs(self, tmp_path, d, space, n, counted):
        source = (["--family-file", self.family_file(tmp_path, 3)] if d == 3
                  else family_args(tmp_path, d))
        args = cli.build_parser().parse_args(
            ["verify", *source, "--space", space, "--nodes", str(n), "--p", "1,2,inf"])
        assert cli._counted_values(cli._build_config(args, CHECK_NAMES)) == counted

    def test_default_config_admitted(self):
        config = cli._build_config(cli.build_parser().parse_args(["verify"]), CHECK_NAMES)
        assert (config.family.d, config.space.natoms, config.n) == (1, 16, 64)


class TestCheckSubcommand:
    def test_single_check(self, tmp_path):
        code, text = run_cli(tmp_path, "check", "fubini", "--family", "geometric")
        assert code == 0
        records = parse_records(text)
        assert records and all(r["check"] == "fubini" for r in records)

    @pytest.mark.parametrize("name, d", APPLIES[True])
    def test_records_carry_the_check_name(self, tmp_path, name, d):
        _, text = run_cli(tmp_path, "check", name, *family_args(tmp_path, d))
        assert {r["check"] for r in parse_records(text)} == {name}

    @pytest.mark.parametrize("name, d", APPLIES[False])
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

    @pytest.mark.parametrize("p", ["2,2", "2,2.0", "inf,oo", "1,2,1"])
    def test_repeated_exponent_is_usage_error(self, tmp_path, monkeypatch, capsys, p):
        # a repeated exponent would draw a second dual stack for it and emit its
        # records twice
        counted = count_family_values(monkeypatch)
        code, text = run_cli(tmp_path, "check", "linearization", "--p", p,
                             "--functional", "dirac:0.1")
        assert code == 2 and text is None
        assert "configuration error: --p repeats" in capsys.readouterr().err
        assert counted == []

    @pytest.mark.parametrize("specs, label", [(["dirac:0.1", "dirac:0.1+0j"], "dirac:0.1+0j"),
                                              (["measure.json"] * 2, "measure")],
                             ids=["dirac", "unlabelled-json"])
    def test_repeated_functional_is_usage_error(self, tmp_path, monkeypatch, capsys, specs,
                                                label):
        # a repeated functional would emit its records twice; two JSON measures without
        # a "label" share the label "measure"
        (tmp_path / "measure.json").write_text(
            json.dumps({"nodes": [[0.1, 0.0]], "weights": [[1.0, 0.0]]}))
        counted = count_family_values(monkeypatch)
        args = [arg for spec in specs for arg in
                ("--functional", str(tmp_path / spec) if spec.endswith(".json") else spec)]
        code, text = run_cli(tmp_path, "check", "linearization", "--p", "2", *args)
        assert code == 2 and text is None
        err = capsys.readouterr().err
        assert f"configuration error: --functional repeats the label {label!r}" in err
        assert '"label"' in err
        assert counted == []

    def test_unwritable_report_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # a report that fails to write, such as one on a full device, is no failed claim
        def full(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
        code = main(["check", "linearization", "--functional", "dirac:0.1",
                     "--output", str(tmp_path / "report.jsonl")])
        assert code == 2
        assert "output error: [Errno 28] No space left on device" in capsys.readouterr().err

"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from randinf.cli import main, parse_design, read_experiment
from randinf.datasets import data_path
from randinf.design import CRD, RBD

TOY_CSV = str(data_path("toy_experiment.csv"))
NONMONO_CSV = str(data_path("studentized_nonmonotone.csv"))


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestParsing:
    def test_parse_crd(self):
        assert parse_design("crd:10,5") == CRD(10, 5)

    def test_parse_rbd(self):
        assert parse_design("rbd:8/4,6/3") == RBD(((8, 4), (6, 3)))

    def test_parse_garbage(self):
        from randinf.cli import InputError

        for bad in ("crd:10", "pairs:4", "rbd:8-4"):
            with pytest.raises(InputError):
                parse_design(bad)

    def test_read_toy_roundtrip(self):
        data = read_experiment(TOY_CSV, CRD(10, 5))
        assert data.n_units == 10 and int(data.w_obs.sum()) == 5
        assert data.y_obs[3] == 5.00

    def test_read_rejects_wrong_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,w,y\na,1,1.0\nb,1,2.0\nc,0,3.0\n")
        from randinf.cli import InputError

        with pytest.raises(InputError):
            read_experiment(str(path), CRD(3, 1))

    def test_read_rejects_nonbinary_w(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,w,y\na,2,1.0\nb,1,2.0\n")
        from randinf.cli import InputError

        with pytest.raises(InputError):
            read_experiment(str(path), CRD(2, 1))

    def test_block_column_agreement(self, tmp_path):
        path = tmp_path / "blocked.csv"
        path.write_text(
            "unit_id,w,y,block\na,1,1.0,x\nb,0,2.0,x\nc,0,3.0,y\nd,1,4.0,y\n"
        )
        data = read_experiment(str(path), RBD(((2, 1), (2, 1))))
        np.testing.assert_array_equal(data.blocks, [0, 0, 1, 1])
        from randinf.cli import InputError

        with pytest.raises(InputError):
            read_experiment(str(path), CRD(4, 2))


class TestSubcommands:
    def test_test_golden(self, capsys):
        code, out, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T_obs"] == 0.912
        assert round(payload["p_Lplus"], 3) == 0.131

    def test_test_theta_one(self, capsys):
        code, out, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "1", "--json"], capsys
        )
        assert round(json.loads(out)["p_Lplus"], 3) == 0.560

    def test_constant_outcome_file(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        rows = "".join(f"u{i},{w},2.0\n" for i, w in enumerate([1, 1, 0, 0]))
        path.write_text("unit_id,w,y\n" + rows)
        code, out, _ = run_cli(
            ["test", str(path), "--design", "crd:4,2", "--theta", "0", "--json"], capsys
        )
        assert code == 0 and json.loads(out)["p_Lplus"] == 1.0

    def test_pcurve_grid_golden(self, capsys):
        code, out, _ = run_cli(
            ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid=-3,-1,0,1,3", "--json"],
            capsys,
        )
        got = [round(pt["p"], 3) for pt in json.loads(out)["points"]]
        assert got == [0.004, 0.012, 0.131, 0.560, 0.988]

    def test_pcurve_breakpoints_monotone(self, capsys):
        code, out, _ = run_cli(
            ["pcurve", TOY_CSV, "--design", "crd:10,5", "--exact-breakpoints"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        vals = [float(r["value_at"]) for r in rows]
        assert vals == sorted(vals)

    def test_pcurve_studentized_non_monotone_witness(self, capsys):
        code, out, _ = run_cli(
            [
                "pcurve", NONMONO_CSV, "--design", "crd:8,4", "--statistic", "studentized",
                "--grid-range=-2,4,241", "--json",
            ],
            capsys,
        )
        ps = np.array([pt["p"] for pt in json.loads(out)["points"]])
        assert (np.diff(ps) < 0).any()

    def test_invert_with_traditional_grid(self, capsys):
        code, out, _ = run_cli(
            [
                "invert", TOY_CSV, "--design", "crd:10,5",
                "--traditional", "--grid=-3,-1,0,1,3", "--json",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert payload["proposed"]["lower"] < 1 < payload["proposed"]["upper"]
        assert payload["traditional"]["lower"] == 0.0
        assert payload["traditional"]["upper"] == 3.0

    def test_invert_interval_schema(self, capsys):
        code, out, _ = run_cli(
            ["invert", TOY_CSV, "--design", "crd:10,5", "--json"], capsys
        )
        keys = set(json.loads(out)["proposed"])
        assert {"lower", "upper", "alpha1", "alpha2", "method", "statistic", "mode"} <= keys

    def test_combine_nests_inside_hull(self, capsys):
        code, out, _ = run_cli(
            [
                "combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5",
                "--combiner", "fisher", "--json",
            ],
            capsys,
        )
        payload = json.loads(out)
        singles = payload["experiments"]
        hull = (min(s["lower"] for s in singles), max(s["upper"] for s in singles))
        assert hull[0] <= payload["combined"]["lower"] <= payload["combined"]["upper"] <= hull[1]

    def test_combine_single_file_matches_invert(self, capsys):
        code, out1, _ = run_cli(
            ["combine", TOY_CSV, "--designs", "crd:10,5", "--combiner", "stouffer", "--json"],
            capsys,
        )
        code, out2, _ = run_cli(["invert", TOY_CSV, "--design", "crd:10,5", "--json"], capsys)
        combined = json.loads(out1)["combined"]
        single = json.loads(out2)["proposed"]
        assert (combined["lower"], combined["upper"]) == (single["lower"], single["upper"])

    def test_invert_traditional_builds_one_replicate_matrix(self, capsys, replicate_builds):
        code, _, _ = run_cli(
            ["invert", TOY_CSV, "--design", "crd:10,5", "--traditional", "--json"], capsys
        )
        assert code == 0 and replicate_builds == [CRD(10, 5)]

    def test_combine_builds_one_replicate_matrix_per_experiment(self, capsys, replicate_builds):
        code, _, _ = run_cli(
            ["combine", TOY_CSV, TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5;crd:10,5",
             "--mode", "mc", "--k", "300", "--seed", "4", "--json"],
            capsys,
        )
        assert code == 0 and replicate_builds == [CRD(10, 5)] * 3

    def test_mc_threshold_table(self, capsys):
        code, out, _ = run_cli(["mc-threshold", "--json"], capsys)
        rows = json.loads(out)["rows"]
        assert [r["k_threshold"] for r in rows] == [
            4794, 19173, 119830, 479318, 1917269, 11982930, 47931717,
        ]

    def test_mc_threshold_direct_formula(self, capsys):
        code, out, _ = run_cli(
            ["mc-threshold", "--epsilons", "1", "--delta", "0.5", "--json"], capsys
        )
        assert json.loads(out)["rows"][0]["k_threshold"] == 17

    def test_toy_text_output(self, capsys):
        code, out, _ = run_cli(["toy"], capsys)
        assert code == 0
        for token in ("0.004", "0.012", "0.131", "0.560", "0.988", "0.912"):
            assert token in out

    def test_toy_json(self, capsys):
        code, out, _ = run_cli(["toy", "--json"], capsys)
        payload = json.loads(out)
        assert payload["T_obs"] == 0.912
        assert payload["design"]["assignments"] == 252

    def test_simulate_config(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "b1": 1, "k1": 8, "b2": 1, "k2": 8,
            "reps": 4, "k_cap": 100, "alpha": 0.2, "master_seed": 6,
        }))
        code, out, _ = run_cli(["simulate", str(cfg), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["arms"]) == {"exp1", "exp2", "fisher", "de"}

    def test_mc_mode_reproducible(self, capsys):
        args = [
            "test", TOY_CSV, "--design", "crd:10,5", "--theta", "0",
            "--mode", "mc", "--k", "500", "--seed", "11", "--json",
        ]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        assert json.loads(out1)["K"] == 500

    def test_mc_mode_epsilon_maps_to_threshold(self, capsys):
        _, out, _ = run_cli(
            [
                "test", TOY_CSV, "--design", "crd:10,5", "--theta", "0",
                "--mode", "mc", "--epsilon", "0.1", "--seed", "1", "--json",
            ],
            capsys,
        )
        assert json.loads(out)["K"] == 4794


class TestExitCodes:
    def test_success(self, capsys):
        assert run_cli(["toy"], capsys)[0] == 0

    def test_parse_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,w,y\na,3,1.0\nb,0,2.0\n")
        code, _, err = run_cli(
            ["test", str(path), "--design", "crd:2,1", "--theta", "0"], capsys
        )
        assert code == 2 and "error" in err

    def test_missing_seed_is_2(self, capsys):
        code, _, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--mode", "mc", "--k", "10"],
            capsys,
        )
        assert code == 2

    def test_cap_exceeded_is_3(self, capsys):
        code, _, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--cap", "10"], capsys
        )
        assert code == 3

    def test_non_ei_inversion_is_4(self, capsys):
        code, _, err = run_cli(
            ["invert", TOY_CSV, "--design", "crd:10,5", "--statistic", "studentized"], capsys
        )
        assert code == 4 and "effect increasing" in err

    def test_non_monotone_exact_breakpoints_is_4(self, capsys):
        code, out, err = run_cli(
            ["pcurve", TOY_CSV, "--design", "crd:10,5", "--statistic", "studentized",
             "--exact-breakpoints"],
            capsys,
        )
        assert code == 4 and out == "" and "not certified monotone" in err

    def test_unknown_statistic_is_2(self, capsys):
        code, _, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--statistic", "median"],
            capsys,
        )
        assert code == 2


class TestShippedSchemas:
    @staticmethod
    def validate(payload, schema_name):
        import jsonschema
        from referencing import Registry, Resource

        schemas_dir = data_path("schemas")
        resources = []
        for child in schemas_dir.iterdir():
            doc = json.loads(child.read_text())
            resources.append((child.name, Resource.from_contents(doc)))
        registry = Registry().with_resources(resources)
        schema = json.loads(schemas_dir.joinpath(schema_name).read_text())
        jsonschema.Draft202012Validator(schema, registry=registry).validate(payload)

    def test_test_output_schema(self, capsys):
        _, out, _ = run_cli(
            ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0.5",
             "--mode", "mc", "--k", "200", "--seed", "3", "--json"],
            capsys,
        )
        self.validate(json.loads(out), "test_output.schema.json")

    def test_interval_schema(self, capsys):
        _, out, _ = run_cli(["invert", TOY_CSV, "--design", "crd:10,5", "--json"], capsys)
        for interval in json.loads(out).values():
            self.validate(interval, "interval.schema.json")

    def test_combine_output_schema(self, capsys):
        _, out, _ = run_cli(
            ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--json"],
            capsys,
        )
        self.validate(json.loads(out), "combine_output.schema.json")

    def test_threshold_output_schema(self, capsys):
        _, out, _ = run_cli(["mc-threshold", "--json"], capsys)
        self.validate(json.loads(out), "threshold_output.schema.json")

    def test_pcurve_output_schema(self, capsys):
        _, out, _ = run_cli(
            ["pcurve", TOY_CSV, "--design", "crd:10,5", "--exact-breakpoints", "--json"],
            capsys,
        )
        self.validate(json.loads(out), "pcurve_output.schema.json")

    def test_simulate_output_schema(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "b1": 1, "k1": 8, "b2": 1, "k2": 8,
            "reps": 3, "k_cap": 100, "alpha": 0.2, "master_seed": 6,
        }))
        _, out, _ = run_cli(["simulate", str(cfg), "--json"], capsys)
        self.validate(json.loads(out), "simulate_output.schema.json")

    def test_infinite_endpoints_satisfy_schema(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("unit_id,w,y\na,1,3.0\nb,0,1.0\n")
        _, out, _ = run_cli(["invert", str(path), "--design", "crd:2,1", "--json"], capsys)
        self.validate(json.loads(out)["proposed"], "interval.schema.json")


class TestDeterminismAndSerialization:
    def test_byte_identical_output(self):
        cmd = [sys.executable, "-m", "randinf.cli", "toy", "--json"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b

    def test_infinities_serialize_as_strings(self, capsys, tmp_path):
        # two units: the base atom is one half, so both endpoints are infinite
        path = tmp_path / "two.csv"
        path.write_text("unit_id,w,y\na,1,3.0\nb,0,1.0\n")
        code, out, _ = run_cli(
            ["invert", str(path), "--design", "crd:2,1", "--json"], capsys
        )
        payload = json.loads(out)["proposed"]
        assert payload["lower"] == "-inf" and payload["upper"] == "inf"

    def test_csv_dump_roundtrips_through_reader(self, capsys, tmp_path):
        # pcurve grid dump is parseable CSV with finite numbers
        code, out, _ = run_cli(
            ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid-range=-2,2,9"], capsys
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(0 <= float(r["p"]) <= 1 for r in rows)


def _write_experiment(path, design, pop_seed, w_seed):
    """Write a seeded lognormal experiment under ``design`` as a CLI CSV."""
    from randinf import generate_population, sample_assignments

    pop = generate_population(design.n_units, 1.0, seed=pop_seed)
    data = pop.observe(sample_assignments(design, 1, seed=w_seed)[0])
    blocked = isinstance(design, RBD)
    labels = np.repeat(np.arange(len(design.blocks)), [s for s, _ in design.blocks]) if blocked else None
    lines = ["unit_id,w,y" + (",block" if blocked else "")]
    for i, (w, y) in enumerate(zip(data.w_obs, data.y_obs)):
        lines.append(f"u{i},{w},{float(y)!r}" + (f",b{labels[i]}" if blocked else ""))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_GOLDEN_DESIGNS = {
    "crd:12,6": CRD(12, 6),
    "crd:10,5": CRD(10, 5),
    "rbd:6/3,6/3,6/3,6/3": RBD(((6, 3),) * 4),
    "rbd:4/2,4/2": RBD(((4, 2), (4, 2))),
}

# (argv after the input files, design strings): every file gets pop seed
# 100 + i and observed-assignment seed 200 + i
_GOLDEN_CLI_CASES = {
    "invert_trad_exact_dm": (
        ["invert", "--design", "crd:12,6", "--traditional", "--json"], ["crd:12,6"]),
    "invert_trad_exact_wilcoxon": (
        ["invert", "--design", "crd:12,6", "--traditional", "--json",
         "--statistic", "wilcoxon_rank_sum", "--alpha1", "0.03", "--alpha2", "0.07"], ["crd:12,6"]),
    "invert_trad_grid_exact_dm": (
        ["invert", "--design", "crd:10,5", "--traditional", "--grid=-2,-1,0,0.5,1,2,3,4",
         "--json"], ["crd:10,5"]),
    "invert_trad_mc_dm": (
        ["invert", "--design", "rbd:6/3,6/3,6/3,6/3", "--traditional", "--json",
         "--mode", "mc", "--k", "2000", "--seed", "7"], ["rbd:6/3,6/3,6/3,6/3"]),
    "invert_trad_mc_wilcoxon": (
        ["invert", "--design", "rbd:6/3,6/3,6/3,6/3", "--traditional", "--json",
         "--mode", "mc", "--k", "2000", "--seed", "7", "--statistic", "wilcoxon_rank_sum"],
        ["rbd:6/3,6/3,6/3,6/3"]),
    "combine_exact_dm_fisher": (
        ["combine", "--designs", "crd:12,6;crd:10,5;rbd:4/2,4/2", "--json"],
        ["crd:12,6", "crd:10,5", "rbd:4/2,4/2"]),
    "combine_exact_wilcoxon_de": (
        ["combine", "--designs", "crd:12,6;crd:10,5;rbd:4/2,4/2", "--json",
         "--combiner", "de", "--statistic", "wilcoxon_rank_sum"],
        ["crd:12,6", "crd:10,5", "rbd:4/2,4/2"]),
    "combine_exact_dm_weighted_fisher": (
        ["combine", "--designs", "crd:12,6;crd:10,5", "--json", "--weights", "2,1"],
        ["crd:12,6", "crd:10,5"]),
    "combine_mc_dm_stouffer": (
        ["combine", "--designs", "rbd:6/3,6/3,6/3,6/3;crd:12,6", "--json",
         "--combiner", "stouffer", "--mode", "mc", "--k", "1500", "--seed", "11"],
        ["rbd:6/3,6/3,6/3,6/3", "crd:12,6"]),
    "combine_mc_wilcoxon_fisher": (
        ["combine", "--designs", "rbd:6/3,6/3,6/3,6/3;crd:12,6;crd:10,5", "--json",
         "--mode", "mc", "--k", "1500", "--seed", "11", "--statistic", "wilcoxon_rank_sum"],
        ["rbd:6/3,6/3,6/3,6/3", "crd:12,6", "crd:10,5"]),
}

# SHA-256 of the stdout bytes of each case, input paths replaced by "{f0}",
# "{f1}", ..., recorded while every side of every experiment was built from its
# own replicate matrix.
GOLDEN_CLI_SHA256 = {
    "invert_trad_exact_dm": "9aba3961931388a637bca35445c592f8f3dfece4f7ad83c13b54a3ace31eb1ed",
    "invert_trad_exact_wilcoxon": "37ccf4f02dd9a10a3aae49bc52987ff93e5b9c774edb0cd6da8afa19f1a2a02b",
    "invert_trad_grid_exact_dm": "77d68537730feff491988448c40507101bcaea01e1a9612d1c4075fa768e28f3",
    "invert_trad_mc_dm": "b200e23496f5331bba3fdbe473dacf6268d499d20f327e6c4b7caae9671077f6",
    "invert_trad_mc_wilcoxon": "45736ebb2c20573e456bb7c7475dc1c376a9a60093661548e9edc79b36de4f4e",
    "combine_exact_dm_fisher": "e4519a07dc5b2785f6ec7a997d5485cb6871f3025a002e7f7e231edd4735b1b1",
    "combine_exact_wilcoxon_de": "256b09306acf0dc271a5ad6415ec91363bb0549263bc64837cfed7c9075bc2e6",
    "combine_exact_dm_weighted_fisher": "14d51b5db7a27cab61683630313ea9ed04f8e2d9dfa542b61d2fed5d52f9b494",
    "combine_mc_dm_stouffer": "189c4218f21215819ff6c22205db17571f6c1d3c4c470a2d684a22b43af58061",
    "combine_mc_wilcoxon_fisher": "f4e8f20cbeb5be14cf1174872935db0cf4d644914fc18ff136e812c595bf76b3",
}


@pytest.mark.parametrize("case", list(_GOLDEN_CLI_CASES))
def test_cli_interval_golden_bytes(case, capsys, tmp_path):
    import hashlib

    argv, design_texts = _GOLDEN_CLI_CASES[case]
    files = [
        _write_experiment(tmp_path / f"e{i}.csv", _GOLDEN_DESIGNS[text], 100 + i, 200 + i)
        for i, text in enumerate(design_texts)
    ]
    code, out, err = run_cli([argv[0], *files, *argv[1:]], capsys)
    assert code == 0, err
    for i, path in enumerate(files):  # combine echoes its input paths
        out = out.replace(json.dumps(path), f'"{{f{i}}}"')
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CLI_SHA256[case]

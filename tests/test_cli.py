"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randinf
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
        read_experiment(str(path), RBD(((2, 1), (2, 1))))
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

    @pytest.mark.parametrize("args", [
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid", "a,b"],
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid-range", "0,1"],
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid-range", "0,1,x"],
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid-range", "0,1,2.5"],
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid-range", "0,1,0"],
        ["invert", TOY_CSV, "--design", "crd:10,5", "--traditional", "--grid", "x"],
        ["combine", TOY_CSV, "--designs", "crd:10,5", "--weights", "1,x"],
        ["mc-threshold", "--epsilons", "x"],
        ["simulate", "{tmp}/missing.json"],
        ["simulate", "{tmp}/invalid.json"],
        ["simulate", "{tmp}/list.json"],
        ["simulate", "{tmp}/reps_string.json"],
        ["simulate", "{tmp}/b1_float.json"],
        ["simulate", "{tmp}/alpha_null.json"],
        ["simulate", "{tmp}/combiners_string.json"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--weights", "nan,1"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--weights", "inf,1"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--weights=-1,1"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--weights", "0,0"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--weights", "1,2,3"],
        ["pcurve", TOY_CSV, "--design", "crd:10,5", "--grid", "0,nan"],
        ["mc-threshold", "--epsilons", "0"],
    ])
    def test_malformed_list_or_config_is_2(self, capsys, tmp_path, args):
        (tmp_path / "invalid.json").write_text('{"b1": 1,')
        (tmp_path / "list.json").write_text("[1, 8, 1, 8]")
        scenario = {"b1": 1, "k1": 8, "b2": 1, "k2": 8, "reps": 1, "k_cap": 100}
        for name, key, value in (("reps_string", "reps", "2"), ("b1_float", "b1", 1.5),
                                 ("alpha_null", "alpha", None), ("combiners_string", "combiners", "fisher")):
            (tmp_path / f"{name}.json").write_text(json.dumps({**scenario, key: value}))
        code, out, err = run_cli([a.format(tmp=tmp_path) for a in args], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["invert", TOY_CSV, "--design", "crd:10,5", "--alpha", "1.5"],
        ["invert", TOY_CSV, "--design", "crd:10,5", "--alpha1", "0.6", "--alpha2", "0.6"],
        ["invert", TOY_CSV, "--design", "crd:10,5", "--statistic", "studentized", "--alpha", "nan"],
        ["combine", TOY_CSV, TOY_CSV, "--designs", "crd:10,5;crd:10,5", "--alpha", "0"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--mode", "mc", "--k", "0", "--seed", "1"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--mode", "mc", "--epsilon", "2",
         "--seed", "1"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--mode", "mc", "--epsilon", "0.1",
         "--delta", "1.5", "--seed", "1"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "nan"],
        ["mc-threshold", "--delta", "0"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--cap", "0"],
        ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0", "--cap", "-1"],
    ])
    def test_out_of_range_argument_is_2(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_combine_without_breakpoints_is_unbounded(self, capsys, tmp_path):
        # one Monte Carlo draw of a two-unit design leaves no breakpoint, so
        # the combined interval is the whole line, as the single one is
        path = tmp_path / "two.csv"
        path.write_text("unit_id,w,y\na,1,1.5\nb,0,0.5\n")
        mc = ["--mode", "mc", "--k", "1", "--seed", "1", "--json"]
        code, out, _ = run_cli(["combine", str(path), str(path), "--designs", "crd:2,1;crd:2,1", *mc], capsys)
        assert code == 0
        combined = json.loads(out)["combined"]
        assert [combined["lower"], combined["upper"]] == ["-inf", "inf"]
        _, out, _ = run_cli(["invert", str(path), "--design", "crd:2,1", *mc], capsys)
        proposed = json.loads(out)["proposed"]
        assert [proposed["lower"], proposed["upper"]] == ["-inf", "inf"]

    @pytest.mark.parametrize("key, value", [("reps", 0), ("k1", 7), ("alpha", 1.5), ("b1", 0),
                                            ("k_cap", 0), ("k_cap", -3), ("true_theta", float("nan"))])
    def test_out_of_range_config_is_2(self, capsys, tmp_path, key, value):
        scenario = {"b1": 1, "k1": 8, "b2": 1, "k2": 8, "reps": 1, "k_cap": 100, key: value}
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        code, out, err = run_cli(["simulate", str(tmp_path / "scenario.json")], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


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

    def test_unbounded_widths_satisfy_schema(self, capsys, tmp_path):
        # CRD(6,3) has 20 assignments, so 1/20 > alpha/2 leaves some
        # individual intervals unbounded: their arms' widths are infinite
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"b1": 1, "k1": 6, "b2": 1, "k2": 6, "reps": 4, "k_cap": 5000}))
        code, out, _ = run_cli(["simulate", str(cfg), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        self.validate(payload, "simulate_output.schema.json")
        unbounded = [arm for arm in payload["arms"].values() if arm["width_mean"] == "inf"]
        assert unbounded and all(arm["width_sd"] == "inf" for arm in unbounded)

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

    def test_fresh_process_leaves_scipy_signal_and_stats_unimported(self):
        # randinf reads its special functions from scipy.special alone, so a
        # CLI call does not pay for importing scipy.signal or scipy.stats
        script = (
            "import sys, randinf, randinf.cli\n"
            "code = randinf.cli.main(['toy', '--json'])\n"
            "sys.stderr.write(repr(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules)))\n"
            "sys.exit(code)\n"
        )
        a, b = (
            subprocess.run([sys.executable, "-c", script], capture_output=True, check=True)
            for _ in range(2)
        )
        assert a.stderr == b.stderr == b"[]"
        assert a.stdout and a.stdout == b.stdout

    def test_closed_stdout_exits_141_quietly(self):
        # the reader of the pipe is gone before the first byte is written, as
        # after ``randinf toy --json | head -1``: no error line, no traceback
        # at interpreter exit, and a shell's status for a tool stopped by SIGPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "randinf.cli", "toy", "--json"],
                                  stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_main_calls_after_an_exit_2_match_a_fresh_process(self, capsys):
        # one parser serves every main call of a process: calls that exit 2,
        # from argparse and from an input error, leave the next call's bytes
        # as a fresh process prints them
        argv = ["invert", TOY_CSV, "--design", "crd:10,5", "--mode", "mc", "--k", "300",
                "--seed", "4", "--statistic", "wilcoxon_rank_sum", "--json"]
        fresh = subprocess.run([sys.executable, "-m", "randinf.cli", *argv],
                               capture_output=True, check=True).stdout
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["invert", TOY_CSV, "--mode", "mc", "--k", "oops"])
        assert exc.value.code == 2
        assert main(["invert", TOY_CSV, "--design", "crd:10", "--json"]) == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert first.encode() == capsys.readouterr().out.encode() == fresh

    def test_version_matches_pyproject(self, capsys):
        # the version names the Monte Carlo seed stream, so the two must agree
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert randinf.__version__ == declared
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == f"randinf {declared}\n"

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


def _golden_argv(case, tmp_path):
    """The full argv of a golden case, its input files written under ``tmp_path``."""
    argv, design_texts = _GOLDEN_CLI_CASES[case]
    files = [
        _write_experiment(tmp_path / f"e{i}.csv", _GOLDEN_DESIGNS[text], 100 + i, 200 + i)
        for i, text in enumerate(design_texts)
    ]
    return [argv[0], *files, *argv[1:]], files


def _golden_digest(out, files):
    import hashlib

    for i, path in enumerate(files):  # combine echoes its input paths
        out = out.replace(json.dumps(path), f'"{{f{i}}}"')
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", list(_GOLDEN_CLI_CASES))
def test_cli_interval_golden_bytes(case, capsys, tmp_path):
    argv, files = _golden_argv(case, tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert _golden_digest(out, files) == GOLDEN_CLI_SHA256[case]


# a fresh process runs ``main`` on its arguments, if any, and reports on stderr
# the scipy modules loaded by then
_SCIPY_PROBE = (
    "import sys, randinf, randinf.cli\n"
    "code = randinf.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "sys.stderr.write(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    "sys.exit(code)\n"
)


def _probe_scipy(argv):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode(), proc.stderr.decode().split()


def _fill_argv(argv, tmp_path):
    """``argv`` with "{e0}".."{e2}" the golden-case experiment files and "{cfg}"
    a DE-only scenario, written under ``tmp_path``."""
    _, files = _golden_argv("combine_exact_dm_fisher", tmp_path)
    cfg = tmp_path / "de.json"
    cfg.write_text(json.dumps({"b1": 1, "k1": 8, "b2": 1, "k2": 8, "reps": 2, "k_cap": 100,
                               "master_seed": 3, "combiners": ["de"]}))
    return [a.format(e0=files[0], e1=files[1], e2=files[2], cfg=cfg) for a in argv]


_COMBINE3 = ["combine", "{e0}", "{e1}", "{e2}", "--designs", "crd:12,6;crd:10,5;rbd:4/2,4/2",
             "--json", "--combiner"]
_REQUESTS = {
    "import": [],
    "toy": ["toy", "--json"],
    "test": ["test", TOY_CSV, "--design", "crd:10,5", "--theta", "0.5", "--json"],
    "invert": ["invert", TOY_CSV, "--design", "crd:10,5", "--traditional", "--json"],
    "invert_mc": ["invert", TOY_CSV, "--design", "crd:10,5", "--mode", "mc", "--k", "300",
                  "--seed", "4", "--traditional", "--json"],
    "pcurve": ["pcurve", TOY_CSV, "--design", "crd:10,5", "--exact-breakpoints"],
    "mc_threshold": ["mc-threshold", "--json"],
    "combine_stouffer": [*_COMBINE3, "stouffer"],
    "combine_fisher": [*_COMBINE3, "fisher"],
    "combine_de": [*_COMBINE3, "de"],
    "combine_weighted_fisher": [*_COMBINE3, "fisher", "--weights", "1,2,3"],
    "simulate_de": ["simulate", "{cfg}", "--json"],
}
# the requests that evaluate a normal CDF, normal quantile or chi-square tail
_NEED_SCIPY = ("combine_stouffer", "combine_fisher")


@pytest.mark.parametrize("name", [n for n in _REQUESTS if n not in _NEED_SCIPY])
def test_fresh_process_without_normal_or_chisq_values_imports_no_scipy(name, tmp_path):
    # scipy.special is imported on the first normal or chi-square value; a
    # request that computes none loads no scipy module at all
    _, loaded = _probe_scipy(_fill_argv(_REQUESTS[name], tmp_path))
    assert loaded == []


@pytest.mark.parametrize("case", ["combine_mc_dm_stouffer", "combine_exact_dm_fisher"])
def test_fresh_process_imports_scipy_special_for_stouffer_and_unit_fisher(case, tmp_path):
    argv, files = _golden_argv(case, tmp_path)
    out, loaded = _probe_scipy(argv)
    assert "scipy.special" in loaded
    assert _golden_digest(out, files) == GOLDEN_CLI_SHA256[case]


def test_cli_bytes_match_a_fresh_process_in_either_order(capsys, tmp_path):
    # each request alone in a fresh process, where the combiners import the
    # special functions they use, then all of them in one process, forwards and
    # backwards: every combine call but the first follows a different combiner,
    # and the bytes stay those of the fresh process
    names = ["combine_stouffer", "combine_fisher", "combine_de", "toy", "test", "invert_mc",
             "pcurve"]
    argvs = {name: _fill_argv(_REQUESTS[name], tmp_path) for name in names}
    fresh = {
        name: subprocess.run([sys.executable, "-m", "randinf.cli", *argv],
                             capture_output=True, check=True).stdout
        for name, argv in argvs.items()
    }
    for name in names + names[::-1]:
        assert main(argvs[name]) == 0
        assert capsys.readouterr().out.encode() == fresh[name], name

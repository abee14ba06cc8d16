"""End-to-end CLI behaviour: schemas, exit codes, determinism, config."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import erw.cli as cli
import erw.simulate as sim
import erw.verify
from erw.cli import main
from erw.moments import CSV_COLUMNS, ExactMomentTable, exact_moments_bytes
from erw.verify import CheckResult, row_relerr
from table_csv import read_table_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimits:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--dist", "rademacher", "--alpha", "0.75")
        assert code == 0
        payload = json.loads(out)
        assert payload["limits"]["q2"] == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-14)
        assert payload["limits"]["q4"] == 9.75
        assert payload["dist"] == {"kind": "rademacher"}

    def test_alpha_one_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--dist", "rademacher", "--alpha", "1")
        limits = json.loads(out)["limits"]
        assert limits == {"q1": 0.0, "q2": 1.0, "q3": 0.0, "q4": 1.0}

    def test_regime_error_is_config_exit(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--dist", "rademacher", "--alpha", "0.4")
        assert code == 2
        assert "superdiffusive" in err

    def test_missing_alpha(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--dist", "rademacher")
        assert code == 2
        assert "alpha" in err


class TestExact:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--dist", "rademacher", "--alpha", "0.7", "--n", "1")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 1
        assert float(rows[0]["s2"]) == 1.0 and float(rows[0]["s4"]) == 1.0

    def test_hand_values(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--dist", "rademacher", "--alpha", "0.5", "--n", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["s2"]) for r in rows] == [1.0, 3.0, 5.5]

    def test_compare_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--dist", '{"kind":"uniform","lo":0,"hi":1}',
            "--alpha", "0.75", "--n", "500", "--compare",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert "cf_s2" in rows[0] and "relerr_s2t" in rows[0]
        for row in rows:
            for name in ("s2", "st", "s3", "su", "t2", "s2t"):
                assert float(row[f"relerr_{name}"]) <= 1e-8

    def test_compare_singular_alpha_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--dist", "rademacher", "--alpha", "0.5",
            "--n", "10", "--compare",
        )
        assert code == 2 and "2*alpha - 1" in err

    def test_compare_quarter_alpha(self, capsys):
        # the six closed forms are regular at 1/4; only s4's form is not
        code, out, err = run_cli(
            capsys, "exact", "--dist", '{"kind":"bernoulli","p":0.3}', "--alpha", "0.25",
            "--n", "3", "--compare",
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(float(r["relerr_s2"]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("dist", [
        "rademacher",
        '{"kind":"discrete","points":[-1,2],"weights":[0.6,0.4]}',
    ], ids=["rademacher", "skewed"])
    def test_relerr_matches_row_loop(self, dist, capsys):
        # 1, 4095 .. 4097 and 8193 rows end before, at and after row blocks
        for n in (1, 4095, 4096, 4097, 8193):
            code, out, _ = run_cli(
                capsys, "exact", "--dist", dist, "--alpha", "0.75", "--n", str(n), "--compare",
            )
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == n
            for row in rows:
                rec = [float(row[name]) for name in cli._CF_FIELDS]
                form = [float(row[f"cf_{name}"]) for name in cli._CF_FIELDS]
                got = [float(row[f"relerr_{name}"]) for name in cli._CF_FIELDS]
                assert got == _relerr_row_loop(rec, form), (n, row["n"])

    def test_relerr_floor_on_zero_row(self):
        rec = np.array([[0.0, -0.0, 0.0], [1.0, 0.0, -2.0]])
        form = np.array([[0.0, 0.0, -0.0], [1.5, 0.0, -2.0]])
        got = row_relerr(rec, form).tolist()
        assert got == [_relerr_row_loop(r, f) for r, f in zip(rec.tolist(), form.tolist())]
        assert got[0] == [0.0, 0.0, 0.0]

    def test_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "exact", "--dist", "rademacher", "--alpha", "0.75",
            "--n", "20", "--out", str(out_path),
        )
        assert code == 0
        table = read_table_csv(out_path)
        assert len(table) == 20


def _relerr_row_loop(rec, form):
    """Test oracle: the per-row loop `exact --compare` computed its relerr
    columns with before they were computed on arrays."""
    pairs = list(zip(rec, form))
    row_scale = max(max(abs(r), abs(f)) for r, f in pairs)
    row_scale = max(row_scale, 1e-300)
    return [abs(r - f) / row_scale for r, f in pairs]


class TestSimulate:
    ARGS = (
        "simulate", "--dist", "rademacher", "--alpha", "0.75",
        "--n", "400", "--replicates", "3000", "--checkpoints", "200,400",
        "--seed", "0x2a",
    )

    def test_schema_and_seed_header(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# master_seed=0x000000000000002a"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 8  # two checkpoints x four powers
        assert set(rows[0]) == {"n", "p", "estimate", "stderr", "n_replicates", "exact", "limit", "z"}
        for row in rows:
            assert abs(float(row["z"])) <= 5.0
            assert int(row["n_replicates"]) == 3000

    def test_byte_identical_across_workers(self, tmp_path, capsys, monkeypatch):
        # chunks of 300 walks: 10 chunks, so the pool's order of sums matters
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 400 * 300)
        assert len(list(sim._chunk_spans(400, 3000))) == 10
        paths = [tmp_path / f"{w}.csv" for w in (1, 2, 4)]
        for path, workers in zip(paths, (1, 2, 4)):
            code, _, _ = run_cli(capsys, *self.ARGS, "--out", str(path), "--workers", str(workers))
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_rerun_identical(self, tmp_path, capsys):
        paths = [tmp_path / f"r{i}.csv" for i in (1, 2)]
        for path in paths:
            run_cli(capsys, *self.ARGS, "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_degenerate_alpha_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "1",
            "--n", "50", "--replicates", "100", "--seed", "1",
        )
        rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
        p2 = [r for r in rows if r["p"] == "2"][0]
        assert float(p2["estimate"]) == 1.0
        assert float(p2["exact"]) == 1.0
        assert float(p2["limit"]) == 1.0

    def test_single_replicate_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75",
            "--n", "10", "--replicates", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: simulate needs at least 2 replicates for a standard error, got 1\n"

    def test_zero_stderr_writes_empty_z(self, capsys, monkeypatch):
        # alpha = 1: every walk is one cluster of n steps, so both walks have
        # the same conditional moments and the stderr is 0.  At p = 1 the
        # exact value is 0, the gap is exactly 0 and z is 0.  At p = 2..4 the
        # exact values come from the table, here moved by 2^-40 relative so
        # that the gap is not 0 whatever the recursion's last bit: z is empty
        real = cli.exact_moments_upto

        def moved(ms, alpha, n_max):
            values = real(ms, alpha, n_max).values.copy()
            moved_columns = [CSV_COLUMNS.index(name) - 1 for name in ("s2", "s3", "s4")]
            values[:, moved_columns] *= 1.0 + 2.0**-40
            return ExactMomentTable(values)

        monkeypatch.setattr(cli, "exact_moments_upto", moved)
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", '{"kind":"bernoulli","p":0.3}', "--alpha", "1",
            "--n", "10", "--replicates", "2", "--seed", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
        assert [row["p"] for row in rows] == ["1", "2", "3", "4"]
        for row in rows:
            assert float(row["stderr"]) == 0.0
            gap = float(row["estimate"]) - float(row["exact"])
            assert (gap == 0.0) == (row["p"] == "1")
            assert row["z"] == ("0.0" if row["p"] == "1" else "")

    def test_third_moment_exactly_zero_when_m3_is_zero(self, capsys):
        # uniform(0, 1) has M3 = 0, so every walk's E(S~^3 | sizes) and the
        # stderr are exactly 0; the recursion's s3 is rounding noise
        # (1.5e-12 at n = 100), and the p = 3 row writes exact 0 and z 0
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", '{"kind":"uniform","lo":0,"hi":1}', "--alpha", "0.75",
            "--n", "100", "--replicates", "20", "--checkpoints", "10,100", "--seed", "1",
        )
        assert code == 0
        rows = [row for row in csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
                if row["p"] == "3"]
        assert len(rows) == 2
        for row in rows:
            assert (row["estimate"], row["stderr"], row["exact"], row["z"]) == (
                "0.0", "0.0", "0.0", "0.0"
            )

    def test_stops_at_last_checkpoint(self, capsys, monkeypatch):
        # two chunks of 100 walks at n = 3000; each is simulated to step 1000
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 300_000)
        rows = []
        run_labels = sim._run_labels

        def spy(alpha, n, keys):
            rows.append(n)
            return run_labels(alpha, n, keys)

        monkeypatch.setattr(sim, "_run_labels", spy)
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "3000",
            "--replicates", "200", "--checkpoints", "1000", "--seed", "5",
        )
        assert code == 0 and rows == [1000, 1000]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "28e6b6c6f1bc344291f787a5457314e37d3817d9f0b74ff7171b6b433cbd8438"
        )
        # the bytes `--n 1000` writes in the same two chunks of 100 walks:
        # in one chunk of 200, sums of E(S~^4 | sizes)^2 above 2**53 round
        # in another order (p = 4's stderr moves in its last digit)
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 100_000)
        rows.clear()
        assert run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "1000",
            "--replicates", "200", "--checkpoints", "1000", "--seed", "5",
        )[:2] == (0, out)
        assert rows == [1000, 1000]

    @pytest.mark.parametrize("dist,alpha,replicates", [
        ("rademacher", "0.75", "2000"),
        ('{"kind":"gaussian","mean":0,"stddev":1}', "0.3", "1000"),
    ], ids=["rademacher", "gaussian"])
    def test_benchmark_commands_same_bytes(self, dist, alpha, replicates, capsys):
        # the benchmark's two mc commands print the same bytes twice in this
        # process, once in a new interpreter and with two workers
        argv = ("simulate", "--dist", dist, "--alpha", alpha, "--n", "3000",
                "--replicates", replicates, "--checkpoints", "1000,3000", "--seed", "1")
        first = run_cli(capsys, *argv, "--workers", "1")
        assert first[0] == 0 and first[1].count("\n") == 10
        assert run_cli(capsys, *argv, "--workers", "1") == first
        assert run_cli(capsys, *argv, "--workers", "2") == first
        src = str(Path(erw.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = "import sys; from erw.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv, "--workers", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first

    def test_checkpoint_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75",
            "--n", "100", "--checkpoints", "50,200",
        )
        assert code == 2 and "checkpoints" in err


    @pytest.mark.parametrize("points,rule", [
        ("0,5", "must be distinct positive integers in ascending order, got [0, 5]"),
        ("-3,5", "must be distinct positive integers in ascending order, got [-3, 5]"),
        ("30,20", "must be distinct positive integers in ascending order, got [30, 20]"),
        ("5,5", "must be distinct positive integers in ascending order, got [5, 5]"),
        ("50,200", "must lie in [1, n] = [1, 100], got 200"),
    ])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_one_checkpoint_rule(self, points, rule, source, tmp_path, capsys):
        # the simulator's rule, from a flag or a config file: one line each
        argv = ["simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "100",
                "--replicates", "5"]
        if source == "flag":
            argv.append(f"--checkpoints={points}")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"checkpoints": [int(p) for p in points.split(",")]}))
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: checkpoints: {rule}\n")


class TestVerifyCommand:
    def test_fast_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fast", "--seed", "2024")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["n_fail"] == 0
        assert payload["master_seed"].startswith("0x")
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses <= {"PASS", "SKIP"}

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_same_bytes_in_process_and_fresh_interpreter(self, seed, capsys):
        # the golden digests leave verify out (its Gaussian samples go
        # through np.log), so its determinism is pinned here: two runs in
        # this process and one in a new interpreter print the same bytes
        argv = ("verify", "--fast", "--seed", seed)
        first = run_cli(capsys, *argv)
        assert first[1] and run_cli(capsys, *argv) == first
        src = str(Path(erw.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = "import sys; from erw.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_all",
            lambda **kwargs: [CheckResult("synthetic", "FAIL", 1.0, "injected")],
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert json.loads(out)["n_fail"] == 1


    def test_broken_reconstruction_fails_the_check(self, capsys, monkeypatch):
        # eps_t with the memory coefficient alpha/t in place of alpha/(t-1)
        # in the simulator: the eps statistics stay centered, but E(eps_t^2)
        # misses the exact table and the sum of a_t eps_t no longer
        # telescopes; verify reports both as FAILs and exits 1, with every
        # check in the report.  It takes the steps as blocks and yields
        # one step's eps at a time
        def alpha_over_t(blocks, alpha, m1):
            s_run = 0.0
            for t, x in enumerate(itertools.chain.from_iterable(blocks), start=1):
                eps = x - m1
                if t > 1:
                    eps -= (alpha / t) * (s_run - (t - 1) * m1)
                yield eps
                s_run = s_run + x

        monkeypatch.setattr(sim, "_martingale_differences", alpha_over_t)
        monkeypatch.setattr(erw.verify, "_martingale_differences", alpha_over_t)
        code, out, err = run_cli(capsys, "verify", "--fast", "--seed", "2024")
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks if c["status"] == "FAIL"] == [
            "martingale_second_moment", "martingale_reconstruction"
        ]
        assert checks[-1]["name"].startswith("cluster_engine_moments")


class TestSweep:
    def test_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--dist", "rademacher", "--alphas", "0.6:1.0:0.05",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["q3"]) == 0.0 for r in rows)  # symmetric law
        final = rows[-1]
        assert float(final["alpha"]) == 1.0
        assert float(final["q2"]) == 1.0 and float(final["q4"]) == 1.0

    def test_singular_and_subdiffusive_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--dist", "rademacher", "--alphas", "0.4,0.5,0.75",
        )
        rows = {float(r["alpha"]): r for r in csv.DictReader(io.StringIO(out))}
        assert rows[0.4]["status"] == "subdiffusive" and rows[0.4]["q2"] == ""
        assert rows[0.5]["status"] == "singular"
        assert rows[0.75]["status"] == "ok"

    def test_singular_guard_agrees_with_limits(self, capsys):
        # one guard radius (moments.ALPHA_TOL): sweep gives values exactly
        # where `limits` does, and the same values
        cases = (("0.5", "singular"), ("0.500000005", "singular"), ("0.5000001", "ok"))
        for alpha, status in cases:
            code, out, _ = run_cli(capsys, "limits", "--dist", "rademacher", "--alpha", alpha)
            _, swept, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", alpha)
            (row,) = csv.DictReader(io.StringIO(swept))
            assert row["status"] == status
            assert code == (0 if status == "ok" else 2)
            if code == 0:
                limits = json.loads(out)["limits"]
                assert {q: float(row[q]) for q in limits} == limits
            else:
                assert row["q2"] == ""

    def test_header_and_field_counts(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", "0.5,0.75")
        assert code == 0
        header, singular, ok = list(csv.reader(io.StringIO(out)))
        assert header == ["dist", "alpha", "status", "q1", "q2", "q3", "q4"]
        assert singular[2] == "singular" and len(singular) == 7
        assert ok[2] == "ok" and len(ok) == 7

    def test_missing_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--dist", "rademacher")
        assert code == 2 and "alpha grid" in err

    @pytest.mark.parametrize("grid", ["0.6,0.75,1.5", "0.6,nan", "-0.5:1:0.5", "0.5:1.5:0.5"],
                             ids=["list-above-one", "list-nan", "range-below-zero",
                                  "range-above-one"])
    def test_bad_value_writes_nothing(self, grid, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--dist", "rademacher", f"--alphas={grid}", "--out", str(out_path),
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err.count("\n") == 1 and "alpha grid" in err and "alpha must be in [0, 1]" in err

    @pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:0", "0:inf:1"],
                             ids=["too-many", "zero-step", "infinite"])
    def test_oversized_range_refused_before_building(self, grid, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ALPHA_GRID", 100)
        code, out, err = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", grid)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "alpha grid" in err or "alpha range" in err

    def test_grid_at_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ALPHA_GRID", 11)
        code, out, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", "0:1:0.1")
        assert code == 0 and len(out.splitlines()) == 12
        code, _, err = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", "0:1:0.09")
        assert code == 2 and "more than 11 values" in err
        # the cap counts the points the grid holds: 7 for 0:1:0.15
        monkeypatch.setattr(cli, "MAX_ALPHA_GRID", 7)
        code, out, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", "0:1:0.15")
        assert code == 0 and len(out.splitlines()) == 8

    @pytest.mark.parametrize("grid,count,last", [
        ("0:1:0.15", 7, 0.9),  # 1.05 would pass hi
        ("0.25:0.95:0.1", 8, 0.95),  # span 6.999999999999999 keeps its last point
        ("0:1:0.05", 21, 1.0),
        ("0.6:1:0.05", 9, 1.0),
    ])
    def test_range_stops_at_hi(self, grid, count, last, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", grid)
        assert code == 0
        alphas = [float(row["alpha"]) for row in csv.DictReader(io.StringIO(out))]
        assert len(alphas) == count and alphas[-1] == last

    @pytest.mark.parametrize("grid,digest", [
        ("0:1:0.05", "746bcbd3c1effb0b4d991370b4dfef9d3e1b2eaf82cfeb821cde543818301b67"),
        ("0.6:1:0.05", "dd0a07bfaba3b83ec4607aed399b10e2bc557e7bf04a6531b8893d271b75b399"),
    ])
    def test_range_bytes(self, grid, digest, capsys):
        # digests taken before the point count moved from round to floor
        code, out, _ = run_cli(capsys, "sweep", "--dist", "rademacher", "--alphas", grid)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfigFile:
    def test_config_plus_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dist": {"kind": "bernoulli", "p": 0.3},
            "alpha": 0.6,
            "n": 5,
        }))
        code, out, _ = run_cli(
            capsys, "limits", "--config", str(config), "--alpha", "0.75",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.75  # flag wins
        assert payload["dist"]["kind"] == "bernoulli"

    def test_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"alpa": 0.6}))
        code, _, err = run_cli(capsys, "limits", "--config", str(config))
        assert code == 2 and "alpa" in err

    @pytest.mark.parametrize("raw", [
        {"n": None}, {"alpha": None}, {"alpha": 1.5}, {"tolerances": {"z_max": None}},
        {"compare": "false"}, {"fast": 1}, {"n": 2.5}, {"n": True}, {"replicates": 4.9},
        {"alpha": True}, {"checkpoints": [1.7, 3]}, {"n_max": 5},
        {"dist": {"kind": "bernoulli", "p": True}}, {"dist": {"kind": "bernoulli", "p": "0.3"}},
        {"tolerances": {"z_max": True}}, {"dists": []},
    ], ids=["null-n", "null-alpha", "alpha-above-one", "null-tolerance", "compare-string",
            "fast-number", "n-fraction", "n-boolean", "replicates-fraction", "alpha-boolean",
            "checkpoints-fraction", "n_max-alias", "dist-boolean", "dist-string",
            "tolerance-boolean", "dists-empty"])
    def test_bad_value_is_config_exit(self, raw, tmp_path, capsys):
        # every key a config file may hold is checked, whichever command runs
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "limits", "--config", str(config))
        assert code == 2 and out == "" and err.count("\n") == 1
        (key,) = raw
        assert err.startswith(f"error: {key}: ") or err == f"error: unknown config key {key!r}\n"

    def test_whole_float_is_accepted(self, tmp_path, capsys):
        config = tmp_path / "n.json"
        config.write_text(json.dumps({"n": 3.0, "alpha": 0.75}))
        code, out, _ = run_cli(capsys, "exact", "--config", str(config))
        assert code == 0 and len(out.splitlines()) == 4

    @pytest.mark.parametrize("flags,raw", [
        (["simulate", "--dist", "rademacher", "--alpha", "0.6", "--n", "200",
          "--replicates", "300", "--checkpoints", "50,200", "--seed", "0x2a"],
         {"dist": "rademacher", "alpha": 0.6, "n": 200, "replicates": 300,
          "checkpoints": [50, 200], "seed": "0x2a"}),
        (["exact", "--dist", '{"kind":"bernoulli","p":0.3}', "--alpha", "0.75", "--n", "50",
          "--compare"],
         {"dist": {"kind": "bernoulli", "p": 0.3}, "alpha": 0.75, "n": 50, "compare": True}),
        (["sweep", "--dist", "rademacher", "--alphas", "0.4:1:0.1"],
         {"dist": "rademacher", "alphas": "0.4:1:0.1"}),
    ], ids=["simulate", "exact-compare", "sweep"])
    def test_flags_and_file_write_the_same_bytes(self, flags, raw, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw))
        paths = [tmp_path / "flags.csv", tmp_path / "file.csv"]
        for argv, path in zip((flags, [flags[0], "--config", str(config)]), paths):
            code, _, _ = run_cli(capsys, *argv, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dists_sweep_every_law(self, tmp_path, capsys):
        # `dists` is config-file only: one row per law and alpha, laws in
        # the given order and alphas in grid order within each
        laws = [{"kind": "bernoulli", "p": 0.3}, {"kind": "rademacher"}]
        config = tmp_path / "laws.json"
        config.write_text(json.dumps({"dists": laws}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--alphas", "0.9,0.6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(json.loads(r["dist"]), float(r["alpha"])) for r in rows] == [
            (laws[0], 0.9), (laws[0], 0.6), (laws[1], 0.9), (laws[1], 0.6)
        ]
        for row in rows:  # each row holds what `limits` gives for its law and alpha
            _, out, _ = run_cli(capsys, "limits", "--dist", row["dist"], "--alpha", row["alpha"])
            limits = json.loads(out)["limits"]
            assert {q: float(row[q]) for q in limits} == limits

    def test_bad_checkpoints(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75",
            "--n", "100", "--checkpoints", "30,20",
        )
        assert code == 2 and "ascending" in err

    def test_bad_dist_json(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--dist", '{"kind":"nope"}', "--alpha", "0.8")
        assert code == 2

    def test_tolerances_forwarded(self, tmp_path, capsys, monkeypatch):
        seen = {}

        def fake_run_all(fast, seed, tolerances):
            seen.update(tolerances)
            return [CheckResult("stub", "PASS", 0.0, "")]

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        config = tmp_path / "tol.json"
        config.write_text(json.dumps({"tolerances": {"z_max": 5.0}}))
        code, _, _ = run_cli(capsys, "verify", "--config", str(config))
        assert code == 0 and seen == {"z_max": 5.0}

    @pytest.mark.parametrize("tolerances", [
        {"zmax": 100}, {"z_max": math.nan}, {"z_max": -1}, {"continuation_z_max": 0},
        {"z_max": math.inf}, {"z_max": True}, {"continuation_z_max": "3"},
    ], ids=["unknown-name", "nan", "negative", "zero", "infinite", "boolean", "string"])
    def test_bad_tolerances_are_config_errors(self, tolerances, tmp_path, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("ran despite bad tolerances")

        monkeypatch.setattr(cli, "run_all", refuse)
        config = tmp_path / "tol.json"
        config.write_text(json.dumps({"tolerances": tolerances}))
        code, out, err = run_cli(capsys, "verify", "--fast", "--config", str(config))
        assert code == 2 and out == "" and err.count("\n") == 1 and "tolerance" in err

    def test_benchmark_tolerances_accepted(self, capsys, monkeypatch):
        seen = {}

        def fake_run_all(fast, seed, tolerances):
            seen.update(tolerances)
            return [CheckResult("stub", "PASS", 0.0, "")]

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        config = Path(__file__).parents[1] / "perfbench" / "verify_tolerances.json"
        code, _, _ = run_cli(capsys, "verify", "--config", str(config))
        assert code == 0 and seen == {"z_max": 5.0, "continuation_z_max": 4.0}

    def test_hex_seed_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({"seed": "0xDEADBEEF", "alpha": 0.75}))
        out_path = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--dist", "rademacher",
            "--n", "20", "--replicates", "10", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "# master_seed=0x00000000deadbeef"


class TestNonFiniteMoments:
    """A law whose moments leave the double range fails fast: exit 2, one line."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--dist", '{"kind":"uniform","lo":0,"hi":1e200}',
         "--alpha", "0.75", "--n", "10", "--replicates", "10"),
        ("exact", "--dist", '{"kind":"gaussian","mean":0,"stddev":1e100}',
         "--alpha", "0.75", "--n", "3"),
        ("limits", "--dist", '{"kind":"discrete","points":[-1e200,1e200],"weights":[0.5,0.5]}',
         "--alpha", "0.75"),
    ], ids=["simulate-uniform", "exact-gaussian", "limits-discrete"])
    def test_config_exit_with_one_line(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an error
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "not finite" in err

    # finite moments, but s4 = M4 E S4 + 3 M2^2 D leaves the double range at
    # n = 116 (inf from there on)
    HUGE = '{"kind":"discrete","points":[-1e75,1e75],"weights":[0.5,0.5]}'

    @pytest.mark.parametrize("argv", [
        ("exact", "--n", "400"),
        ("exact", "--n", "400", "--compare"),
        ("simulate", "--n", "400", "--replicates", "10"),
    ], ids=["exact", "exact-compare", "simulate"])
    def test_overflowing_table_names_first_cell(self, argv, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated despite a non-finite exact table")

        monkeypatch.setattr(cli, "cluster_batch", refuse)
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, *argv, "--dist", self.HUGE, "--alpha", "1", "--out", str(out_path),
            )
        assert code == 2 and out == "" and not out_path.exists()
        assert err == f"error: {argv[0]}: s4 at n = 116 is inf, not finite in double precision\n"

    @pytest.mark.parametrize("walks_per_chunk", [10, 1], ids=["one-chunk", "ten-chunks"])
    def test_overflowing_walk_sums(self, walks_per_chunk, tmp_path, capsys, monkeypatch):
        # the exact table is finite up to n = 115, but at alpha = 1 each
        # walk is one cluster of 100 steps, whose E(S~^2 | sizes) = 1e154
        # squares to 1e308: its sum over ten walks, in one chunk or ten,
        # leaves the double range, and E(S~^4 | sizes)^2 already does
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 400 * walks_per_chunk)
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--dist", self.HUGE, "--alpha", "1", "--n", "400",
                "--replicates", "10", "--checkpoints", "100", "--out", str(out_path),
            )
        assert code == 2 and out == "" and not out_path.exists()
        assert err == "error: simulate: stderr of p = 2 at n = 100 is inf, not finite in double precision\n"

    def test_nonfinite_closed_form_cell(self, capsys, monkeypatch):
        real = cli.closed_form_moments

        def with_nan(ms, alpha, n):
            cf = real(ms, alpha, n)
            s3 = cf.s3.copy()
            s3[4] = math.nan
            return dataclasses.replace(cf, s3=s3)

        monkeypatch.setattr(cli, "closed_form_moments", with_nan)
        code, out, err = run_cli(
            capsys, "exact", "--dist", "rademacher", "--alpha", "0.75", "--n", "9", "--compare",
        )
        assert code == 2 and out == ""
        assert err == "error: exact: cf_s3 at n = 5 is nan, not finite in double precision\n"


class TestRequestSizeCap:
    """Requests above cli.MAX_REQUEST_BYTES exit 2 before any array is made;
    the cap is lowered here, so the test allocates nothing."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called despite the size cap")

        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES", 100_000)
        monkeypatch.setattr(cli, "exact_moments_upto", refuse)
        monkeypatch.setattr(cli, "cluster_batch", refuse)

    @pytest.mark.parametrize("argv", [
        ("exact", "--n", "2000"),
        ("exact", "--n", "1000", "--compare"),
        ("simulate", "--n", "20000", "--replicates", "1"),
        ("simulate", "--n", "100", "--replicates", "200"),
        # two chunks of 32 walks: 320 bytes of 1-byte labels and 85 kB of
        # size pass per busy worker, and 11 kB for the recursion to n = 10:
        # 96 kB at one worker and 185 kB at two
        ("simulate", "--n", "250000", "--replicates", "64", "--checkpoints", "10",
         "--workers", "2"),
        # 1000 one-walk chunks of one step: 74 kB of labels and size pass
        # per busy worker, and the pool's record of 1000 chunks, about 2 MB
        ("simulate", "--n", "8000000", "--replicates", "1000", "--checkpoints", "1",
         "--workers", "2"),
        # the shapes of test_simulate_at_cap_runs with one walk more: 179 kB
        # and 177 kB, more labels and a wider tile
        ("simulate", "--n", "20", "--replicates", "849"),
        ("simulate", "--n", "32", "--replicates", "94"),
    ], ids=["exact", "exact-compare", "simulate-long", "simulate-wide", "simulate-workers",
            "simulate-pool-spans", "simulate-tile-over", "simulate-walks-over"])
    def test_config_exit_with_one_line(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv, "--dist", "rademacher", "--alpha", "0.75")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err

    @pytest.mark.parametrize("n,replicates", [(20, 848), (32, 93)])
    def test_simulate_at_cap_runs(self, n, replicates, capsys, monkeypatch):
        # a cap of exactly the request runs, and one walk more exits 2: 1-byte
        # labels, the size pass of one tile (at most _TILE_WALKS walks wide)
        # and the recursion's working set to n.  With 848 walks one more adds
        # 20 bytes of labels; with 93 it also widens the tile, 920 bytes in all.
        monkeypatch.undo()
        cap = sim.batch_step_bytes(n, replicates, n) + exact_moments_bytes(n)
        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES", cap)
        argv = ("simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", str(n))
        code, out, _ = run_cli(capsys, *argv, "--replicates", str(replicates))
        assert code == 0 and len(out.splitlines()) == 6
        over = sim.batch_step_bytes(n, replicates + 1, n) + exact_moments_bytes(n) - cap
        assert over == (20 if replicates > sim._TILE_WALKS else 920)
        assert_one_error_line(capsys, (*argv, "--replicates", str(replicates + 1)), "cap")

    def test_below_cap_runs(self, capsys, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES", exact_moments_bytes(1000))
        code, out, _ = run_cli(
            capsys, "exact", "--dist", "rademacher", "--alpha", "0.75", "--n", "1000",
        )
        assert code == 0 and len(out.splitlines()) == 1001


_VALUE_FLAGS = ("--config", "--dist", "--alpha", "--n", "--replicates", "--seed",
                "--checkpoints", "--out", "--workers", "--alphas")
_SWITCHES = ("--compare", "--fast")
_READ_FLAGS = {
    "limits": {"--config", "--dist", "--alpha", "--out"},
    "exact": {"--config", "--dist", "--alpha", "--out", "--n", "--compare"},
    "simulate": {"--config", "--dist", "--alpha", "--n", "--replicates", "--seed",
                 "--checkpoints", "--out", "--workers"},
    "verify": {"--config", "--seed", "--out", "--fast"},
    "sweep": {"--config", "--dist", "--out", "--alphas"},
}


def assert_one_error_line(capsys, argv, *fragments):
    """`erw argv` exits 2 with nothing on stdout and one `error: ` line,
    holding every fragment, on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    for fragment in fragments:
        assert fragment in err


class TestCommandFlags:
    """Each command accepts only the flags it reads; a flag it refuses is one
    error line, not argparse's usage block."""

    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for command, read in _READ_FLAGS.items()
        for flag in _VALUE_FLAGS + _SWITCHES
        if flag not in read
    ])
    def test_unread_flag_exits_2(self, command, flag, capsys):
        argv = [command, flag] + ([] if flag in _SWITCHES else ["1"])
        assert_one_error_line(capsys, argv, f"unrecognized arguments: {flag}")

    def test_abbreviation_exits_2(self, capsys):
        # `--alpha` is not read by sweep and is no shorthand for `--alphas`
        assert_one_error_line(capsys, ["sweep", "--dist", "rademacher", "--alpha", "0.75"],
                              "unrecognized arguments: --alpha")

    def test_examples_of_unread_flags(self, capsys):
        for argv, flag in (
            (["exact", "--alpha", "0.75", "--n", "3", "--replicates", "7", "--workers", "9",
              "--checkpoints", "1,2"], "--replicates"),
            (["limits", "--alpha", "0.75", "--n", "0"], "--n"),
        ):
            assert_one_error_line(capsys, argv, f"unrecognized arguments: {flag}")

    @pytest.mark.parametrize("argv,fragment", [
        (["exact", "--alpha", "0.75", "--n", "abc"], "n: must be a whole number, got 'abc'"),
        (["exact", "--alpha", "0.75", "--n", "2.0"], "n: must be a whole number"),
        (["exact", "--alpha", "0.75", "--n"], "argument --n: expected one argument"),
        (["simulate", "--alpha", "0.75", "--workers", "0"], "workers: must be >= 1, got 0"),
        (["limits", "--alpha", "0.75", "--dist", '{"kind":"bernoulli","p":true}'],
         "dist: bernoulli p must be a number, got True"),
        (["nope"], "invalid choice: 'nope'"),
        ([], "required: command"),
    ], ids=["not-a-number", "not-whole", "no-value", "zero-workers", "dist-boolean",
            "no-such-command", "no-command"])
    def test_bad_flag_value_is_one_line(self, argv, fragment, capsys):
        assert_one_error_line(capsys, argv, fragment)

    @pytest.mark.parametrize("argv,usage", [
        (["--help"], "usage: erw [-h] {limits,exact,simulate,verify,sweep}"),
        (["exact", "--help"], "usage: erw exact [-h] [--config CONFIG]"),
    ], ids=["erw", "exact"])
    def test_help_exits_0(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith(usage)


class TestUnexpectedErrors:
    """An error that is neither a configuration error nor a verification
    failure exits 3 with one line on stderr."""

    @pytest.mark.parametrize("error", [RuntimeError("injected"), MemoryError("injected")],
                             ids=["runtime", "memory"])
    def test_exit_three_with_one_line(self, error, capsys, monkeypatch):
        def fail(config):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "exact", fail)
        code, out, err = run_cli(capsys, "exact", "--dist", "rademacher", "--alpha", "0.75")
        assert code == 3
        assert out == ""
        assert err == f"error: unexpected {type(error).__name__}: injected\n"


class TestGoldenOutput:
    """Output bytes pinned across versions, not only across reruns.

    `simulate` draws no sample (the cluster engine reads only the law's
    moments), so a Gaussian law is pinned too: nothing on its path goes
    through np.log, whose last bit may differ between numpy builds.
    """

    SKEWED = '{"kind":"discrete","points":[-1,2],"weights":[0.6,0.4]}'
    GAUSSIAN = '{"kind":"gaussian","mean":0.5,"stddev":2}'

    @pytest.mark.parametrize("argv,digest", [
        (("simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "200",
          "--replicates", "500", "--checkpoints", "100,200", "--seed", "0xfeed"),
         "7ba608861f965c543e46f1f539b4c3f6db9a9693accd74cba96c5bc8c455bbe1"),
        (("simulate", "--dist", SKEWED, "--alpha", "0.6", "--n", "200",
          "--replicates", "500", "--checkpoints", "50,200", "--seed", "7"),
         "4a2da89b45178c3da54f3f291679ecaf0027a59db0e0b8a5d2714e5c9b9b2b08"),
        (("simulate", "--dist", GAUSSIAN, "--alpha", "0.3", "--n", "200",
          "--replicates", "500", "--checkpoints", "100,200", "--seed", "0xbeef"),
         "033cfa6ef1d865936780880365d8d366d92377faa9be0f30b244b56eea78d396"),
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "200"),
         "3535bf45da0e6e486bb557e0e54dbd83d83ca4f223221ed986ddc79c064bf141"),
        # 10000 rows cross the writers' row blocks and 100 of the recursion's blocks
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "10000"),
         "859617e894da44478b35a9a2e24600d37b66ef288a1253da8735f319322253ff"),
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "10000", "--compare"),
         "2931f9a006cc6473518b4d4998dd7ddbcb392810e87eb26bd9deb2129bf5463a"),
    ], ids=["simulate-rademacher", "simulate-skewed", "simulate-gaussian", "exact-skewed",
            "exact-skewed-blocks", "exact-skewed-blocks-compare"])
    def test_sha256(self, argv, digest, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

"""End-to-end CLI behaviour: schemas, exit codes, determinism, config."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

import erw.cli as cli
import erw.simulate as sim
from erw.cli import main
from erw.verify import CheckResult
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
        got = cli._row_relerr(rec, form).tolist()
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

    def test_zero_stderr_writes_empty_z(self, capsys):
        # alpha = 1: every walk repeats its first step, and at this seed both
        # walks start with 0, so the stderr is 0 while the estimates miss
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", '{"kind":"bernoulli","p":0.3}', "--alpha", "1",
            "--n", "10", "--replicates", "2", "--seed", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
        assert len(rows) == 4
        for row in rows:
            assert float(row["stderr"]) == 0.0
            assert float(row["estimate"]) != float(row["exact"])
            assert row["z"] == ""

    def test_stops_at_last_checkpoint(self, capsys, monkeypatch):
        # two chunks of 100 walks at n = 3000; each is simulated to step 1000
        monkeypatch.setattr(sim, "_CHUNK_TARGET_ELEMENTS", 300_000)
        rows = []
        run_paths = sim._run_paths

        def spy(dist, alpha, n, keys):
            rows.append(n)
            return run_paths(dist, alpha, n, keys)

        monkeypatch.setattr(sim, "_run_paths", spy)
        code, out, _ = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "3000",
            "--replicates", "200", "--checkpoints", "1000", "--seed", "5",
        )
        assert code == 0 and rows == [1000, 1000]
        # the bytes written when all 3000 steps were simulated
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7a1ebc59aaeccf0660d86d5ef15249db403d62cff103f889dabe05e4c9c1fa57"
        )

    def test_checkpoint_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dist", "rademacher", "--alpha", "0.75",
            "--n", "100", "--checkpoints", "50,200",
        )
        assert code == 2 and "checkpoints" in err


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

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_all",
            lambda **kwargs: [CheckResult("synthetic", "FAIL", 1.0, "injected")],
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert json.loads(out)["n_fail"] == 1


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

    # finite moments, but s4 leaves the double range at n = 116 (inf, then
    # nan from inf - inf in the compensated sum)
    HUGE = '{"kind":"discrete","points":[-1e75,1e75],"weights":[0.5,0.5]}'

    @pytest.mark.parametrize("argv", [
        ("exact", "--n", "400"),
        ("exact", "--n", "400", "--compare"),
        ("simulate", "--n", "400", "--replicates", "10"),
    ], ids=["exact", "exact-compare", "simulate"])
    def test_overflowing_table_names_first_cell(self, argv, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated despite a non-finite exact table")

        monkeypatch.setattr(cli, "simulate_batch", refuse)
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
        # the exact table is finite up to n = 115, but the walks' S~^5 to
        # S~^8 leave the double range by n = 100; over ten chunks the
        # chunk sums of odd powers add +inf to -inf
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
        monkeypatch.setattr(cli, "simulate_batch", refuse)

    @pytest.mark.parametrize("argv", [
        ("exact", "--n", "2000"),
        ("exact", "--n", "1000", "--compare"),
        ("simulate", "--n", "20000", "--replicates", "1"),
        ("simulate", "--n", "100", "--replicates", "200"),
        # two chunks of 800 walks: 64 kB of steps at one worker, 128 kB at two
        ("simulate", "--n", "10000", "--replicates", "1600", "--checkpoints", "10",
         "--workers", "2"),
        # 1000 one-walk chunks of one step: 16 bytes of steps, but the
        # pool's record of 1000 chunks is about 2 MB
        ("simulate", "--n", "8000000", "--replicates", "1000", "--checkpoints", "1",
         "--workers", "2"),
    ], ids=["exact", "exact-compare", "simulate-long", "simulate-wide", "simulate-workers",
            "simulate-pool-spans"])
    def test_config_exit_with_one_line(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv, "--dist", "rademacher", "--alpha", "0.75")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err

    def test_below_cap_runs(self, capsys, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES", 8 * 7 * 1000)
        code, out, _ = run_cli(
            capsys, "exact", "--dist", "rademacher", "--alpha", "0.75", "--n", "1000",
        )
        assert code == 0 and len(out.splitlines()) == 1001


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

    The Gaussian is left out: its sampler goes through np.log, whose last
    bit may differ between numpy builds.
    """

    SKEWED = '{"kind":"discrete","points":[-1,2],"weights":[0.6,0.4]}'

    @pytest.mark.parametrize("argv,digest", [
        (("simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "200",
          "--replicates", "500", "--checkpoints", "100,200", "--seed", "0xfeed"),
         "3697b026e1c9ccb83187540806e946bf36c11c4dd96979a1717aa88e475b9181"),
        (("simulate", "--dist", SKEWED, "--alpha", "0.6", "--n", "200",
          "--replicates", "500", "--checkpoints", "50,200", "--seed", "7"),
         "6a26e1857ee84363febf79d94a99762d2e7172dd71ed7c8b2683f491c7ba6e49"),
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "200"),
         "bae94fd1a49b032c568d4f13ae91ca4522d68e1bc7a823fd74a09ed24df9cc86"),
        # 10000 rows cross the row blocks of the recursion and the writers
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "10000"),
         "5d8da701ec2afdb041a1e684c735c8651584a2da2985be9c5ef2d40ad6f85dfd"),
        (("exact", "--dist", SKEWED, "--alpha", "0.75", "--n", "10000", "--compare"),
         "5dbd978c6dd18045783672c1f57aa3e80e1dd8163991be5fda1f3304488aeabe"),
    ], ids=["simulate-rademacher", "simulate-skewed", "exact-skewed",
            "exact-skewed-blocks", "exact-skewed-blocks-compare"])
    def test_sha256(self, argv, digest, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

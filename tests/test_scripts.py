"""What `import bankfair` loads and exports, and the example scripts."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
# scripts/output_hashes.py's listing for --seeds 101 --config-seeds 0, and the
# numpy version it was made with.
LISTING = ROOT / "tests" / "data" / "output_hashes.txt"
LISTING_NUMPY = ROOT / "tests" / "data" / "output_hashes_numpy.txt"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def python(*args, timeout=120):
    return subprocess.run([sys.executable, *map(str, args)], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_loads_no_scipy():
    # scipy.stats costs about a second to import and no run needs it; it is
    # loaded only inside the functions that do.
    out = python("-c", "import sys, bankfair, bankfair.cli, bankfair.acceptance; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_runs_without_scipy(tmp_path):
    # Sweeps, criterion 4 and the traffic script need numpy only.
    code = f"""
import runpy, sys
sys.modules["scipy"] = None  # every import of scipy now fails
from bankfair import acceptance, harness
result = harness.sweep(acceptance.benchmark_config("talmud", 0), {{"k": [1.5]}}, [0, 1])
print(result.summary[0]["ndcg_ci95"] > 0.0)
print(acceptance.criterion_4()[1])
sys.argv = ["traffic_sensitivity.py", "--levels", "3", "--seeds", "2",
            "--out", {str(tmp_path / "curve.csv")!r}]
runpy.run_path("scripts/traffic_sensitivity.py", run_name="__main__")
"""
    out = python("-c", code)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["True", "spearman=-0.952"]
    assert "spearman(traffic, loss) = -1.000" in lines
    assert len(read_rows(tmp_path / "curve.csv")) == 3


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_every_exported_name_resolves():
    # A deleted type left in __all__ would break `from bankfair import *`.
    import bankfair
    assert len(bankfair.__all__) == len(set(bankfair.__all__))
    missing = [name for name in bankfair.__all__ if not hasattr(bankfair, name)]
    assert missing == []


def test_traffic_sensitivity(tmp_path):
    out = python("scripts/traffic_sensitivity.py", "--levels", "3", "--seeds", "2",
                 "--out", tmp_path / "curve.csv")
    assert out.returncode == 0, out.stderr
    rows = read_rows(tmp_path / "curve.csv")
    assert [row["traffic"] for row in rows] == ["5", "52", "100"]
    assert all(0.0 <= float(row["mean_loss"]) <= 1.0 for row in rows)
    assert "spearman(traffic, loss) = " in out.stdout


@pytest.mark.parametrize("args", [["--min-traffic", "0"], ["--min-traffic", "-3"],
                                  ["--max-traffic", "0"], ["--levels", "0"], ["--seeds", "0"]],
                         ids="=".join)
def test_traffic_sensitivity_refuses_counts_it_cannot_run(tmp_path, args):
    out = python("scripts/traffic_sensitivity.py", *args, "--out", tmp_path / "curve.csv")
    assert out.returncode == 2
    assert f"error: argument {args[0]}: must be an int >= 1, got {args[1]}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "curve.csv").exists()


def test_run_benchmark(tmp_path):
    out = python("scripts/run_benchmark.py", "--seeds", "1", "--out", tmp_path / "bench.csv")
    assert out.returncode == 0, out.stderr
    rows = read_rows(tmp_path / "bench.csv")
    assert [row["rule"] for row in rows] == ["talmud", "naive", "prop", "none"]
    assert all(0.0 <= float(row[name]) <= 1.0 for row in rows for name in ("ndcg", "vio", "esp"))


def test_run_benchmark_checks_tau_before_running(tmp_path):
    # A usage error, not a traceback or a numpy error from the resampling.
    for value in ("nan", "inf"):
        out = python("scripts/run_benchmark.py", "--seeds", "1", "--tau", value,
                     "--out", tmp_path / "bench.csv")
        assert out.returncode == 2
        assert (f"error: argument --tau: tau must be a number in [2**-53, 2**53], got {value}"
                in out.stderr)
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_run_benchmark_refuses_no_seeds(tmp_path, seeds):
    # Not a table of nan and a header-only CSV.
    out = python("scripts/run_benchmark.py", "--seeds", seeds, "--out", tmp_path / "bench.csv")
    assert out.returncode == 2
    assert f"error: argument --seeds: must be an int >= 1, got {seeds}" in out.stderr
    assert "Warning" not in out.stderr
    assert not (tmp_path / "bench.csv").exists()


def test_run_benchmark_names_a_failed_run(tmp_path, monkeypatch):
    # A failed run stops the script with its rule and seed, before any CSV
    # or a table of means over empty cells.
    from bankfair import harness

    real_run = harness.run

    def run(cfg):
        if cfg.rule == "prop" and cfg.seed == 1:
            raise RuntimeError("no serve today")
        return real_run(cfg)

    module = load_script("run_benchmark")
    monkeypatch.setattr(harness, "run", run)
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--seeds", "2",
                                      "--out", str(tmp_path / "bench.csv")])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == "run rule=prop seed=1 failed: no serve today"
    assert not (tmp_path / "bench.csv").exists()


def test_toy_two_provider():
    out = python("scripts/toy_two_provider.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("3 users: feasible region 73.3%")
    assert lines[1].startswith("2 users: feasible region 60.0%")


def test_ab_on_one_checkout_twice():
    # Both sides are this checkout, so every pair's outputs are equal.
    out = python("scripts/ab.py", ROOT, ROOT, "--workload", "long_tail", "--seeds", "5",
                 "--pairs", "1", "--seconds", "0.2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert re.fullmatch(r"long_tail: 1 pairs at seeds 5, --seconds 0\.2, \d+ usable CPUs",
                        lines[0])
    assert lines[1].split() == ["metric", "parent", "median", "[q1,", "q3]",
                                "change", "median", "[q1,", "q3]", "wins", "p", "shift",
                                "gain"]
    number = r"[0-9.e+-]+"
    cell = rf"{number} \[{number}, {number}\]"
    # One pair is never a gain, however it falls.
    for line, name in zip(lines[2:6], ("run_s", "users_per_s", "setup_s", "peak_rss_mb")):
        assert re.fullmatch(rf"  {name} +{cell} +{cell} +[01]/1 +1\.000 +{number}% +no",
                            line), line
    assert lines[6:] == ["  report_sha256 equal in 1/1 pairs; NDCG/Vio/ESP equal in 1/1 pairs"]


def test_ab_alternates_sides_and_fails_when_a_pair_differs(tmp_path, monkeypatch, capsys):
    ab = load_script("ab")
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").touch()
    calls = []

    def bench(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        change = tree.name == "change"
        # run_s: the change wins every pair by 0.05 s, inside the parent's
        # spread over seeds. setup_s: it wins 8 of 10 pairs by far. peak_rss_mb:
        # it wins every pair by more than the parent's spread.
        return {"run_s": seed - 0.05 * change, "users_per_s": 2.0,
                "setup_s": 0.5 - 0.4 * change * (len(calls) > 4),
                "peak_rss_mb": 3.0 + 0.1 * seed - 2.0 * change,
                "ndcg_at_k": 0.5, "vio_at_k": 0.1, "esp_at_k": 0.9,
                "report_sha256": str(len(calls) == 4)}

    monkeypatch.setattr(ab, "bench", bench)
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                    "long_tail", "--seeds", "1", "2", "--pairs", "5", "--seconds", "0.1"]) == 1
    assert calls == list(zip(["parent", "change", "change", "parent"] * 5, [1] * 10 + [2] * 10))
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[-4:] for line in out.splitlines()[2:6]}
    assert rows == {"run_s": ["10/10", "0.002", "-3.3%", "no"],
                    "users_per_s": ["0/10", "1.000", "+0.0%", "no"],
                    "setup_s": ["8/10", "0.008", "-80.0%", "no"],
                    "peak_rss_mb": ["10/10", "0.002", "-63.5%", "yes"]}
    assert "report_sha256 equal in 9/10 pairs; NDCG/Vio/ESP equal in 10/10 pairs" in out


def test_ab_sign_test():
    ab = load_script("ab")
    assert ab.sign_test(6, 0) == ab.sign_test(0, 6) == 2 / 64
    assert ab.sign_test(3, 3) == ab.sign_test(0, 0) == 1.0
    assert ab.sign_test(9, 1) == 2 * 11 / 1024


def test_output_hashes(tmp_path):
    # Every hashed output byte must match the committed listing. A change
    # that moves bytes on purpose remakes the listing, with the numpy version
    # beside it, by running the same command without --against.
    out = python("scripts/output_hashes.py", "--seeds", "101", "--config-seeds", "0",
                 "--out", tmp_path / "runs", "--against", LISTING)
    made_with = LISTING_NUMPY.read_text().strip()
    assert out.returncode == 0, out.stderr + (
        f"(the listing was made with numpy {made_with}, this is numpy {np.__version__})"
        if made_with != np.__version__ else "")
    assert out.stderr == f"0 of 74 files differ from {LISTING}\n"
    assert out.stdout == LISTING.read_text()
    lines = [line.split() for line in out.stdout.splitlines()]
    runs = ["wide_catalog/seed101", "long_tail/seed101", "replay_log/seed101",
            *(f"benchmark_config/{rule}/seed0" for rule in ("talmud", "naive", "prop", "none")),
            "criterion_9", "wide_catalog/seed101/noisy", "replay_log/seed101/noisy",
            "replay_log/seed101/bare", "replay_log/seed101/sidecar", "replay_log/seed101/quoted",
            "empty_intervals/talmud/seed0", "empty_intervals/prop/seed0",
            "zero_floors/talmud/seed0", "empty_intervals/talmud/seed0/noisy",
            "no_arrivals/talmud/seed0"]
    files = ["report.json", "decisions.csv", "allocations.csv", "intervals.csv"]
    sweep = [("sweep/k_rule/seed0", "runs.csv"), ("sweep/k_rule/seed0", "pareto.csv")]
    assert [(name, file) for name, file, _ in lines] == [(r, f) for r in runs for f in files] + sweep
    assert all(len(digest) == 64 for _, _, digest in lines)
    assert (tmp_path / "runs" / "criterion_9" / "report.json").is_file()
    seed_dir = tmp_path / "runs" / ".bench_out" / "replay_log" / "seed101"
    assert '"relevance_noise": 0.05' in (seed_dir / "noisy" / "report.json").read_text()
    assert (seed_dir / "sidecar_log" / "relevance.bin").is_file()
    gapped = tmp_path / "runs" / "empty_intervals" / "prop" / "seed0" / "report.json"
    assert 0 in json.loads(gapped.read_text())["per_interval_traffic"]
    zero = tmp_path / "runs" / "zero_floors" / "talmud" / "seed0" / "report.json"
    assert set(json.loads(zero.read_text())["config_echo"]["m"]) == {0.0}
    noisy = tmp_path / "runs" / "empty_intervals" / "talmud" / "seed0" / "noisy" / "report.json"
    noisy = json.loads(noisy.read_text())
    assert 0 in noisy["per_interval_traffic"] and noisy["config_echo"]["relevance_noise"] == 0.05
    idle = tmp_path / "runs" / "no_arrivals" / "talmud" / "seed0"
    assert set(json.loads((idle / "report.json").read_text())["per_interval_traffic"]) == {0}
    assert len((idle / "decisions.csv").read_text().splitlines()) == 1  # the header alone
    assert '"data_path": ".bench_out/replay_log/seed101/log/interactions.csv"' in (
        seed_dir / "bare" / "report.json").read_text()
    # The same matrix from the sidecar as from the logged scores: same lists.
    assert ((seed_dir / "sidecar" / "decisions.csv").read_bytes()
            == (seed_dir / "out" / "decisions.csv").read_bytes())
    # User ids with a comma, a quote and a newline, each quoted as csv quotes it.
    quoted = (seed_dir / "quoted" / "decisions.csv").read_bytes()
    assert all(re.search(rb',"u\d+%s",' % suffix, quoted) for suffix in (b",a", b'""b', b"\nc"))
    # The sweep: every point of its 2 x 2 grid at both seeds, each run ok.
    sweep_dir = tmp_path / "runs" / "sweep" / "k_rule" / "seed0"
    points = [(r["k"], r["rule"], r["seed"], r["status"])
              for r in read_rows(sweep_dir / "runs.csv")]
    assert points == [(k, rule, seed, "ok") for k in ("1.0", "2.0")
                      for rule in ("talmud", "prop") for seed in ("0", "1")]
    assert len(read_rows(sweep_dir / "pareto.csv")) == 4


@pytest.fixture
def output_hashes(monkeypatch):
    """scripts/output_hashes.py imported in process; it prepends src/ and bench/ to sys.path."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_hashes",
                                                  ROOT / "scripts" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in ("config", "workloads", "speed"):  # bench/ modules, imported by bare name
            sys.modules.pop(name, None)


def test_output_hashes_names_each_difference(output_hashes):
    # The committed listing against a tampered copy: a changed sha256, a
    # missing line and an extra line are each named, in run order.
    lines = [line.split() for line in LISTING.read_text().splitlines()]
    got = {(name, file): digest for name, file, digest in lines}
    tampered = [list(fields) for fields in lines]
    tampered[1][2] = tampered[1][2][:-1] + ("0" if tampered[1][2][-1] != "0" else "1")
    del tampered[6]
    tampered.append(["extra/seed1", "report.json", "0" * 64])
    expected = {(name, file): digest for name, file, digest in tampered}
    assert output_hashes.compare(got, expected, "listing.txt") == [
        "wide_catalog/seed101 decisions.csv: sha256 differs",
        "long_tail/seed101 allocations.csv: not in the listing",
        "extra/seed1 report.json: missing",
        "3 of 75 files differ from listing.txt"]
    assert output_hashes.compare(got, got, "listing.txt") == [
        "0 of 74 files differ from listing.txt"]

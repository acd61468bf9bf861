"""What `import bankfair` loads and exports, and the example scripts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def python(*args, timeout=120):
    return subprocess.run([sys.executable, *map(str, args)], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_import_loads_no_scipy():
    # scipy.stats costs about a second to import and no run needs it; it is
    # loaded only inside the functions that do.
    out = python("-c", "import sys, bankfair, bankfair.cli, bankfair.acceptance; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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


def test_run_benchmark(tmp_path):
    out = python("scripts/run_benchmark.py", "--seeds", "1", "--out", tmp_path / "bench.csv")
    assert out.returncode == 0, out.stderr
    rows = read_rows(tmp_path / "bench.csv")
    assert [row["rule"] for row in rows] == ["talmud", "naive", "prop", "none"]
    assert all(0.0 <= float(row[name]) <= 1.0 for row in rows for name in ("ndcg", "vio", "esp"))


def test_run_benchmark_checks_tau_before_running(tmp_path):
    # RunConfig's check, not a numpy error from deep inside the resampling.
    out = python("scripts/run_benchmark.py", "--seeds", "1", "--tau", "nan",
                 "--out", tmp_path / "bench.csv")
    assert out.returncode != 0
    assert "ConfigError: tau must be None or a finite number > 0, got nan" in out.stderr
    assert not (tmp_path / "bench.csv").exists()


def test_toy_two_provider():
    out = python("scripts/toy_two_provider.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("3 users: feasible region 73.3%")
    assert lines[1].startswith("2 users: feasible region 60.0%")


def test_output_hashes(tmp_path):
    out = python("scripts/output_hashes.py", "--seeds", "101", "--config-seeds", "0",
                 "--out", tmp_path / "runs")
    assert out.returncode == 0, out.stderr
    lines = [line.split() for line in out.stdout.splitlines()]
    runs = ["wide_catalog/seed101", "long_tail/seed101", "replay_log/seed101",
            *(f"benchmark_config/{rule}/seed0" for rule in ("talmud", "naive", "prop", "none")),
            "criterion_9", "wide_catalog/seed101/noisy", "replay_log/seed101/noisy"]
    files = ["report.json", "decisions.csv", "allocations.csv", "intervals.csv"]
    assert [(name, file) for name, file, _ in lines] == [(r, f) for r in runs for f in files]
    assert all(len(digest) == 64 for _, _, digest in lines)
    assert (tmp_path / "runs" / "criterion_9" / "report.json").is_file()
    noisy = tmp_path / "runs" / ".bench_out" / "replay_log" / "seed101" / "noisy"
    assert '"relevance_noise": 0.05' in (noisy / "report.json").read_text()

    # The same runs against their own listing, then against a tampered one.
    listing = tmp_path / "listing.txt"
    listing.write_text(out.stdout)
    again = python("scripts/output_hashes.py", "--seeds", "101", "--config-seeds", "0",
                   "--out", tmp_path / "again", "--against", listing)
    assert again.returncode == 0, again.stderr
    assert again.stdout == out.stdout
    assert again.stderr == f"0 of 40 files differ from {listing}\n"

    tampered = [" ".join(fields) for fields in lines]
    tampered[1] = tampered[1][:-1] + ("0" if tampered[1][-1] != "0" else "1")
    del tampered[6]
    tampered.append("extra/seed1 report.json " + "0" * 64)
    listing.write_text("\n".join(tampered) + "\n")
    bad = python("scripts/output_hashes.py", "--seeds", "101", "--config-seeds", "0",
                 "--out", tmp_path / "bad", "--against", listing)
    assert bad.returncode == 1
    assert bad.stdout == out.stdout
    assert bad.stderr.splitlines() == [
        "wide_catalog/seed101 decisions.csv: sha256 differs",
        "long_tail/seed101 allocations.csv: not in the listing",
        "extra/seed1 report.json: missing",
        f"3 of 41 files differ from {listing}"]

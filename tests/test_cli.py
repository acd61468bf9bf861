"""Command line surface: flags, exit codes, output files."""

import json
import re
import shlex
import struct
import time
from pathlib import Path

import pytest

from bankfair.cli import main, parse_forecaster
from bankfair.errors import ConfigError
from bankfair.reranker import RerankConfig

SYNTH = {
    "num_items": 40, "num_providers": 4, "num_intervals": 3,
    "mean_traffic": 15, "list_size": 5,
    "provider_bands": [[0.7, 1.0], [0.7, 1.0], [0.7, 1.0], [0.2, 0.6]],
    "inventory": [13, 13, 12, 2],
}


# The dual step of every run here that used to take the retired "auto"
# default, 1/sqrt(predicted traffic): about what it gave at SYNTH's 15
# arrivals per interval. Each of these runs stops before serving, serves
# under rule none (frozen prices) or serves no arrivals, so its outcome does
# not depend on the step.
ETA = 0.25


def reject_constant(name):
    raise AssertionError(f"report.json holds {name}")


def write_synth(tmp_path, **overrides):
    cfg = {**SYNTH, **overrides}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseForecaster:
    def test_bare_name(self):
        assert parse_forecaster("oracle") == ("oracle", {})

    def test_params(self):
        name, params = parse_forecaster("moving_average:w=3,prior_mean=12.5")
        assert name == "moving_average"
        assert params == {"w": 3, "prior_mean": 12.5}

    def test_bad_pair(self):
        with pytest.raises(ConfigError):
            parse_forecaster("moving_average:w")


class TestRunCommand:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--synth", write_synth(tmp_path), "--rule", "talmud",
                     "--forecaster", "oracle", "--m", "20", "--K", "5",
                     "--eta", "0.001", "--seed", "3", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"ndcg_at_k", "vio_at_k", "esp_at_k"}
        for name in ("report.json", "intervals.csv", "allocations.csv"):
            assert (out / name).exists()

    def test_data_source_round_trip(self, tmp_path, capsys):
        import numpy as np
        from bankfair.domain import SynthConfig, save_instance, synth_instance
        cfg = SynthConfig(num_items=20, num_providers=3, num_intervals=2,
                          traffic=[8, 6], list_size=5)
        catalog, counts, requests = synth_instance(cfg, seed=2)
        save_instance(tmp_path / "data", catalog, counts, requests,
                      interval_seconds=24 * 3600.0)
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path / "data"), "--rule", "none",
                     "--m", "5", "--K", "5", "--seed", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ndcg_at_k"] == 1.0

    def test_infeasible_run_exits_two(self, tmp_path, capsys):
        synth = write_synth(tmp_path, traffic=[0, 10, 10])
        code = main(["run", f"--eta={ETA}", "--synth", synth, "--m", "20", "--K", "5",
                     "--forecaster", "moving_average:w=1,prior_mean=0", "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err == ("infeasible: provider 0: remaining requirement 20.0 "
                                           "but zero total claims in interval 1\n")

    def test_zero_arrivals_with_tau_exits_zero(self, tmp_path, capsys):
        # Resampling no arrivals gives all-zero counts, as the run without tau has.
        out = tmp_path / "out"
        code = main(["run", "--synth", write_synth(tmp_path, traffic=[0, 0, 0]), "--K", "5",
                     f"--eta={ETA}", "--m", "0", "--tau", "0.2", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["per_interval_traffic"] == [0, 0, 0]

    # An interval without arrivals is served like any other, so a list longer
    # than the catalog is refused whether or not anyone arrives.
    @pytest.mark.parametrize("noise", ["0", "0.1"])
    @pytest.mark.parametrize("traffic", [[0, 0], [1, 0]])
    def test_list_longer_than_the_catalog_exits_one(self, tmp_path, capsys, traffic, noise):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"num_items": 3, "num_providers": 1, "num_intervals": 2,
                                    "traffic": traffic}))
        code = main(["run", "--synth", str(path), "--K", "5", "--m", "0", "--noise", noise,
                     f"--eta={ETA}"])
        err = capsys.readouterr().err
        assert code == 1
        assert "need at least 5 items, catalog has 3" in err and "Traceback" not in err

    def test_missing_synth_file_exits_one(self, tmp_path, capsys):
        code = main(["run", f"--eta={ETA}", "--synth", str(tmp_path / "absent.json"), "--K", "5"])
        assert code == 1

    # (flag, value, the config key the error names). tau 1e-320 is below the
    # config's 2**-53, under which counts / (tau * max) would overflow. A
    # second --eta replaces the first.
    @pytest.mark.parametrize("flag,value,key", [
        ("eta", "nan", "eta"), ("eta", "inf", "eta"),
        ("eta", "-1", "eta"), ("tau", "nan", "tau"), ("tau", "0", "tau"),
        ("tau", "-1", "tau"), ("tau", "1e-320", "tau"),
        ("interval-hours", "0", "interval_seconds"),
        ("interval-hours", "nan", "interval_seconds"),
        ("interval-hours", "-1", "interval_seconds"), ("noise", "nan", "relevance_noise"),
        ("noise", "-1", "relevance_noise"), ("noise", "inf", "relevance_noise")])
    def test_bad_eta_exits_one(self, tmp_path, capsys, flag, value, key):
        code = main(["run", f"--eta={ETA}", "--synth", write_synth(tmp_path), "--K", "5",
                     f"--{flag}={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_infinite_tau_exits_one(self, tmp_path, capsys):
        # An infinite tau would reach report.json as "tau": Infinity, which
        # is not JSON; a large finite tau resamples near uniformly.
        out = tmp_path / "out"
        code = main(["run", "--synth", write_synth(tmp_path), "--K", "5", "--tau", "inf",
                     f"--eta={ETA}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "tau must be None or a number in [2**-53, 2**53], got inf" in err
        assert "Traceback" not in err and not out.exists()

    # Twenty items over three intervals of 45 arrivals in all, K 3, floor 5.
    BUSY = {"num_items": 20, "num_providers": 4, "num_intervals": 3, "traffic": [20, 10, 15]}

    # (flag, value, the error) for values past the config's 2**53, refused
    # before the run. Past it, eta could overflow a dual step's prices,
    # prior_mean the product P * K * traffic_total (into zero claims and a
    # false infeasibility), and m the total in the clamp warning.
    PAST_BOUND = [
        ("--eta", "1e308", "eta must be a number in [0, 2**53], got 1e+308"),
        ("--eta", "1.7976931348623157e308",
         "eta must be a number in [0, 2**53], got 1.7976931348623157e+308"),
        ("--eta", "1e307", "eta must be a number in [0, 2**53], got 1e+307"),
        ("--forecaster", "moving_average:prior_mean=1e307",
         "parameter 'prior_mean' must be a number in [0, 2**53], got 1e+307"),
        ("--m", "1e300",
         "required_min_exposure must be a list of numbers in [0, 2**53], got [1e+300]")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag,value,message", PAST_BOUND,
                             ids=[f"{flag}-{value}" for flag, value, _ in PAST_BOUND])
    def test_value_past_the_bound_exits_one(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "busy.json"
        path.write_text(json.dumps(self.BUSY))
        assert main(["run", "--synth", str(path), "--K", "3", "--m", "5", f"--eta={ETA}",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "infeasible" not in err and "clamping" not in err

    # Synthetic sizes past int64 on 10 items of one provider, which ended in
    # OverflowError or ValueError tracebacks. Counts are bounded at 2**53; 2**53
    # arrivals in each of 10 000 intervals are counted exactly, and their
    # matrix is past the address space.
    SIZE_PAST_BOUND = [
        ({"traffic": [10**20]}, "traffic must be None or a list of ints in [0, 2**53], got "
         "[100000000000000000000]"),
        ({"num_items": 10**20}, "num_items must be an int in [1, 2**53], got "
         "100000000000000000000"),
        ({"inventory": [10**20]}, "inventory must be 'even' or a list of ints in [1, 2**53], "
         "got [100000000000000000000]"),
        ({"traffic": [10**18]}, "traffic must be None or a list of ints in [0, 2**53], got "
         "[1000000000000000000]"),
        ({"num_intervals": 10_000, "mean_traffic": 2**53}, "relevance matrix is too large")]

    @pytest.mark.parametrize("fields,message", SIZE_PAST_BOUND,
                             ids=["traffic-1e20", "num_items-1e20", "inventory-1e20",
                                  "traffic-1e18", "mean_traffic-2**53"])
    def test_size_past_the_bound_exits_one(self, tmp_path, capsys, fields, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"num_items": 10, "num_providers": 1, "num_intervals": 1,
                                    **fields}))
        assert main(["run", "--synth", str(path), "--K", "3", "--m", "0", "--eta", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    # A prior of 1e308 per interval would sum past the float range over
    # three intervals; it is past the config's 2**53, and refused.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_prior_mean_whose_horizon_total_overflows_exits_one(self, tmp_path, capsys):
        path = tmp_path / "busy.json"
        path.write_text(json.dumps(self.BUSY))
        code = main(["run", f"--eta={ETA}", "--synth", str(path), "--K", "3", "--m", "5",
                     "--forecaster", "moving_average:prior_mean=1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert ("parameter 'prior_mean' must be a number in [0, 2**53], got 1e+308" in err
                and "infeasible" not in err)
        assert "Traceback" not in err

    # Every bounded value at its bound at once, K the whole catalog: floors,
    # eta, prior and noise at 2**53, tau at either end of its range. No
    # product overflows, and a run either finishes or is infeasible, with a
    # report of finite numbers.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau", [repr(2.0**-53), repr(2.0**53)])
    @pytest.mark.parametrize("rule", ["talmud", "naive", "prop", "none"])
    def test_every_value_at_the_bound_runs_cleanly(self, tmp_path, capsys, rule, tau):
        path, out, bound = tmp_path / "busy.json", tmp_path / "out", repr(2.0**53)
        path.write_text(json.dumps(self.BUSY))
        code = main(["run", "--synth", str(path), "--K", "20", "--rule", rule, "--m", bound,
                     "--eta", bound, "--noise", bound, "--tau", tau, "--out", str(out),
                     "--forecaster", f"moving_average:prior_mean={bound}"])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, err
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=reject_constant)

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = main(["run", "--synth", write_synth(tmp_path), "--K", "5", "--seed", "-1",
                     f"--eta={ETA}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    # (forecaster spec, the parameter the error names)
    @pytest.mark.parametrize("spec,key", [
        ("moving_average:zzz=1", "zzz"), ("last_value", "last_value"),
        ("moving_average:w=2.5", "w"), ("moving_average:w=0", "w"),
        ("seasonal:lag=0", "lag"), ("seasonal:lag=x", "lag"),
        ("moving_average:prior_mean=nan", "prior_mean"),
        ("moving_average:prior_mean=inf", "prior_mean"),
        ("seasonal:prior_mean=-5", "prior_mean"), ("oracle:w=3", "w")])
    def test_bad_forecaster_exits_one(self, tmp_path, capsys, spec, key):
        code = main(["run", f"--eta={ETA}", "--synth", write_synth(tmp_path), "--K", "5",
                     "--forecaster", spec])
        assert code == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err


# eta has no default. "auto", once the default, sized the step 1/sqrt(traffic)
# in raw price units and could leave every floor unmet; it is refused as any
# other word is, and a run or sweep base without eta is refused through the
# same config check as a bad number. (where eta is given, its value or None
# for none, exit code or None for a ConfigError, what the error says)
NOT_A_NUMBER_ETA = [
    ("RerankConfig", "auto", None, "eta must be a number in [0, 2**53], got 'auto'"),
    ("run", "auto", 1, "argument --eta: invalid float value: 'auto'"),
    ("run", "fast", 1, "argument --eta: invalid float value: 'fast'"),
    ("run", None, 1, "error: eta must be a number in [0, 2**53], got None"),
    ("base", "auto", 1, "error: run option 'eta' must be a number, got 'auto'"),
    ("base", None, 1, "error: eta must be a number in [0, 2**53], got None"),
    ("grid", "auto", 1, "error: sweep grid 'eta': eta must be a number in [0, 2**53], "
     "got 'auto'")]


@pytest.mark.parametrize("where,eta,code,message", NOT_A_NUMBER_ETA,
                         ids=[f"{where}-{eta}" for where, eta, _, _ in NOT_A_NUMBER_ETA])
def test_eta_that_is_not_a_number_is_refused(tmp_path, capsys, where, eta, code, message):
    if where == "RerankConfig":
        with pytest.raises(ConfigError) as exc:
            RerankConfig(list_size=5, eta=eta)
        assert str(exc.value) == message
        return
    if where == "run":
        argv = ["run", "--synth", write_synth(tmp_path), "--K", "5", "--m", "20"]
        argv += [] if eta is None else ["--eta", eta]
    else:
        base = {"synth": SYNTH, "K": 5, "m": 20}
        grid = {"k": [1.5]}
        if where == "grid":
            base["eta"], grid = ETA, {"eta": [eta]}
        elif eta is not None:
            base["eta"] = eta
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "grid": grid}))
        argv = ["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse refusing a flag value
        got = exc.code
    err = capsys.readouterr().err
    assert got == code and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_readme_synth_example_runs(tmp_path):
    # README's synth spec, run with the flags of README's synthetic example.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    spec = re.search(r"`--synth` points to a JSON file.*?```json\n(.*?)```", readme, re.S)
    command = re.search(r"^(bankfair run --synth .*?[^\\])$", readme, re.S | re.M)
    (tmp_path / "synth.json").write_text(spec.group(1))
    argv = shlex.split(command.group(1).replace("\\\n", " "))[1:]
    argv[argv.index("--synth") + 1] = str(tmp_path / "synth.json")
    argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert main(argv) == 0
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config_echo"]["synth"]
    spec = json.loads(spec.group(1))
    assert {key: echo[key] for key in spec} == spec


class TestIngestionErrors:
    """Bad log values stop the run with exit code 1 and name the offending row."""

    ROWS = [("u0", "i0", "p0", "0", "0.5"), ("u1", "i1", "p1", "60", "0.25"),
            ("u2", "i2", "p0", "120", "0.75")]

    def run_log(self, tmp_path, rows):
        path = tmp_path / "log.csv"
        lines = ["user_id,item_id,provider_id,timestamp,score", *map(",".join, rows)]
        path.write_text("\n".join(lines) + "\n")
        return main(["run", "--data", str(path), "--rule", "none", "--m", "1", "--K", "1",
                     f"--eta={ETA}"])

    def test_clean_log_runs(self, tmp_path, capsys):
        assert self.run_log(tmp_path, self.ROWS) == 0

    @pytest.mark.parametrize("field,value", [
        (3, "nan"), (3, "inf"), (4, "1.5"), (4, "-3"), (4, "nan"), (4, "inf")])
    def test_bad_value_exits_one_naming_the_row(self, tmp_path, capsys, field, value):
        rows = [list(r) for r in self.ROWS]
        rows[1][field] = value
        assert self.run_log(tmp_path, rows) == 1
        err = capsys.readouterr().err
        assert "row 3:" in err and value in err

    def test_outlier_timestamp_exits_one_naming_the_row(self, tmp_path, capsys):
        rows = [*self.ROWS[:2], ("u9", "i0", "p0", "1e12", "0.5"), self.ROWS[2]]
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["user_id,item_id,provider_id,timestamp,score",
                                   *map(",".join, rows)]) + "\n")
        start = time.perf_counter()
        code = main(["run", "--data", str(path), "--rule", "none", "--m", "1", "--K", "1",
                     f"--eta={ETA}", "--interval-hours", "1"])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        err = capsys.readouterr().err
        assert "row 4: timestamp 1000000000000.0" in err and "277777778 intervals" in err
        assert "Traceback" not in err

    def test_overflowing_timestamp_span_exits_one(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows to inf; the span is refused, not cast to int.
        rows = [("u0", "i0", "p0", "-1e308", "0.5"), *self.ROWS[1:],
                ("u9", "i0", "p0", "1e308", "0.5")]
        assert self.run_log(tmp_path, rows) == 1
        err = capsys.readouterr().err
        assert "row 5: timestamp 1e+308 makes the log span inf intervals" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("file", ["interactions.csv", "catalog.csv"])
    def test_file_that_is_not_utf8_exits_one(self, tmp_path, capsys, file):
        # Byte 0xff in a user id, or in a catalog item id.
        bad = {file: b"\xff"}
        (tmp_path / "catalog.csv").write_bytes(
            b"item_id,provider_id\ni0,0\ni1,1\ni%s,1\n" % bad.get("catalog.csv", b"2"))
        (tmp_path / "interactions.csv").write_bytes(
            b"user_id,item_id,provider_id,timestamp,score\nu0,i0,0,0,0.5\n"
            b"u%s,i1,1,60,0.25\n" % bad.get("interactions.csv", b"1"))
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path), "--m", "0", "--K", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / file}: not UTF-8 text (byte 0xff" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row,message", [
        (("u1", "i9", "p1", "60", "0.25"), "row 3: item 'i9' is not in"),
        (("u1", "i1", "0", "60", "0.25"), "row 3: item 'i1' has provider '0'"),
        (("u1", "i1", "p1", "60", "0.25"), "row 3: item 'i1' has provider 'p1'")])
    def test_log_disagreeing_with_catalog_exits_one(self, tmp_path, capsys, row, message):
        (tmp_path / "catalog.csv").write_text(
            "item_id,provider_id\ni0,0\ni1,1\ni2,0\n")
        rows = [("u0", "i0", "0", "0", "0.5"), row, ("u2", "i2", "0", "120", "0.75")]
        (tmp_path / "interactions.csv").write_text(
            "\n".join(["user_id,item_id,provider_id,timestamp,score", *map(",".join, rows)])
            + "\n")
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path), "--rule", "none", "--m", "1",
                     "--K", "1"])
        assert code == 1
        assert message in capsys.readouterr().err

    # A floor of 1e308 would overflow the floors' sum over both providers; it
    # is past the config's 2**53, and refused before the log is read.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_floor_sum_overflow_exits_one(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["user_id,item_id,provider_id,timestamp,score",
                                   *map(",".join, self.ROWS)]) + "\n")
        code = main(["run", f"--eta={ETA}", "--data", str(path), "--K", "1", "--m", "1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert "required_min_exposure" in err and "Traceback" not in err

    def test_duplicate_catalog_item_exits_one(self, tmp_path, capsys):
        (tmp_path / "catalog.csv").write_text("item_id,provider_id\ni0,0\ni0,1\ni1,1\n")
        (tmp_path / "interactions.csv").write_text(
            "user_id,item_id,provider_id,timestamp,score\nu0,i0,0,0,0.5\n")
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path), "--rule", "none", "--m", "1",
                     "--K", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "catalog.csv row 3: duplicate item id 'i0'" in err and "Traceback" not in err

    def test_saved_instance_without_requests_exits_one(self, tmp_path, capsys):
        from bankfair.domain import SynthConfig, save_instance, synth_instance
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=1, traffic=[0])
        save_instance(tmp_path / "data", *synth_instance(cfg, seed=0))
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path / "data"), "--rule", "none",
                     "--m", "1", "--K", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "no requests" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [1.5, -3.0, float("nan"), float("inf")])
    def test_bad_relevance_matrix_exits_one_naming_the_row(self, tmp_path, capsys, value):
        import numpy as np
        from bankfair.domain import (RELEVANCE_FILE, SynthConfig, _write_relevance_matrix,
                                     save_instance, synth_instance)
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=1, traffic=[3],
                          list_size=2)
        catalog, counts, requests = synth_instance(cfg, seed=0)
        save_instance(tmp_path / "data", catalog, counts, requests)
        matrix = np.array([req.relevance for req in requests])
        matrix[2, 4] = value
        _write_relevance_matrix(tmp_path / "data" / RELEVANCE_FILE, matrix)
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path / "data"), "--rule", "none",
                     "--m", "1", "--K", "2"])
        assert code == 1
        assert "matrix row 2, column 4" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar,message", [
        (b"BFRM\x01\x00\x00\x00", "truncated relevance file"),
        (struct.pack("<4sIII", b"BFRM", 1, 1, 2) + b"\x00\x00", "unsupported element width 2"),
        (struct.pack("<4sIIIdd", b"BFRM", 2, 1, 8, 0.5, 0.5),
         "matrix shape (2, 1) does not match 1 users x 1 items")])
    def test_unreadable_relevance_file_exits_one(self, tmp_path, capsys, sidecar, message):
        (tmp_path / "interactions.csv").write_text(
            "user_id,item_id,provider_id,timestamp,score\nu0,i0,p0,0,0.5\n")
        (tmp_path / "relevance.bin").write_bytes(sidecar)
        code = main(["run", f"--eta={ETA}", "--data", str(tmp_path), "--rule", "none", "--m", "1",
                     "--K", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'relevance.bin'}: {message}" in err and "Traceback" not in err


class TestSweepCommand:
    def test_sweep_writes_outputs(self, tmp_path, capsys):
        spec = {
            "base": {"synth": SYNTH, "rule": "talmud", "forecaster": "oracle",
                     "m": 20, "K": 5, "eta": 0.001},
            "grid": {"k": [1.2, 1.5]},
            "seeds": [0, 1],
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep_out"
        code = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        assert (out / "pareto.csv").exists()
        assert "4 runs" in capsys.readouterr().out


class TestSpecValidation:
    """Bad run and sweep specs exit 1 with a message naming the key, no traceback."""

    def sweep(self, tmp_path, capsys, spec):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code = main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def run_synth(self, tmp_path, capsys, spec):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec))
        code = main(["run", f"--eta={ETA}", "--synth", str(path), "--K", "5", "--rule", "none"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("key", ["estar_targt", "estar_target", "warm_start_dual",
                                     "alpha_traffic", "remaining_update"])
    def test_unknown_base_key(self, tmp_path, capsys, key):
        base = {"synth": SYNTH, "K": 5, "eta": ETA, key: "plan"}
        code, err = self.sweep(tmp_path, capsys, {"base": base, "grid": {"k": [1.5]}})
        assert code == 1 and repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize("spec,key", [({"base": {"K": 5, "synth": SYNTH, "eta": ETA}}, "grid"),
                                          ({"base": {"K": "ten", "synth": SYNTH, "eta": ETA},
                                            "grid": {"k": [1.5]}}, "'K'"),
                                          ({"grid": {"k": [1.5]}, "seed": [0]}, "seed"),
                                          ([1, 2], "sweep spec")])
    def test_bad_sweep_spec(self, tmp_path, capsys, spec, key):
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and key in err and "Traceback" not in err

    # A spec in UTF-16 with its byte order mark, and a spec cut short.
    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe" + json.dumps(SYNTH).encode("utf-16-le"), "not UTF-8 text (byte 0xff"),
        (b'{"num_items": ', "Expecting value: line 1 column 15")])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_spec_that_is_not_utf8_json_exits_one(self, tmp_path, capsys, command, content,
                                                  message):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        argv = (["run", "--synth", str(path), "--K", "5", f"--eta={ETA}"] if command == "run"
                else ["sweep", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec,key", [({**SYNTH, "zzz": 1}, "zzz"),
                                          ({**SYNTH, "provider_weights": "zipf"},
                                           "provider_weights"),
                                          ([1, 2], "synth")])
    def test_bad_synth_spec(self, tmp_path, capsys, spec, key):
        code, err = self.run_synth(tmp_path, capsys, spec)
        assert code == 1 and key in err and "Traceback" not in err

    # One bad SynthConfig field each, checked when the spec is read. From
    # "mean_traffic": NaN on, each is a traceback tests/test_cli_fuzz.py found.
    # relevance_low, relevance_high and provider_weights are fields no more,
    # and a spec that still sets one is refused by name, not run without it.
    @pytest.mark.parametrize("fields,key", [
        ({"num_providers": 0}, "num_providers"), ({"num_intervals": -1}, "num_intervals"),
        ({"mean_traffic": -5}, "mean_traffic"),
        ({"relevance_low": 0.9, "relevance_high": 0.1}, "relevance_low"),
        ({"relevance_high": 5}, "relevance_high"), ({"inventory": [11, -1]}, "inventory"),
        ({"num_items": "10"}, "num_items"),
        ({"mean_traffic": float("nan")}, "mean_traffic"),
        ({"mean_traffic": float("inf")}, "mean_traffic"), ({"mean_traffic": []}, "mean_traffic"),
        ({"relevance_high": float("nan")}, "relevance_high"),
        ({"relevance_low": None}, "relevance_low"), ({"num_items": None}, "num_items"),
        ({"num_intervals": True}, "num_intervals"), ({"inventory": [5, "x"]}, "inventory"),
        ({"traffic": "x"}, "traffic"), ({"traffic": [1, {"a": 1}]}, "traffic"),
        ({"provider_bands": "x"}, "provider_bands"),
        ({"provider_bands": [[0.1, float("nan")], [0, 1]]}, "provider_bands"),
        ({"provider_weights": [1.0, float("nan")]}, "provider_weights"),
        ({"provider_bands": [[0.9, 0.1], [0, 1]]}, "provider_bands"),
        ({"num_intervals": 10**13}, "num_intervals")])
    def test_bad_synth_field(self, tmp_path, capsys, fields, key):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"num_items": 10, "num_providers": 2,
                                    "num_intervals": 2, **fields}))
        code = main(["run", f"--eta={ETA}", "--synth", str(path), "--K", "3", "--m", "1"])
        err = capsys.readouterr().err
        assert code == 1 and key in err and "Traceback" not in err

    # Each grid entry is a nonempty list, and each of its values is checked
    # before any run; a bool is not a number.
    @pytest.mark.parametrize("grid,key", [
        ({"k": ["x"]}, "'k'"), ({"phi": [None]}, "'phi'"), ({"beta_mix": ["x"]}, "'beta_mix'"),
        ({"m_scale": ["x"]}, "'m_scale'"), ({"k": 1.5}, "'k'"), ({"tau": [True]}, "'tau'"),
        ({"eta": [True]}, "'eta'"), ({"k": [True]}, "'k'"), ({"k": [1.5], "tau": []}, "'tau'")])
    def test_bad_grid_value(self, tmp_path, capsys, grid, key):
        spec = {"base": {"synth": SYNTH, "K": 5, "eta": ETA}, "grid": grid}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and f"sweep grid {key}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_grid_that_is_not_an_object(self, tmp_path, capsys):
        spec = {"base": {"synth": SYNTH, "K": 5, "eta": ETA}, "grid": ["k"]}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and "Traceback" not in err
        assert err.splitlines() == ["error: sweep grid must be a dict of lists, got ['k']"]
        assert not (tmp_path / "out").exists()

    # A base value is used as it is, never converted to its option's type.
    @pytest.mark.parametrize("base,key", [
        ({"K": 5.7}, "'K'"), ({"K": True}, "'K'"), ({"m": True}, "'m'"),
        ({"seed": 1.0}, "'seed'"), ({"m": None}, "'m'"), ({"phi": "0.9"}, "'phi'")])
    def test_base_values_are_not_coerced(self, tmp_path, capsys, base, key):
        spec = {"base": {"synth": SYNTH, "K": 5, "eta": ETA, **base}, "grid": {"k": [1.5]}}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and f"run option {key}" in err and "Traceback" not in err

    @pytest.mark.parametrize("seeds", [[0, -1], [1.5], ["0"], 3, []])
    def test_bad_sweep_seeds(self, tmp_path, capsys, seeds):
        spec = {"base": {"synth": SYNTH, "K": 5, "eta": ETA}, "grid": {"k": [1.5]}, "seeds": seeds}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and "seeds" in err and "Traceback" not in err

    # A data source that is not a path is a config error before any run,
    # not a failed row per run.
    @pytest.mark.parametrize("data", [5, "", None, [], True])
    def test_bad_base_data(self, tmp_path, capsys, data):
        spec = {"base": {"data": data, "K": 5, "eta": ETA}, "grid": {"k": [1.5]}}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and "data" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_base_synth_spec_is_checked_too(self, tmp_path, capsys):
        base = {"synth": {**SYNTH, "zzz": 1}, "K": 5, "eta": ETA}
        code, err = self.sweep(tmp_path, capsys, {"base": base, "grid": {"k": [1.5]}})
        assert code == 1 and "zzz" in err and "Traceback" not in err

    # A base whose synth spec does not add up, or whose catalog is shorter
    # than a list, is refused before any run; every run of the sweep used to
    # fail, and the sweep to exit 0.
    @pytest.mark.parametrize("synth,message", [
        ({"num_items": 10, "num_providers": 2, "num_intervals": 2, "traffic": [1, 2, 3]},
         "explicit traffic length must equal the horizon"),
        ({"num_items": 4, "num_providers": 2, "num_intervals": 2, "mean_traffic": 3},
         "need at least 5 items, catalog has 4")])
    def test_sweep_base_that_cannot_run_exits_one(self, tmp_path, capsys, synth, message):
        base = {"synth": synth, "K": 5, "m": 1, "eta": 0.01}
        spec = {"base": base, "grid": {"rule": ["talmud", "prop"]}, "seeds": [0, 1]}
        code, err = self.sweep(tmp_path, capsys, spec)
        assert code == 1 and err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_synth_list_size_other_than_k_exits_one(self, tmp_path, capsys):
        # It used to be replaced by K silently, and the report echoed K.
        code, err = self.run_synth(tmp_path, capsys, {**SYNTH, "list_size": 4})
        assert code == 1 and "Traceback" not in err
        assert "synth spec list_size 4 differs from K 5" in err
        base = {"synth": {**SYNTH, "list_size": 7}, "K": 5, "eta": ETA}
        code, err = self.sweep(tmp_path, capsys, {"base": base, "grid": {"k": [1.5]}})
        assert code == 1 and "synth spec list_size 7 differs from K 5" in err

    @pytest.mark.parametrize("list_size", [None, 4])
    def test_synth_list_size_left_out_or_equal_takes_k(self, tmp_path, capsys, list_size):
        spec = {key: value for key, value in SYNTH.items() if key != "list_size"}
        if list_size is not None:
            spec["list_size"] = list_size
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec))
        code = main(["run", f"--eta={ETA}", "--synth", str(path), "--K", "4", "--m", "1",
                     "--rule", "none", "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config_echo"]["synth"]["list_size"] == report["config_echo"]["K"] == 4

    def test_run_flags_are_the_accepted_base_keys(self):
        import argparse
        from bankfair.cli import RUN_OPTIONS, _add_run_flags
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        assert set(vars(parser.parse_args(["--data", "log.csv"]))) == set(RUN_OPTIONS)

    def test_retired_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--synth", write_synth(tmp_path), "--warm-start-dual"])
        assert exc.value.code == 1

    # argparse's own refusals exit 1, as every configuration error does: 2
    # means an infeasible allocation.
    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["walk"], "argument command: invalid choice: 'walk'"),
        (["run", "--synth", "s.json", "--m", "x"], "argument --m: invalid float value: 'x'"),
        (["run", "--synth", "s.json", "--rule", "fair"], "argument --rule: invalid choice"),
        (["sweep", "--spec", "s.json"], "the following arguments are required: --out")])
    def test_usage_error_exits_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: bankfair") and f"error: {message}" in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: bankfair")

    def test_rules_and_forecasters_have_one_list(self):
        from bankfair import bankruptcy, forecast
        from bankfair.cli import RUN_FLAGS
        assert RUN_FLAGS["rule"]["choices"] is bankruptcy.RULES
        assert RUN_FLAGS["forecaster"]["help"].endswith(" from " + ", ".join(forecast.PARAMS))

    # numpy's MemoryError names the array; a bare one has no message. Raised
    # by a stand-in builder: a real huge allocation may succeed where memory
    # is overcommitted.
    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "error: Unable to allocate 7.28 TiB for an array\n"),
        (MemoryError(), "error: out of memory\n")])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, exc, message):
        from bankfair import harness

        def build(cfg, seed):
            raise exc
        monkeypatch.setattr(harness, "synth_instance", build)
        assert main(["run", f"--eta={ETA}", "--synth", write_synth(tmp_path), "--K", "5"]) == 1
        assert capsys.readouterr().err == message


class TestVerifyCommand:
    # A value that is not a known criterion runs nothing and is an error:
    # "99" used to run no criterion and exit 0, a passed verification.
    @pytest.mark.parametrize("criteria,bad", [("1,x", "'x'"), ("99", "'99'"), ("1,,2", "''"),
                                              ("", "''")])
    def test_unknown_criterion_exits_one(self, capsys, criteria, bad):
        assert main(["verify", "--criteria", criteria]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        known = ", ".join(map(str, range(1, 10)))
        assert err == f"error: unknown criterion {bad}; known criteria: {known}\n"

    def test_single_criterion(self, capsys):
        code = main(["verify", "--criteria", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("[PASS] criterion 1")

"""End-to-end fuzz of `bankfair run` and `bankfair sweep` on small, partly
corrupted inputs.

Every input either runs or is refused: the exit code is 0, 1 or 2, nothing
prints a traceback, and a report that is written holds no NaN or infinity.
"""

import contextlib
import copy
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from bankfair.cli import RUN_OPTIONS, main
from bankfair.domain import INTERACTIONS_COLUMNS, _write_relevance_matrix

# Bad values a hand-edited file or flag may hold; none is large, so that a
# bad size cannot make an example slow.
BAD_CELLS = ("", " ", "x", "nan", "inf", "-inf", "-1", "2", "1e400", "0x10")
BAD_VALUES = (-1, 0, 1.5, 2.5, "x", "", None, True, [], [1, "x"], {"a": 1},
              float("nan"), float("inf"), 100)
# (low, high) bands, the last one inverted: a spec holding it is refused.
BANDS = ([0.0, 0.5], [0.4, 1.0], [0.0, 1.0], [0.3, 0.3], [0.0, 0.0], [0.9, 0.1])
# The edges of the config's magnitude bound: 2**53 and one ulp past it, for
# tau also 2**-53 and one ulp below it. A value past either edge is refused.
MAX, PAST_MAX = repr(2.0**53), repr(float(np.nextafter(2.0**53, np.inf)))
MIN, PAST_MIN = repr(2.0**-53), repr(float(np.nextafter(2.0**-53, 0)))
# How many things to break: none in about half the examples, so that many
# of them run to the end.
FEW = st.sampled_from([0, 0, 0, 1, 2, 3])


def draw_log(data, directory: Path):
    """interactions.csv, and maybe catalog.csv and relevance.bin, under ``directory``."""
    num_items = data.draw(st.integers(1, 8), "num_items")
    providers = data.draw(st.integers(1, 3), "providers")
    item_provider = [i % providers for i in range(num_items)]
    rows = []
    for _ in range(data.draw(st.integers(0, 20), "rows")):
        item = data.draw(st.integers(0, num_items - 1))
        rows.append([f"u{data.draw(st.integers(0, 5))}", f"i{item}", str(item_provider[item]),
                     str(data.draw(st.integers(0, 4 * 3600))),
                     repr(data.draw(st.integers(0, 20)) / 20)])
    for _ in range(data.draw(FEW, "corruptions")):
        kind = data.draw(st.sampled_from(["blank", "cell", "short", "long"]))
        if kind == "blank":
            rows.insert(data.draw(st.integers(0, len(rows))), [])
            continue
        row = rows[data.draw(st.integers(0, len(rows) - 1))] if rows else []
        if not row:
            continue
        if kind == "cell":
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(BAD_CELLS))
        elif kind == "short":
            del row[data.draw(st.integers(0, len(row) - 1)):]
        else:
            row.append("extra")
    header = list(INTERACTIONS_COLUMNS)
    order = data.draw(st.permutations(range(5)), "column order")
    if data.draw(st.booleans(), "drop a column"):
        order = order[:-1]
    lines = [",".join(header[c] for c in order)]
    lines += [",".join(row[c] for c in order if c < len(row)) if row else "" for row in rows]
    (directory / "interactions.csv").write_text("\n".join(lines) + "\n")

    if data.draw(st.booleans(), "catalog"):
        catalog = [[f"i{i}", str(p)] for i, p in enumerate(item_provider)]
        if catalog and data.draw(st.booleans(), "corrupt catalog"):
            row = catalog[data.draw(st.integers(0, len(catalog) - 1))]
            row[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(BAD_CELLS))
        (directory / "catalog.csv").write_text(
            "item_id,provider_id\n" + "".join(",".join(r) + "\n" for r in catalog))
    if data.draw(st.booleans(), "relevance.bin"):
        users = len({row[0] for row in rows if row}) + data.draw(st.integers(-1, 1))
        matrix = np.full((max(users, 0), num_items), data.draw(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5, float("nan")])))
        _write_relevance_matrix(directory / "relevance.bin", matrix)
    return ["--data", str(directory)]


def draw_synth(data, directory: Path):
    """A small synth spec file, some of whose fields may be bad."""
    providers = data.draw(st.integers(1, 3), "num_providers")
    intervals = data.draw(st.integers(1, 3), "num_intervals")
    spec = {"num_items": data.draw(st.integers(providers, 12), "num_items"),
            "num_providers": providers, "num_intervals": intervals,
            "mean_traffic": data.draw(st.integers(0, 8), "mean_traffic")}
    optional = {
        "traffic": st.lists(st.integers(0, 6), min_size=intervals, max_size=intervals),
        "provider_bands": st.lists(st.sampled_from(BANDS), min_size=providers,
                                   max_size=providers),
        "inventory": st.just("even"),
    }
    for key in data.draw(st.lists(st.sampled_from(sorted(optional)), unique=True), "keys"):
        spec[key] = data.draw(optional[key], key)
    for _ in range(data.draw(FEW, "bad fields")):
        key = data.draw(st.sampled_from(sorted({*spec, *optional})), "bad key")
        spec[key] = data.draw(st.sampled_from(BAD_VALUES), "bad value")
    path = directory / "synth.json"
    path.write_text(json.dumps(spec))
    return ["--synth", str(path)]


OPTIONS = {
    "--rule": st.sampled_from(["talmud", "naive", "prop", "none"]),
    "--forecaster": st.sampled_from(["oracle", "moving_average:w=1", "moving_average:w=2",
                                     "seasonal:lag=2", "moving_average:w=1,prior_mean=0",
                                     "moving_average:prior_mean=1e308",
                                     f"moving_average:prior_mean={MAX}",
                                     f"seasonal:lag=2,prior_mean={PAST_MAX}",
                                     "moving_average:w=0", "gru"]),
    "--m": st.sampled_from(["0", "1", "2", "3", "5", "10", "-1", "nan", "1e308", MAX, PAST_MAX]),
    "--phi": st.sampled_from(["0", "0.9", "1", "1.5"]),
    "--K": st.one_of(st.integers(1, 4), st.integers(-1, 12)).map(str),
    "--k": st.sampled_from(["1", "1.5", "2", "0.5", "nan"]),
    "--beta": st.sampled_from(["0", "0.5", "1", "-0.5"]),
    # Some etas are at the bound, and some huge and finite past it. "auto"
    # and "x" are not numbers, which argparse refuses.
    "--eta": st.one_of(st.sampled_from(["auto", "0", "0.05", "1e-4", "-1", "x", "inf",
                                        "1e307", "1e308", "1.7976931348623157e308",
                                        MAX, PAST_MAX]),
                       st.floats(1e307, 1.7976931348623157e308).map(repr)),
    "--interval-hours": st.sampled_from(["1", "0.25", "24", "0", "1e-9"]),
    "--tau": st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                       st.sampled_from(["0.2", "1", MIN, PAST_MIN, MAX, PAST_MAX])),
    "--seed": st.integers(-1, 2**32).map(str),
    "--noise": st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                         st.sampled_from(["0", "0.05", MAX, PAST_MAX])),
}


def past_bound(flag, value):
    """Whether a drawn flag value is a number outside its rule's [low, 2**53]."""
    if flag == "--forecaster":
        value = value.partition("prior_mean=")[2]
    elif flag not in ("--eta", "--m", "--tau", "--noise"):
        return False
    try:
        number = float(value)
    except ValueError:
        return False
    return number > 2.0**53 or flag == "--tau" and 0 < number < 2.0**-53


def run_cli(argv):
    """(exit code, stdout + stderr) of ``bankfair`` called in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag value
            code = exc.code
    return code, out.getvalue()


def reject_constant(name):
    raise AssertionError(f"report.json holds {name}")


# The deadline only catches a hang: an example takes milliseconds.
@given(st.data())
@settings(max_examples=150, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
def test_run_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        source = data.draw(st.sampled_from([draw_log, draw_synth]), "source")
        argv = ["run", *source(data, directory), "--out", str(directory / "out")]
        # A small list and floor in most examples: the defaults fit no small
        # input. eta is drawn in every example, so that huge steps are common.
        flags = {"--K", "--m", "--eta",
                 *data.draw(st.lists(st.sampled_from(sorted(OPTIONS))), "flags")}
        drawn = {flag: data.draw(OPTIONS[flag], flag) for flag in sorted(flags)}
        argv += [f"{flag}={value}" for flag, value in drawn.items()]
        code, output = run_cli(argv)
        assert code in (0, 1, 2), output
        assert "Traceback" not in output
        if drawn["--eta"] in ("auto", "x"):  # refused before any input is read
            assert code == 2 and "argument --eta: invalid float value" in output, output
            return
        if any(past_bound(flag, value) for flag, value in drawn.items()):
            assert code == 1, output
        if source is draw_synth:
            bands = json.loads((directory / "synth.json").read_text()).get("provider_bands")
            if isinstance(bands, list) and BANDS[-1] in bands:
                assert code == 1, output
        if code == 0:
            json.loads((directory / "out" / "report.json").read_text(),
                       parse_constant=reject_constant)


# Valid values per grid key; a drawn grid takes one or two of them.
GRID = {"m_scale": [0, 0.5, 2], "k": [1, 1.5, 2], "beta_mix": [0, 1], "eta": [0.5, 0.01],
        "tau": [None, 0.2, 1], "phi": [0, 0.9], "rule": ["talmud", "prop", "none"]}
SWEEP_SYNTH = {"num_items": 8, "num_providers": 2, "num_intervals": 2, "mean_traffic": 4}


@given(st.data())
@settings(max_examples=60, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
def test_sweep_exits_cleanly(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(GRID)), min_size=1, max_size=2,
                              unique=True), "grid keys")
    grid = {key: data.draw(st.lists(st.sampled_from(GRID[key]), min_size=1, max_size=2), key)
            for key in keys}
    base = {"synth": dict(SWEEP_SYNTH), "K": 2, "m": 1, "eta": 0.5}
    spec = {"base": base, "grid": grid, "seeds": [0]}
    for _ in range(data.draw(FEW, "bad values")):
        bad = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES), "bad value"))
        where = data.draw(st.sampled_from(["grid value", "grid entry", "base", "seeds"]))
        lists = sorted(key for key, values in grid.items() if isinstance(values, list) and values)
        if where == "grid value" and lists:
            values = grid[data.draw(st.sampled_from(lists))]
            values[data.draw(st.integers(0, len(values) - 1))] = bad
        elif where == "grid entry":
            grid[data.draw(st.sampled_from(sorted(GRID)))] = bad
        elif where == "base":
            base[data.draw(st.sampled_from(RUN_OPTIONS), "base key")] = bad
        else:
            spec["seeds"] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(spec))
        code, output = run_cli(["sweep", "--spec", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), output
    assert "Traceback" not in output

"""The config field rules: one message form, no bool counted as a number."""

import dataclasses
import json
import re

import numpy as np
import pytest

from bankfair import acceptance, domain, errors, harness
from bankfair.domain import FairnessPolicy, LogSchema, SynthConfig
from bankfair.errors import ConfigError, check
from bankfair.harness import RunConfig, run
from bankfair.reranker import RerankConfig

SYNTH = dict(num_items=10, num_providers=2, num_intervals=2, mean_traffic=5.0, list_size=5,
             traffic=[3, 4], inventory=[5, 5])
BANDS = dict(SYNTH, provider_bands=[(0.5, 1.0), (0.0, 0.5)])


def run_config(**fields):
    return RunConfig(policy=FairnessPolicy([1.0, 1.0], 0.9, 5),
                     rerank=RerankConfig(list_size=5, eta=0.5), synth=SynthConfig(**SYNTH),
                     **fields)


# Each config with a valid value for every numeric field.
VALID = {
    FairnessPolicy: dict(required_min_exposure=[1.0, 2.0], required_min_accuracy=0.9,
                         list_size=5),
    RerankConfig: dict(list_size=5, alpha_k=1.5, beta_mix=0.5, eta=0.01),
    LogSchema: dict(interval_seconds=3600.0, list_size=5),
    SynthConfig: BANDS,
    run_config: dict(tau=0.2, seed=3, relevance_noise=0.05),
}
FIELDS = [(build, key) for build, valid in VALID.items() for key in valid]
NAMES = [f"{build.__name__}.{key}" for build, key in FIELDS]


def forecaster(method):
    def build(prior_mean):
        return run_config(forecaster=method, forecaster_params={"prior_mean": prior_mean})
    return build


def sweep(m_scale):
    return harness.sweep(run_config(), {"m_scale": [m_scale]}, [0])


# Every field under NONNEGATIVE or POSITIVE: name -> (the rule, a build taking
# the value, the message that refuses it).
BOUNDED = {
    "required_min_exposure": (
        errors.NONNEGATIVE, lambda v: FairnessPolicy([1.0, v], 0.9, 5),
        "required_min_exposure must be a list of numbers in [0, 2**53], got "),
    "eta": (errors.NONNEGATIVE, lambda v: RerankConfig(eta=v),
            "eta must be a number in [0, 2**53], got "),
    "interval_seconds": (errors.POSITIVE, lambda v: LogSchema(interval_seconds=v),
                         "interval_seconds must be a number in [2**-53, 2**53], got "),
    "mean_traffic": (errors.NONNEGATIVE, lambda v: SynthConfig(**{**SYNTH, "mean_traffic": v}),
                     "mean_traffic must be a number in [0, 2**53], got "),
    "tau": (errors.POSITIVE, lambda v: run_config(tau=v),
            "tau must be None or a number in [2**-53, 2**53], got "),
    "relevance_noise": (errors.NONNEGATIVE, lambda v: run_config(relevance_noise=v),
                        "relevance_noise must be a number in [0, 2**53], got "),
    "moving_average prior_mean": (
        errors.NONNEGATIVE, forecaster("moving_average"),
        "forecaster 'moving_average': parameter 'prior_mean' must be a number in [0, 2**53], got "),
    "seasonal prior_mean": (
        errors.NONNEGATIVE, forecaster("seasonal"),
        "forecaster 'seasonal': parameter 'prior_mean' must be a number in [0, 2**53], got "),
    "m_scale": (errors.NONNEGATIVE, sweep,
                "sweep grid 'm_scale': m_scale must be a number in [0, 2**53], got "),
}


@pytest.mark.parametrize("rule,build,message", BOUNDED.values(), ids=BOUNDED)
def test_bounded_field_edges(rule, build, message):
    # Each edge is accepted; one ulp past it, or the int past 2**53, is refused.
    low = 0.0 if rule is errors.NONNEGATIVE else 2.0**-53
    for value in (low, 2.0**53, 2**53):
        build(value)
    for value in (np.nextafter(2.0**53, np.inf), 2**53 + 1, np.nextafter(low, -np.inf)):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build(value)


def as_numpy(value):
    if isinstance(value, list):
        return np.array(value)
    return np.int64(value) if isinstance(value, int) else np.float32(value)


@pytest.mark.parametrize("build,key", FIELDS, ids=NAMES)
@pytest.mark.parametrize("bad", [True, False, "1"])
def test_bool_or_string_is_refused_naming_the_field(build, key, bad):
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        build(**{**VALID[build], key: bad})


@pytest.mark.parametrize("build,key", FIELDS, ids=NAMES)
def test_numpy_values_are_accepted(build, key):
    value = as_numpy(VALID[build][key])
    np.testing.assert_array_equal(getattr(build(**{**VALID[build], key: value}), key), value)


def test_numpy_bands_are_accepted():
    bands = np.array(BANDS["provider_bands"])
    kept = SynthConfig(**{**BANDS, "provider_bands": bands}).provider_bands
    assert kept == tuple(BANDS["provider_bands"])  # a tuple of pairs, not the array
    with pytest.raises(ConfigError, match="^provider_bands must be "):
        SynthConfig(**{**BANDS, "provider_bands": [(0.5, True), (0.0, 0.5)]})


def test_numpy_values_reach_the_report(tmp_path):
    run(run_config(tau=np.float32(0.2), seed=np.int64(3), out_dir=str(tmp_path)))
    echo = json.loads((tmp_path / "report.json").read_text())["config_echo"]
    assert echo["tau"] == float(np.float32(0.2)) and echo["seed"] == 3


@pytest.mark.parametrize("build", VALID, ids=[build.__name__ for build in VALID])
def test_built_configs_are_frozen(build):
    config = build(**VALID[build])
    for field in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))


def test_synth_sequences_cannot_change_after_the_checks():
    # A band changed after the checks used to reach the draw: relevance up to
    # 4.9996 on the benchmark config. The sequences are tuples, bands too.
    config = SynthConfig(**BANDS)
    for entries in (config.traffic, config.inventory, config.provider_bands,
                    config.provider_bands[0]):
        with pytest.raises(TypeError):
            entries[0] = entries[0]
    with pytest.raises(TypeError):
        acceptance.benchmark_config("talmud", 0).synth.provider_bands[0] = (2.0, 5.0)


def test_numpy_sequences_write_the_lists_report(tmp_path):
    # Numpy traffic, inventory and bands once stopped report.json's echo with a TypeError.
    arrays = {key: np.array(BANDS[key]) for key in ("traffic", "inventory", "provider_bands")}
    for name, synth in (("lists", BANDS), ("arrays", {**BANDS, **arrays})):
        run(dataclasses.replace(run_config(out_dir=str(tmp_path / name)),
                                synth=SynthConfig(**synth)))
    report = (tmp_path / "lists" / "report.json").read_bytes()
    assert (tmp_path / "arrays" / "report.json").read_bytes() == report


# Each SynthConfig size and count at 2**53 and one past it: the fields that
# take the value, and the key that the refusal names.
SIZES = {
    "num_items": lambda v: dict(num_items=v, inventory="even"),
    "num_providers": lambda v: dict(num_items=2**53, num_providers=v, inventory="even"),
    "list_size": lambda v: dict(list_size=v),
    "traffic": lambda v: dict(traffic=[v, 4]),
    "inventory": lambda v: dict(num_items=2**53, num_providers=1, inventory=[v]),
}


@pytest.mark.parametrize("key", SIZES)
def test_synth_sizes_are_bounded(key):
    SynthConfig(**{**SYNTH, **SIZES[key](2**53)})
    with pytest.raises(ConfigError, match=rf"^{key} must be .*2\*\*53\], got "):
        SynthConfig(**{**SYNTH, **SIZES[key](2**53 + 1)})


def test_replace_checks_again():
    rerank = RerankConfig(**VALID[RerankConfig])
    with pytest.raises(ConfigError, match=r"^eta must be a number in \[0, 2\*\*53\], got nan$"):
        dataclasses.replace(rerank, eta=float("nan"))


def test_message_form():
    with pytest.raises(ConfigError) as exc:
        check("w", 2.5, errors.POSITIVE_INT)
    assert str(exc.value) == "w must be an int >= 1, got 2.5"
    assert check("inventory", "even", errors.either("even", errors.NONEMPTY_LIST)) == "even"


RULES = [errors.NUMBER, errors.INT, errors.NONNEGATIVE_INT, errors.POSITIVE_INT,
         errors.NONNEGATIVE, errors.POSITIVE, errors.UNIT,
         errors.NONEMPTY_LIST, errors.PATH, errors.number_in(1, 2),
         errors.list_of("ints >= 0", errors.NONNEGATIVE_INT, 2),
         errors.either(None, errors.POSITIVE), errors.either("auto", errors.UNIT),
         domain._SIZE, domain._COUNT]
ODD = [None, "x", "", b"1", [], [None], {}, {"a": 1}, object(), np.array(1.0),
       np.array([[1, 2]]), np.array(["a"]), np.bool_(True), np.float16(1), 10**400, -10**400,
       float("nan"), float("-inf"), complex(1, 1)]


@pytest.mark.parametrize("rule", RULES, ids=[rule[0] for rule in RULES])
def test_predicates_never_raise(rule):
    for value in ODD:
        assert rule[1](value) in (True, False)
    assert not any(rule[1](b) for b in (True, False))

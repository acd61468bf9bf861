"""Build a bankfair RunConfig from a workload spec (a JSON-friendly dict).

Run as a script, it times set-up in a fresh interpreter: from ``import
bankfair`` to a constructed RunConfig. It prints the seconds taken and the
median time of ``speed.calibrate`` right after them (numpy is loaded by then),
from which the benchmark works out set-up time on the reference core.

    python3 bench/config.py '<spec json>'

``bankfair`` is imported inside ``build_config`` on purpose, so that the
import is part of what the script times.
"""

import json
import sys
import time

import speed

CALIBRATIONS = 25  # loops timed after the set-up


def build_config(spec: dict):
    """RunConfig for ``spec``; ``out_dir`` and ``data_path`` stay as given."""
    from bankfair import (FairnessPolicy, LogSchema, RerankConfig, RunConfig,
                          SynthConfig)

    k = spec["K"]
    synth = SynthConfig(**spec["synth"]) if spec.get("synth") else None
    return RunConfig(
        policy=FairnessPolicy(spec["m"], spec["phi"], k),
        rerank=RerankConfig(list_size=k, alpha_k=spec["alpha_k"],
                            beta_mix=spec["beta_mix"], eta=spec["eta"]),
        rule=spec["rule"],
        data_path=spec.get("data_path"),
        schema=LogSchema(interval_seconds=spec.get("interval_seconds", 86400.0),
                         list_size=k),
        synth=synth,
        forecaster=spec["forecaster"],
        forecaster_params=spec.get("forecaster_params", {}),
        tau=spec.get("tau"),
        seed=spec["seed"],
        out_dir=spec.get("out_dir"),
    )


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    build_config(spec)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr(speed.calibrate_median(CALIBRATIONS)))

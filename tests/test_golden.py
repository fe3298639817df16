"""Golden digests: the SHA-256 of every artifact on a fixed set of configs.

A refactor or speed-up must leave ``regret.csv``, ``decisions.csv``,
``summary.json`` and ``bounds.json`` byte-identical.  Criterion 11 compares
two runs of the same code with each other; these digests compare the code
with the bytes it wrote when they were recorded.  A deliberate change of
output must record new digests and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from chanrate.harness import ExperimentConfig, emit_outputs, run_experiment
from chanrate.model import demo_model

_DEMO = demo_model()
_DEMO_RATES = [float(r) for r in _DEMO.rates]
_DEMO_THETA = [[float(v) for v in row] for row in _DEMO.theta]

# A 3-channel x 4-rate trace: a full first segment, then changed cells.
_TRACE_CSV = "start_step,channel,rate_index,theta\n" + "".join(
    f"0,{c},{k},{0.95 - 0.2 * (k - 1) - 0.05 * c:.2f}\n" for c in (1, 2, 3) for k in (1, 2, 3, 4)
) + (
    "100,1,2,0.3\n100,3,1,0.99\n"
    "511,2,4,0.6\n511,2,3,0.7\n"
    "700,1,1,0.2\n700,3,4,0.45\n"
    "1500,2,1,0.05\n1500,1,3,0.8\n"
)

_ALL_LEARNERS = [
    {"kind": "kl-ucb"},
    {"kind": "crs-t"},
    {"kind": "kl-ucb-u"},
    {"kind": "kl-ucb-u", "strict": True},
    {"kind": "kl-ucb-u", "window": 150},
    {"kind": "crs-t", "window": 90},
    {"kind": "oracle"},
    {"kind": "static"},
]

CONFIGS = {
    # The acceptance suite's criterion-11 config.
    "baselines-accounting-both": {
        "regret.csv": "501a71db4bdd3dff623e4a4fb93c588baf36d5fe894b4c0357c207fb52ad812e",
        "decisions.csv": "6fd42cb3d604ed1a92731d2e1660e8c2b5b746348576e6b54a111c9720df79d7",
        "summary.json": "fdcaa8c2ef432c1f8b9cb486a76e7a295441a42980f7f51e65fb2047cc61942f",
        "bounds.json": "02b67b21ff37a9c1f263d0863859e660c383194235c1f95416420028e82aa504",
    },
    "baselines-trace": {
        "regret.csv": "ec4bd0d139e280617f337163c8c27abf0e6b709f778a7b028282afc430af3011",
        "decisions.csv": "8d556f0889770607344585ebf6fb47d822c2fc1e2ed21e20de00d09135f93997",
        "summary.json": "e0018c15d4a06750a95a04b9b09c7e63d2b24c38e44349676c67181254a54b8a",
    },
    "criterion-11": {
        "rates": _DEMO_RATES,
        "theta": _DEMO_THETA,
        "policies": [{"kind": "kl-ucb"}, {"kind": "kl-ucb-u"}],
        "horizon": 1024,
        "seeds": 5,
    },
    "trace-csv": {
        "rates": [0.5, 1.0, 1.5, 2.0],
        "trace_csv": "trace.csv",
        "policies": _ALL_LEARNERS,
        "horizon": 2000,
        "seeds": [0, 3, 17, 2**33 + 5],
        "checkpoints": [7, 100, 999],
    },
    "synth": {
        "rates": [1.0, 2.0, 3.0],
        "synth": {"channels": 3, "step_std": 0.08, "seed": 11},
        "policies": [{"kind": "kl-ucb-u", "window": 60}, {"kind": "crs-t"}],
        "horizon": 700,
        "seeds": 4,
    },
    "accounting-both": {
        "rates": _DEMO_RATES,
        "theta": _DEMO_THETA,
        "policies": [
            {"kind": "kl-ucb"},
            {"kind": "crs-t"},
            {"kind": "kl-ucb-u"},
            {"kind": "oracle"},
            {"kind": "static"},
        ],
        "horizon": 40,
        "seeds": 20,
        "accounting": "both",
    },
    # Baselines alone draw only the cells they read.  The trace's best pair
    # changes at steps 511, 700 and 1500, so the oracle and the static pick
    # play the same pair in some blocks and different pairs in others.
    "baselines-trace": {
        "rates": [0.5, 1.0, 1.5, 2.0],
        "trace_csv": "trace.csv",
        "policies": [{"kind": "oracle"}, {"kind": "static"}],
        "horizon": 2000,
        "seeds": [0, 9, 2**32 - 1, 2**32, 2**40 + 7, 2**70 + 3],
        "checkpoints": [511, 1500],
    },
    "baselines-accounting-both": {
        "rates": _DEMO_RATES,
        "theta": _DEMO_THETA,
        "policies": [{"kind": "oracle"}, {"kind": "static"}],
        "horizon": 48,
        "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 2**32 + 1, 2**64 + 5],
        "accounting": "both",
    },
    # crs-t's leader tables at their edges: one rate (no neighbours) and two,
    # with leaders at both rates and channels that become decided.
    "crs-t-1-rate": {
        "rates": [1.0],
        "theta": [[0.4], [0.7], [0.55]],
        "policies": [{"kind": "crs-t"}, {"kind": "crs-t", "window": 12}],
        "horizon": 300,
        "seeds": 6,
    },
    "crs-t-2-rates": {
        "rates": [1.0, 2.0],
        "theta": [[0.95, 0.9], [0.9, 0.2], [0.6, 0.55]],
        "policies": [{"kind": "crs-t"}, {"kind": "crs-t", "window": 15}],
        "horizon": 400,
        "seeds": 6,
    },
}

NAMES = ("regret.csv", "decisions.csv", "summary.json", "bounds.json")

# Recorded before the regret-value formatter, the per-policy rate store and
# the single-direction solver entry went in; the two baselines-only configs
# before baselines drew their cells by jump-ahead.
DIGESTS = {
    "accounting-both": {
        "regret.csv": "a6c0ca6e3316aa7b25a5a153e1161ff2e26ff030060964ee76ca9f4ac93c4e0d",
        "decisions.csv": "fb6d4b2541cdab112f91ea485936f131d2852e7e85c2476ae3b695015fb93e91",
        "summary.json": "df4600a3135beba21466871039650ac8bc25ebbdd6851b75fdd281a455adbfca",
        "bounds.json": "02b67b21ff37a9c1f263d0863859e660c383194235c1f95416420028e82aa504",
    },
    "baselines-accounting-both": {
        "regret.csv": "501a71db4bdd3dff623e4a4fb93c588baf36d5fe894b4c0357c207fb52ad812e",
        "decisions.csv": "6fd42cb3d604ed1a92731d2e1660e8c2b5b746348576e6b54a111c9720df79d7",
        "summary.json": "fdcaa8c2ef432c1f8b9cb486a76e7a295441a42980f7f51e65fb2047cc61942f",
        "bounds.json": "02b67b21ff37a9c1f263d0863859e660c383194235c1f95416420028e82aa504",
    },
    "baselines-trace": {
        "regret.csv": "ec4bd0d139e280617f337163c8c27abf0e6b709f778a7b028282afc430af3011",
        "decisions.csv": "8d556f0889770607344585ebf6fb47d822c2fc1e2ed21e20de00d09135f93997",
        "summary.json": "e0018c15d4a06750a95a04b9b09c7e63d2b24c38e44349676c67181254a54b8a",
    },
    "criterion-11": {
        "regret.csv": "07c44239660b1a7985cf141ca1eb6027949919beb75b131393d6e0ac2ad8389d",
        "decisions.csv": "7bb9305d39fca283c70d96cece38437883a8dc6aae3b48888d2e1adce2dbde93",
        "summary.json": "49d98b36901837f6d3ed6e91bfd69cee5db9569804c92e5ef7b0eb1c9c959125",
        "bounds.json": "02b67b21ff37a9c1f263d0863859e660c383194235c1f95416420028e82aa504",
    },
    "crs-t-1-rate": {
        "regret.csv": "e64a3b2fb882177abe70e9b915afd3b8171ec576516d2d0265d716f981091ae3",
        "decisions.csv": "a657770554f2e3f59b2d16d13a708466bbde986256fb34e6e7edf92a4d1040b2",
        "summary.json": "37d652300a35709e281c235b8bc8a6566e4424a2c8a77df1bd7df034165f99e3",
        "bounds.json": "4d76e3a79d28cf7297bbbb7e0388b586618797a6f91685362a76d600812c0421",
    },
    "crs-t-2-rates": {
        "regret.csv": "3b0f370fe3828726dbc17570c41626c1fd73b38efee91dc07c6b882dd2221a33",
        "decisions.csv": "391bb8d484a3f135c1539c3639b88a9715fb943d7e4ad28fe992afc12ad85d65",
        "summary.json": "eb8927e4bc707fe1c3cc015c8d09aa6d11420f67d979281ce6de7417f7269288",
        "bounds.json": "e22f3accac2a6302cf376767d97d0cd5489219c1fd6fff02a0b54080ffb2b300",
    },
    "synth": {
        "regret.csv": "9b018c40f2903829ba749668e32e67a8a3ccac35e3eeb7c183c7413b7f29813f",
        "decisions.csv": "8a995bc22bd667e88107ea139198fd09feac0fc2989e56b665fb388e5708fc7b",
        "summary.json": "b9e27c29ad9f929705b09baada9ab552e7ce5c8c9079d215588a82098f84083c",
    },
    "trace-csv": {
        "regret.csv": "afa0799305ecdc94d89edb460eeacd0beee732263ca6c4c7678e7d010cc8b5c8",
        "decisions.csv": "981a38991ed740350c144c291322f456b2aa7ffd781f3002103b1948105838b4",
        "summary.json": "f9ebc387808f77c912ec5fc5b8d31308de0b53f0e2568f24421a73e93f76ed6b",
    },
}


def _artifacts(name: str, tmp_path) -> dict[str, str]:
    (tmp_path / "trace.csv").write_text(_TRACE_CSV)
    config = ExperimentConfig.from_json_dict(CONFIGS[name], base_dir=tmp_path)
    emit_outputs(run_experiment(config), tmp_path / "out")
    return {
        n: hashlib.sha256((tmp_path / "out" / n).read_bytes()).hexdigest()
        for n in NAMES
        if (tmp_path / "out" / n).exists()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    assert _artifacts(name, tmp_path) == DIGESTS[name]

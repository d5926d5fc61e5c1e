"""The benchmark tracer still finds every function it instruments.

`bench/tracer.py` wraps voyagekit functions by name and raises RuntimeError
when one is missing, so a rename in src/ breaks the traced benchmark. These
checks run `instrument()` in a fresh interpreter (the wrappers stay installed
for the life of the process) and call the traced layers on tiny inputs. The
tracer's hooks read arguments by position, so the batch forms of pricing,
kNN queries and Viterbi decoding are called through them too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import numpy as np
from tracer import Tracer, instrument
import voyagekit.cli  # noqa: F401  (instrument() itself imports the modules it wraps)
from voyagekit.geo import Voyage
from voyagekit.speed_opt import DtwSpeedModel

def voyage(vid, sog):
    n = len(sog)
    return Voyage(np.arange(n) * 60.0, np.zeros(n), np.linspace(0, 0.1, n), np.array(sog),
                  np.full(n, 90.0), np.full(n, 50.0), voyage_id=vid)

tracer = Tracer()
instrument(tracer)
model = DtwSpeedModel()
model.fit([voyage("A", [1.0, 2.0, 3.0]), voyage("B", [5.0, 5.0, 5.0, 5.0])])
predicted = model.predict([voyage("T1", [1.0, 2.0, 2.0, 3.0]), voyage("T2", [4.5, 5.5])])
print(json.dumps({
    "spans": sorted({span[0] for span in tracer.spans}),
    "predicted": [p.tolist() for p in predicted],
}))
"""


def test_instrumented_names_exist_and_dtw_is_traced():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert "speed_opt.dtw" in result["spans"]
    first, second = result["predicted"]
    assert first == pytest.approx([1.0, 5 / 3, 7 / 3, 3.0])
    assert second == [5.0, 5.0]


BATCH_SCRIPT = """
import json, sys, tempfile
import numpy as np
from tracer import Tracer, instrument
from voyagekit import efficiency, hmm, speed_opt, store  # wrapped functions are called through these
from voyagekit.geo import Voyage

def voyage(vid, n, seed):
    rng = np.random.default_rng(seed)
    wind = np.where(np.arange(n) % 40 < 20, 3.0, 12.0) + rng.normal(0.0, 0.5, n)
    channels = {"WindSpeed_onb": wind, "WindDirection_onb": rng.uniform(0, 360, n),
                "WindSpeed_cps": wind, "WaveHeight": wind / 5.0 + rng.normal(0.0, 0.1, n)}
    return Voyage(np.arange(n) * 60.0, np.zeros(n), np.linspace(0, 0.1, n),
                  rng.uniform(4.0, 8.0, n), np.full(n, 90.0), rng.uniform(40.0, 60.0, n),
                  channels=channels, voyage_id=vid)

tracer = Tracer()
instrument(tracer)
voyages = [voyage(f"V{i}", 90 + 7 * i, i) for i in range(4)]
est = efficiency.train_estimator(voyages, feature_case="I")
pairs = [(voyages[0].sog, voyages[0]), (voyages[1].sog * 0.9, voyages[1]), (voyages[0].sog, voyages[0])]
batch = efficiency.estimate_fuel_time([p for p, _ in pairs], [v for _, v in pairs], est)
single = [list(efficiency.estimate_fuel_time([p], [v], est)[0]) for p, v in pairs]
rows = np.random.default_rng(9).uniform(size=(7, 3))
predicted = efficiency.KnnRegressor(k=3).fit(rows, np.arange(7.0)).predict(rows[:5])
speed_model = speed_opt.KnnSpeedModel(k=3, channels=efficiency.FEATURE_CASES["I"])
speed_model.fit(voyages)
speeds = speed_model.predict(voyages[:2])
model = hmm.fit_weather_hmm(voyages, 3, ("WindSpeed_cps", "WaveHeight"), 50, 1e-6)
obs = [v.columns(*model.feature_names) for v in voyages[:3]]
decoded = model.viterbi(obs)
with tempfile.TemporaryDirectory() as tmp:
    store.write_store(voyages, tmp)
    read = store.read_store(tmp)
print(json.dumps({
    "spans": sorted({span[0] for span in tracer.spans}),
    "counts": dict(tracer.counts),
    "batch": [list(ft) for ft in batch], "single": single,
    "predicted": len(predicted), "speeds": [len(s) for s in speeds],
    "knn_parents": sorted({tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "efficiency.knn" and s[3] >= 0}),
    "decoded_equal": all(np.array_equal(d, model.viterbi(o)) for d, o in zip(decoded, obs)),
    "read": [v.voyage_id for v in read],
}))
"""


def test_hooks_take_the_batch_calls():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run(
        [sys.executable, "-c", BATCH_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr  # no hook raised
    result = json.loads(done.stdout.splitlines()[-1])
    for span in ("efficiency.price", "efficiency.knn", "hmm.viterbi", "hmm.fit", "store.read"):
        assert span in result["spans"]
    assert result["batch"] == result["single"]
    assert result["decoded_equal"] and result["predicted"] == 5
    # The speed model's query is a speed_opt.knn span around its efficiency.knn span.
    assert "speed_opt.knn" in result["knn_parents"]
    assert result["speeds"] == [90, 97]
    assert result["read"] == ["V0", "V1", "V2", "V3"]
    # The kNN hook counts every row of a stacked query: the batch's 3 voyages,
    # the same rows again in the single calls, the 5 rows predicted directly
    # and the speed model's 2 test voyages.
    rows = 2 * (90 + 97 + 90) + 5 + (90 + 97)
    assert result["counts"]["efficiency.knn_queries"] == rows
    assert result["counts"]["hmm.em_iterations"] >= 1

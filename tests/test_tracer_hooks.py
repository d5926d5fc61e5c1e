"""The benchmark tracer still finds every function it instruments.

`bench/tracer.py` wraps voyagekit functions by name and raises RuntimeError
when one is missing, so a rename in src/ breaks the traced benchmark. This
check runs `instrument()` in a fresh interpreter (the wrappers stay installed
for the life of the process) and fits and predicts a tiny DtwSpeedModel.
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
import voyagekit.cli  # noqa: F401  (loads every module to instrument)
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

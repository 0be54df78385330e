"""Two runs at one seed give identical work counts and estimation error.

Each case runs the benchmark command end to end (one short untraced and
one short traced run per side), so this suite takes a few minutes.
"""

import json
import subprocess
import sys

import pytest

from conftest import BENCH_DIR

#: Per-layer metrics that are counts of work, not timings.
COUNTED = (
    "core.augmentation.sweep_runs",
    "ml.forest.predict_calls",
    "ml.forest.rows_per_call",
    "ml.tree.walks",
    "robustness.guarded.tier_model_frac",
    "robustness.guarded.tier_curve_frac",
    "robustness.guarded.tier_fraz_frac",
    "serving.cache.hits",
    "serving.cache.misses",
    "compressors.sz.out_bytes",
)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize(
    "workload", ["estimate-48", "estimate-128", "serve-48", "compress-64"]
)
def test_counts_and_error_repeat_at_one_seed(workload):
    first_info, first = run(workload, 0)
    second_info, second = run(workload, 0)
    assert first_info["counts"] == second_info["counts"]
    assert (
        first["metrics"]["est_error_median"]
        == second["metrics"]["est_error_median"]
    )
    _, traced_a = run(workload, 1)
    _, traced_b = run(workload, 1)
    for name in COUNTED:
        assert traced_a["metrics"][name] == traced_b["metrics"][name], name

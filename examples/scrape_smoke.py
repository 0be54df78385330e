#!/usr/bin/env python3
"""Scrape-endpoint smoke test: a live estimation service, in-process
and sharded, must answer its embedded observability routes with the
series the dashboards key on.

The end-to-end path ``make obs-scrape-smoke`` exercises, once per lane
(``shards=0``, then ``shards=1``):

1. train a small pipeline and stand up an ``EstimationService`` under a
   context with ``scrape_port=0`` (ephemeral) and full trace sampling;
2. serve a handful of requests so every exported family has data;
3. fetch ``/metrics``, ``/healthz``, ``/slo`` and ``/spans`` from
   ``service.scrape_url`` and assert the required ``repro_*`` series, a
   healthy health payload (with the shard lane's admission count when
   it has one), the three default SLOs, and a non-empty span tree for
   the last request's ``trace_id``.

Run:
    python examples/scrape_smoke.py
"""

import json
import pathlib
import sys
import tempfile
import time
import urllib.request

import numpy as np

import repro
from repro import obs
from repro.compressors import get_compressor
from repro.core.persistence import save_pipeline
from repro.runtime import RuntimeContext
from repro.serving import EstimationService

#: Metric families the Grafana boards and the SLO tracker key on; any
#: of these going missing breaks dashboards silently, so the smoke
#: fails loudly instead.
REQUIRED_SERIES = (
    "repro_serving_requests_total",
    "repro_serving_latency_seconds",
    "repro_serving_feature_cache_hits",
    "repro_slo_compliance",
    "repro_slo_burn_rate",
    "repro_slo_alert",
)


def _fetch(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def scrape_lane(pipeline, fields, model_path: str, shards: int) -> None:
    """Serve ``fields`` through one lane and check its four routes."""
    with obs.session():
        with RuntimeContext(
            env={}, scrape_port=0, trace_sample=1.0
        ) as ctx, EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=ctx,
            shards=shards,
            model_path=model_path,
        ) as service:
            give_up = time.monotonic() + 30.0
            while service.pool is not None and time.monotonic() < give_up:
                if all(
                    s["state"] == "ready"
                    for s in service.pool.shard_states()
                ):
                    break
                time.sleep(0.02)
            served = [
                service.estimate(probe, ratio)
                for probe in fields
                for ratio in (4.0, 6.0)
            ]
            base = service.scrape_url
            assert base, "scrape_port=0 must yield an ephemeral URL"
            print(f"shards={shards}: scraping {base}")

            status, metrics = _fetch(base + "/metrics")
            assert status == 200
            missing = [
                name for name in REQUIRED_SERIES if name not in metrics
            ]
            assert not missing, f"missing metric families: {missing}"

            status, health = _fetch(base + "/healthz")
            payload = json.loads(health)
            assert status == 200 and payload["healthy"], payload
            if shards:
                assert payload["stats"]["admitted"] == len(served)
            else:
                assert "stats" not in payload, payload

            status, slo = _fetch(base + "/slo")
            slos = {s["name"] for s in json.loads(slo)["slos"]}
            assert slos == {"availability", "latency_p99"}

            trace_id = served[-1].trace_id
            assert trace_id != 0, "full sampling must trace every request"
            status, spans = _fetch(f"{base}/spans?trace={trace_id}")
            names = {
                json.loads(line)["name"]
                for line in spans.splitlines()
            }
            assert "serving.request" in names, names
            if shards:
                assert "shard.serve" in names, names
    print(
        f"shards={shards}: {len(served)} requests served, "
        f"{len(REQUIRED_SERIES)} required series scraped, "
        f"{len(names)} span names in the last trace"
    )


def main(argv=None) -> int:
    rng = np.random.default_rng(0)
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    fields = [
        (
            np.sin(x + 0.4 * i) * np.cos(y)
            + (0.02 + 0.01 * i) * rng.standard_normal((20,) * 3)
        ).astype(np.float32)
        for i in range(5)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(get_compressor("sz"), config=config)
    pipeline.fit(fields[:3])

    with tempfile.TemporaryDirectory(prefix="fxrz-scrape-") as tmp:
        model_path = pathlib.Path(tmp) / "model.fxrz"
        save_pipeline(pipeline, model_path)
        for shards in (0, 1):
            scrape_lane(pipeline, fields[3:], str(model_path), shards)
    print("smoke OK: in-process and sharded lanes scraped")
    return 0


if __name__ == "__main__":
    sys.exit(main())

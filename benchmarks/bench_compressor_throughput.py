"""Compressor throughput survey (repo performance table).

Not a paper experiment — the throughput table any compression library
publishes: per-compressor encode/decode speed and ratio on a common
field at a common relative error level. Useful both as documentation
and as a regression canary for the pure-Python hot paths (the Table VI
/ VIII and parallel-dumping benches all build on these speeds).

Two kinds of rows:

* **cold** — ``compressor.compress`` with fresh scratch every call,
  the cost an application pays for a one-off block.
* **stream** — ``compressor.compress_stream()`` reusing one
  :class:`~repro.compressors.kernels.KernelArena` across repeats, the
  cost a timestep loop pays once the arena is warm.

Each row is the median of a few repeats and is gated by a regression
floor in MB/s (set at roughly half the speed measured on the reference
container, so real regressions trip but scheduler noise does not).
``sz``, ``sz2`` and ``mgard`` quantize through the same fused pass
(:func:`~repro.compressors.kernels.encode_block` /
:func:`~repro.compressors.kernels.decode_block`), so a change to it
moves all three rows. Results land in ``BENCH_kernel_throughput.json``
at the repo root; the JSON also records the pre-kernel seed baseline so
the fused-kernel speedup stays auditable.
"""

import json
import pathlib
import time

import numpy as np

from repro.compressors import available_compressors, get_compressor
from repro.datasets import load_series
from repro.experiments.tables import render_table

_JSON_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernel_throughput.json"
)

_CONFIGS = {
    "sz": lambda spread: 1e-3 * spread,
    "sz2": lambda spread: 1e-3 * spread,
    "zfp": lambda spread: 1e-3 * spread,
    "mgard": lambda spread: 1e-3 * spread,
    "fpzip": lambda spread: 16,
    "digit": lambda spread: 4,
}

#: Regression floors in MB/s, (encode, decode) per cold row. Roughly
#: half the medians measured on the reference container — a genuine
#: hot-path regression (a de-fused kernel, a quadratic repack) lands
#: well below these, ordinary scheduler noise does not.
_FLOORS = {
    "sz": (15.0, 3.0),
    "sz2": (6.0, 1.8),
    "zfp": (20.0, 12.0),
    "mgard": (6.0, 1.3),
    "fpzip": (6.0, 1.2),
    "digit": (5.0, 1.2),
}

#: Streaming rows: compressor factory + (encode, decode) floors. The
#: warm-arena path must never be slower than the cold floor.
_STREAM_ROWS = {
    "sz": (lambda: get_compressor("sz"), (15.0, 3.0)),
    "sz2": (lambda: get_compressor("sz2"), (6.0, 1.8)),
}

#: Seed-tree medians on this container (pre fused-kernel refactor),
#: measured with the same median-of-repeats loop. The acceptance bar
#: for the batched kernels is >= 2x the seed SZ encode speed.
_SEED_BASELINE_MB_S = {"sz": (12.0, 6.0), "sz2": (10.4, 5.1)}

_REPS = 7


def _median_speed(fn, mb, reps=_REPS):
    fn()  # warmup: prime caches / grow arenas outside the timed region
    times = []
    for _ in range(reps):
        tick = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tick)
    return mb / float(np.median(times))


def test_compressor_throughput(benchmark, report):
    data = load_series("nyx-1", "baryon_density").snapshots[0].data
    spread = float(np.ptp(data))
    mb = data.nbytes / 1e6

    rows = []
    results = {"cold": {}, "stream": {}}

    for name in sorted(_CONFIGS):
        assert name in available_compressors()
        comp = get_compressor(name)
        config = _CONFIGS[name](spread)
        blob = comp.compress(data, config)
        enc = _median_speed(lambda: comp.compress(data, config), mb)
        dec = _median_speed(lambda: comp.decompress(blob), mb)
        floor_enc, floor_dec = _FLOORS[name]
        results["cold"][name] = {
            "config": config,
            "ratio": round(blob.compression_ratio, 3),
            "enc_mb_s": round(enc, 2),
            "dec_mb_s": round(dec, 2),
            "floor_enc_mb_s": floor_enc,
            "floor_dec_mb_s": floor_dec,
        }
        rows.append(
            [
                name,
                "cold",
                f"{config:.4g}",
                f"{blob.compression_ratio:.2f}",
                f"{enc:.1f} MB/s",
                f"{dec:.1f} MB/s",
            ]
        )

    for label, (factory, floors) in _STREAM_ROWS.items():
        comp = factory()
        config = 1e-3 * spread
        stream = comp.compress_stream()
        blob = stream.compress(data, config)
        enc = _median_speed(lambda: stream.compress(data, config), mb)
        dec = _median_speed(lambda: stream.decompress(blob), mb)
        results["stream"][label] = {
            "config": config,
            "ratio": round(blob.compression_ratio, 3),
            "enc_mb_s": round(enc, 2),
            "dec_mb_s": round(dec, 2),
            "floor_enc_mb_s": floors[0],
            "floor_dec_mb_s": floors[1],
            "arena_reuse_ratio": round(stream.stats.reuse_ratio, 3),
        }
        rows.append(
            [
                label,
                "stream",
                f"{config:.4g}",
                f"{blob.compression_ratio:.2f}",
                f"{enc:.1f} MB/s",
                f"{dec:.1f} MB/s",
            ]
        )

    benchmark(lambda: get_compressor("sz").compress(data, 1e-3 * spread))

    report(
        render_table(
            ["compressor", "path", "config", "CR", "encode", "decode"],
            rows,
            title=f"Compressor throughput on Nyx baryon density ({mb:.1f} MB)",
        )
    )

    sz_speedup = results["cold"]["sz"]["enc_mb_s"] / _SEED_BASELINE_MB_S["sz"][0]
    _JSON_PATH.write_text(
        json.dumps(
            {
                "dataset": "nyx-1/baryon_density",
                "block_mb": round(mb, 4),
                "reps": _REPS,
                "cold": results["cold"],
                "stream": results["stream"],
                "seed_baseline_mb_s": {
                    name: {"enc_mb_s": e, "dec_mb_s": d}
                    for name, (e, d) in _SEED_BASELINE_MB_S.items()
                },
                "sz_encode_speedup_vs_seed": round(sz_speedup, 2),
            },
            indent=2,
        )
        + "\n"
    )

    # Regression floors: a fused kernel that silently de-vectorizes or
    # a repack that goes quadratic must fail here, not in a paper bench.
    for name, row in results["cold"].items():
        assert row["enc_mb_s"] > row["floor_enc_mb_s"], f"{name} encode too slow"
        assert row["dec_mb_s"] > row["floor_dec_mb_s"], f"{name} decode too slow"
    for label, row in results["stream"].items():
        assert row["enc_mb_s"] > row["floor_enc_mb_s"], f"{label} stream encode too slow"
        assert row["dec_mb_s"] > row["floor_dec_mb_s"], f"{label} stream decode too slow"
        assert row["arena_reuse_ratio"] > 0.5, f"{label} arena not reusing scratch"

    # The batched-kernel acceptance bar: fused SZ encode at >= 2x the
    # seed baseline on the same block.
    assert sz_speedup >= 2.0, (
        f"sz encode {results['cold']['sz']['enc_mb_s']} MB/s is below 2x "
        f"seed ({_SEED_BASELINE_MB_S['sz'][0]} MB/s)"
    )

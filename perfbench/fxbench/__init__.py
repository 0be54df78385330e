"""The FXRZ repository benchmark: workloads, statistics and layer trace.

``perfbench/run.py`` is the entry point; ``perfbench/records.json``
records why each workload exists and which end-to-end metric each layer
metric should move.
"""

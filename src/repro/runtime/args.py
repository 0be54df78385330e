"""Shared argparse surface for the runtime session flags.

Before the runtime layer each CLI subcommand wired its own
``--jobs``/``--trace``/``--metrics``/``--fallback`` copies. The flags
now live in one parent parser; subcommands opt in with
``parents=[runtime_parent_parser()]`` and build their session with
:meth:`repro.runtime.context.RuntimeContext.from_args`.

Every default here is ``None`` (not the resolved value): a flag left
off the command line must fall through to the environment / TOML
profile layers of :meth:`~repro.runtime.config.RuntimeConfig.resolve`.
"""

from __future__ import annotations

import argparse

from repro.runtime.config import _FALLBACKS


def add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared runtime session flags to ``parser``."""
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker count (1 serial, 0 all CPUs; default from "
        "REPRO_JOBS or 1)",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans and export them as JSONL to PATH on exit",
    )
    group.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="collect metrics and write Prometheus text to PATH on exit",
    )
    group.add_argument(
        "--fallback",
        choices=_FALLBACKS,
        default=None,
        help="guarded-inference degradation ladder (default fraz)",
    )
    group.add_argument(
        "--min-confidence",
        type=float,
        default=None,
        metavar="Q",
        help="minimum model confidence before falling back (default 0.5)",
    )
    group.add_argument(
        "--outcome-log",
        default=None,
        metavar="PATH",
        help="append serving outcomes as JSONL to PATH (the training "
        "data of repro retrain; see docs/LIFECYCLE.md)",
    )
    group.add_argument(
        "--runtime-profile",
        default=None,
        metavar="TOML",
        help="TOML profile with a [runtime] table (overrides REPRO_* env)",
    )


def runtime_parent_parser() -> argparse.ArgumentParser:
    """A fresh ``add_help=False`` parent parser carrying the runtime flags."""
    parent = argparse.ArgumentParser(add_help=False)
    add_runtime_args(parent)
    return parent

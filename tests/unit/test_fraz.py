"""Unit tests for the FRaZ baseline."""

import numpy as np
import pytest

from repro import obs
from repro.baselines.fraz import FRaZ
from repro.compressors import get_compressor
from repro.errors import InvalidConfiguration
from repro.runtime import RuntimeContext


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(3)
    lin = np.linspace(0, 4 * np.pi, 24)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    return (np.sin(x) * np.cos(y) + 0.05 * rng.standard_normal((24,) * 3)).astype(
        np.float32
    )


class TestSearch:
    def test_budget_respected(self, field):
        comp = get_compressor("sz")
        for budget in (6, 15):
            result = FRaZ(comp, max_iterations=budget).search(field, 10.0)
            assert result.iterations <= budget

    def test_more_iterations_not_worse(self, field):
        comp = get_compressor("sz")
        errors = {}
        with RuntimeContext(env={}) as ctx:
            for budget in (6, 30):
                result = FRaZ(comp, max_iterations=budget, ctx=ctx).search(
                    field, 12.0
                )
                errors[budget] = result.estimation_error
        assert errors[30] <= errors[6] + 1e-9

    def test_result_is_best_evaluation(self, field):
        comp = get_compressor("sz")
        result = FRaZ(comp, max_iterations=9).search(field, 8.0)
        best = min(abs(r - 8.0) for _, r in result.evaluations)
        assert abs(result.measured_ratio - 8.0) == pytest.approx(best)

    def test_cache_reuses_evaluations(self, field):
        comp = get_compressor("sz")
        with RuntimeContext(env={}) as ctx:
            first = FRaZ(comp, max_iterations=6, ctx=ctx).search(field, 10.0)
            size_after_first = len(ctx.memo)
            result = FRaZ(comp, max_iterations=6, ctx=ctx).search(field, 10.0)
            assert len(ctx.memo) == size_after_first
        # Memo hits still report the recorded compressor time.
        assert result.search_seconds == first.search_seconds > 0

    def test_eval_times_align(self, field):
        comp = get_compressor("sz")
        result = FRaZ(comp, max_iterations=6).search(field, 10.0)
        assert len(result.eval_seconds) == len(result.evaluations)
        assert result.search_seconds == pytest.approx(sum(result.eval_seconds))

    def test_precision_compressor_grid(self, field):
        comp = get_compressor("fpzip")
        result = FRaZ(comp, max_iterations=10).search(field, 2.0)
        assert result.config == round(result.config)
        assert result.iterations <= 10

    def test_log_scale_variant_converges_faster(self, field):
        comp = get_compressor("sz")
        target = 5.0
        linear = FRaZ(comp, max_iterations=9, search_scale="linear").search(
            field, target
        )
        logspace = FRaZ(comp, max_iterations=9, search_scale="log").search(
            field, target
        )
        assert logspace.estimation_error <= linear.estimation_error + 0.05

    def test_explicit_domain(self, field):
        comp = get_compressor("sz")
        result = FRaZ(comp, max_iterations=6).search(
            field, 10.0, domain=(1e-4, 1e-1)
        )
        assert all(1e-4 <= c <= 1e-1 for c, _ in result.evaluations)


def _probe_sources(search) -> tuple[list[str], object]:
    """Run ``search()`` under a tracer; the fraz.probe sources, in order."""
    tracer = obs.Tracer()
    with obs.session(tracer=tracer):
        result = search()
    sources = [
        span.attributes["source"]
        for span in tracer.spans
        if span.name == "fraz.probe"
    ]
    return sources, result


class TestProbeSources:
    @pytest.mark.parametrize("name", ["sz", "zfp", "fpzip"])
    @pytest.mark.parametrize("budget", [6, 15])
    def test_each_distinct_config_runs_once_without_ctx(
        self, field, name, budget
    ):
        comp = get_compressor(name)
        sources, result = _probe_sources(
            lambda: FRaZ(comp, max_iterations=budget).search(field, 10.0)
        )
        distinct = {config for config, _ in result.evaluations}
        assert sources.count("run") == len(distinct)
        # Shared bin edges are answered from the search's own record.
        assert sources.count("memo") == len(sources) - len(distinct) > 0
        assert len(sources) == result.iterations == len(result.eval_seconds)

    def test_repeat_is_charged_its_recorded_seconds(self, field):
        comp = get_compressor("sz")
        result = FRaZ(comp, max_iterations=6).search(field, 10.0)
        first_seen = {}
        for (config, ratio), seconds in zip(
            result.evaluations, result.eval_seconds
        ):
            first_seen.setdefault(config, (ratio, seconds))
            assert first_seen[config] == (ratio, seconds)

    def test_executor_prefetches_then_memo_answers(self, field):
        comp = get_compressor("sz")
        with RuntimeContext(env={}, jobs=2, backend="process") as ctx:
            first, cold = _probe_sources(
                lambda: FRaZ(comp, max_iterations=6, ctx=ctx).search(
                    field, 10.0
                )
            )
            second, warm = _probe_sources(
                lambda: FRaZ(comp, max_iterations=6, ctx=ctx).search(
                    field, 10.0
                )
            )
        assert "prefetch" in first
        assert "run" not in second
        assert warm.evaluations == cold.evaluations


class TestValidation:
    def test_bad_target_rejected(self, field):
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            FRaZ(comp).search(field, -1.0)

    def test_bad_params_rejected(self):
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            FRaZ(comp, max_iterations=1)
        with pytest.raises(InvalidConfiguration):
            FRaZ(comp, n_bins=0)
        with pytest.raises(InvalidConfiguration):
            FRaZ(comp, search_scale="sqrt")

"""Smoke tests for the figure-regeneration entry points and CLI."""

import pytest

from repro.accel import codegen
from repro.accel.driver import DESER_BATCH_CACHE, SER_BATCH_CACHE
from repro.bench.figures import ALL_FIGURES, figure2, figure7, section53
from repro.bench.harness import WorkloadSpec, run_spec
from repro.bench.microbench import alloc_bench_names, nonalloc_bench_names
from repro.bench.report import ascii_bar_chart
from repro.bench.runner import BenchmarkResult, SystemResult
from repro.hyperprotobench import bench_names


class TestFastFigures:
    def test_figure2_text(self):
        table = figure2()
        assert "3.45%" in table
        assert "deserialize" in table

    def test_figure7_text(self):
        table = figure7(samples=500)
        assert "1/64" in table

    def test_section53_text(self):
        table = section53()
        assert "1.95" in table
        assert "mm^2" in table

    def test_registry_complete(self):
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig11a", "fig11b", "fig11c", "fig11d", "sec5.1.3",
                    "fig12", "fig13", "sec5.3", "faults", "serving",
                    "fleet", "transport"}
        assert set(ALL_FIGURES) == expected


def test_second_figure_pass_compiles_no_kernels():
    """The Fig 11-13 workloads fit the kernel code cache together, so
    regenerating them a second time compiles nothing."""
    names = [("micro", name)
             for name in nonalloc_bench_names() + alloc_bench_names()]
    names += [("hyper", name) for name in bench_names()]
    specs = [WorkloadSpec(kind, name, operation, 1)
             for kind, name in names
             for operation in ("deserialize", "serialize")]

    def regenerate():
        # Forget memoised cycles so every spec runs its kernels again.
        DESER_BATCH_CACHE.clear()
        SER_BATCH_CACHE.clear()
        for spec in specs:
            run_spec(spec, disk_cache=False, faults=None,
                     fast_path="codegen", transport="rocc")

    regenerate()
    _, misses, entries, capacity = codegen.cache_counters()
    assert entries <= capacity
    regenerate()
    assert codegen.cache_counters()[1] == misses


class TestCli:
    def test_no_args_lists_figures(self, capsys):
        from repro.bench.__main__ import main

        assert main([]) == 1
        out = capsys.readouterr().out
        assert "fig11a" in out

    def test_unknown_figure_rejected(self, capsys):
        from repro.bench.__main__ import main

        assert main(["nope"]) == 1

    def test_single_fast_figure(self, capsys):
        from repro.bench.__main__ import main

        assert main(["sec5.3"]) == 0
        out = capsys.readouterr().out
        assert "deserializer" in out


class TestAsciiChart:
    def _result(self, name, boom, xeon, accel):
        result = BenchmarkResult(name, "deserialize")
        for system, gbps in (("riscv-boom", boom), ("Xeon", xeon),
                             ("riscv-boom-accel", accel)):
            result.results[system] = SystemResult(system, gbps, 1.0, 1)
        return result

    def test_chart_shape(self):
        chart = ascii_bar_chart([self._result("w", 1.0, 2.0, 4.0)],
                                width=8)
        lines = chart.splitlines()
        assert lines[0].startswith("legend:")
        assert "w" in lines[1]
        assert lines[2].strip().startswith("##")
        assert lines[4].strip().startswith("*" * 8)

    def test_minimum_one_glyph(self):
        chart = ascii_bar_chart(
            [self._result("w", 0.001, 50.0, 100.0)], width=10)
        assert "# 0.00" in chart

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart([self._result("w", 0.0, 0.0, 0.0)])

"""Smoke tests for the figure-regeneration entry points and CLI."""

import pytest

from repro.bench.figures import ALL_FIGURES, figure2, figure7, section53
from repro.bench.report import ascii_bar_chart
from repro.bench.runner import BenchmarkResult, SystemResult


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

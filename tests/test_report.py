"""Markdown report generation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.harness.report import ALL_SECTIONS, generate_report


@pytest.fixture(scope="module")
def bench():
    return Workbench(ExperimentSettings(
        warmup=8_000, measure=16_000, seed=3, calibrate=False,
    ))


class TestReport:
    def test_table_sections_render(self, bench):
        report = generate_report(bench, sections=("table1", "table2"))
        assert "# Experiments" in report
        assert "## Table 1" in report
        assert "## Table 2" in report
        assert "| per 100 insts |" in report

    def test_figure3_section(self, bench):
        report = generate_report(bench, sections=("figure3",))
        assert "store_serialize" in report
        assert "SLE + prefetch past" in report

    def test_settings_recorded_in_header(self, bench):
        report = generate_report(bench, sections=("table2",))
        assert "measure=16000" in report
        assert "seed=3" in report

    def test_unknown_section_rejected(self, bench):
        with pytest.raises(ValueError, match="unknown report sections"):
            generate_report(bench, sections=("figure99",))

    def test_all_sections_list_complete(self):
        assert set(ALL_SECTIONS) == {
            "table1", "table2", "table3", "figure2", "figure3",
            "figure4", "figure5", "figure6", "figure7", "figure8",
        }


class TestExperimentsDriftCheck:
    """``scripts/check_experiments.py``: CI's comparison of a regenerated
    report's table rows with EXPERIMENTS.md."""

    ROOT = Path(__file__).resolve().parent.parent

    def _check(self, report, tmp_path):
        path = tmp_path / "report.md"
        path.write_text(report)
        return subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / "check_experiments.py"),
             str(path)],
            capture_output=True, text=True, timeout=60,
        )

    def _recorded_rows(self):
        # The report's sections start at Table 1; the verdict summary
        # table above them is EXPERIMENTS.md's own.
        text = (self.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        sections = text[text.index("\n## Table 1 "):]
        return [line for line in sections.splitlines()
                if line.startswith("| ")]

    def test_recorded_rows_pass(self, bench, tmp_path):
        rows = self._recorded_rows()
        report = generate_report(bench, sections=("table1",))
        # The report's prose and separators are not compared.
        prose = [line for line in report.splitlines()
                 if not line.startswith("| ")]
        proc = self._check("\n".join(prose + rows) + "\n", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert f"all {len(rows)} table rows match" in proc.stdout

    def test_an_altered_row_fails(self, tmp_path):
        rows = self._recorded_rows()
        altered = rows[-1].replace("0.969", "0.968")
        proc = self._check("\n".join(rows[:-1] + [altered]) + "\n", tmp_path)
        assert proc.returncode == 1
        assert altered in proc.stderr
        assert f"1 of {len(rows)} table rows drifted" in proc.stderr

    def test_a_dropped_section_fails(self, tmp_path):
        # Every row left is recorded, but Figure 8's table is gone.
        rows = self._recorded_rows()
        text = (self.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        dropped = text[text.index("\n## Figure 8 "):]
        kept = [row for row in rows if row not in dropped]
        assert 0 < len(kept) < len(rows)
        proc = self._check("\n".join(kept) + "\n", tmp_path)
        assert proc.returncode == 1
        assert (f"the report has {len(kept)} table rows, EXPERIMENTS.md "
                f"records {len(rows)}") in proc.stderr

    def test_a_report_without_tables_fails(self, tmp_path):
        proc = self._check("# Experiments\n\nno tables\n", tmp_path)
        assert proc.returncode == 1

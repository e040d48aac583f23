"""Tests for diagnostics rendering and the CLI entry point."""

import pytest

from conftest import make_paged_mapping
from repro import A100_40G, BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.diagnostics import (
    LOAD_BUCKETS, PLAN_ROWS, format_plan, format_plan_load, format_report,
    format_step_events,
)


@pytest.fixture
def plan_and_report():
    mapping, _ = make_paged_mapping([3000, 64, 900], [1, 1, 1])
    w = BatchAttentionWrapper(
        VANILLA, HeadConfig(4, 2, 16), WorkspaceBuffer(1 << 27), avg_qo_len=1
    )
    plan = w.plan(mapping)
    _, _, report = w.run(None, compute=False)
    return plan, report, w


class TestDiagnostics:
    def test_format_report_mentions_key_metrics(self, plan_and_report):
        _, report, _ = plan_and_report
        text = format_report(report, A100_40G)
        for token in ("makespan", "work tiles", "bandwidth", "balance"):
            assert token in text

    def test_format_plan_counts_items(self, plan_and_report):
        plan, _, _ = plan_and_report
        text = format_plan(plan)
        assert f"{plan.num_work_items}" in text.splitlines()[0]
        assert "kv_range" in text

    def test_format_plan_truncates(self, plan_and_report):
        plan, _, _ = plan_and_report
        assert plan.num_work_items > PLAN_ROWS
        text = format_plan(plan)
        assert f"({plan.num_work_items - PLAN_ROWS} more)" in text

    def test_plan_load_histogram(self, plan_and_report):
        plan, _, _ = plan_and_report
        text = format_plan_load(plan)
        assert text.count("CTA") >= 4
        assert "█" in text


class TestPlanLoad:
    def test_histogram_folds_the_grid_into_load_buckets(self, plan_and_report):
        plan, _, _ = plan_and_report
        n = len(plan.cta_queues)
        group = -(-n // LOAD_BUCKETS)
        lines = format_plan_load(plan).splitlines()
        assert len(lines) == -(-n // group) <= LOAD_BUCKETS
        assert lines[-1].startswith(f"CTA {(len(lines) - 1) * group:4d}-{n - 1:4d}")

    def test_empty_plan(self):
        from repro.core import plan_schedule

        assert format_plan_load(plan_schedule([0], [0], 16, 8)) == "(empty plan)"

    def test_short_plan_is_not_elided(self):
        from repro.core import plan_schedule

        plan = plan_schedule([1, 1], [64, 64], 16, 8)
        assert plan.num_work_items <= PLAN_ROWS
        assert "more)" not in format_plan(plan)


class TestStepEvents:
    @staticmethod
    def events(n=6):
        from repro.obs import StepEvent

        return [
            StepEvent(index=i, kind="decode" if i % 3 else "idle",
                      t_start=i * 1e-3, t_end=(i + 1) * 1e-3,
                      num_decode_tokens=8, num_streams=8,
                      breakdown={"attention": 4e-4, "gemm": 5e-4} if i % 3 else {})
            for i in range(n)
        ]

    def test_one_row_per_event_with_component_shares(self):
        lines = format_step_events(self.events()).splitlines()
        assert len(lines) == 1 + 6  # header, then one row per event
        assert lines[1].split()[:3] == ["0", "idle", "1.000"]
        assert lines[2].split()[:2] == ["1", "decode"]
        assert "40.0%" in lines[2] and "50.0%" in lines[2]

    def test_truncates_past_max_rows(self):
        lines = format_step_events(self.events(), max_rows=4).splitlines()
        assert len(lines) == 1 + 4 + 1
        assert lines[-1] == "  ... (2 more)"


class TestCLI:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "H100" in out

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "schedule plan" in out and "simulated execution" in out

    def test_generate(self, capsys):
        from repro.__main__ import main

        assert main(["generate", "--tokens", "5", "--temperature", "0"]) == 0
        out = capsys.readouterr().out
        assert "output" in out

    def test_generate_deterministic_at_temp0(self, capsys):
        from repro.__main__ import main

        main(["generate", "--tokens", "5", "--temperature", "0"])
        a = capsys.readouterr().out
        main(["generate", "--tokens", "5", "--temperature", "0"])
        b = capsys.readouterr().out
        assert a == b

    def test_figures(self, capsys):
        from repro.__main__ import main

        assert main(["figures"]) == 0
        assert "fig7" in capsys.readouterr().out

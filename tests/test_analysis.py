"""Tests for the analysis extensions: coverage, traceability, reuse, faults."""

from __future__ import annotations

import pytest

from repro.analysis import (
    FaultCampaign,
    Requirement,
    RequirementCatalogue,
    central_locking_faults,
    compare_suites,
    compute_coverage,
    interior_light_faults,
    script_portability,
    trace_requirements,
    vocabulary_reuse,
)
from repro.core import Compiler
from repro.dut import InteriorLightEcu, LoadSpec, TestHarness, body_can_database
from repro.paper import (
    extended_suite,
    locking_suite,
    paper_signal_set,
    paper_suite,
)
from repro.teststand import build_paper_stand


def _interior_harness(ecu):
    return TestHarness(ecu, body_can_database(),
                       loads=(LoadSpec("INT_ILL_F", "INT_ILL_R", 6.0),))


class TestCoverage:
    def test_paper_suite_coverage(self):
        report = compute_coverage(paper_suite())
        assert report.status_coverage == 1.0
        assert report.signal_checked["INT_ILL"] > 0
        # The rear doors are never stimulated by the paper's single sheet.
        assert "DS_RL" in report.unstimulated_inputs
        assert "DS_RR" in report.unstimulated_inputs
        assert not report.unchecked_outputs

    def test_extended_suite_closes_the_gap(self):
        report = compute_coverage(extended_suite())
        assert not report.unstimulated_inputs
        assert report.signal_coverage == 1.0

    def test_requirements_counted(self):
        report = compute_coverage(extended_suite())
        assert "REQ_INT_ILL" in report.requirements
        assert report.requirements["REQ_INT_ILL_TIMEOUT"] > 0

    def test_summary_is_text(self):
        assert "coverage of" in compute_coverage(paper_suite()).summary()


class TestTraceability:
    def _catalogue(self):
        return RequirementCatalogue((
            Requirement("REQ_INT_ILL", "illumination follows doors and night"),
            Requirement("REQ_INT_ILL_DOORS", "each door triggers the illumination"),
            Requirement("REQ_INT_ILL_TIMEOUT", "switch-off after 300 s"),
            Requirement("REQ_INT_ILL_UBATT", "limits relative to supply"),
            Requirement("REQ_INT_ILL_DIMMING", "smooth dimming"),
        ), component="interior light")

    def test_paper_suite_traceability(self):
        report = trace_requirements(paper_suite(), self._catalogue())
        assert "REQ_INT_ILL" in report.covered
        assert "REQ_INT_ILL_DIMMING" in report.uncovered
        assert report.coverage < 1.0

    def test_extended_suite_traceability(self):
        report = trace_requirements(extended_suite(), self._catalogue())
        assert set(report.covered) >= {"REQ_INT_ILL", "REQ_INT_ILL_DOORS",
                                       "REQ_INT_ILL_TIMEOUT", "REQ_INT_ILL_UBATT"}
        assert report.coverage == pytest.approx(4 / 5)

    def test_dangling_reference_detected(self):
        from repro.core.testdef import TestDefinition, TestSuite
        from repro.paper import paper_signal_set, paper_status_table

        test = TestDefinition("t", requirement="REQ_TYPO")
        test.add_step(0.5, {"DS_FL": "Open"})
        suite = TestSuite("interior_light_ecu", paper_signal_set(), paper_status_table(), (test,))
        report = trace_requirements(suite, self._catalogue())
        assert "REQ_TYPO" in report.dangling

    def test_duplicate_requirement_rejected(self):
        catalogue = self._catalogue()
        with pytest.raises(Exception):
            catalogue.add(Requirement("REQ_INT_ILL", "again"))


class TestReuse:
    def test_interior_vs_locking_share_vocabulary(self):
        report = compare_suites(paper_suite(), locking_suite())
        assert set(report.shared_statuses) >= {"open", "closed", "lo", "ho", "0", "1", "off"}
        assert "put_r" in report.shared_methods and "get_u" in report.shared_methods
        assert report.status_jaccard > 0.4

    def test_vocabulary_reuse_fraction(self):
        usage = vocabulary_reuse([paper_suite(), extended_suite(), locking_suite()])
        assert usage["lo"] == 1.0 and usage["ho"] == 1.0
        assert usage["lock"] == pytest.approx(1 / 3)

    def test_script_portability_is_total_for_compiled_scripts(self):
        suite = paper_suite()
        script = Compiler().compile_test(suite, "interior_illumination")
        stand = build_paper_stand()
        stand_entities = list(stand.resources.names) + [
            route.connector.label for route in stand.connections]
        assert script_portability(script, stand_entities) == 1.0

    def test_self_comparison_is_full_reuse(self):
        report = compare_suites(paper_suite(), paper_suite())
        assert report.status_jaccard == 1.0
        assert report.assignment_jaccard == 1.0


class TestFaultCampaign:
    @pytest.fixture(scope="class")
    def paper_campaign_result(self):
        suite = paper_suite()
        scripts = Compiler().compile_suite(suite)
        campaign = FaultCampaign(scripts, paper_signal_set(), build_paper_stand,
                                 _interior_harness, InteriorLightEcu)
        return campaign.run(interior_light_faults())

    @pytest.fixture(scope="class")
    def extended_campaign_result(self):
        suite = extended_suite()
        scripts = Compiler().compile_suite(suite)
        campaign = FaultCampaign(scripts, paper_signal_set(), build_paper_stand,
                                 _interior_harness, InteriorLightEcu)
        return campaign.run(interior_light_faults())

    def test_baseline_is_clean(self, paper_campaign_result):
        assert paper_campaign_result.baseline_clean

    def test_paper_suite_detects_most_faults(self, paper_campaign_result):
        assert paper_campaign_result.detection_rate >= 0.8
        assert "lamp_stuck_off" in paper_campaign_result.detected
        assert "timer_never_expires" in paper_campaign_result.detected

    def test_paper_suite_misses_ds_fr_fault(self, paper_campaign_result):
        # The paper's sheet only exercises DS_FR by day, so this one escapes.
        assert "ignores_ds_fr" in paper_campaign_result.undetected

    def test_extended_suite_detects_everything(self, extended_campaign_result):
        assert extended_campaign_result.detection_rate == 1.0
        assert not extended_campaign_result.undetected

    def test_expectations_recorded(self, paper_campaign_result):
        assert all(outcome.as_expected for outcome in paper_campaign_result.outcomes)

    def test_table_and_summary_render(self, paper_campaign_result):
        table = paper_campaign_result.table()
        assert "lamp_stuck_off" in table
        assert "fault campaign" in paper_campaign_result.summary()

    def test_from_report_groups_jobs_in_catalogue_order(self, paper_campaign_result):
        """One grouping serves the campaign and the store: the baseline,
        then one outcome per fault in the order the catalogue gives."""
        from repro.analysis import CampaignResult

        report = paper_campaign_result.execution
        outcomes = paper_campaign_result.outcomes
        faults = [outcome.fault for outcome in outcomes]
        regrouped = CampaignResult.from_report(report, reversed(faults))
        assert regrouped.execution is report
        assert regrouped.baseline == paper_campaign_result.baseline
        assert len(regrouped.baseline) == 1
        assert [outcome.fault for outcome in regrouped.outcomes] == faults[::-1]
        assert [outcome.results for outcome in regrouped.outcomes] == [
            outcome.results for outcome in reversed(outcomes)]

    def test_fault_catalogue_api(self):
        catalogue = interior_light_faults()
        assert len(catalogue) == 9
        assert catalogue.get("inverted_night").build().__class__.__name__
        with pytest.raises(Exception):
            catalogue.get("not_a_fault")

    def test_central_locking_catalogue_builds(self):
        for fault in central_locking_faults():
            ecu = fault.build()
            assert ecu.name == "central_locking_ecu"

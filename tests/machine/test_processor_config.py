"""Tests for processor models and the named paper configurations."""

import pytest

from repro.machine.config import (
    ALL_SYSTEMS,
    CACHE_SYSTEMS,
    MIXED_SYSTEMS,
    NETWORK_SYSTEMS,
    SYSTEMS_BY_NAME,
    paper_system_rows,
    system_row,
)
from repro.machine.processor import (
    LEN_8,
    MAX_8,
    PAPER_PROCESSORS,
    ProcessorModel,
    UNLIMITED,
    superscalar,
)


class TestProcessorModels:
    def test_unlimited_has_no_limits(self):
        assert UNLIMITED.max_outstanding_loads is None
        assert UNLIMITED.max_load_cycles is None
        assert UNLIMITED.issue_width == 1

    def test_max8(self):
        assert MAX_8.max_outstanding_loads == 8
        assert MAX_8.max_load_cycles is None

    def test_len8(self):
        assert LEN_8.max_load_cycles == 8
        assert LEN_8.max_outstanding_loads is None

    def test_paper_processors_order(self):
        assert [p.name for p in PAPER_PROCESSORS] == [
            "UNLIMITED",
            "MAX-8",
            "LEN-8",
        ]

    def test_superscalar_wraps_base(self):
        wide = superscalar(4, MAX_8)
        assert wide.issue_width == 4
        assert wide.max_outstanding_loads == 8
        assert "x4" in wide.name

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorModel("bad", issue_width=0)
        with pytest.raises(ValueError):
            ProcessorModel("bad", max_outstanding_loads=0)
        with pytest.raises(ValueError):
            ProcessorModel("bad", max_load_cycles=0)


class TestPaperSystems:
    def test_twelve_memory_systems(self):
        assert len(ALL_SYSTEMS) == 12
        assert len(CACHE_SYSTEMS) == 4
        assert len(NETWORK_SYSTEMS) == 7
        assert len(MIXED_SYSTEMS) == 1

    def test_seventeen_table_rows(self):
        """4 caches x 2 latencies + 7 networks x 1 + mixed x 2 = 17."""
        rows = paper_system_rows()
        assert len(rows) == 17

    def test_row_latencies_match_paper(self):
        labels = [row.label for row in paper_system_rows()]
        for expected in (
            "L80(2,5) @ 2",
            "L80(2,5) @ 2.6",
            "L80(2,10) @ 3.6",
            "L95(2,5) @ 2.15",
            "L95(2,10) @ 2.4",
            "N(30,5) @ 30",
            "L80-N(30,5) @ 7.6",
        ):
            assert expected in labels

    def test_groups_cover_all_rows(self):
        groups = {row.group for row in paper_system_rows()}
        assert groups == {
            "Data cache; bus-based interconnection",
            "No cache; network interconnection",
            "Mixed",
        }

    def test_lookup_by_name(self):
        assert SYSTEMS_BY_NAME["N(30,5)"].mean_latency == 30

    def test_system_row_lookup(self):
        row = system_row("L80(2,5)", 2.6)
        assert row.memory.name == "L80(2,5)"
        assert row.optimistic_latency == 2.6
        with pytest.raises(KeyError):
            system_row("L99(1,1)", 1)

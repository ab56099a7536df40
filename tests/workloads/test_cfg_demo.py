"""Tests for the trace-scheduling demonstration CFG."""

import pytest

from repro.extensions.trace import form_trace
from repro.workloads.cfg_demo import hot_path_cfg
from tests.support.verifier import verify_block


class TestHotPathCfg:
    def test_validates(self):
        hot_path_cfg().validate()

    def test_block_count(self):
        cfg = hot_path_cfg(n_hot_blocks=5)
        assert len(cfg.blocks) == 6  # five hot + cold

    def test_hot_path_frequencies_decay(self):
        cfg = hot_path_cfg(n_hot_blocks=4, hot_probability=0.9,
                           entry_frequency=100.0)
        freqs = [cfg.block(f"b{k}").frequency for k in range(3)]
        assert freqs[0] == pytest.approx(100.0)
        assert freqs[1] == pytest.approx(90.0)
        assert freqs[2] == pytest.approx(81.0)

    def test_final_block_collects_all_flow(self):
        cfg = hot_path_cfg(n_hot_blocks=3, entry_frequency=40.0)
        assert cfg.block("b2").frequency == pytest.approx(40.0)

    def test_cold_block_gets_residual_flow(self):
        cfg = hot_path_cfg(n_hot_blocks=3, hot_probability=0.9,
                           entry_frequency=100.0)
        # 10 from b0 plus 9 from b1.
        assert cfg.block("cold").frequency == pytest.approx(19.0)

    def test_hottest_path_is_the_hot_chain(self):
        cfg = hot_path_cfg(n_hot_blocks=4)
        assert cfg.hottest_path() == ["b0", "b1", "b2", "b3"]

    def test_trace_forms_and_verifies_blockwise(self):
        cfg = hot_path_cfg()
        for name in cfg.hottest_path():
            verify_block(cfg.block(name))
        trace = form_trace(cfg)
        assert len(trace.side_exits) == len(trace.source_blocks) - 1

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            hot_path_cfg(n_hot_blocks=1)

    def test_distinct_regions_keep_blocks_independent(self):
        """Each hot block touches its own region, so the only trace
        constraints are the side exits (maximum hoisting freedom)."""
        cfg = hot_path_cfg(n_hot_blocks=3)
        regions = set()
        for name in cfg.hottest_path():
            for inst in cfg.block(name):
                if inst.mem is not None:
                    regions.add(inst.mem.region)
        assert len(regions) == 3

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode.gateway
import satprecode.precoding
from satprecode.exceptions import ConfigError, SingularChannelError
from satprecode.gateway import (
    assemble_multigateway_precoder,
    local_csi,
    make_plan,
    overhead_per_gateway,
    share_csi,
)
from satprecode.precoding import two_stage

from conftest import random_channel
from oracles import feed_powers, total_power


class TestMakePlan:
    def test_paper_scale_split_has_17_and_18_beam_gateways(self):
        plan = make_plan(245, 245, 2, 14, "icp")
        counts = sorted(plan.beams_per_gateway)
        assert counts == [17] * 7 + [18] * 7
        assert plan.beams_per_gateway.sum() == 245

    def test_single_gateway_is_reference_block(self):
        plan = make_plan(9, 9, 2, 1, "ref")
        assert plan.gateways == 1
        assert plan.beam_slice(0) == slice(0, 9)

    def test_reference_mode_forces_single_gateway(self):
        plan = make_plan(9, 9, 2, 4, "ref")
        assert plan.gateways == 1

    def test_even_split_blocks(self):
        plan = make_plan(6, 6, 1, 3, "icp")
        assert list(plan.beams_per_gateway) == [2, 2, 2]
        assert plan.beam_slice(1) == slice(2, 4)
        assert plan.feed_slice(2) == slice(4, 6)

    def test_more_gateways_than_beams_rejected(self):
        with pytest.raises(ConfigError):
            make_plan(3, 3, 2, 4, "icp")

    def test_closest_mode_requires_count(self):
        with pytest.raises(ConfigError):
            make_plan(6, 6, 2, 3, "closest")

    def test_neighbors_by_centroid_distance(self):
        centers = np.array(
            [[0.0, 0.0], [0.0, 1.0], [0.0, 10.0], [0.0, 11.0],
             [0.0, 2.0], [0.0, 3.0]]
        )
        # Blocks: {0,1}, {2,3}, {4,5}; centroids at lon 0.5, 10.5, 2.5.
        plan = make_plan(6, 6, 1, 3, "closest", closest_c=1,
                         beam_centers=centers)
        assert plan.neighbor_lists == ((2,), (2,), (0,))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 10), st.integers(1, 4), st.integers(1, 3))
    def test_partition_completeness(self, gateways, feeds_per_beam, q):
        beams = max(gateways, 7)
        plan = make_plan(beams, beams * feeds_per_beam, q, gateways, "icp")
        beam_owner = np.zeros(beams, dtype=int)
        feed_owner = np.zeros(beams * feeds_per_beam, dtype=int)
        for g in range(gateways):
            beam_owner[plan.beam_slice(g)] += 1
            feed_owner[plan.feed_slice(g)] += 1
        assert np.all(beam_owner == 1)
        assert np.all(feed_owner == 1)


class TestLocalCsi:
    def test_block_shapes_and_disjoint_rows(self):
        ch = random_channel(6, 2, 6, seed=0)
        plan = make_plan(6, 6, 2, 3, "icp")
        seen = np.zeros(12, dtype=int)
        for g in range(3):
            block = local_csi(ch, plan, g)
            assert block.shape == (4, 2)
            rows = plan.row_slice(g)
            seen[rows] += 1
        assert np.all(seen == 1)

    def test_blocks_reconstruct_channel(self):
        ch = random_channel(6, 2, 6, seed=1)
        plan = make_plan(6, 6, 2, 3, "icp")
        rebuilt = np.zeros_like(np.asarray(ch.h))
        for g in range(3):
            for l in range(3):
                rebuilt[plan.row_slice(g), plan.feed_slice(l)] = ch.h[
                    plan.row_slice(g), plan.feed_slice(l)
                ]
        assert np.array_equal(rebuilt, ch.h)

    def test_out_of_range_gateway_rejected(self):
        ch = random_channel(4, 2, 4, seed=2)
        plan = make_plan(4, 4, 2, 2, "icp")
        with pytest.raises(ConfigError):
            local_csi(ch, plan, 2)


class TestShareCsi:
    def test_icp_zeroes_foreign_rows_with_no_overhead(self):
        ch = random_channel(6, 2, 6, seed=3)
        plan = make_plan(6, 6, 2, 3, "icp")
        views = share_csi(ch, plan)
        assert np.all(overhead_per_gateway(plan) == 0)
        for g, view in enumerate(views):
            own = plan.row_slice(g)
            assert np.array_equal(view[own], local_csi(ch, plan, g))
            foreign = np.delete(view, own, axis=0)
            assert not np.any(foreign)

    def test_closest_shares_exact_blocks(self):
        ch = random_channel(6, 2, 6, seed=4)
        plan = make_plan(6, 6, 2, 3, "closest", closest_c=1)
        views = share_csi(ch, plan)
        for g, view in enumerate(views):
            for l in plan.neighbor_lists[g]:
                rows = plan.row_slice(l)
                assert np.array_equal(
                    view[rows],
                    ch.h[rows, plan.feed_slice(g)],
                )

    def test_msvdgc_blocks_are_best_rank_one(self):
        ch = random_channel(6, 2, 6, seed=5)
        plan = make_plan(6, 6, 2, 3, "msvdgc")
        views = share_csi(ch, plan)
        for g, view in enumerate(views):
            for l in range(3):
                if l == g:
                    continue
                block = view[plan.row_slice(l)]
                assert np.linalg.matrix_rank(block, tol=1e-10) <= 1
                true_block = ch.h[plan.row_slice(l), plan.feed_slice(g)]
                # The stacked SVD gives each block its own triple bit for bit.
                u, s, vh = np.linalg.svd(true_block, full_matrices=False)
                assert np.array_equal(block, s[0] * np.outer(u[:, 0], vh[0]))

    def test_known_entries_grow_with_cooperation(self):
        ch = random_channel(8, 2, 8, seed=6)
        known = {}
        for c in (1, 2, 3):
            plan = make_plan(8, 8, 2, 4, "closest", closest_c=c)
            views = share_csi(ch, plan)
            # Unknown rows are zero; a known row of a random channel is not.
            known[c] = [frozenset(np.nonzero(np.any(v, axis=1))[0])
                        for v in views]
        for g in range(4):
            assert known[1][g] <= known[2][g] <= known[3][g]

    def test_view_owns_read_only_channel(self):
        ch = random_channel(6, 2, 6, seed=14)
        plan = make_plan(6, 6, 2, 3, "msvdgc")
        views = share_csi(ch, plan)
        assert len(views) == plan.gateways
        for g, view in enumerate(views):
            assert isinstance(view, np.ndarray)
            assert view.shape == (6 * 2, plan.feeds_per_gateway[g])
            assert not view.flags.writeable

    def test_plan_for_other_user_count_rejected(self):
        ch = random_channel(6, 2, 6, seed=15)
        plan = make_plan(6, 6, 3, 3, "icp")
        with pytest.raises(ConfigError, match="disagree"):
            share_csi(ch, plan)


class TestOverhead:
    def test_full_sharing_matches_closed_form(self):
        # C = G-1 is full sharing: (G-1) * Q * K_g * N_g per gateway.
        plan = make_plan(238, 238, 2, 14, "closest", closest_c=13)
        counts = overhead_per_gateway(plan)
        assert np.all(counts == 13 * 2 * 17 * 17)
        assert counts[0] == 7514

    def test_partial_sharing_matches_closed_form(self):
        for c in (1, 2, 4):
            plan = make_plan(40, 40, 3, 8, "closest", closest_c=c)
            counts = overhead_per_gateway(plan)
            assert np.all(counts == c * 3 * 5 * 5)

    def test_rank_one_sharing_matches_closed_form(self):
        plan = make_plan(238, 238, 2, 14, "msvdgc")
        counts = overhead_per_gateway(plan)
        assert np.all(counts == 13 * 17)
        assert counts[0] == 221

    def test_no_cooperation_costs_nothing(self):
        plan = make_plan(12, 12, 2, 3, "icp")
        assert np.all(overhead_per_gateway(plan) == 0)


class TestAssemble:
    def test_single_gateway_matches_two_stage(self):
        # One gateway runs the same two-stage pipeline: bit for bit mbim.
        ch = random_channel(6, 2, 6, seed=8)
        plan = make_plan(6, 6, 2, 1, "ref")
        views = share_csi(ch, plan)
        for mode in ("per_feed", "total"):
            for p_total in (5.0, np.array([0.5, 5.0, 3e3])):
                pre = assemble_multigateway_precoder(views, plan, p_total, mode)
                reference = two_stage(ch, p_total, mode, "mbim")
                assert np.array_equal(pre.w, reference.w)
                assert np.array_equal(pre.alpha, reference.alpha)

    def test_off_diagonal_blocks_structurally_zero(self):
        ch = random_channel(6, 2, 6, seed=9)
        plan = make_plan(6, 6, 2, 3, "closest", closest_c=2)
        views = share_csi(ch, plan)
        pre = assemble_multigateway_precoder(views, plan, 5.0)
        for g in range(3):
            block_rows = plan.feed_slice(g)
            outside = np.delete(pre.w[block_rows], plan.beam_slice(g), axis=1)
            assert not np.any(outside)

    def test_power_constraint_modes(self):
        ch = random_channel(6, 2, 6, seed=10)
        plan = make_plan(6, 6, 2, 3, "closest", closest_c=2)
        views = share_csi(ch, plan)
        per_feed = assemble_multigateway_precoder(views, plan, 7.0,
                                                  mode="per_feed")
        assert np.max(feed_powers(per_feed.w)) == pytest.approx(7.0 / 6, rel=1e-9)
        total = assemble_multigateway_precoder(views, plan, 7.0, mode="total")
        assert total_power(total.w) == pytest.approx(7.0, rel=1e-9)

    def test_failures_name_the_gateway(self):
        # A gateway serving a single beam with no shared CSI has a zero
        # cross-Gram and cannot build the interference-mitigation block.
        ch = random_channel(3, 2, 6, seed=12)
        plan = make_plan(3, 6, 2, 3, "icp")
        views = share_csi(ch, plan)
        with pytest.raises(SingularChannelError, match="gateway 0") as info:
            assemble_multigateway_precoder(views, plan, 5.0)
        assert isinstance(info.value.__cause__, SingularChannelError)

    def test_unmodelled_errors_propagate_unwrapped(self, monkeypatch):
        bug = TypeError("x")

        def broken(*args, **kwargs):
            raise bug

        monkeypatch.setattr(satprecode.precoding, "_mbim_blocks", broken)
        ch = random_channel(6, 2, 6, seed=13)
        plan = make_plan(6, 6, 2, 3, "closest", closest_c=2)
        with pytest.raises(TypeError) as info:
            assemble_multigateway_precoder(share_csi(ch, plan), plan, 5.0)
        assert info.value is bug
        assert str(info.value) == "x"

    @pytest.mark.parametrize("case", ["two_views", "fourth_view",
                                      "narrow_view"])
    def test_views_that_do_not_match_the_plan_are_rejected(self, case):
        # Each is bad input, not a modelled failure: two views left
        # gateway 2's beams dark, a fourth was designed over every beam,
        # and a narrow view failed as an inter-beam block of the plan's
        # width.
        ch = random_channel(6, 2, 6, seed=14)
        plan = make_plan(6, 6, 2, 3, "icp")
        views = share_csi(ch, plan)
        bad = {"two_views": views[:2],
               "fourth_view": views + [views[0]],
               "narrow_view": views[:2] + [views[2][:, :1]]}[case]
        with pytest.raises(ConfigError, match="views of shapes"):
            assemble_multigateway_precoder(bad, plan, 5.0)


def test_gateway_module_reaches_no_design_internals():
    # The design pass lives in satprecode.precoding; the gateway layer
    # holds plans, CSI sharing and overhead, and calls the pass as a whole.
    tree = ast.parse(inspect.getsource(satprecode.gateway))
    imported = {(node.module, alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {name for _, name in imported} & {
        "_intrabeam", "_mbim_blocks", "_rzf_blocks", "linalg"}
    assert not {module for module, _ in imported} & {"linalg", "satprecode.linalg"}

"""Unit + property tests for adaptive striping (Eqs. 2-6)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import LustreSpec
from repro.core.striping import (
    adaptive_plan,
    default_plan,
    eq5_plan,
    layout_for_ranges,
)
from repro.units import GiB, MiB

LUSTRE = LustreSpec()  # 248 OSTs, alpha = 8, S_max = 1 GiB


class TestCase1FewServers:
    """servers < OSTs: Eqs. 2-4."""

    def test_eq2_per_server_capped_by_alpha(self):
        plan = adaptive_plan(64 * GiB, servers=4, lustre=LUSTRE)
        # 248 // 4 = 62 > alpha = 8 -> C_per_server = 8.
        assert plan.per_server_osts == 8

    def test_eq2_per_server_capped_by_division(self):
        plan = adaptive_plan(64 * GiB, servers=100, lustre=LUSTRE)
        # 248 // 100 = 2 < alpha.
        assert plan.per_server_osts == 2

    def test_ost_sets_are_disjoint(self):
        plan = adaptive_plan(64 * GiB, servers=16, lustre=LUSTRE)
        seen = set()
        for s in plan.layout.ost_sets:
            assert not (seen & set(s)), "server OST sets overlap"
            seen |= set(s)

    def test_eq3_stripe_size(self):
        file_size = 64 * GiB
        plan = adaptive_plan(file_size, servers=4, lustre=LUSTRE)
        expected = min(file_size / (4 * 8), LUSTRE.max_stripe_size)
        assert plan.stripe_size == pytest.approx(expected)

    def test_eq3_stripe_size_capped_by_smax(self):
        plan = adaptive_plan(10_000 * GiB, servers=2, lustre=LUSTRE)
        assert plan.stripe_size == LUSTRE.max_stripe_size

    def test_eq4_stripe_count_capped_by_osts(self):
        plan = adaptive_plan(10_000 * GiB, servers=2, lustre=LUSTRE)
        assert plan.stripe_count <= LUSTRE.osts

    def test_layout_balanced(self):
        plan = adaptive_plan(64 * GiB, servers=31, lustre=LUSTRE)
        assert plan.layout.imbalance() == 1.0

    def test_single_server(self):
        plan = adaptive_plan(1 * GiB, servers=1, lustre=LUSTRE)
        assert plan.per_server_osts == 8
        assert plan.layout.writers == 1


class TestCase2ManyServers:
    """servers >= OSTs: Eqs. 5-6."""

    def test_eq6_paper_example(self):
        """§II-D: 512 servers, 248 OSTs -> C_dum = 744, not 512."""
        plan = adaptive_plan(64 * GiB, servers=512, lustre=LUSTRE)
        assert plan.dum_servers == 744
        assert plan.stripe_size == pytest.approx(64 * GiB / 744)

    def test_eq6_no_change_when_divisible(self):
        lustre = LustreSpec(osts=64)
        plan = adaptive_plan(64 * GiB, servers=128, lustre=lustre)
        assert plan.dum_servers == 128

    def test_adaptive_beats_eq5_on_imbalance(self):
        """Eq. 6's entire point: the straggler OSTs disappear."""
        adaptive = adaptive_plan(64 * GiB, servers=512, lustre=LUSTRE)
        naive = eq5_plan(64 * GiB, servers=512, lustre=LUSTRE)
        assert naive.layout.imbalance() > 1.3
        assert adaptive.layout.imbalance() < naive.layout.imbalance()
        assert adaptive.layout.imbalance() < 1.15

    def test_eq5_staggers_16_osts(self):
        naive = eq5_plan(64 * GiB, servers=512, lustre=LUSTRE)
        loads = naive.layout.ost_loads()
        assert loads.count(3) == 16

    def test_all_osts_engaged(self):
        plan = adaptive_plan(64 * GiB, servers=496, lustre=LUSTRE)
        assert plan.layout.engaged_osts() == LUSTRE.osts

    def test_boundary_zone_engages_all_osts(self):
        """128 servers on 248 OSTs: Eq. 2's floor would strand 120 OSTs;
        the balanced layout engages all of them instead."""
        plan = adaptive_plan(64 * GiB, servers=128, lustre=LUSTRE)
        assert plan.layout.engaged_osts() == LUSTRE.osts
        assert plan.layout.imbalance() == pytest.approx(1.0)


class TestDefaultPlan:
    def test_wide_striping(self):
        plan = default_plan(64 * GiB, servers=16, lustre=LUSTRE)
        # 64 GiB / 16 servers = 4 GiB per server = 4096 default stripes:
        # every server touches every OST.
        assert plan.per_server_osts == LUSTRE.osts
        assert not plan.adaptive

    def test_adaptive_touches_fewer_osts_per_server(self):
        adaptive = adaptive_plan(64 * GiB, servers=16, lustre=LUSTRE)
        default = default_plan(64 * GiB, servers=16, lustre=LUSTRE)
        assert (adaptive.layout.stripe_count_per_writer
                < default.layout.stripe_count_per_writer)

    def test_small_file_narrow(self):
        plan = default_plan(8 * MiB, servers=2, lustre=LUSTRE)
        assert plan.layout.stripe_count_per_writer <= 5


class TestLayoutForRanges:
    def test_contiguous_ranges_cover_all_stripes(self):
        layout = layout_for_ranges(100.0, servers=4, stripe_size=10.0,
                                   osts=16)
        # 10 stripes over 4 servers: servers touch consecutive OST runs.
        assert layout.writers == 4
        touched = set()
        for s in layout.ost_sets:
            touched |= set(s)
        assert touched == set(range(10))

    @pytest.mark.parametrize("file_size", [1.0, 10.0, 7.0])
    def test_ranges_inside_one_byte_of_a_boundary(self, file_size):
        """A tiny flush over many servers: a range's last byte straddles
        a stripe boundary (sub-byte stripes at 1 B).  Every range still
        maps onto stripes that hold all of it (the weights used to sum
        to 0.75 and the layout raised)."""
        plan = adaptive_plan(file_size, 6, LustreSpec(osts=8))
        for weights in plan.layout.weights:
            assert sum(weights) == pytest.approx(1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            layout_for_ranges(10, 0, 1, 4)
        with pytest.raises(ValueError):
            layout_for_ranges(10, 1, 0, 4)


class TestInvalidInputs:
    def test_bad_file_size(self):
        with pytest.raises(ValueError):
            adaptive_plan(0, 4, LUSTRE)

    def test_bad_servers(self):
        with pytest.raises(ValueError):
            adaptive_plan(1 * GiB, 0, LUSTRE)


class TestStripingProperties:
    @given(servers=st.integers(min_value=1, max_value=2048),
           gib=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=300, deadline=None)
    def test_plan_invariants(self, servers, gib):
        """Eq. 2-6 bounds hold for any (servers, file size)."""
        plan = adaptive_plan(gib * GiB, servers, LUSTRE)
        assert plan.stripe_size > 0
        assert 1 <= plan.stripe_count <= LUSTRE.osts
        assert plan.layout.writers == servers
        assert 1 <= plan.per_server_osts <= LUSTRE.osts
        if LUSTRE.osts // servers >= 2:
            # Case 1: Eq. 2 cap and disjointness.
            assert plan.per_server_osts <= LUSTRE.saturation_stripe_count
            assert plan.stripe_size <= LUSTRE.max_stripe_size * (1 + 1e-9)
        else:
            # Case 2 (Eq. 6): dum_servers is a multiple of the OST count
            # and the layout engages every OST.
            assert plan.dum_servers % LUSTRE.osts == 0
            assert plan.dum_servers >= servers
            assert plan.layout.engaged_osts() == LUSTRE.osts

    @given(servers=st.integers(min_value=248, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_case2_near_balanced(self, servers):
        plan = adaptive_plan(64 * GiB, servers, LUSTRE)
        assert plan.layout.imbalance() <= 1.51

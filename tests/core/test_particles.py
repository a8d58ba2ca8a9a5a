"""ColumnBlock and ParticleSet container semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ColumnBlock, ParticleSet, row_ranges


class TestColumnBlock:
    def make(self, n=5):
        return ColumnBlock(
            pos=np.arange(n * 3, dtype=float).reshape(n, 3),
            q=np.arange(n, dtype=float),
        )

    def test_n_and_names(self):
        b = self.make()
        assert b.n == 5
        assert b.names() == ["pos", "q"]
        assert "pos" in b and "w" not in b

    def test_nbytes(self):
        b = self.make(4)
        assert b.nbytes == 4 * 3 * 8 + 4 * 8

    def test_length_mismatch(self):
        b = self.make(5)
        with pytest.raises(ValueError):
            b["bad"] = np.zeros(4)

    def test_take(self):
        b = self.make()
        t = b.take(np.array([3, 1]))
        assert t.n == 2
        np.testing.assert_allclose(t["q"], [3.0, 1.0])

    def test_row_slice_is_view(self):
        b = self.make()
        s = b.row_slice(1, 3)
        assert s.n == 2
        s["q"][0] = 99.0
        assert b["q"][1] == 99.0  # shares memory

    def test_concat(self):
        a, b = self.make(2), self.make(3)
        c = ColumnBlock.concat([a, b])
        assert c.n == 5
        np.testing.assert_allclose(c["q"], [0, 1, 0, 1, 2])

    def test_concat_mismatch(self):
        a = self.make(2)
        b = ColumnBlock(q=np.zeros(2))
        with pytest.raises(ValueError):
            ColumnBlock.concat([a, b])

    def test_concat_empty_list(self):
        with pytest.raises(ValueError):
            ColumnBlock.concat([])

    def test_empty_like(self):
        b = self.make()
        e = ColumnBlock.empty_like(b, 0)
        assert e.n == 0
        assert e["pos"].shape == (0, 3)

    def test_permute_inplace(self):
        b = self.make(3)
        b.permute_inplace(np.array([2, 0, 1]))
        np.testing.assert_allclose(b["q"], [2, 0, 1])

    def test_permute_bad_shape(self):
        b = self.make(3)
        with pytest.raises(ValueError):
            b.permute_inplace(np.array([0, 1]))

    def test_drop(self):
        b = self.make()
        d = b.drop("pos")
        assert d.names() == ["q"]
        assert b.names() == ["pos", "q"]  # original untouched

    def test_payload_tuple(self):
        b = self.make(2)
        p = b.payload()
        assert isinstance(p, tuple) and len(p) == 2

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_copy_independent(self, n):
        b = ColumnBlock(x=np.zeros(n))
        c = b.copy()
        if n:
            c["x"][0] = 1.0
            assert b["x"][0] == 0.0


class TestParticleSet:
    def make(self, counts=(3, 0, 5)):
        rng = np.random.default_rng(0)
        pos = [rng.uniform(0, 1, (c, 3)) for c in counts]
        q = [np.ones(c) for c in counts]
        return ParticleSet(pos, q)

    def test_counts_total(self):
        ps = self.make()
        np.testing.assert_array_equal(ps.counts(), [3, 0, 5])
        assert ps.total() == 8
        assert ps.nlocal(2) == 5

    def test_default_capacity_covers(self):
        ps = self.make()
        assert all(c >= n for c, n in zip(ps.capacities, ps.counts()))

    def test_fits(self):
        ps = self.make()
        assert ps.fits([1, 1, 1])
        assert not ps.fits([10 ** 9, 0, 0])

    def test_capacity_below_count_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 3))], [np.zeros(3)], capacities=[2])

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ValueError):
            ParticleSet([np.zeros((3, 3))], [np.zeros(4)])

    def test_replace(self):
        ps = self.make()
        ps.replace(1, np.zeros((2, 3)), np.ones(2), np.zeros(2), np.zeros((2, 3)))
        assert ps.nlocal(1) == 2

    def test_replace_inconsistent(self):
        ps = self.make()
        with pytest.raises(ValueError):
            ps.replace(0, np.zeros((2, 3)), np.ones(3), np.zeros(2), np.zeros((2, 3)))

    def test_gather_views(self):
        ps = self.make()
        assert ps.gather_positions().shape == (8, 3)
        assert ps.gather_charges().shape == (8,)
        assert ps.gather_potentials().shape == (8,)
        assert ps.gather_fields().shape == (8, 3)


@given(
    st.lists(st.tuples(st.integers(0, 120), st.integers(0, 6)), max_size=12),
    st.sampled_from([np.int64, np.int16, np.int8]),
)
@settings(max_examples=60, deadline=None)
def test_row_ranges_concatenates_aranges(segments, dtype):
    starts = [s for s, _ in segments]
    lengths = [n for _, n in segments]
    out = row_ranges(np.asarray(starts), np.asarray(lengths), dtype)
    expected = [i for s, n in segments for i in range(s, s + n)]
    assert out.dtype == dtype
    assert out.tolist() == expected

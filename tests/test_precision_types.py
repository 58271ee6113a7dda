"""Unit tests for repro.precision.types."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.precision import (
    BF16,
    FP16,
    FP32,
    FP64,
    FloatFormat,
    count_out_of_range,
    count_subnormal,
    finite_abs_range,
    finite_max_abs,
    fp16_distance,
    get_format,
    range_counts,
    round_to_bf16,
    truncate,
    would_overflow,
    would_underflow,
)


class TestFormats:
    def test_itemsizes(self):
        assert FP64.itemsize == 8
        assert FP32.itemsize == 4
        assert FP16.itemsize == 2
        assert BF16.itemsize == 2  # accounting size, held in float32

    def test_bits(self):
        assert FP64.bits == 64 and FP16.bits == 16

    def test_fp16_constants_match_ieee(self):
        assert FP16.max == 65504.0
        assert FP16.min_normal == pytest.approx(2.0**-14)
        assert FP16.tiny == pytest.approx(2.0**-24)
        assert FP16.eps == pytest.approx(2.0**-10)

    def test_bf16_range_matches_fp32(self):
        assert BF16.max > 3e38
        assert BF16.min_normal == FP32.min_normal
        assert BF16.eps == pytest.approx(2.0**-7)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("fp64", FP64),
            ("FP32", FP32),
            ("half", FP16),
            ("16", FP16),
            ("double", FP64),
            ("bf16", BF16),
        ],
    )
    def test_get_format_aliases(self, name, expected):
        assert get_format(name) is expected

    def test_get_format_passthrough(self):
        assert get_format(FP16) is FP16

    def test_get_format_unknown(self):
        with pytest.raises(ValueError, match="unknown float format"):
            get_format("fp8")


class TestTruncate:
    def test_fp16_in_range(self):
        x = np.array([1.0, -2.5, 1000.0])
        y = truncate(x, "fp16")
        assert y.dtype == np.float16
        np.testing.assert_allclose(y.astype(np.float64), x, rtol=1e-3)

    def test_fp16_overflow_becomes_inf(self):
        y = truncate(np.array([1e5, -1e5]), "fp16")
        assert np.isinf(y).all()

    def test_fp16_underflow_flushes(self):
        y = truncate(np.array([1e-9]), "fp16")
        assert y[0] == 0.0

    def test_fp64_roundtrip_identity(self):
        x = np.array([1.234567890123456])
        assert truncate(x, "fp64")[0] == x[0]

    def test_bf16_returns_float32(self):
        y = truncate(np.array([1.0, 2.0]), "bf16")
        assert y.dtype == np.float32


class TestBF16:
    def test_exactly_representable_values_unchanged(self):
        # values with <= 8 mantissa bits are exact in bf16
        x = np.array([1.0, 1.5, -0.375, 2.0**20, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(round_to_bf16(x), x)

    def test_rounding_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000).astype(np.float32)
        y = round_to_bf16(x)
        rel = np.abs(y - x) / np.abs(x)
        assert rel.max() <= 2.0**-8  # half an ulp of 8-bit mantissa

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100).astype(np.float32) * 1e10
        y = round_to_bf16(x)
        np.testing.assert_array_equal(round_to_bf16(y), y)

    def test_nan_preserved(self):
        y = round_to_bf16(np.array([np.nan, 1.0], dtype=np.float32))
        assert np.isnan(y[0]) and y[1] == 1.0

    def test_shape_preserved(self):
        assert round_to_bf16(np.ones((3, 4, 5))).shape == (3, 4, 5)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_monotone_error(self, v):
        y = float(round_to_bf16(np.array([v], dtype=np.float32))[0])
        if v != 0 and np.isfinite(y):
            assert abs(y - v) <= max(abs(v) * 2.0**-8, 1e-44)


class TestRangeChecks:
    def test_count_out_of_range(self):
        x = np.array([1e5, 1.0, 1e-9, -2e5, 0.0])
        over, under = count_out_of_range(x, "fp16")
        assert over == 2 and under == 1

    def test_inf_not_counted_as_overflow(self):
        over, _ = count_out_of_range(np.array([np.inf]), "fp16")
        assert over == 0

    def test_would_overflow(self):
        assert would_overflow(np.array([7e4]), "fp16")
        assert not would_overflow(np.array([6e4]), "fp16")

    def test_would_underflow(self):
        assert would_underflow(np.array([1e-9]), "fp16")
        assert not would_underflow(np.array([1e-4]), "fp16")

    def test_finite_abs_range(self):
        lo, hi = finite_abs_range(np.array([0.0, -3.0, 0.5, np.inf, np.nan]))
        assert lo == 0.5 and hi == 3.0

    def test_finite_abs_range_empty(self):
        assert finite_abs_range(np.array([0.0, np.nan])) == (0.0, 0.0)


def _masked_reference(x, fmt):
    """The copy-and-mask counts the copy-free audit must reproduce."""
    fmt = get_format(fmt)
    a = np.abs(np.asarray(x, dtype=np.float64))
    finite = np.isfinite(a)
    return {
        "n_nonzero": int(np.count_nonzero(x)),
        "n_nonfinite": int(a.size - np.count_nonzero(finite)),
        "n_overflow": int(np.count_nonzero(finite & (a > fmt.max))),
        "n_underflow": int(np.count_nonzero((a > 0) & (a < fmt.tiny))),
        "n_subnormal": int(
            np.count_nonzero((a >= fmt.tiny) & (a < fmt.min_normal))
        ),
        "max_abs": float(a[finite].max()) if finite.any() else 0.0,
    }


class TestCopyFreeAudit:
    """``range_counts``/``finite_max_abs``/``count_subnormal`` are exact."""

    EDGES = [
        0.0, -0.0, 1.0, -1.0, 65504.0, -65504.0, 65520.0, -7e4, 1e39, -1e300,
        2.0**-24, -(2.0**-24), 2.0**-25, 2.0**-14, -(2.0**-15), 1e-46, -1e-320,
        np.inf, -np.inf, np.nan,
    ]

    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "fp32", "fp64"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("subset", ["all", "finite", "in_range", "empty"])
    def test_matches_masked_reference(self, fmt, dtype, subset):
        rng = np.random.default_rng(7)
        with np.errstate(over="ignore"):
            edges = np.asarray(self.EDGES, dtype=np.float64).astype(dtype)
            vals = np.concatenate([
                edges, (rng.standard_normal(200) * 10.0 ** rng.integers(-12, 8, 200))
            ]).astype(dtype)
        if subset == "finite":
            vals = vals[np.isfinite(vals)]
        elif subset == "in_range":
            vals = vals[np.isfinite(vals) & (np.abs(vals) <= 6e4)]
        elif subset == "empty":
            vals = vals[:0]
        vals = rng.permutation(vals).reshape(-1, 1)
        ref = _masked_reference(vals, fmt)
        got = range_counts(vals, fmt)
        assert got._asdict() == {k: ref[k] for k in got._fields}
        assert count_out_of_range(vals, fmt) == (ref["n_overflow"], ref["n_underflow"])
        assert count_subnormal(vals, fmt) == ref["n_subnormal"]
        assert finite_max_abs(vals) == ref["max_abs"]

    def test_integer_input(self):
        assert range_counts([0, 3, 70000], "fp16") == (2, 0, 1, 0)
        assert finite_max_abs([-5, 2]) == 5.0


class TestFP16Distance:
    def test_in_range(self):
        assert fp16_distance(np.array([1.0, 100.0]))[0] == "none"

    def test_near(self):
        label, dec = fp16_distance(np.array([1.0, 3e5]))
        assert label == "near" and 0 < dec < 2

    def test_far(self):
        label, dec = fp16_distance(np.array([1.0, 1e9]))
        assert label == "far" and dec > 2

    def test_underflow_side(self):
        label, _ = fp16_distance(np.array([1e-12, 1.0]))
        assert label in ("near", "far")

    def test_all_zero(self):
        assert fp16_distance(np.zeros(3)) == ("none", 0.0)


@given(
    st.lists(
        st.floats(
            min_value=-6e4, max_value=6e4, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=50,
    )
)
def test_truncate_in_range_values_stay_finite(values):
    y = truncate(np.asarray(values), "fp16")
    assert np.isfinite(y).all()


@given(
    st.lists(
        st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_truncate_relative_error_bound(values):
    x = np.asarray(values)
    y = truncate(x, "fp16").astype(np.float64)
    finite = np.isfinite(y) & (np.abs(x) >= FP16.min_normal)
    if finite.any():
        rel = np.abs(y[finite] - x[finite]) / np.abs(x[finite])
        assert rel.max() <= 2.0**-11 + 1e-12  # half ulp of 10-bit mantissa

"""Step-size schedule values, flags, and spec-string parsing."""

import math

import numpy as np
import pytest

from conftest import Custom
from netalloc import PowerLaw, Recip, RecipSqrt, parse_schedule


class TestValues:
    def test_recip_sqrt(self):
        s = RecipSqrt()
        assert s.alpha(0) == 1.0
        assert s.alpha(1) == 1.0
        assert s.alpha(4) == 0.5
        assert s.alpha(2) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_recip(self):
        s = Recip()
        assert s.alpha(0) == 1.0
        assert s.alpha(1) == 1.0
        assert s.alpha(10) == 0.1

    def test_power_law(self):
        s = PowerLaw(0.08, 0.85)
        assert s.alpha(0) == 0.08
        assert s.alpha(1) == 0.08
        assert s.alpha(2) == pytest.approx(0.08 / 2**0.85)


class TestFlags:
    def test_normalized_flag(self):
        assert RecipSqrt().normalized
        assert Recip().normalized
        assert PowerLaw(1.0, 0.75).normalized
        assert not PowerLaw(0.08, 0.85).normalized

    def test_custom_flags(self):
        assert Custom(lambda k: 1.0 / (k + 1)).normalized
        assert not Custom(lambda k: 0.5).normalized


class TestValidation:
    def test_power_law_parameter_ranges(self):
        for c in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^power-law coefficient must be finite and positive, got {c}$"):
                PowerLaw(c, 0.85)
        with pytest.raises(ValueError, match="exponent"):
            PowerLaw(1.0, 0.5)
        with pytest.raises(ValueError, match="exponent"):
            PowerLaw(1.0, 1.5)

    def test_custom_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Custom(lambda k: 1.0 - k).alphas(3)

    def test_custom_nonincreasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Custom(lambda k: float(k + 1)).alphas(3)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match=r"^count must be nonnegative, got -5$"):
            RecipSqrt().alphas(-5)

    def test_alphas_prefix(self):
        np.testing.assert_allclose(
            Recip().alphas(4), [1.0, 1.0, 0.5, 1.0 / 3.0], atol=1e-15
        )

    @pytest.mark.parametrize("sched", [RecipSqrt(), Recip()], ids=["recip-sqrt", "recip"])
    def test_closed_form_alphas_have_the_bits_of_alpha(self, sched):
        # IEEE sqrt and division round correctly, so numpy's arrays and the
        # per-k floats agree bit for bit
        count = 10**6
        expected = np.array([sched.alpha(k) for k in range(count)], dtype=float)
        assert sched.alphas(count).tobytes() == expected.tobytes()
        assert sched.alphas(0).shape == (0,)
        assert sched.alphas(1).tolist() == [1.0]


class TestParsing:
    def test_round_trip_names(self):
        for spec, cls in (("recip-sqrt", RecipSqrt), ("recip", Recip)):
            assert isinstance(parse_schedule(spec), cls)

    def test_power_law_spec(self):
        s = parse_schedule("powerlaw:0.08:0.85")
        assert isinstance(s, PowerLaw) and s.c == 0.08 and s.p == 0.85

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_schedule("constant")

    def test_rejects_malformed_power_law(self):
        with pytest.raises(ValueError, match="powerlaw"):
            parse_schedule("powerlaw:0.08")

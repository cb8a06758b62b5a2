import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fcoherence.errors import ParamOutOfRange, UnknownGenerator
from fcoherence.generators import lookup, neg_log, power, tsallis

BUILTIN_SPECS = ["neg_log", "power:0.5", "power:1.5", "tsallis:0.5", "tsallis:1.5"]
# Log-spaced grid for the sampled convexity and monotonicity checks.
GRID = 2.0 ** np.arange(-20, 21)


class TestHandValues:
    def test_neg_log_at_four(self):
        assert neg_log()(4.0) == pytest.approx(-math.log(4.0))

    def test_power_half_at_four(self):
        # (1 - 4**0.5) / (0.5 * 0.5) = -1 / 0.25
        assert power(0.5)(4.0) == pytest.approx(-4.0)

    def test_tsallis_half_at_four(self):
        # (1 - 4**0.5) / 0.5 = -1 / 0.5
        assert tsallis(0.5)(4.0) == pytest.approx(-2.0)

    def test_power_three_halves_at_four(self):
        # (1 - 8) / (1.5 * -0.5) = 28/3
        assert power(1.5)(4.0) == pytest.approx(28.0 / 3.0)

    @pytest.mark.parametrize("spec", BUILTIN_SPECS)
    def test_builtins_vanish_at_one(self, spec):
        assert float(lookup(spec)(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_evaluates_arrays(self):
        f = power(0.5)
        np.testing.assert_allclose(f([1.0, 4.0]), [0.0, -4.0], atol=1e-12)


class TestTails:
    def test_neg_log(self):
        f = neg_log()
        assert f.limit_at_zero == math.inf
        assert f.weighted_inf_limit == 0.0

    def test_power_half(self):
        f = power(0.5)
        assert f.limit_at_zero == pytest.approx(4.0)
        assert f.weighted_inf_limit == 0.0

    def test_power_negative_exponent(self):
        f = power(-0.5)
        assert f.limit_at_zero == math.inf
        assert f.weighted_inf_limit == 0.0

    def test_power_three_halves(self):
        f = power(1.5)
        assert f.limit_at_zero == pytest.approx(1.0 / (1.5 * (1.0 - 1.5)))
        assert f.weighted_inf_limit == math.inf

    def test_tsallis_below_one(self):
        f = tsallis(0.5)
        assert f.limit_at_zero == pytest.approx(2.0)
        assert f.weighted_inf_limit == 0.0

    def test_tsallis_above_one(self):
        f = tsallis(1.5)
        assert f.limit_at_zero == math.inf
        assert f.weighted_inf_limit == 0.0

    def test_tails_match_small_argument_samples(self):
        for spec in BUILTIN_SPECS:
            f = lookup(spec)
            if math.isinf(f.limit_at_zero):
                assert float(f(1e-12)) > float(f(1e-6)) > 0.0, spec
            else:
                assert float(f(1e-12)) == pytest.approx(f.limit_at_zero, abs=1e-4), spec


class TestMonotoneFlag:
    @pytest.mark.parametrize(
        "spec,decreasing",
        [
            ("neg_log", True),
            ("power:0.5", True),
            ("power:-0.5", True),
            ("power:1.5", False),
            ("tsallis:0.5", True),
            ("tsallis:1.5", True),
        ],
    )
    def test_flag(self, spec, decreasing):
        assert lookup(spec).monotone_decreasing is decreasing

    def test_power_three_halves_actually_increases(self):
        vals = power(1.5)(GRID)
        assert np.all(np.diff(vals) > 0)


# Parameters that are not real numbers: the predicate takes numbers.Real
# other than bool, short of an int too large for a float. A 0-d array and
# a Decimal are not numbers.Real, so they are rejected too.
NOT_REAL = [10**400, -(10**400), None, 1j, "x", "0.5", [0.5], True, False, np.array(0.5), Decimal("0.5")]
NOT_REAL_IDS = ["huge_int", "huge_negative_int", "None", "complex", "str", "numeric_str", "list", "True", "False",
                "0d_array", "Decimal"]


class TestParamValidation:
    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0, 2.5, -3.0, math.nan])
    def test_power_rejects(self, p):
        with pytest.raises(ParamOutOfRange):
            power(p)

    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0, -0.5, 3.0, math.nan])
    def test_tsallis_rejects(self, q):
        with pytest.raises(ParamOutOfRange):
            tsallis(q)

    @pytest.mark.parametrize("p", [-0.99, -0.5, 0.3, 0.5, 1.5, 1.99])
    def test_power_accepts_interior(self, p):
        power(p)

    @pytest.mark.parametrize("q", [0.01, 0.5, 1.5, 1.99])
    def test_tsallis_accepts_interior(self, q):
        tsallis(q)

    @pytest.mark.parametrize("make", [power, tsallis])
    @pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
    def test_rejects_what_is_not_a_real_number(self, make, value):
        # ParamOutOfRange naming the value, not the error float() of it raises.
        with pytest.raises(ParamOutOfRange, match=re.escape(f"must be a real number, got {value!r}")):
            make(value)

    @pytest.mark.parametrize("make", [power, tsallis])
    def test_real_out_of_range_names_the_range(self, make):
        with pytest.raises(ParamOutOfRange, match=re.escape("must lie in")):
            make(np.float64(2.5))

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)], ids=repr)
    def test_accepts_every_real_type(self, value):
        assert power(value).name == "power:0.5"
        assert tsallis(value).name == "tsallis:0.5"


class TestLookup:
    def test_neg_log(self):
        assert lookup("neg_log").name == "neg_log"

    def test_parameterized(self):
        assert lookup("power:0.5")(4.0) == pytest.approx(-4.0)

    def test_unknown_family(self):
        with pytest.raises(UnknownGenerator):
            lookup("bogus")

    def test_unparseable_parameter(self):
        with pytest.raises(UnknownGenerator):
            lookup("power:abc")

    def test_out_of_range_parameter(self):
        with pytest.raises(ParamOutOfRange):
            lookup("power:2.5")

    def test_missing_parameter(self):
        with pytest.raises(UnknownGenerator):
            lookup("power")

    def test_neg_log_rejects_parameter(self):
        with pytest.raises(UnknownGenerator):
            lookup("neg_log:0.3")

    @pytest.mark.parametrize(
        "make,p",
        [(power, -0.99999999), (tsallis, 1 + 1e-7), (power, 1e-320), (power, 1 / 3), (tsallis, 1 / 3)],
        ids=["power:-0.99999999", "tsallis:1+1e-7", "power:1e-320", "power:1/3", "tsallis:1/3"],
    )
    def test_name_rebuilds_the_parameter(self, make, p):
        f = make(p)
        g = lookup(f.name)
        # The shortest repr that reads back as p, not 6 significant digits.
        assert f.name.partition(":")[2] == repr(p) and float(repr(p)) == p
        assert g.name == f.name and g(0.3) == f(0.3)

    @pytest.mark.parametrize("spec", [None, 0.5, b"neg_log", ["neg_log"]], ids=repr)
    def test_non_string_spec(self, spec):
        with pytest.raises(UnknownGenerator, match=re.escape(repr(spec))):
            lookup(spec)


class TestTranspose:
    @pytest.mark.parametrize("spec", BUILTIN_SPECS)
    def test_pointwise_identity(self, spec):
        f = lookup(spec)
        g = f.transpose()
        for x in GRID:
            assert float(g(x)) == pytest.approx(x * float(f(1.0 / x)), rel=1e-12), (spec, x)

    def test_swaps_tails(self):
        f = tsallis(0.5)
        g = f.transpose()
        assert g.limit_at_zero == f.weighted_inf_limit
        assert g.weighted_inf_limit == f.limit_at_zero

    def test_double_transpose_round_trips(self):
        f = power(0.5)
        g = f.transpose().transpose()
        for x in GRID:
            assert float(g(x)) == pytest.approx(float(f(x)), rel=1e-12)


def monotonicity_defect(f) -> float:
    """Worst increase f(x_{i+1}) - f(x_i) along the ascending GRID."""
    return float(np.diff(f(GRID)).max())


class TestGridDiagnostics:
    @pytest.mark.parametrize("spec", ["neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5"])
    def test_decreasing_builtins_never_increase(self, spec):
        assert monotonicity_defect(lookup(spec)) <= 0.0

    def test_increasing_builtin_flagged(self):
        assert monotonicity_defect(power(1.5)) > 0.0

    @pytest.mark.parametrize("spec", BUILTIN_SPECS)
    def test_convexity_defect_nonpositive(self, spec):
        # Worst midpoint-convexity violation f((x+y)/2) - (f(x)+f(y))/2 over GRID pairs.
        f = lookup(spec)
        xx, yy = np.meshgrid(GRID, GRID)
        assert float((f((xx + yy) / 2.0) - (f(xx) + f(yy)) / 2.0).max()) <= 1e-9


class TestTsallisLimit:
    def test_approaches_neg_log(self):
        # first-order error in |q - 1| is (ln x)^2 / 2 per point, far below
        # the tolerance on this narrow grid
        grid = 2.0 ** np.arange(-3, 4)
        ref = neg_log()
        for q in [1.0 - 1e-4, 1.0 + 1e-4]:
            f = tsallis(q)
            for x in grid:
                assert float(f(x)) == pytest.approx(float(ref(x)), abs=1e-3), (q, x)

"""Tests for the finite-difference gradient oracle itself, then the registry.

The oracle is validated against closed-form derivatives (linear, quadratic
and quartic functions where its stencils are exact to machine noise), against
deliberately wrong gradients that it must flag, and on the seeds where its
2-point difference alone failed a correct backward.
"""

import numpy as np
import pytest

from carafe import nn
from carafe.errors import CarafeError, NumericError
from carafe.gradcheck import (DEFAULT_TOL, FALLBACK_EPS, FOUR_POINT, REGISTRY,
                              CheckProblem, check_op, check_problem,
                              finite_diff_array, registered_ops, relative_error)


class TestRelativeError:
    def test_zero_for_equal(self):
        a = np.array([1.0, -2.0, 0.0])
        assert np.all(relative_error(a, a.copy()) == 0.0)

    def test_symmetric(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.5, -2.0])
        assert np.array_equal(relative_error(a, b), relative_error(b, a))

    def test_tiny_denominator_floor(self):
        # both near zero: denominator floors at 1e-12
        a = np.array([1e-15])
        b = np.array([0.0])
        assert relative_error(a, b)[0] == pytest.approx(1e-3)


class TestOracleClosedForms:
    def test_linear_function_exact(self):
        # f(x) = <c, x> has gradient c; central differences are exact for
        # linear functions up to rounding.
        rng = np.random.default_rng(40)
        c = rng.standard_normal((2, 3, 4, 4))
        x = rng.standard_normal((2, 3, 4, 4))
        g = finite_diff_array(lambda: float(np.sum(c * x)), x)
        np.testing.assert_allclose(g, c, rtol=1e-8)

    def test_quadratic_function_exact(self):
        # f(x) = sum(x^2): central differences cancel the cubic term, so the
        # estimate ((x+h)^2 - (x-h)^2) / 2h == 2x exactly.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((1, 2, 3, 3))
        g = finite_diff_array(lambda: float(np.sum(x ** 2)), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-7)

    def test_array_is_restored_exactly(self):
        rng = np.random.default_rng(42)
        arr = rng.standard_normal(10)
        before = arr.copy()
        finite_diff_array(lambda: float(np.sum(arr ** 3)), arr)
        assert np.array_equal(arr, before)

    def test_relative_step_scaling(self):
        # elements much larger than 1 get a proportional step, keeping the
        # quotient accurate for f(x) = sum(x^2) at x ~ 1e6
        arr = np.array([1e6, -3e6])
        g = finite_diff_array(lambda: float(np.sum(arr ** 2)), arr)
        np.testing.assert_allclose(g, 2 * arr, rtol=1e-9)

    def test_four_point_stencil_exact_on_quartics(self):
        # (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h has no truncation error
        # up to degree 4, so only rounding is left.
        arr = np.random.default_rng(45).standard_normal(8)
        g = finite_diff_array(lambda: float(np.sum(arr ** 4)), arr,
                              FALLBACK_EPS, stencil=FOUR_POINT)
        np.testing.assert_allclose(g, 4 * arr ** 3, rtol=1e-9, atol=1e-10)

    def test_indices_limit_the_elements_differenced(self):
        arr = np.arange(1.0, 6.0)
        calls = []

        def loss():
            calls.append(1)
            return float(np.sum(arr ** 2))

        g = finite_diff_array(loss, arr, indices=[1, 3])
        assert len(calls) == 4
        assert np.array_equal(g == 0, [True, False, True, False, True])
        np.testing.assert_allclose(g[[1, 3]], [4.0, 8.0], rtol=1e-7)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_array(lambda: 0.0, np.zeros(2), eps=0.0)

    def test_non_finite_loss_raises(self):
        arr = np.array([0.5])

        def loss():
            return float("inf") if arr[0] > 0.6 else float(arr[0])

        with pytest.raises(NumericError):
            finite_diff_array(loss, arr, eps=0.2)


class TestCheckProblem:
    @staticmethod
    def _quadratic_problem(wrong: bool):
        arr = np.random.default_rng(43).standard_normal(6)

        def loss():
            return float(np.sum(arr ** 2))

        def analytic():
            g = 2 * arr
            if wrong:
                g = g.copy()
                g[3] = -g[3]  # sign flip the oracle must catch
            return {"x": g}

        return CheckProblem(loss=loss, targets=[("x", arr)], analytic=analytic)

    def test_correct_gradient_passes(self):
        report = check_problem("quad", self._quadratic_problem(wrong=False))
        assert report.passed
        assert report.max_rel_error < 1e-8
        assert report.per_target == {"x": report.max_rel_error}

    def test_sign_flip_caught(self):
        report = check_problem("quad", self._quadratic_problem(wrong=True))
        assert not report.passed
        assert report.max_rel_error > 0.5
        assert report.worst_index == ("x", 3)

    def test_one_part_in_ten_thousand_caught(self):
        arr = np.random.default_rng(43).standard_normal(6)

        def analytic():
            g = 2 * arr
            g[2] *= 1 + 1e-4
            return {"x": g}

        problem = CheckProblem(loss=lambda: float(np.sum(arr ** 2)),
                               targets=[("x", arr)], analytic=analytic)
        report = check_problem("quad", problem)
        assert not report.passed
        assert report.worst_index == ("x", 2)
        assert report.max_rel_error == pytest.approx(1e-4, rel=1e-3)

    def test_rounding_noise_is_differenced_again_with_four_points(self):
        # Gradients of about 1e-3 under a loss of about 1e4: the 2-point
        # quotient at eps 1e-5 carries rounding of ~1e-12 / 2e-5 and misses
        # 1e-5 on some elements; only those are differenced again, with the
        # 4-point stencil at FALLBACK_EPS, and then every element passes.
        rng = np.random.default_rng(44)
        c = rng.uniform(-1e-3, 1e-3, 20)
        arr = rng.uniform(-1.0, 1.0, 20)
        calls = []

        def loss():
            calls.append(1)
            return float(1e4 + np.sum(c * arr))

        problem = CheckProblem(loss=loss, targets=[("x", arr)],
                               analytic=lambda: {"x": c.copy()})
        misses = int((relative_error(c, finite_diff_array(loss, arr))
                      >= DEFAULT_TOL).sum())
        assert misses
        calls.clear()
        report = check_problem("offset", problem)
        assert report.passed, report.to_payload()
        assert len(calls) == 2 * arr.size + 4 * misses

    def test_missing_analytic_target(self):
        arr = np.zeros(3)
        problem = CheckProblem(loss=lambda: 0.0, targets=[("x", arr)],
                               analytic=lambda: {})
        with pytest.raises(KeyError) as exc:
            check_problem("broken", problem)
        assert isinstance(exc.value, CarafeError)

    def test_report_payload_shape(self):
        report = check_problem("quad", self._quadratic_problem(wrong=False))
        payload = report.to_payload()
        assert payload["op"] == "quad"
        assert payload["passed"] is True
        assert set(payload) == {"op", "max_rel_error", "max_abs_error",
                                "worst_index", "tol", "passed", "per_target"}


class TestRegistry:
    def test_unknown_op(self):
        with pytest.raises(KeyError) as exc:
            check_op("warp")
        assert isinstance(exc.value, CarafeError)

    def test_registry_covers_core_and_baselines(self):
        ops = set(registered_ops())
        for needed in ("conv2d", "transposed_conv", "relu", "affine_norm",
                       "softmax_group", "pixel_shuffle", "reassemble_down",
                       "reassemble_up", "carafe_down", "carafe_up"):
            assert needed in ops

    @pytest.mark.parametrize("name", sorted(registered_ops()))
    def test_registered_op_passes(self, name, registry_report):
        report = registry_report(name)
        assert report.passed, (
            f"{name}: max rel error {report.max_rel_error:.3e} at "
            f"{report.worst_index}")

    # Seeds at which the 2-point difference alone failed these correct
    # backwards (max rel error 1.0e-5 to 1.7e-4, on elements whose gradient
    # is tiny next to the loss); with the 4-point fallback they pass on both
    # tiers.
    @pytest.mark.parametrize("tier", ["exact", "fast"])
    @pytest.mark.parametrize("seed", [4, 6, 9])
    @pytest.mark.parametrize("name", ["carafe_up", "carafe_up_sigmoid_norm"])
    def test_small_gradient_seeds_pass(self, name, seed, tier):
        with nn.exact_tier(tier == "exact"):
            report = check_op(name, seed=seed)
        assert report.passed, report.to_payload()

    def test_seed_changes_problem_not_outcome(self):
        a = check_op("conv2d", seed=1)
        b = check_op("conv2d", seed=2)
        assert a.passed and b.passed
        assert a.max_rel_error != b.max_rel_error


_CONV_TARGETS = ["x", "weights", "bias"]
_CARAFE_UP_TARGETS = ["x", "compressor.weights", "compressor.bias",
                      "encoder.weights", "encoder.bias"]
_CARAFE_DOWN_TARGETS = ["x", "compressor.weights", "encoder.weights",
                        "encoder.bias", "norm.gamma", "norm.beta"]

# Each op's target labels in order: the oracle breaks ties in worst_index by
# this order, so it is part of every report.
REGISTRY_TARGETS = {
    "conv2d": _CONV_TARGETS,
    "conv2d_strided": _CONV_TARGETS,
    "transposed_conv": _CONV_TARGETS,
    "relu": ["x"],
    "affine_norm": ["x", "gamma", "beta"],
    "softmax_group": ["x"],
    "pixel_shuffle": ["x"],
    "reassemble_down": ["x", "kernels"],
    "reassemble_up": ["x", "kernels"],
    "carafe_down": _CARAFE_DOWN_TARGETS,
    "carafe_up": _CARAFE_UP_TARGETS,
    "carafe_down_sigmoid": _CARAFE_DOWN_TARGETS,
    "carafe_up_sigmoid_norm": _CARAFE_UP_TARGETS,
    "nearest_up": ["x"],
    "bilinear_up": ["x"],
    "avg_pool": ["x"],
    "max_pool": ["x"],
    "strided_conv": _CONV_TARGETS,
    "deconv_baseline": _CONV_TARGETS,
    "nearest_plus_conv": _CONV_TARGETS,
    "bilinear_plus_conv": _CONV_TARGETS,
    "spatial_attention_down": _CONV_TARGETS,
    "spatial_attention_up": _CONV_TARGETS,
}


class TestRegistryTargets:
    def test_registered_names_in_order(self):
        assert registered_ops() == list(REGISTRY_TARGETS)

    @pytest.mark.parametrize("name", list(REGISTRY_TARGETS))
    def test_target_labels_in_order(self, name):
        problem = REGISTRY[name](0)
        assert [label for label, _ in problem.targets] == REGISTRY_TARGETS[name]
        assert sorted(problem.analytic()) == sorted(REGISTRY_TARGETS[name])

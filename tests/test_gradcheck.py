"""Finite-difference checker mechanics plus the shared suite smoke runs."""

import numpy as np
import pytest

from dmsn import gradsuite
from dmsn.gradsuite import grad_check, relative_error


def quadratic_case():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    params = {"x": rng.normal(size=3)}

    def loss_and_grad(p):
        x = p["x"]
        return float(x @ a @ x), {"x": (a + a.T) @ x}

    return loss_and_grad, params


def test_correct_gradient_passes():
    fn, params = quadratic_case()
    _, grads = fn(params)
    report = grad_check(lambda p: fn(p)[0], params, analytic_grads=grads,
                        probe_count=3, seed=0)
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_scaled_gradient_fails():
    fn, params = quadratic_case()
    loss0, grads = fn(params)
    bad = {"x": 2.0 * grads["x"]}

    def loss_only(p):
        return fn(p)[0]

    report = grad_check(loss_only, params, analytic_grads=bad, probe_count=3,
                        seed=0)
    assert not report.passed
    assert report.worst_param == "x"


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-15, 0.0) < 1e-2


def test_float32_params_rejected():
    fn, params = quadratic_case()
    params32 = {"x": params["x"].astype(np.float32)}
    _, grads = fn(params32)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda p: fn(p)[0], params32, analytic_grads=grads, seed=0)


@pytest.fixture(scope="module")
def clean_suites():
    return gradsuite.run_gradient_suites(seed=0, inject_bug=False)


def test_linear_layer_suite_passes(clean_suites):
    name, report = clean_suites[0]
    assert name == "layer linear"
    assert report.passed and report.max_rel_error < 1e-6


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_block_suites_pass(variant):
    report = gradsuite.check_block(variant, seed=0)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4


def test_injected_bug_is_detected():
    results = gradsuite.run_gradient_suites(seed=0, inject_bug=True)
    assert not results[0][1].passed


def test_injected_bug_fails_only_the_linear_weight(clean_suites):
    clean = clean_suites
    buggy = gradsuite.run_gradient_suites(seed=0, inject_bug=True)
    assert [name for name, _ in buggy] == [name for name, _ in clean]
    assert len(buggy) == 12
    failed = [name for name, report in buggy if not report.passed]
    assert failed == ["layer linear"]
    assert buggy[0][1].worst_param == "w"
    assert [r.summary() for _, r in buggy[1:]] == \
        [r.summary() for _, r in clean[1:]]


def test_maxpool_check_sees_a_scaled_backward(monkeypatch):
    backward = gradsuite.maxpool3d_backward
    monkeypatch.setattr(gradsuite, "maxpool3d_backward",
                        lambda *args: 1.5 * backward(*args))
    report = gradsuite.check_maxpool(0)
    assert not report.passed and report.worst_param == "x"

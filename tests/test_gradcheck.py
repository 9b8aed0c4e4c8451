"""The finite-difference component registry."""

import inspect

import numpy as np
import pytest

import vaecomm.gradcheck as gradcheck
from vaecomm.errors import DomainError
from vaecomm.gradcheck import component_names, run_all, run_component
from vaecomm.layers import BatchNorm1D, Conv1D, GaussianSampling, PowerNormalization, elu
from vaecomm.model import STAGES, CommSystem, SystemConfig
from vaecomm.tensor import from_op


def test_every_component_passes_at_reduced_trials():
    reports = run_all(trials=5, seed=3)
    assert len(reports) == len(component_names())
    for r in reports:
        assert r.passed, f"{r.name} failed with max rel err {r.max_rel_err}"
        assert r.max_rel_err < 1e-4
        assert r.trials == 5


def test_registry_covers_layers_and_losses():
    names = component_names()
    for required in ("elementwise_chain", "conv1d_k1_input", "conv1d_weight", "batchnorm_train",
                     "batchnorm_eval", "gaussian_sampling_mu", "gaussian_sampling_logvar",
                     "power_norm", "power_norm_per_position", "elu", "softmax", "kl_mu",
                     "softmax_binary_cross_entropy", "beta_vae_loss"):
        assert required in names


# the gradcheck components that check each kind of layer in model.STAGES; a
# stateless stage is keyed by its function
STAGE_COMPONENTS = {
    Conv1D: ("conv1d_k1_input", "conv1d_weight"),
    elu: ("elu",),
    BatchNorm1D: ("batchnorm_train", "batchnorm_eval"),
    GaussianSampling: ("gaussian_sampling_mu", "gaussian_sampling_logvar"),
    PowerNormalization: ("power_norm", "power_norm_per_position"),
}


def test_every_stage_layer_has_a_gradcheck_component():
    system = CommSystem(SystemConfig(k=2, n=1, hidden_filters=4, block_length=3))
    for stage in STAGES:
        layer = getattr(system, stage.name)
        kind = layer if inspect.isfunction(layer) else type(layer)
        assert kind in STAGE_COMPONENTS, f"stage {stage.name} has no gradcheck component"
        assert set(STAGE_COMPONENTS[kind]) <= set(component_names()), stage.name


def test_reports_are_deterministic():
    a = run_component("softmax", trials=4, seed=9)
    b = run_component("softmax", trials=4, seed=9)
    assert a == b


def test_unknown_component_is_rejected():
    with pytest.raises(KeyError, match="unknown component"):
        run_component("does_not_exist", trials=1)


def test_fewer_than_one_trial_is_rejected():
    with pytest.raises(DomainError, match="trials"):
        run_component("softmax", trials=0)
    with pytest.raises(DomainError, match="trials"):
        run_all(trials=-1)


@pytest.mark.parametrize("trials", [True, 2.5, 2.0])
def test_a_trial_count_that_is_not_an_integer_is_rejected(trials):
    # True was recorded as trials=True; 2.5 raised a bare TypeError
    with pytest.raises(DomainError, match="trials"):
        run_component("softmax", trials=trials)


def test_too_strict_tolerance_fails():
    report = run_component("beta_vae_loss", trials=3, rel_tol=1e-12, seed=0)
    assert not report.passed
    assert report.max_rel_err > 1e-12


def test_injected_broken_backward_is_caught(monkeypatch):
    def broken_builder(rng):
        x0 = rng.normal(size=(3,))
        def f(x):
            # deliberately wrong gradient: claims d/dx(x*x) = x
            return from_op(
                np.array(float((x.data * x.data).sum())),
                (x,),
                lambda g: (g * x.data,),
            )
        return f, x0

    monkeypatch.setattr(gradcheck, "REGISTRY",
                        gradcheck.REGISTRY + (("broken_square", broken_builder),))
    report = run_component("broken_square", trials=2, seed=1)
    assert not report.passed
    reports = run_all(trials=2, seed=1)
    failing = [r.name for r in reports if not r.passed]
    assert failing == ["broken_square"]

from dataclasses import replace

import numpy as np
import pytest

from sphgp import checkpoint as CP
from sphgp import data_io as D
from sphgp import kernels as K
from sphgp import vargp as V

from conftest import ExpDecay, exp_decay_spectrum, random_sphere


def make_checkpoint(tmp_path, spec=None, lik=None):
    rng = np.random.default_rng(0)
    spec = spec or K.poly_decay_spectrum(1.4, 4, 3, variance=0.9)
    model = V.build_inducing_model(spec, phase_limit=3, seed=0)
    lik = lik or V.GaussianLikelihood(0.05)
    regression = lik.kind == "gaussian"
    X = random_sphere(rng, 30, 4)
    y = rng.standard_normal(30) if regression else (rng.standard_normal(30) > 0).astype(float)
    res = V.fit(model, X, y, lik, V.FitConfig(iterations=10, batch_size=15, seed=0))
    task = "regression" if regression else "binary"
    ckpt = CP.Checkpoint(
        model=res.model,
        state=res.state,
        likelihood=lik,
        task=task,
        bias=1.0,
        input_scaler=D.Scaler(mean=np.zeros(3), std=np.ones(3)),
        target_scaler=D.Scaler(mean=np.asarray(0.3), std=np.asarray(2.0)) if regression else None,
        config_text="kernel = poly_decay\n",
        config_hash="abc123",
        schema_text=f"target=y\nfeatures=a,b,c\ntask={task}\n",
    )
    path = tmp_path / "model.npz"
    CP.save_checkpoint(path, ckpt)
    return path, ckpt, X


def test_round_trip_preserves_predictions(tmp_path):
    path, ckpt, X = make_checkpoint(tmp_path)
    loaded = CP.load_checkpoint(path)
    mu0, v0 = V.predict(ckpt.model, ckpt.state, X)
    mu1, v1 = V.predict(loaded.model, loaded.state, X)
    assert np.array_equal(mu0, mu1)
    assert np.array_equal(v0, v1)
    assert loaded.task == "regression"
    assert loaded.config_hash == "abc123"
    assert loaded.schema_text == ckpt.schema_text
    assert loaded.likelihood.kind == "gaussian"


def test_round_trip_state_fields(tmp_path):
    path, ckpt, _ = make_checkpoint(tmp_path)
    loaded = CP.load_checkpoint(path)
    assert np.array_equal(loaded.state.mean, ckpt.state.mean)
    assert np.array_equal(loaded.state.L, ckpt.state.L)
    assert loaded.state.log_theta == ckpt.state.log_theta
    assert loaded.state.log_noise == ckpt.state.log_noise
    assert set(loaded.state.phases) == set(ckpt.state.phases)
    for ell in ckpt.state.phases:
        assert np.array_equal(loaded.state.phases[ell], ckpt.state.phases[ell])


def test_a_checkpoint_holds_no_adam_arrays(tmp_path):
    path, _, _ = make_checkpoint(tmp_path)
    with np.load(path) as data:
        assert not [name for name in data.files if name.startswith("adam_")]


def with_adam_moments(arrays, state, log_theta="log_theta"):
    """``arrays`` as older checkpoints stored them, with Adam's step count and moments
    for every block: q(u)'s (``mean``, ``cov_params``) and the others, the spectral
    parameter's under the name ``log_theta``."""
    old = dict(arrays)
    old["adam_step"] = np.asarray(10, dtype=np.int64)
    blocks = {"mean": state.mean, "cov_params": V.pack_state(state)["cov_factor"]}
    blocks.update(V.adam_blocks(state))
    if "log_theta" in blocks:
        blocks[log_theta] = blocks.pop("log_theta")
    for moment, fill in (("m", 0.5), ("v", 0.25)):
        for key, val in blocks.items():
            old[f"adam_{moment}_{key}"] = np.full_like(np.asarray(val, dtype=np.float64), fill)
    return old


def test_checkpoint_with_q_u_moments_still_loads(tmp_path):
    # checkpoints written before this layout carry Adam's moments of every block,
    # q(u)'s too while Adam trained it; none of them is read
    path, ckpt, X = make_checkpoint(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    old = with_adam_moments(arrays, ckpt.state)
    assert {"adam_m_cov_params", "adam_v_log_theta", "adam_m_phases_3"} <= set(old)
    old_path = tmp_path / "old.npz"
    np.savez(old_path, **old)
    new, loaded = CP.load_checkpoint(path), CP.load_checkpoint(old_path)
    assert np.array_equal(loaded.state.L, new.state.L)
    assert loaded.state.log_theta == new.state.log_theta
    mu_new, v_new = V.predict(new.model, new.state, X)
    mu_old, v_old = V.predict(loaded.model, loaded.state, X)
    assert np.array_equal(mu_old, mu_new)
    assert np.array_equal(v_old, v_new)


class RecordingDict(dict):
    """A dict that records the keys read from it."""

    def __init__(self, arrays):
        super().__init__(arrays)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("kind", ["gaussian_poly_decay", "bernoulli_funk_hecke"])
def test_every_array_a_checkpoint_holds_is_read(tmp_path, monkeypatch, kind):
    # a key that no load reads is dead weight in every checkpoint
    if kind == "gaussian_poly_decay":
        path, _, _ = make_checkpoint(tmp_path)
    else:
        lik = V.BernoulliLikelihood("logit")
        path, _, _ = make_checkpoint(tmp_path, spec=relu_spectrum(), lik=lik)
    layouts = []
    current_layout = CP._current_layout

    def recording_layout(data):
        layouts.append(RecordingDict(current_layout(data)))
        return layouts[-1]

    monkeypatch.setattr(CP, "_current_layout", recording_layout)
    loaded = CP.load_checkpoint(path)
    assert loaded.likelihood.kind == kind.partition("_")[0]
    with np.load(path) as data:
        written = set(data.files)
    assert len(layouts) == 1 and set(layouts[0]) == written
    assert written - layouts[0].read == set()


def theta_layout(arrays, spec):
    """``arrays`` as checkpoints stored them while a spectrum kept its own theta,
    variance and label: ``spectrum_theta`` (NaN without a family),
    ``spectrum_variance``, ``spectrum_source`` and, with a family, a bare
    ``spectrum_lambda0``."""
    old = {k: v for k, v in arrays.items() if not k.startswith("spectrum_family")}
    old["spectrum_theta"] = np.asarray(np.nan if spec.family is None else spec.theta)
    old["spectrum_variance"] = np.asarray(spec.variance)
    old["spectrum_source"] = np.asarray("poly_decay(beta=1.4)" if spec.family else "funk_hecke")
    if spec.family is not None:
        old["spectrum_lambda0"] = np.asarray(spec.family.lambda0)
    return old


def assert_loads_like(loaded, new, ckpt, X):
    assert np.array_equal(loaded.model.spectrum.eigenvalues, new.model.spectrum.eigenvalues)
    assert loaded.model.spectrum.family == ckpt.model.spectrum.family
    assert loaded.model.spectrum.theta == ckpt.model.spectrum.theta
    assert loaded.model.spectrum.variance == ckpt.model.spectrum.variance
    assert loaded.state.log_theta == ckpt.state.log_theta
    mu_new, v_new = V.predict(new.model, new.state, X)
    mu_old, v_old = V.predict(loaded.model, loaded.state, X)
    assert np.array_equal(mu_old, mu_new)
    assert np.array_equal(v_old, v_new)


def relu_spectrum():
    return K.funk_hecke_spectrum(K.ComposedShape(K.ReluShape(), 2), 4, 3, variance=0.9)


@pytest.mark.parametrize("kind", ["poly_decay", "composed_relu"])
def test_checkpoint_with_theta_in_its_spectrum_still_loads(tmp_path, kind):
    spec = relu_spectrum() if kind == "composed_relu" else None
    path, ckpt, X = make_checkpoint(tmp_path, spec=spec)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    old = theta_layout(arrays, ckpt.model.spectrum)
    assert {"spectrum_theta", "spectrum_variance", "spectrum_source"} <= set(old)
    assert ("spectrum_lambda0" in old) == (kind == "poly_decay")
    assert np.isnan(old["spectrum_theta"]) == (kind == "composed_relu")
    np.savez(tmp_path / "old.npz", **old)
    new, loaded = CP.load_checkpoint(path), CP.load_checkpoint(tmp_path / "old.npz")
    assert (loaded.state.log_theta is None) == (kind == "composed_relu")
    assert_loads_like(loaded, new, ckpt, X)


@pytest.mark.parametrize("kind", ["poly_decay", "funk_hecke"])
def test_checkpoint_with_beta_key_names_still_loads(tmp_path, kind):
    # checkpoints written while beta was the only trained spectral parameter
    # name it spectrum_beta (NaN without one), state_log_beta and
    # adam_{m,v}_log_beta, and always carry spectrum_lambda0
    spec = relu_spectrum() if kind == "funk_hecke" else None
    path, ckpt, X = make_checkpoint(tmp_path, spec=spec)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    old_names = {"spectrum_theta": "spectrum_beta", "state_log_theta": "state_log_beta"}
    theta_era = with_adam_moments(theta_layout(arrays, ckpt.model.spectrum), ckpt.state, "log_beta")
    old = {old_names.get(k, k): v for k, v in theta_era.items()}
    old.setdefault("spectrum_lambda0", np.asarray(1.0))
    assert len(old) == len(theta_era) + (kind == "funk_hecke")
    old_path = tmp_path / "old.npz"
    np.savez(old_path, **old)
    new, loaded = CP.load_checkpoint(path), CP.load_checkpoint(old_path)
    assert (loaded.state.log_theta is None) == (kind == "funk_hecke")
    assert_loads_like(loaded, new, ckpt, X)


def test_spectrum_keys_hold_no_theta_or_variance(tmp_path):
    path, ckpt, _ = make_checkpoint(tmp_path)
    with np.load(path) as data:
        spectrum_keys = {k: data[k] for k in data.files if k.startswith("spectrum_")}
    assert set(spectrum_keys) == {
        "spectrum_dim", "spectrum_eigenvalues", "spectrum_family", "spectrum_family_lambda0",
    }
    assert spectrum_keys["spectrum_family"] == "poly_decay"
    assert spectrum_keys["spectrum_family_lambda0"] == ckpt.model.spectrum.family.lambda0


def test_a_family_added_to_the_kind_table_round_trips(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="ExpDecay has no row in kernels.KINDS"):
        make_checkpoint(tmp_path, spec=exp_decay_spectrum(0.7, 4, 3, variance=0.9))
    monkeypatch.setitem(K.KINDS, "exp_decay", K.Kind("rate", float, family=ExpDecay))
    path, ckpt, X = make_checkpoint(tmp_path, spec=exp_decay_spectrum(0.7, 4, 3, variance=0.9))
    with np.load(path) as data:
        assert {k for k in data.files if k.startswith("spectrum_family")} == {"spectrum_family"}
        assert data["spectrum_family"] == "exp_decay"
    loaded = CP.load_checkpoint(path)
    assert loaded.model.spectrum.family == ExpDecay()
    assert loaded.model.spectrum.theta == ckpt.model.spectrum.theta == ckpt.state.theta
    assert np.array_equal(loaded.model.spectrum.eigenvalues, ckpt.model.spectrum.eigenvalues)
    mu, v = V.predict(loaded.model, loaded.state, X)
    mu_want, v_want = V.predict(ckpt.model, ckpt.state, X)
    assert np.array_equal(mu, mu_want) and np.array_equal(v, v_want)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"spectrum_family": np.asarray("ntk")}, "ntk"),
        ({"spectrum_family": np.asarray("exp_decay")}, "exp_decay"),
        ({"state_log_theta": np.asarray(np.nan)}, "state_log_theta"),
    ],
)
def test_a_spectrum_family_the_state_does_not_match_is_a_load_error(tmp_path, change, message):
    path, _, _ = make_checkpoint(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update(change)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message):
        CP.load_checkpoint(path)


def test_checkpoint_with_a_log_diagonal_factor_still_loads(tmp_path):
    # checkpoints written while q(u)'s factor was packed for Adam name it
    # state_cov_params and store its diagonal as logs
    path, ckpt, X = make_checkpoint(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    m = ckpt.state.num_features
    diag = np.cumsum(np.arange(1, m + 1)) - 1  # the diagonal's places in the packed triangle
    packed = arrays.pop("state_cov_factor")
    packed[diag] = np.log(packed[diag])
    arrays["state_cov_params"] = packed
    old_path = tmp_path / "old.npz"
    np.savez(old_path, **arrays)
    loaded = CP.load_checkpoint(old_path)
    want = ckpt.state.L.copy()
    d = np.arange(m)
    want[d, d] = np.exp(np.log(want[d, d]))
    assert np.array_equal(loaded.state.L, want)
    assert np.array_equal(loaded.state.mean, ckpt.state.mean)
    mu_old, v_old = V.predict(loaded.model, loaded.state, X)
    mu_want, v_want = V.predict(ckpt.model, replace(ckpt.state, L=want), X)
    assert np.array_equal(mu_old, mu_want)
    assert np.array_equal(v_old, v_want)


def test_model_at_the_top_of_the_family_range_saves_and_loads(tmp_path):
    # at lmax 16, beta = 10 puts lambda_16 = 16**-10 below 1e-12 of lambda_0,
    # the floor under which build_inducing_model drops a frequency; a trained
    # model keeps the frequencies it was built with
    spec = K.poly_decay_spectrum(1.5, 3, 16)
    model = V.build_inducing_model(spec, phase_limit=2, seed=0)
    lik = V.GaussianLikelihood(0.05)
    state = V.init_state(model, lik)
    state.log_theta = float(np.log(10.0))
    rng = np.random.default_rng(3)
    X = random_sphere(rng, 20, 3)
    res = V.fit(model, X, rng.standard_normal(20), lik, V.FitConfig(iterations=0), state=state)
    top = res.model.spectrum
    assert top.theta == res.state.theta
    assert 0 < top.eigenvalues[16] < 1e-12 * top.eigenvalues[0]
    ckpt = CP.Checkpoint(
        model=res.model, state=res.state, likelihood=lik, task="regression", bias=1.0,
        input_scaler=None, target_scaler=None, config_text="", config_hash="",
        schema_text="",
    )
    CP.save_checkpoint(tmp_path / "top.npz", ckpt)
    loaded = CP.load_checkpoint(tmp_path / "top.npz")
    assert loaded.model.spectrum.theta == top.theta
    assert np.array_equal(loaded.model.spectrum.eigenvalues, top.eigenvalues)
    mu, v = V.predict(loaded.model, loaded.state, X)
    mu_want, v_want = V.predict(res.model, res.state, X)
    assert np.array_equal(mu, mu_want) and np.array_equal(v, v_want)


def test_scalers_round_trip(tmp_path):
    path, ckpt, _ = make_checkpoint(tmp_path)
    loaded = CP.load_checkpoint(path)
    assert np.array_equal(loaded.input_scaler.mean, ckpt.input_scaler.mean)
    assert float(loaded.target_scaler.std) == 2.0


def test_version_check(tmp_path):
    path, _, _ = make_checkpoint(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["checkpoint_version"] = np.asarray(42)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        CP.load_checkpoint(path)


def test_gaussian_checkpoint_without_noise_is_rejected(tmp_path):
    path, _, _ = make_checkpoint(tmp_path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["state_log_noise"] = np.asarray(np.nan)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="noise"):
        CP.load_checkpoint(path)

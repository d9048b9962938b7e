import numpy as np
import pytest

from conftest import fd_max_rel_error
from songflow.backbone import ModelConfig, VelocityModel, parameter_count, time_embedding
from songflow.conditioning import ConditioningBundle, ConditionRow, PromptSpec
from songflow.errors import ContractError, DimensionError, ValidationError
from songflow.tensor import Tensor, mse, zero_grads


def _tiny_config():
    return ModelConfig(
        n_blocks=1, model_width=8, n_heads=2, d_audio=2, d_t=4, d_text=4, d_lyrics=2, ff_mult=2
    )


def _bundle_from_arrays(e_text, e_lyrics):
    """A one-row bundle from (T, d) arrays."""
    return ConditioningBundle(
        e_text=Tensor(e_text[None]),
        e_lyrics=Tensor(e_lyrics[None]),
        rows=(ConditionRow(PromptSpec("unused")),),
    )


def _forward(model, x, bundle, t, **kwargs):
    """One (T, d_audio) sample through the batched forward."""
    return model.forward(Tensor(x[None]), bundle, [t], **kwargs)


def test_time_embedding_bounds_and_zero():
    emb = time_embedding(0.37, 16)
    assert emb.shape == (16,)
    assert (np.abs(emb) <= 1.0).all()
    at_zero = time_embedding(0.0, 16)
    assert np.array_equal(at_zero[0::2], np.zeros(8))
    assert np.array_equal(at_zero[1::2], np.ones(8))


def test_time_embedding_is_lipschitz_smooth():
    a = time_embedding(0.5, 16)
    b = time_embedding(0.5 + 1e-9, 16)
    assert np.abs(a - b).max() < 1e-6


def test_time_embedding_contract():
    with pytest.raises(ContractError):
        time_embedding(-0.01, 16)
    with pytest.raises(ContractError):
        time_embedding(1.01, 16)
    with pytest.raises(ContractError):
        time_embedding(0.5, 7)


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(model_width=10, n_heads=3)
    with pytest.raises(ValidationError):
        ModelConfig(d_t=5)


@pytest.mark.parametrize("T", [1, 7, 64])
def test_forward_output_shape(T, rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((T, cfg.d_text)), rng.standard_normal((T, cfg.d_lyrics))
    )
    out = _forward(model, rng.standard_normal((T, cfg.d_audio)), bundle, 0.5)
    assert out.data.shape == (1, T, cfg.d_audio)


def test_forward_rejects_mismatched_widths(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((4, cfg.d_text + 1)), rng.standard_normal((4, cfg.d_lyrics))
    )
    with pytest.raises(DimensionError):
        _forward(model, rng.standard_normal((4, cfg.d_audio)), bundle, 0.5)


def test_zero_initialized_head_gives_zero_field(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((5, cfg.d_text)), rng.standard_normal((5, cfg.d_lyrics))
    )
    out = _forward(model, rng.standard_normal((5, cfg.d_audio)), bundle, 0.3)
    assert np.array_equal(out.data, np.zeros((1, 5, cfg.d_audio)))


def test_forward_is_deterministic(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    e_text = rng.standard_normal((6, cfg.d_text))
    e_lyr = rng.standard_normal((6, cfg.d_lyrics))
    x = rng.standard_normal((6, cfg.d_audio))
    a = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data
    b = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data
    assert np.array_equal(a, b)


def test_permutation_equivariance(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)  # un-zero the head
    T = 9
    e_text = rng.standard_normal((T, cfg.d_text))
    e_lyr = rng.standard_normal((T, cfg.d_lyrics))
    x = rng.standard_normal((T, cfg.d_audio))
    perm = rng.permutation(T)
    out = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data[0]
    out_perm = _forward(model, x[perm], _bundle_from_arrays(e_text[perm], e_lyr[perm]), 0.5).data[0]
    assert np.allclose(out_perm, out[perm], rtol=1e-10, atol=1e-12)


def test_attention_rows_are_probability_distributions(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    bundle = _bundle_from_arrays(
        rng.standard_normal((7, cfg.d_text)), rng.standard_normal((7, cfg.d_lyrics))
    )
    sink = []
    _forward(model, rng.standard_normal((7, cfg.d_audio)), bundle, 0.5, attn_sink=sink)
    assert len(sink) == cfg.n_blocks * cfg.n_heads
    for weights in sink:
        assert (weights >= 0).all()
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-9


def test_parameter_count_matches_closed_form(rng):
    for cfg in (
        _tiny_config(),
        ModelConfig(),
        ModelConfig(n_blocks=3, model_width=32, n_heads=8, d_audio=4, d_t=8, d_text=16,
                    d_lyrics=8, ff_mult=3),
    ):
        model = VelocityModel(cfg, rng)
        total = sum(t.data.size for _, t in model.named_parameters())
        assert total == parameter_count(cfg)


def test_end_to_end_gradients_match_finite_differences(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    params = [t for _, t in model.named_parameters()]
    for p in params:
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    T = 4
    e_text = rng.standard_normal((T, cfg.d_text))
    e_lyr = rng.standard_normal((T, cfg.d_lyrics))
    x = rng.standard_normal((T, cfg.d_audio))
    target = Tensor(rng.standard_normal((1, T, cfg.d_audio)))

    def build_loss():
        bundle = _bundle_from_arrays(e_text, e_lyr)
        return mse(_forward(model, x, bundle, 0.5), target)

    assert fd_max_rel_error(build_loss, params) < 1e-3


def test_batched_forward_matches_single_rows(rng):
    cfg = _tiny_config()
    model = VelocityModel(cfg, rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    B, T = 3, 5
    e_text = rng.standard_normal((B, T, cfg.d_text))
    e_lyr = rng.standard_normal((B, T, cfg.d_lyrics))
    x = rng.standard_normal((B, T, cfg.d_audio))
    ts = [0.1, 0.5, 0.9]
    rows = (ConditionRow(PromptSpec("unused")),) * B
    bundle = ConditioningBundle(Tensor(e_text), Tensor(e_lyr), rows=rows)
    sink = []
    out = model.forward(Tensor(x), bundle, ts, attn_sink=sink).data
    assert len(sink) == B * cfg.n_blocks * cfg.n_heads
    for b in range(B):
        alone = _forward(model, x[b], _bundle_from_arrays(e_text[b], e_lyr[b]), ts[b]).data[0]
        assert np.abs(out[b] - alone).max() <= 1e-12 * np.abs(alone).max()
    with pytest.raises(DimensionError):
        model.forward(Tensor(x), bundle, ts[:2])

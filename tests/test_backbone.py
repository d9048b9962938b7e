import weakref

import numpy as np
import pytest

from conftest import fd_max_rel_error
from songflow import backbone
from songflow.backbone import ModelConfig, VelocityModel, time_embedding
from songflow.conditioning import ConditioningBundle, ConditionRow, PromptSpec
from songflow.errors import ContractError, ValidationError
from songflow.tensor import Tensor, mse, zero_grads


def _tiny_model(rng):
    """d_text 4, d_lyrics 2, d_audio 2."""
    cfg = ModelConfig(n_blocks=1, model_width=8, n_heads=2, d_t=4, ff_mult=2)
    return VelocityModel(cfg, 4, 2, 2, rng)


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


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(model_width=10, n_heads=3)
    with pytest.raises(ValidationError):
        ModelConfig(d_t=5)
    with pytest.raises(ValidationError):
        ModelConfig(ff_mult=0)


@pytest.mark.parametrize("T", [1, 7, 64])
def test_forward_output_shape(T, rng):
    model = _tiny_model(rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((T, model.d_text)), rng.standard_normal((T, model.d_lyrics))
    )
    out = _forward(model, rng.standard_normal((T, model.d_audio)), bundle, 0.5)
    assert out.data.shape == (1, T, model.d_audio)


def test_forward_rejects_mismatched_widths(rng):
    model = _tiny_model(rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((4, model.d_text + 1)), rng.standard_normal((4, model.d_lyrics))
    )
    with pytest.raises(ContractError):
        _forward(model, rng.standard_normal((4, model.d_audio)), bundle, 0.5)


def test_zero_initialized_head_gives_zero_field(rng):
    model = _tiny_model(rng)
    bundle = _bundle_from_arrays(
        rng.standard_normal((5, model.d_text)), rng.standard_normal((5, model.d_lyrics))
    )
    out = _forward(model, rng.standard_normal((5, model.d_audio)), bundle, 0.3)
    assert np.array_equal(out.data, np.zeros((1, 5, model.d_audio)))


def test_forward_is_deterministic(rng):
    model = _tiny_model(rng)
    e_text = rng.standard_normal((6, model.d_text))
    e_lyr = rng.standard_normal((6, model.d_lyrics))
    x = rng.standard_normal((6, model.d_audio))
    a = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data
    b = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data
    assert np.array_equal(a, b)


def test_permutation_equivariance(rng):
    model = _tiny_model(rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)  # un-zero the head
    T = 9
    e_text = rng.standard_normal((T, model.d_text))
    e_lyr = rng.standard_normal((T, model.d_lyrics))
    x = rng.standard_normal((T, model.d_audio))
    perm = rng.permutation(T)
    out = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), 0.5).data[0]
    out_perm = _forward(model, x[perm], _bundle_from_arrays(e_text[perm], e_lyr[perm]), 0.5).data[0]
    assert np.allclose(out_perm, out[perm], rtol=1e-10, atol=1e-12)


def test_attention_rows_are_probability_distributions(rng):
    model = _tiny_model(rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    bundle = _bundle_from_arrays(
        rng.standard_normal((7, model.d_text)), rng.standard_normal((7, model.d_lyrics))
    )
    sink = []
    _forward(model, rng.standard_normal((7, model.d_audio)), bundle, 0.5, attn_sink=sink)
    assert len(sink) == model.config.n_blocks * model.config.n_heads
    for weights in sink:
        assert (weights >= 0).all()
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-9


def test_parameter_count_matches_closed_form(rng):
    for model in (
        _tiny_model(rng),
        VelocityModel(ModelConfig(), 32, 16, 8, rng),
        VelocityModel(ModelConfig(n_blocks=3, model_width=32, n_heads=8, d_t=8, ff_mult=3),
                      16, 8, 4, rng),
    ):
        cfg = model.config
        total = sum(t.data.size for _, t in model.named_parameters())
        # input d_in*w + w; per block 4*w^2 + 3*w*ff + 4*w; head w*d_audio + d_audio
        w, ff = cfg.model_width, cfg.ff_mult * cfg.model_width
        d_in = model.d_text + model.d_lyrics + model.d_audio + cfg.d_t
        per_block = 4 * w * w + 3 * w * ff + 4 * w
        assert total == d_in * w + w + cfg.n_blocks * per_block + w * model.d_audio + model.d_audio


def test_input_channels_are_text_lyrics_audio_time(rng):
    """The input projection reads (E_text, E_lyrics, E_audio = x_t, E_t) in
    that channel order: checkpoints depend on it."""
    model = _tiny_model(rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    T, t = 5, 0.25
    e_text = rng.standard_normal((T, model.d_text))
    e_lyr = rng.standard_normal((T, model.d_lyrics))
    x = rng.standard_normal((T, model.d_audio))
    e_t = np.tile(time_embedding(t, model.config.d_t), (T, 1))
    h = np.concatenate([e_text, e_lyr, x, e_t], axis=1) @ model.w_in.data + model.b_in.data
    for block in model.blocks:
        h = block.forward(Tensor(h[None])).data[0]
    want = h @ model.w_head.data + model.b_head.data
    got = _forward(model, x, _bundle_from_arrays(e_text, e_lyr), t).data[0]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_end_to_end_gradients_match_finite_differences(rng):
    model = _tiny_model(rng)
    params = [t for _, t in model.named_parameters()]
    for p in params:
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    T = 4
    e_text = rng.standard_normal((T, model.d_text))
    e_lyr = rng.standard_normal((T, model.d_lyrics))
    x = rng.standard_normal((T, model.d_audio))
    target = Tensor(rng.standard_normal((1, T, model.d_audio)))

    def build_loss():
        bundle = _bundle_from_arrays(e_text, e_lyr)
        return mse(_forward(model, x, bundle, 0.5), target)

    assert fd_max_rel_error(build_loss, params) < 1e-3


def test_batched_forward_matches_single_rows(rng):
    model = _tiny_model(rng)
    for _, p in model.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    B, T = 3, 5
    e_text = rng.standard_normal((B, T, model.d_text))
    e_lyr = rng.standard_normal((B, T, model.d_lyrics))
    x = rng.standard_normal((B, T, model.d_audio))
    ts = [0.1, 0.5, 0.9]
    rows = (ConditionRow(PromptSpec("unused")),) * B
    bundle = ConditioningBundle(Tensor(e_text), Tensor(e_lyr), rows=rows)
    sink = []
    out = model.forward(Tensor(x), bundle, ts, attn_sink=sink).data
    assert len(sink) == B * model.config.n_blocks * model.config.n_heads
    for b in range(B):
        alone = _forward(model, x[b], _bundle_from_arrays(e_text[b], e_lyr[b]), ts[b]).data[0]
        assert np.abs(out[b] - alone).max() <= 1e-12 * np.abs(alone).max()
    with pytest.raises(ContractError):
        model.forward(Tensor(x), bundle, ts[:2])


def test_block_on_the_tape_keeps_no_projection_no_vjp_reads(rng, monkeypatch):
    """q (attention keeps a scaled copy) and the wo and w_down projections
    (add reads neither) are freed before Block.forward returns."""
    block = _tiny_model(rng).blocks[0]
    names = ("wq", "wo", "w_down")
    probes = {}
    real = backbone.matmul

    def recording(x, w):
        out = real(x, w)
        for name in names:
            if w is getattr(block, name):
                probes[name] = weakref.ref(out)
        return out

    monkeypatch.setattr(backbone, "matmul", recording)
    out = block.forward(Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True))
    assert out._node is not None
    assert {name: probe() for name, probe in probes.items()} == dict.fromkeys(names)

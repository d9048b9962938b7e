import json

import pytest

from songflow.conditioning import NegativePrompts
from songflow.config import load_config
from songflow.errors import ValidationError


def test_unknown_section_is_rejected():
    with pytest.raises(ValidationError, match="unknown config sections"):
        load_config(overrides=["modle.n_blocks=3"])


def test_unknown_section_key_is_rejected():
    with pytest.raises(ValidationError, match="unknown train config keys"):
        load_config(overrides=["train.stepz=3"])


@pytest.mark.parametrize("key", ["segment_text", "global_text", "globl"])
def test_unknown_negative_key_is_rejected(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"negative": {key: "x"}}), encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown negative config keys"):
        load_config(path)


def test_negative_keys_are_read():
    cfg = load_config(overrides=["negative.global=hiss", "negative.segment=clipping"])
    assert cfg.negative == NegativePrompts(global_text="hiss", segment_text="clipping")
    assert load_config().negative == NegativePrompts()

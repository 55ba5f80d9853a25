"""The model-shape flags `refresh_cost.py` and `prefill_cost.py` share.

`add_shape_flags` adds `--n-query-heads`, `--n-kv-heads` and `--head-dim`,
each defaulting to `ModelConfig`'s own value (the default shape); every
shape ROADMAP names differs from the default only in these, so the layer
count and ffn multiplier stay at `ModelConfig`'s. `shape_config` builds
the `ModelConfig` they name, exiting through `parser.error` when
`ModelConfig.validate` rejects it. `shape_record` is the shape as the
scripts' JSON records it, with W, the bytes of weights a decode step
reads (every layer's matrices and `w_out`; one embedding row is left
out), and κ, the bytes of keys and values one cached token adds over all
layers.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

from kvrefresh.errors import ConfigurationError
from kvrefresh.model import ModelConfig, init_model

SHAPE_FIELDS = ("n_query_heads", "n_kv_heads", "head_dim")


def add_shape_flags(parser: argparse.ArgumentParser) -> None:
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    for name in SHAPE_FIELDS:
        kind = type(defaults[name])
        parser.add_argument("--" + name.replace("_", "-"), type=kind, default=defaults[name],
                            help=f"ModelConfig.{name} (default {defaults[name]})")


def shape_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ModelConfig:
    config = ModelConfig(**{name: getattr(args, name) for name in SHAPE_FIELDS}, seed=0)
    try:
        config.validate()
    except ConfigurationError as exc:
        parser.error(f"model shape: {exc}")
    return config


def shape_record(config: ModelConfig) -> dict:
    weights = init_model(config)
    w = sum(a.nbytes for layer in weights.layers for a in vars(layer).values()) + weights.w_out.nbytes
    kappa = config.n_layers * 2 * config.n_kv_heads * config.head_dim * weights.w_out.itemsize
    return {**{name: getattr(config, name) for name in SHAPE_FIELDS}, "weight_bytes": w, "kv_bytes_per_token": kappa}

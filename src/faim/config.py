"""Flat dotted-key configuration: typed registry, file + flag resolution,
and a fully-resolved echo that reproduces the run bit-identically.

Config files are plain ``key=value`` lines ('#' starts a comment).  Flags
use the same key names.  Every key is enumerable, so an unknown key can be
rejected with the full list of valid ones.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .model import CONFIG_SECTION, VARIANTS, FaimConfig


def _format(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind == "strs":
        return ",".join(value)
    return str(value)


# key -> (type tag, default encoded as a config string).  The model and
# training keys are the FaimConfig fields: the key of field ``lr`` is
# ``train.lr``, its type tag the field's annotation, its default the field's.
REGISTRY: dict[str, tuple[str, str]] = {
    "data.train": ("str", ""),
    "data.test": ("str", ""),
    "data.format": ("str", "univariate"),
    "data.normalize": ("bool", "true"),
    **{
        f"{CONFIG_SECTION[f.name]}.{f.name}": (f.type, _format(f.type, f.default))
        for f in fields(FaimConfig)
    },
    "finetune.init": ("str", ""),
    "eval.checkpoint": ("str", ""),
    "noise.sigmas": ("floats", "0.0,0.2,0.5,1.0"),
    "ablate.variants": ("strs", ",".join(VARIANTS)),
    "synth.kind": ("str", "freq"),
    "synth.n_per_class": ("int", "100"),
    "synth.t": ("int", "128"),
    "synth.freqs": ("floats", "3,12"),
    "synth.sigma": ("float", "0.5"),
    "synth.channels": ("int", "6"),
    "synth.classes": ("int", "4"),
    "synth.seed": ("int", "0"),
    "synth.train_out": ("str", ""),
    "synth.test_out": ("str", ""),
    "run.name": ("str", ""),
    "run.dir": ("str", "run"),
}

# short spellings accepted on the command line for common sweep flags
ALIASES = {
    "sigmas": "noise.sigmas",
    "variant": "model.variant",
    "variants": "ablate.variants",
    "seed": "train.seed",
}


def _parse_bool(text: str, key: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{key} must be 'true' or 'false', got {text!r}")


def parse_value(key: str, text: str):
    kind, _ = REGISTRY[key]
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            return _parse_bool(text, key)
        if kind == "floats":
            return [float(tok) for tok in text.split(",") if tok.strip() != ""]
        if kind == "strs":
            return [tok.strip() for tok in text.split(",") if tok.strip() != ""]
        return text
    except ValueError:
        raise ConfigError(f"{key} expects a {kind} value, got {text!r}") from None


def format_value(key: str, value) -> str:
    return _format(REGISTRY[key][0], value)


def model_config(resolved: dict) -> FaimConfig:
    """The FaimConfig named by the model and training keys of a resolution."""
    return FaimConfig(**{name: resolved[f"{sec}.{name}"] for name, sec in CONFIG_SECTION.items()})


def _reject_unknown(key: str) -> None:
    if key not in REGISTRY:
        valid = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {line_no}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        _reject_unknown(key)
        out[key] = value.strip()
    return out


def resolve_config(
    file_path: str | None = None, overrides: list[tuple[str, str]] | None = None
) -> dict:
    """Defaults, then file values, then flag overrides; returns typed values."""
    raw = {key: default for key, (_, default) in REGISTRY.items()}
    if file_path:
        raw.update(parse_config_file(file_path))
    for key, value in overrides or []:
        key = ALIASES.get(key, key)
        _reject_unknown(key)
        raw[key] = value
    return {key: parse_value(key, text) for key, text in raw.items()}


def format_echo(resolved: dict) -> str:
    """Sorted key=value dump; feeding it back reproduces this resolution."""
    lines = [f"{key}={format_value(key, resolved[key])}" for key in sorted(resolved)]
    return "\n".join(lines) + "\n"

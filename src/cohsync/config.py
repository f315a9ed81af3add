"""Run configuration: schema, defaults, strict (de)serialization.

The JSON document mirrors the dataclasses section by section.  Every
field has a default equal to the reference experiment's operating value
where one exists (20 kHz lower tone, 3.48 MHz initial tone separation,
so a 3.5 MHz upper tone, 143.7 us ranging pulse, 159.7 us PRI, 25 Msps,
200-pulse windows grouped 40x5, 105 ms pulse period, 10 mm target, K_p =
1e-5, T_i = 3.3 s, 0.3..7.5 MHz separation clamp, frequency-locked
carriers, 90 m baseline).  Each quantity has one key.  The upper tone
has none: it is ``f1_hz + controller.x_initial_hz``, the first
interval's separation.  Neither have the carrier frequencies nor the
repeater's two carrier offsets, since only the offsets' difference
reaches baseband (``channel.residual_offset_hz``), nor the controller's
unit scales, which are constants of :mod:`cohsync.control`.

Validation is strict: unknown keys, wrong types and non-finite numbers
are rejected with the dotted path of the entry (only ``channel.snr_db``
may be +Infinity, the noise-free mode), a key named twice in one object
by its name.  Values the model cannot hold, such as a round-trip delay
longer than the gap between pulses, a separation clamp whose tones
alias or whose lower end reads more lags than a lag block holds, a
residual carrier offset that shifts a tone past half the sample rate, a
ranging pulse under 2 samples, or an SNR without a positive finite
linear ratio, are rejected here rather than at the first window; a
rejection that concerns one field names that field's key.
"""

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import ChannelState
from .control import PiControllerState
from .ranging import MAX_FRAME_SAMPLES, check_separation, effective_window_length
from .waveform import SPEED_OF_LIGHT, TwoToneSpec, WaveformConfig


@dataclass(frozen=True)
class LoopConfig:
    """Processing-interval bookkeeping for closed-loop runs."""

    pulses_per_interval: int = 200
    group_size: int = 5
    pulse_period_s: float = 0.105
    target_sigma_m: float = 0.010

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group_size must be positive")
        if self.pulses_per_interval % self.group_size != 0:
            raise ValueError("pulses_per_interval must be a multiple of group_size")
        if self.pulses_per_interval // self.group_size < 2:
            raise ValueError("pulses_per_interval must hold at least two groups")
        if not self.pulse_period_s > 0:
            raise ValueError("pulse_period_s must be positive")

    @property
    def interval_duration_s(self) -> float:
        return self.pulses_per_interval * self.pulse_period_s


@dataclass(frozen=True)
class RunConfig:
    """Everything a scenario run needs, serializable to one JSON document."""

    waveform: WaveformConfig
    channel: ChannelState
    controller: PiControllerState
    loop: LoopConfig = LoopConfig()
    seed: int = 1

    def __post_init__(self):
        if self.seed < 0:  # numpy's seed sequences take none
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # the echo must arrive before the next pulse leaves; a longer delay
        # would also size every receive window by the range
        tau = 2.0 * self.channel.true_range / SPEED_OF_LIGHT
        listen = self.waveform.pri - self.waveform.ranging_pulse_width
        if tau > listen:
            raise ValueError(
                f"round-trip delay {tau:.3e} s exceeds the {listen:.3e} s between "
                "the end of a ranging pulse and the next pulse (pri - ranging_pulse_width)"
            )
        # a loop may drive the separation to either clamp: the waveform must hold both
        f1 = self.waveform.two_tone.f1
        for key, x in (("x_min_hz", self.controller.x_min), ("x_max_hz", self.controller.x_max)):
            try:
                dataclasses.replace(self.waveform, two_tone=TwoToneSpec(f1, f1 + x))
            except ValueError as exc:
                raise ValueError(f"controller.{key}={x}: {exc}") from None
        # the round trip shifts sampled frames, so a tone shifted past fs/2 aliases
        shift = self.channel.residual_offset
        half = self.waveform.sample_rate / 2
        tones = {
            "f1_hz": f1,
            "f1_hz + controller.x_min_hz": f1 + self.controller.x_min,
            "f1_hz + controller.x_max_hz": f1 + self.controller.x_max,
            "disambiguation_hz": self.waveform.f_d,
        }
        for name, f in tones.items():
            if not -half < f + shift < half:
                raise ValueError(
                    f"channel.residual_offset_hz = {shift} Hz shifts "
                    f"the tone at waveform.{name} = {f} Hz to {f + shift} Hz, where it aliases: "
                    f"not within +-{half} Hz (waveform.sample_rate_hz / 2)"
                )
        try:
            n_win = effective_window_length(self.waveform, self.channel)
        except OverflowError:  # past the frame limit, or past any integer
            n_win = math.inf
        pulses = self.loop.pulses_per_interval
        if pulses * n_win > MAX_FRAME_SAMPLES:
            raise ValueError(
                f"a window of {pulses} pulses x {n_win} samples exceeds the limit of "
                f"{MAX_FRAME_SAMPLES} samples (pulses_per_interval x window length)"
            )
        check_separation(self.controller.x_min, self.waveform, n_win, "controller.x_min_hz")


def default_config() -> RunConfig:
    """The reference operating point: every key at its default."""
    return config_from_dict({})


# Reference operating values of the fields whose dataclasses set no default.
_REFERENCE = {
    "waveform.two_tone.f1": 20e3,
    "waveform.f_d": 1.875e6,
    "waveform.ranging_pulse_width": 143.7e-6,
    "waveform.pri": 159.7e-6,
    "waveform.sample_rate": 25e6,
    "channel.true_range": 90.0,
    "channel.snr_db": 20.0,
    "controller.k_p": 1e-5,
    "controller.t_i": 3.3,
    "controller.x_prev": 3.48e6,
}

# Type of a number that may also be +Infinity (noise-free ``snr_db``).
_FLOAT_OR_INF = "float or +inf"

# JSON key (dotted with its section) -> (RunConfig attribute path, type).
# Validation, defaults and both serialization directions derive from this
# one table; its order is the order of the resolved document.
_FIELDS = {
    "waveform.f1_hz": ("waveform.two_tone.f1", float),
    "waveform.disambiguation_hz": ("waveform.f_d", float),
    "waveform.ranging_pulse_width_s": ("waveform.ranging_pulse_width", float),
    "waveform.pri_s": ("waveform.pri", float),
    "waveform.sample_rate_hz": ("waveform.sample_rate", float),
    "channel.true_range_m": ("channel.true_range", float),
    "channel.snr_db": ("channel.snr_db", _FLOAT_OR_INF),
    "channel.residual_offset_hz": ("channel.residual_offset", float),
    "controller.k_p": ("controller.k_p", float),
    "controller.t_i_s": ("controller.t_i", float),
    "controller.x_initial_hz": ("controller.x_prev", float),
    "controller.x_min_hz": ("controller.x_min", float),
    "controller.x_max_hz": ("controller.x_max", float),
    "loop.pulses_per_interval": ("loop.pulses_per_interval", int),
    "loop.group_size": ("loop.group_size", int),
    "loop.pulse_period_s": ("loop.pulse_period_s", float),
    "loop.target_sigma_m": ("loop.target_sigma_m", float),
    "seed": ("seed", int),
}
_SECTIONS = tuple(dict.fromkeys(k.split(".")[0] for k in _FIELDS if "." in k))
_TOP_LEVEL = tuple(k for k in _FIELDS if "." not in k)


class ConfigError(ValueError):
    """Schema violation in a run configuration document."""


def _check_value(name: str, value, kind):
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key '{name}' must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{name}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if math.isnan(value):
        raise ConfigError(f"config key '{name}' must not be NaN")
    if math.isinf(value) and not (kind is _FLOAT_OR_INF and value > 0):
        allowed = "finite or +Infinity" if kind is _FLOAT_OR_INF else "finite"
        raise ConfigError(f"config key '{name}' must be {allowed}")
    return value


def _entries(doc):
    """(dotted key, value) for every entry of the document, in table order."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in _SECTIONS and key not in _TOP_LEVEL:
            raise ConfigError(f"unknown config key '{key}'")
    for section in _SECTIONS:
        data = doc.get(section, {})
        if not isinstance(data, dict):
            raise ConfigError(f"config section '{section}' must be an object")
        for key, value in data.items():
            yield f"{section}.{key}", value
    for key in _TOP_LEVEL:
        if key in doc:
            yield key, doc[key]


def _build(cls, values: dict, prefix: str = ""):
    """Instance of ``cls`` from attribute-path ``values``; absent fields keep defaults."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        path = prefix + f.name
        if path in values:
            kwargs[f.name] = values[path]
        elif dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, values, path + ".")
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a plain dict (e.g. parsed JSON).

    Missing keys take their defaults; unknown keys anywhere are rejected
    with the dotted path of the entry.  The upper tone is the lower one
    plus the first interval's separation, ``f1_hz + x_initial_hz``.
    """
    values = dict(_REFERENCE)
    for name, value in _entries(doc):
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key '{name}'")
        path, kind = _FIELDS[name]
        values[path] = _check_value(name, value, kind)
    values["waveform.two_tone.f2"] = values["waveform.two_tone.f1"] + values["controller.x_prev"]
    try:
        return _build(RunConfig, values)
    except ValueError as exc:
        raise ConfigError(_keyed(exc)) from exc


def _keyed(exc: ValueError) -> str:
    """A dataclass's rejection, led by the config key of the field its message starts with;
    the derived upper tone ``f2`` is blamed on ``controller.x_initial_hz``."""
    field = str(exc).partition(" ")[0].partition("=")[0]
    note = " (f2 is f1_hz + controller.x_initial_hz)" if field == "f2" else ""
    field = "x_prev" if field == "f2" else field
    keys = [key for key, (path, _) in _FIELDS.items() if path.rpartition(".")[2] == field]
    return f"config key '{keys[0]}': {exc}{note}" if keys else str(exc)


def config_to_dict(config: RunConfig) -> dict:
    """Fully resolved document (every field explicit) for archiving."""
    doc: dict = {}
    for name, (path, _) in _FIELDS.items():
        section, _, key = name.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        target[key] = functools.reduce(getattr, path.split("."), config)
    return doc


def _unique_keys(pairs: list) -> dict:
    """``json.loads``'s object hook: the object's entries, each key named once."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config key '{key}' appears twice in one object")
        doc[key] = value
    return doc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file (syntax errors keep their line)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return config_from_dict(doc)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2) + "\n", encoding="utf-8"
    )

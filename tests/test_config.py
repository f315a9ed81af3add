import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from cohsync.config import (
    MAX_FRAME_SAMPLES,
    ConfigError,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from cohsync.ranging import check_separation, effective_window_length, readout
from cohsync.scenario import simulate_window
from cohsync.waveform import TwoToneSpec
from conftest import traced_peak

# one valid key per section, with a value of the right type
SECTION_KEYS = {
    "waveform": ("f1_hz", 20e3),
    "channel": ("true_range_m", 90.0),
    "controller": ("k_p", 1e-5),
    "loop": ("group_size", 5),
}

# Keys of earlier versions, each with a value they took.  The estimator
# section went as a whole, so its keys are reported by the section name.
REMOVED_KEYS = [
    ("waveform", "disamb_pulse_width_s", 1.0 / 1.875e6, "waveform.disamb_pulse_width_s"),
    ("channel", "repeater_gain", 1.0, "channel.repeater_gain"),
    ("loop", "window_pad_samples", 128, "loop.window_pad_samples"),
    ("estimator", "neighbors", 4, "estimator"),
    ("estimator", "oversample", 64, "estimator"),
    ("estimator", "interp_taps", 32, "estimator"),
    ("estimator", "interp_beta", 14.0, "estimator"),
    ("channel", "outbound_carrier_hz", 2.45e9, "channel.outbound_carrier_hz"),
    ("channel", "return_carrier_hz", 5.8e9, "channel.return_carrier_hz"),
    ("controller", "error_scale", 1e3, "controller.error_scale"),
    ("controller", "output_scale", 1e6, "controller.output_scale"),
    ("loop", "weather_coupling", True, "loop.weather_coupling"),
    # one key a quantity: the upper tone is f1_hz + controller.x_initial_hz,
    # and only the offsets' difference, channel.residual_offset_hz, is set
    ("waveform", "f2_hz", 3.5e6, "waveform.f2_hz"),
    ("channel", "carrier_offset1_hz", 50.0, "channel.carrier_offset1_hz"),
    ("channel", "carrier_offset2_hz", 0.0, "channel.carrier_offset2_hz"),
]


def error_of(doc) -> str:
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    return str(info.value)


class TestUnknownKeys:
    @pytest.mark.parametrize("section", sorted(SECTION_KEYS))
    def test_dotted_path_in_every_section(self, section):
        assert error_of({section: {"bogus": 1}}) == f"unknown config key '{section}.bogus'"

    def test_top_level(self):
        assert error_of({"bogus": {}}) == "unknown config key 'bogus'"

    def test_top_level_checked_before_sections(self):
        doc = {"channel": {"bogus": 1}, "extra": 2}
        assert error_of(doc) == "unknown config key 'extra'"

    @pytest.mark.parametrize("section, key, value, name", REMOVED_KEYS)
    def test_removed_key(self, section, key, value, name):
        assert error_of({section: {key: value}}) == f"unknown config key '{name}'"


class TestTypes:
    @pytest.mark.parametrize(
        "section, key, value, want",
        [
            ("loop", "group_size", True, "an integer"),
            ("loop", "group_size", 5.0, "an integer"),
            ("loop", "pulses_per_interval", "200", "an integer"),
            ("channel", "snr_db", True, "a number"),
            ("channel", "snr_db", "20", "a number"),
            ("waveform", "f1_hz", None, "a number"),
        ],
    )
    def test_wrong_type_names_key_and_kind(self, section, key, value, want):
        msg = error_of({section: {key: value}})
        assert msg == f"config key '{section}.{key}' must be {want}"

    def test_int_accepted_for_number_and_stored_as_float(self):
        config = config_from_dict({"channel": {"true_range_m": 120}})
        assert config.channel.true_range == 120.0
        assert isinstance(config.channel.true_range, float)

    def test_nan_rejected(self):
        msg = error_of({"controller": {"k_p": math.nan}})
        assert msg == "config key 'controller.k_p' must not be NaN"

    def test_seed_must_be_integer(self):
        assert error_of({"seed": 1.5}) == "config key 'seed' must be an integer"
        assert error_of({"seed": True}) == "config key 'seed' must be an integer"
        assert config_from_dict({"seed": 42}).seed == 42

    @pytest.mark.parametrize("section", sorted(SECTION_KEYS))
    def test_non_object_section(self, section):
        assert error_of({section: [1, 2]}) == f"config section '{section}' must be an object"

    @pytest.mark.parametrize("doc", [[], "config", 3, None])
    def test_non_object_document(self, doc):
        assert error_of(doc) == "config document must be a JSON object"


class TestDerivedDefaults:
    def test_disamb_pulse_width_follows_disambiguation_tone(self):
        # the pulse is one period of f_d, which the 159.7 us PRI must cover
        config_from_dict({"waveform": {"disambiguation_hz": 1.0 / 159e-6}})
        assert "pri must cover" in error_of({"waveform": {"disambiguation_hz": 1.0 / 160e-6}})

    def test_x_initial_follows_tone_separation(self):
        # x_initial_hz defaults to the reference separation, 3.5 MHz - 20 kHz,
        # and the upper tone keeps that separation from whatever f1_hz is
        assert default_config().controller.x_prev == 3.48e6
        assert default_config().waveform.two_tone.f2 == 3.5e6
        config = config_from_dict({"waveform": {"f1_hz": 10e3}})
        assert config.controller.x_prev == 3.48e6
        assert config.waveform.two_tone.f2 == 10e3 + 3.48e6

    def test_explicit_x_initial_kept(self):
        config = config_from_dict({"controller": {"x_initial_hz": 1.8e6}})
        assert config.controller.x_prev == 1.8e6

    def test_x_initial_alone_sets_upper_tone(self):
        # a run's first interval sends f1 + x_initial_hz; the resolved
        # document holds no upper tone, and reloads to the same config
        doc = {"waveform": {"f1_hz": 10e3}, "controller": {"x_initial_hz": 3.5e6}}
        config = config_from_dict(doc)
        assert config.waveform.two_tone.f2 == 10e3 + 3.5e6
        resolved = config_to_dict(config)
        assert "f2_hz" not in resolved["waveform"]
        assert config_from_dict(resolved) == config

    def test_agreeing_upper_tone_and_x_initial_accepted(self):
        # the upper tone is derived, so it always agrees with x_initial_hz
        doc = {"waveform": {"f1_hz": 20e3}, "controller": {"x_initial_hz": 1.98e6}}
        config = config_from_dict(doc)
        assert config.waveform.two_tone.f2 == 2e6 and config.controller.x_prev == 1.98e6

    @pytest.mark.parametrize(
        "x_initial_hz, fragment", [(-1e6, "need 0 <= f1 <= f2"), (13e6, "aliases")]
    )
    def test_invalid_derived_upper_tone_names_x_initial(self, x_initial_hz, fragment):
        msg = error_of({"controller": {"x_initial_hz": x_initial_hz, "x_max_hz": 13e6}})
        assert fragment in msg and "controller.x_initial_hz" in msg

    def test_other_waveform_errors_do_not_blame_x_initial(self):
        msg = error_of({"controller": {"x_initial_hz": 1e6}, "waveform": {"pri_s": 1e-6}})
        assert msg == "config key 'waveform.pri_s': pri must cover the longest pulse"

    def test_defaults_are_reference_operating_point(self):
        assert config_from_dict({}) == default_config()


class TestInvariantErrors:
    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"waveform": {"f1_hz": -1.0}}, "need 0 <= f1 <= f2"),
            ({"controller": {"x_initial_hz": 20e6, "x_max_hz": 20e6}}, "aliases"),
            ({"waveform": {"disambiguation_hz": 20e6}}, "must lie in (0, sample_rate/2)"),
            ({"channel": {"true_range_m": -1.0}}, "true_range must be >= 0"),
            ({"waveform": {"sample_rate_hz": -1.0}}, "sample_rate must be positive"),
            ({"loop": {"group_size": 0}}, "group_size must be positive"),
            ({"controller": {"t_i_s": 0.0}}, "t_i must be positive"),
            ({"controller": {"x_initial_hz": 8e6}}, "outside clamp"),
            ({"channel": {"true_range_m": 1e6}}, "round-trip delay"),
            ({"loop": {"pulses_per_interval": 201}}, "multiple of group_size"),
            ({"loop": {"pulse_period_s": 0.0}}, "pulse_period_s must be positive"),
        ],
    )
    def test_post_init_value_error_becomes_config_error(self, doc, fragment):
        assert fragment in error_of(doc)


class TestFiles:
    def test_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seed": 1,\n  "loop": {,}\n}\n')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: line 3, column 12: ")

    def test_save_load_round_trip(self, tmp_path):
        config = config_from_dict(
            {"channel": {"snr_db": 13.5}, "controller": {"k_p": 0.09}, "seed": 7}
        )
        path = tmp_path / "resolved.json"
        save_config(config, path)
        assert load_config(path) == config
        assert path.read_text().endswith("}\n")


class TestRoundTrip:
    def test_default(self):
        config = default_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_every_field_changed(self):
        base = default_config()
        config = config_from_dict(
            {
                "waveform": {
                    "f1_hz": 10e3,
                    "disambiguation_hz": 2.5e6,
                    "ranging_pulse_width_s": 120e-6,
                    "pri_s": 150e-6,
                    "sample_rate_hz": 20e6,
                },
                "channel": {
                    "true_range_m": 250.0,
                    "snr_db": math.inf,
                    "residual_offset_hz": -15.0,
                },
                "controller": {
                    "k_p": 0.2,
                    "t_i_s": 12.0,
                    "x_initial_hz": 4.99e6,
                    "x_min_hz": 5e5,
                    "x_max_hz": 6e6,
                },
                "loop": {
                    "pulses_per_interval": 100,
                    "group_size": 4,
                    "pulse_period_s": 0.2,
                    "target_sigma_m": 0.02,
                },
                "seed": 99,
            }
        )
        for section in ("waveform", "channel", "controller", "loop"):
            assert getattr(config, section) != getattr(base, section)
        assert config_from_dict(config_to_dict(config)) == config

    def test_document_sections_and_order(self):
        doc = config_to_dict(default_config())
        for section, (key, _) in SECTION_KEYS.items():
            assert key in doc[section]
        assert list(doc) == ["waveform", "channel", "controller", "loop", "seed"]
        assert doc["controller"]["x_initial_hz"] == 3.48e6
        json.dumps(doc, allow_nan=False)

    def test_python_built_config(self):
        base = default_config()
        config = replace(base, loop=replace(base.loop, group_size=10), seed=3)
        assert config_from_dict(config_to_dict(config)) == config


class TestMemoryBound:
    """pulses_per_interval x window length is bounded when the config loads."""

    def test_reference_window_fits_with_margin(self):
        config = default_config()
        n_win = effective_window_length(config.waveform, config.channel)
        assert (config.loop.pulses_per_interval, n_win) == (200, 3750)
        assert 20 * 200 * n_win <= MAX_FRAME_SAMPLES

    @pytest.mark.parametrize(
        "doc",
        [
            {"waveform": {"sample_rate_hz": 25e9}},
            {"waveform": {"sample_rate_hz": 1e300}},
            {"loop": {"pulses_per_interval": 10**6}},
        ],
    )
    def test_rejected_before_any_allocation(self, doc):
        # one frame array of the default window is 12 MB; the smallest
        # rejected here would be 11.5 GB
        msg, peak = traced_peak(lambda: error_of(doc))
        assert f"exceeds the limit of {MAX_FRAME_SAMPLES} samples" in msg
        assert peak < 2**20


class TestSeparationFloor:
    """The separation clamp's lower end must read its lags as one lag block.

    At the reference waveform a block holds ``n - L + 1 = 159`` lags, and
    a readout reads ``2 h + 72``, so ``h <= 43`` and the separation must
    exceed 25e6 / 88 Hz; at 50 Msps the window is 7350 lags, the block 166
    and the floor 50e6 / 96 Hz.
    """

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"controller": {"x_min_hz": 2.8e5}},
             "controller.x_min_hz=280000.0 Hz must exceed 284090.909"),
            ({"controller": {"x_min_hz": 0.0}}, "controller.x_min_hz=0.0 Hz must exceed 284090.909"),
            ({"waveform": {"sample_rate_hz": 50e6}},
             "controller.x_min_hz=300000.0 Hz must exceed 520833.333"),
        ],
    )
    def test_sub_floor_clamp_rejected(self, doc, fragment):
        assert fragment in error_of(doc)

    def test_clamp_above_floor_accepted(self):
        assert config_from_dict({"controller": {"x_min_hz": 2.85e5}}).controller.x_min == 2.85e5
        config = config_from_dict({"waveform": {"sample_rate_hz": 50e6}, "controller": {"x_min_hz": 5.3e5}})
        assert config.waveform.sample_rate == 50e6

    @pytest.mark.parametrize("sample_rate, floor", [(25e6, 25e6 / 88), (50e6, 50e6 / 96)])
    def test_floor_is_where_the_readout_outgrows_the_block(self, sample_rate, floor):
        # the load-time rule counts lags arithmetically; the readout, which
        # builds the table, must agree on either side of the floor
        waveform = replace(default_config().waveform, sample_rate=sample_rate)
        n = effective_window_length(waveform, default_config().channel)
        block = n - round(waveform.ranging_pulse_width * sample_rate) + 1
        below, above = floor * (1 - 1e-12), floor * (1 + 1e-12)
        assert readout(n, sample_rate, below).width > block >= readout(n, sample_rate, above).width
        with pytest.raises(ValueError, match="must exceed"):
            check_separation(below, waveform, n)
        check_separation(above, waveform, n)

    def test_window_below_floor_rejected_with_the_same_message(self):
        config = default_config()
        tones = TwoToneSpec(20e3, 20e3 + 2.8e5)
        with pytest.raises(ValueError) as window:
            simulate_window(replace(config.waveform, two_tone=tones), config.channel, 2, seed=0)
        message = str(window.value).replace("tone separation=", "controller.x_min_hz=")
        assert error_of({"controller": {"x_min_hz": 2.8e5}}) == message


def test_window_too_long_for_any_fft_hits_the_frame_limit():
    # about 4.3e18 samples: past the lengths an FFT library can plan, but
    # still the frame limit's error, not the FFT library's
    msg = error_of({"waveform": {"sample_rate_hz": 3e22}})
    assert f"exceeds the limit of {MAX_FRAME_SAMPLES} samples" in msg


class TestReadme:
    def test_config_table_lists_exactly_the_schema_keys(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
        section = section.split("\n## ")[0]
        rows = [line for line in section.splitlines() if line.startswith("|")]
        listed = [row.split("|")[1].strip() for row in rows[2:]]  # past header and rule
        keys = []
        for name, value in config_to_dict(default_config()).items():
            keys += [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]
        assert sorted(listed) == sorted(keys)

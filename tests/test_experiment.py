import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import mindrec
from mindrec.errors import InvalidConfig
from mindrec.experiment import (
    _POSITIVE,
    CHOICES,
    DEFAULT_SPACE,
    PRESET_NAMES,
    AlgorithmConfig,
    build_model,
    parse_config,
    parse_space,
    preset,
    random_config,
    serialize_config,
)

from conftest import scripted_collection, small_corpus


class TestPresets:
    def test_last_node_baseline(self):
        cfg = preset("mindmeister_last_node")
        assert cfg.node_limit == 1
        assert cfg.event_kind == "any"
        assert cfg.scheme == "tf_only"
        assert cfg.remove_stopwords is False

    def test_current_map_baseline(self):
        cfg = preset("current_map_all_terms")
        assert cfg.map_limit == 1
        assert cfg.feature_type == "terms"

    def test_all_maps_baseline(self):
        cfg = preset("all_maps_all_terms")
        assert cfg.node_limit is None
        assert cfg.scheme == "tf_only"

    def test_combined(self):
        cfg = preset("docear_combined")
        assert cfg.model_size == 35
        assert cfg.day_window == 90
        assert cfg.event_kind == "moved"
        assert cfg.extension == frozenset({"children", "siblings"})
        assert cfg.metrics == ("depth", "siblings")
        assert cfg.transform == "ln"

    def test_stereotype_flag(self):
        assert preset("stereotype").preset_name == "stereotype"

    def test_unknown(self):
        with pytest.raises(InvalidConfig, match="nope"):
            preset("nope")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_round_trip_serialization(self, name):
        cfg = preset(name)
        assert parse_config(serialize_config(cfg)) == cfg


class TestRandomConfig:
    def test_singleton_space(self):
        space = {key: [values[0]] for key, values in DEFAULT_SPACE.items()}
        space["node_limit"] = [50]
        a = random_config(space, random.Random(0))
        b = random_config(space, random.Random(123))
        assert a == b
        assert a.node_limit == 50

    def test_seed_determinism(self):
        a = random_config(DEFAULT_SPACE, random.Random(77))
        b = random_config(DEFAULT_SPACE, random.Random(77))
        assert a == b

    def test_outputs_always_consistent(self):
        rng = random.Random(5)
        for _ in range(500):
            cfg = random_config(DEFAULT_SPACE, rng)
            cfg.validate()
            limits = (cfg.map_limit, cfg.node_limit, cfg.day_window)
            assert any(v is not None for v in limits)

    def test_scheme_uniformity(self):
        space = dict(DEFAULT_SPACE)
        space["feature_type"] = ["terms"]
        space["scheme"] = ["tf_only", "tf_idf", "tf_iduf", "tf_only_b"]
        # four candidates pre-repair; repair keeps tf_* unchanged
        space["scheme"] = ["tf_only", "tf_idf", "tf_iduf"]
        rng = random.Random(11)
        counts = Counter(random_config(space, rng).scheme
                         for _ in range(9000))
        for scheme in space["scheme"]:
            assert abs(counts[scheme] / 9000 - 1 / 3) < 0.02

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            cfg = random_config(DEFAULT_SPACE, rng)
            assert parse_config(serialize_config(cfg)) == cfg


class TestSpaceFile:
    def test_parse_overrides(self):
        text = (
            "node_limit = 10, 75\n"
            "scheme = tf_iduf\n"
            "extension = none, children+siblings\n"
        )
        space = parse_space(text)
        assert space["node_limit"] == [10, 75]
        assert space["scheme"] == ["tf_iduf"]
        assert space["extension"] == [frozenset(), frozenset({"children", "siblings"})]
        assert space["transform"] == DEFAULT_SPACE["transform"]

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_space("bogus = 1\n")

    def test_unknown_value(self):
        with pytest.raises(InvalidConfig, match="bogus"):
            parse_space("scheme = tf_only, bogus\n")

    def test_repeated_key(self):
        with pytest.raises(InvalidConfig, match="line 2: 'scheme'"):
            parse_space("scheme = tf_only\nscheme = tf_idf\n")

    @pytest.mark.parametrize("text", ["1_0", "+5", "\u0665"],
                             ids=["underscore", "plus", "arabic_indic_digit"])
    def test_integer_not_ascii_digits(self, text):
        # int() takes each of these texts, so such a space was once accepted
        with pytest.raises(InvalidConfig, match=f"^node_limit: {re.escape(repr(text))} is not"):
            parse_space(f"node_limit = 5, {text}\n")

    @pytest.mark.parametrize("text", [
        "map_limit = none\nnode_limit = none\nday_window = 7\n",
        "map_limit = none\nnode_limit = none, 5\nday_window = none\n",
        "use_node_weighting = false\nmetrics = none\n",
    ])
    def test_none_candidates_that_always_draw_a_valid_config(self, text):
        space = parse_space(text)
        rng = random.Random(5)
        for _ in range(50):
            random_config(space, rng)


class TestConfigFile:
    def test_combined_fields_are_honoured(self):
        text = serialize_config(preset("docear_combined"))
        text = text.replace("model_size = 35", "model_size = 5")
        collection, now = scripted_collection()
        model = build_model(collection, small_corpus(), parse_config(text), now)
        assert 0 < len(model.features) <= 5

    def test_unknown_key(self):
        with pytest.raises(InvalidConfig, match="node_limt"):
            parse_config("node_limt = 5\n")

    def test_repeated_key(self):
        with pytest.raises(InvalidConfig, match="line 2: 'node_limit'"):
            parse_config("node_limit = 5\nnode_limit = 10\n")

    @pytest.mark.parametrize("text, message", [
        ("day_window = 30\nfallback_any = true\n", "fallback_any needs node_limit"),
        ("node_limit = 5\nfallback_any = yes\n",
         "fallback_any: expected true or false, got 'yes'"),
        ("node_limit = ten\n", "node_limit: 'ten' is not an integer"),
        ("node_limit = 1_000\n", "node_limit: '1_000' is not an integer"),
        ("node_limit = +5\n", "node_limit: '+5' is not an integer"),
        ("node_limit = \u0665\n", "node_limit: '\u0665' is not an integer"),
        ("node_limit = 5\nmodel_size = 1_0\n", "model_size: '1_0' is not an integer"),
    ], ids=["fallback_any_without_node_limit", "flag_not_true_or_false", "value_not_parsed",
            "underscore", "plus", "arabic_indic_digit", "int_field_underscore"])
    def test_bad_value(self, text, message):
        with pytest.raises(InvalidConfig) as exc:
            parse_config(text)
        assert str(exc.value).startswith(message)

    def test_bad_choice(self):
        cfg = preset("all_maps_all_terms")
        cfg.event_kind = "bogus"
        with pytest.raises(InvalidConfig, match="event_kind"):
            cfg.validate()

    def test_scheme_must_fit_feature_type(self):
        cfg = preset("all_maps_all_terms")
        cfg.scheme = "cc_idf"
        with pytest.raises(InvalidConfig, match="scheme"):
            cfg.validate()

    def test_validate_raises_under_optimize(self):
        code = (
            "from mindrec.experiment import preset\n"
            "cfg = preset('all_maps_all_terms')\n"
            "cfg.feature_type = 'citations'\n"
            "try:\n"
            "    cfg.validate()\n"
            "except ValueError:\n"
            "    print('rejected')\n"
        )
        src = str(Path(mindrec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "rejected\n"), done.stderr


class TestSchema:
    def test_fields_are_config_keys(self):
        # each field's serialized line, next to one selection bound, sets it
        config = AlgorithmConfig(
            preset_name="docear_combined", map_limit=2, node_limit=3, day_window=7,
            event_kind="moved", visibility="visible_only",
            extension=frozenset({"children", "parents"}), fallback_any=True,
            node_weighting=True, metrics=("children", "term_count"), transform="ln",
            direction="weaker", combiner="max", feature_type="both", scheme="tf_idf",
            remove_stopwords=True, model_size=7, store_weights=True)
        config.validate()
        lines = dict(line.split(" = ") for line in serialize_config(config).splitlines())
        for field in fields(AlgorithmConfig):
            assert getattr(config, field.name) != field.default, field.name
            bound = "map_limit = 1" if field.name == "node_limit" else "node_limit = 1"
            parsed = parse_config(f"{bound}\n{field.name} = {lines[field.name]}\n")
            assert getattr(parsed, field.name) == getattr(config, field.name), field.name

    def test_checked_keys_are_fields(self):
        # a misspelt key in these tables would never be checked or drawn
        names = {f.name for f in fields(AlgorithmConfig)}
        drawn = {"node_weighting" if key == "use_node_weighting" else key
                 for key in DEFAULT_SPACE}
        assert set(CHOICES) | set(_POSITIVE) | drawn <= names

    def test_draws_and_presets_round_trip(self):
        rng = random.Random(17)
        configs = [random_config(DEFAULT_SPACE, rng) for _ in range(500)]
        configs += [preset(name) for name in PRESET_NAMES]
        for cfg in configs:
            assert parse_config(serialize_config(cfg)) == cfg

    def test_switched_off_weighting_keeps_its_keys(self):
        cfg = parse_config("node_limit = 1\nmetrics = children\ncombiner = max\n")
        assert (cfg.node_weighting, cfg.metrics, cfg.combiner) == (False, ("children",), "max")

    def test_algorithm_label(self):
        assert AlgorithmConfig(map_limit=1).algorithm == "custom"
        assert preset("docear_combined").algorithm == "docear_combined"

    def test_metric_named_twice_rejected(self):
        # a repeated metric would count twice under sum, squared under product
        message = "^metrics: a name is given twice in 'depth\\+depth'$"
        with pytest.raises(InvalidConfig, match=message):
            parse_config("node_limit = 5\nnode_weighting = true\nmetrics = depth+depth\n")
        with pytest.raises(InvalidConfig, match=message):
            parse_space("metrics = depth+depth, children\n")
        cfg = AlgorithmConfig(node_limit=5, node_weighting=True, metrics=("depth", "depth"))
        with pytest.raises(InvalidConfig, match=message):
            cfg.validate()
        # a set: the repeat has no effect
        cfg = parse_config("node_limit = 5\nextension = children+children\n")
        assert cfg.extension == frozenset({"children"})

    @pytest.mark.parametrize("key", ["map_limit", "node_limit", "day_window", "model_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_limit_below_one_rejected(self, key, value):
        bound = "map_limit" if key == "node_limit" else "node_limit"
        with pytest.raises(InvalidConfig, match=f"^{key}: "):
            parse_config(f"{bound} = 5\n{key} = {value}\n")
        with pytest.raises(InvalidConfig, match=f"^{key}: "):
            parse_space(f"{key} = 5, {value}\n")
        cfg = AlgorithmConfig(node_limit=5)
        setattr(cfg, key, value)
        with pytest.raises(InvalidConfig, match=f"^{key}: "):
            cfg.validate()

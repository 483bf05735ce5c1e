"""Algorithm configurations: named presets, random assembly over a
variable space, flat-text serialization, and model building from a
configuration."""

from dataclasses import asdict, dataclass, fields, replace

from .errors import InvalidConfig
from .mindmap import EVENT_KINDS
from .rows import integer
from .usermodel import (
    COMBINERS,
    NODE_METRICS,
    TRANSFORMS,
    build_user_model,
    extend_selection,
    extract_features,
    select_nodes,
    weigh_nodes,
    weight_features,
)

TERM_SCHEMES = ("tf_only", "tf_idf", "tf_iduf")
CITATION_SCHEMES = ("cc_only", "cc_idf")

# The baseline algorithms plus the combined algorithm, each as config-file
# text holding only the keys that differ from the field defaults.
# 1000000000 stands for "no limit".
PRESETS = {
    "mindmeister_last_node": "node_limit = 1\nmodel_size = 1000000000",
    "current_map_all_terms": "map_limit = 1\nmodel_size = 1000000000",
    "all_maps_all_terms": "map_limit = 1000000000\nmodel_size = 1000000000",
    # Dispatch flag only; no model is built for this configuration.
    "stereotype": "node_limit = 1",
    "docear_combined": """
        node_limit = 75
        day_window = 90
        event_kind = moved
        visibility = visible_only
        extension = children+siblings
        fallback_any = true
        node_weighting = true
        metrics = depth+siblings
        transform = ln
        scheme = tf_iduf
        remove_stopwords = true
        model_size = 35
    """,
}

PRESET_NAMES = tuple(PRESETS)


# Allowed values of each choice field; extension and metrics hold a
# subset of theirs.
CHOICES = {
    "event_kind": EVENT_KINDS + ("any",),
    "visibility": ("visible_only", "invisible_only", "all"),
    "extension": ("children", "siblings", "parents"),
    "metrics": tuple(NODE_METRICS),
    "transform": tuple(TRANSFORMS),
    "direction": ("stronger", "weaker"),
    "combiner": tuple(COMBINERS),
    "feature_type": ("terms", "citations", "both"),
    "scheme": TERM_SCHEMES + CITATION_SCHEMES,
}


# Selection limits and the model size: each, when set, must be >= 1.
_POSITIVE = ("map_limit", "node_limit", "day_window", "model_size")


def _check(key, value):
    """Raise InvalidConfig unless one key's value is allowed on its own."""
    if key in CHOICES:
        allowed = CHOICES[key]
        for member in value if isinstance(value, (frozenset, tuple)) else (value,):
            if member not in allowed:
                raise InvalidConfig(f"{key}: {member!r} is not one of {', '.join(allowed)}")
    if isinstance(value, tuple) and len(set(value)) < len(value):
        raise InvalidConfig(f"{key}: a name is given twice in {'+'.join(value)!r}")
    if key in _POSITIVE and value is not None and value < 1:
        raise InvalidConfig(f"{key}: {value} is not >= 1")


@dataclass
class AlgorithmConfig:
    """One algorithm; each field is a config-file key, in file order, and
    its annotation picks the parser of its text (see PARSERS)."""
    preset_name: str | None = None
    map_limit: int | None = None
    node_limit: int | None = None
    day_window: int | None = None
    event_kind: str = "any"
    visibility: str = "all"
    extension: frozenset = frozenset()
    fallback_any: bool = False       # < node_limit nodes -> select again, event_kind any
    node_weighting: bool = False     # off: every node weighs 1, metrics..combiner unused
    metrics: tuple = ("depth",)
    transform: str = "abs"
    direction: str = "stronger"
    combiner: str = "sum"
    feature_type: str = "terms"
    scheme: str = "tf_only"
    remove_stopwords: bool = False
    model_size: int = 25
    store_weights: bool = False

    @property
    def algorithm(self):
        """The name output rows give this algorithm."""
        return self.preset_name or "custom"

    def validate(self):
        """Raise InvalidConfig unless every field holds a value the
        pipeline can run."""
        if self.map_limit is None and self.node_limit is None and self.day_window is None:
            raise InvalidConfig("selection needs map_limit, node_limit, or day_window")
        if self.fallback_any and self.node_limit is None:
            raise InvalidConfig("fallback_any needs node_limit")
        for key, value in asdict(self).items():
            _check(key, value)
        if self.node_weighting and not self.metrics:
            raise InvalidConfig("metrics: node weighting needs at least one metric")
        schemes = {"terms": TERM_SCHEMES, "citations": CITATION_SCHEMES}
        if self.scheme not in schemes.get(self.feature_type, CHOICES["scheme"]):
            raise InvalidConfig(
                f"scheme {self.scheme!r} does not fit feature_type {self.feature_type!r}")


# One candidate list per drawable field (all of a single choice field's
# CHOICES), in a fixed draw order so that a seed fully determines the
# assembled configuration.
DEFAULT_SPACE = {
    "map_limit": [None, 1, 2, 5, 10],
    "node_limit": [None, 1, 5, 10, 25, 50, 75, 100, 250, 500, 1000],
    "day_window": [None, 7, 30, 90, 180, 365],
    "event_kind": CHOICES["event_kind"],
    "visibility": CHOICES["visibility"],
    "extension": [frozenset(), frozenset({"children"}), frozenset({"siblings"}),
                  frozenset({"parents"}), frozenset({"children", "siblings"}),
                  frozenset({"children", "siblings", "parents"})],
    "use_node_weighting": [False, True],
    "metrics": [*((name,) for name in CHOICES["metrics"]), ("depth", "siblings"),
                CHOICES["metrics"]],
    "transform": CHOICES["transform"],
    "direction": CHOICES["direction"],
    "combiner": CHOICES["combiner"],
    "feature_type": CHOICES["feature_type"],
    "scheme": CHOICES["scheme"],
    "remove_stopwords": [False, True],
    "model_size": [1, 5, 10, 25, 35, 50, 100, 250, 500, 1000],
    "store_weights": [False, True],
}

_TO_TERM = {"cc_only": "tf_only", "cc_idf": "tf_idf"}
_TO_CITATION = {"tf_only": "cc_only", "tf_idf": "cc_idf", "tf_iduf": "cc_idf"}


def random_config(space, rng):
    """Draw every field uniformly, then repair inconsistencies.

    Repairs are deterministic (no rejection sampling) so the number of
    generator draws never depends on what was drawn.
    """
    drawn = {key: rng.choice(space[key]) for key in DEFAULT_SPACE}
    drawn["node_weighting"] = drawn.pop("use_node_weighting")

    # Scheme must match the feature type.
    if drawn["feature_type"] == "citations":
        drawn["scheme"] = _TO_CITATION.get(drawn["scheme"], drawn["scheme"])
    elif drawn["feature_type"] in ("terms", "both"):
        drawn["scheme"] = _TO_TERM.get(drawn["scheme"], drawn["scheme"])

    # At least one selection bound must be active.
    if drawn["map_limit"] is None and drawn["node_limit"] is None \
            and drawn["day_window"] is None:
        fallback = [v for v in space["node_limit"] if v is not None]
        drawn["node_limit"] = fallback[0]

    config = AlgorithmConfig(**drawn)
    config.validate()
    return config


def preset(name):
    """A fresh, validated configuration of the named preset."""
    if name not in PRESETS:
        raise InvalidConfig(f"no preset named {name!r}")
    return parse_config(f"preset_name = {name}\n{PRESETS[name]}")


def build_model(collection, corpus, config, now):
    """Run every pipeline stage the configuration describes, ending in
    the model built at `now`.  With fallback_any, a selection of fewer
    than node_limit nodes is made again with event_kind "any".  The
    stereotype preset is never built: `matching.dispatch` serves it
    without a model, and `offline-eval` rejects it."""
    selection = select_nodes(collection, config, now)
    if config.fallback_any and len(selection) < config.node_limit:
        selection = select_nodes(collection, replace(config, event_kind="any"), now)
    selection = extend_selection(collection, selection, config.extension)
    weighted_nodes = weigh_nodes(collection, selection, config)
    occurrences = extract_features(
        collection, weighted_nodes, config.feature_type,
        config.remove_stopwords, corpus=corpus,
    )
    weighted = weight_features(occurrences, config.scheme,
                               corpus=corpus, collection=collection)
    return build_user_model(weighted, config)


# --- flat key=value serialization ------------------------------------------

def _flag(raw):
    if raw not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw == "true"


def _optional(parse):
    return lambda raw: None if raw == "none" else parse(raw)


def _names(kind):
    return lambda raw: kind() if raw in ("", "none") else kind(raw.split("+"))


# The parser of a config-file value's text, by its field's annotation.
_PARSE_BY_TYPE = {
    str: str,
    int: integer,
    bool: _flag,
    str | None: _optional(str),
    int | None: _optional(integer),
    frozenset: _names(frozenset),
    tuple: _names(tuple),
}

# Every config-file key, in file order, with the parser of its text.
PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(AlgorithmConfig)}


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, frozenset):
        return "+".join(sorted(value)) if value else "none"
    if isinstance(value, tuple):
        return "+".join(value)
    return str(value)


def _parse(key, raw):
    try:
        value = PARSERS[key](raw)
    except ValueError as exc:
        raise InvalidConfig(f"{key}: {exc}") from exc
    _check(key, value)
    return value


def _lines(text):
    """(line number, key, raw value) per `key = value` line, skipping
    blank lines and # comments; a key given twice raises InvalidConfig."""
    seen = set()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in seen:
                raise InvalidConfig(f"line {number}: {key!r} is given twice")
            seen.add(key)
            yield number, key, raw.strip()


def serialize_config(config):
    """Round-trip-stable `key = value` lines covering every field."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in asdict(config).items())


def parse_config(text):
    """The validated configuration `key = value` lines describe; keys left
    out keep their defaults and unknown keys are rejected."""
    values = {}
    for number, key, raw in _lines(text):
        if key not in PARSERS:
            raise InvalidConfig(f"line {number}: unknown key {key!r}")
        values[key] = _parse(key, raw)
    config = AlgorithmConfig(**values)
    config.validate()
    return config


def parse_space(text):
    """Variable-space file: `key = v1, v2, ...` per drawable field.

    Unlisted fields keep their DEFAULT_SPACE candidates.  A space from
    which random_config could draw an invalid configuration raises
    InvalidConfig.
    """
    space = dict(DEFAULT_SPACE)
    for number, key, raw in _lines(text):
        if key not in DEFAULT_SPACE:
            raise InvalidConfig(f"line {number}: unknown variable {key!r}")
        config_key = "node_weighting" if key == "use_node_weighting" else key
        space[key] = [_parse(config_key, v.strip()) for v in raw.split(",")]
    if None in space["map_limit"] and None in space["day_window"] \
            and all(v is None for v in space["node_limit"]):
        raise InvalidConfig("node_limit: needs a candidate other than none when "
                            "map_limit and day_window can both draw none")
    if True in space["use_node_weighting"] and () in space["metrics"]:
        raise InvalidConfig("metrics: none is a candidate, but use_node_weighting "
                            "can draw true, which needs at least one metric")
    return space

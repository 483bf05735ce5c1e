"""Mind-map-driven content-based research-paper recommendation engine
with its experimentation and evaluation harness."""

from .corpus import Corpus, cleantitle, load_corpus_jsonl
from .errors import MindrecError
from .experiment import AlgorithmConfig, preset, random_config
from .mindmap import MindMap, MindMapCollection, MindNode, NodeEvent, parse_mindmap
from .usermodel import UserModel

__all__ = [
    "AlgorithmConfig",
    "Corpus",
    "MindMap",
    "MindMapCollection",
    "MindNode",
    "MindrecError",
    "NodeEvent",
    "UserModel",
    "cleantitle",
    "load_corpus_jsonl",
    "parse_mindmap",
    "preset",
    "random_config",
]

"""Shared builders for synthetic mind maps, collections, and corpora."""

import hashlib
import os
import random
import xml.etree.ElementTree as ET

import pytest

from mindrec.corpus import Corpus
from mindrec.mindmap import MindMap, MindMapCollection, MindNode, NodeEvent, revision_chains

DAY_MS = 24 * 60 * 60 * 1000

WORDS = [
    "quantum", "flux", "paradigm", "neural", "network", "ranking", "search",
    "engine", "citation", "graph", "topic", "model", "retrieval", "index",
    "latent", "semantic", "vector", "space", "learning", "evaluation",
    "precision", "recall", "corpus", "document", "feature", "weight",
    "algorithm", "cluster", "entropy", "sampling", "bayes", "kernel",
    "gradient", "tensor", "embedding", "lexicon", "ontology", "taxonomy",
    "heuristic", "stochastic", "markov", "inference", "posterior", "prior",
    "likelihood", "regression", "classifier", "boosting", "bagging", "forest",
    "margin", "hyperplane", "convex", "lattice", "manifold", "geodesic",
    "spectral", "wavelet", "fourier", "laplace", "gaussian", "poisson",
    "binomial", "variance", "covariance", "median", "quantile", "outlier",
    "anomaly", "drift", "session", "query", "relevance", "feedback",
    "pagerank", "crawler", "snippet", "stemming", "lemma", "bigram",
    "trigram", "softmax", "dropout", "epoch", "batch", "optimizer",
    "momentum", "annealing", "pruning", "quantization", "distillation",
    "attention", "transformer", "recurrent", "convolution", "pooling",
    "activation", "sigmoid", "tangent", "relu", "perceptron", "hopfield",
    "boltzmann", "genetic", "swarm", "colony", "tabu", "greedy",
    "dynamic", "memoization", "hashing", "bloom", "trie", "heap",
    "stack", "deque", "partition", "shard", "replica", "quorum",
]


def synthetic_id(path):
    """The id of a node without `ID` at `path`, its index among its
    parent's `node` children at each depth, the root's (0,) first."""
    return "syn_" + hashlib.sha1("/".join(map(str, path)).encode()).hexdigest()[:12]


def node(nid, text="", link=None, folded=False, children=(), created_at=0):
    return MindNode(id=nid, text=text, link=link, folded=folded,
                    children=list(children), created_at=created_at,
                    modified_at=created_at)


def serialize_mindmap(mindmap):
    """A MindMap written back to the XML dialect parse_mindmap reads,
    every node attribute that is set, so parsing it gives the map back."""
    elems = {None: ET.Element("map")}  # by node id; None, the root's parent, is the map
    for node_id in mindmap.node_ids():
        node = mindmap.node(node_id)
        elem = elems[node_id] = ET.SubElement(elems[mindmap.parent_id(node_id)], "node",
                                              ID=node_id)
        if node.text:
            elem.set("TEXT", node.text)
        if node.folded:
            elem.set("FOLDED", "true")
        if node.link:
            elem.set("LINK", node.link)
        if node.created_at:
            elem.set("CREATED", str(node.created_at))
        if node.modified_at:
            elem.set("MODIFIED", str(node.modified_at))
    return ET.tostring(elems[None], encoding="utf-8")


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def single_map_collection(user_id, root, map_id="m1", events=None):
    return MindMapCollection(user_id, revision_chains([MindMap(map_id, root)]), events=events)


def figure_tree():
    """Three-level tree mirroring the depth worked example: the root, a
    'Academic Search Engines' child at depth 1, 'Scopus' below it."""
    root = node("root", "Research", children=[
        node("ase", "Academic Search Engines", children=[
            node("scopus", "Scopus"),
            node("gscholar", "Google Scholar"),
        ]),
        node("other", "Other Topics"),
    ])
    return MindMap("fig", root)


def build_random_tree(rng, map_id, n_nodes, base_time, folded_fraction=0.1):
    """Random tree with per-node texts and distinct created timestamps."""
    nodes = [node(f"{map_id}_n0", rng.choice(WORDS) + " " + rng.choice(WORDS),
                  created_at=base_time)]
    for i in range(1, n_nodes):
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4)))
        child = node(f"{map_id}_n{i}", text, created_at=base_time + i)
        if rng.random() < folded_fraction:
            child.folded = True
        rng.choice(nodes).children.append(child)
        nodes.append(child)
    return MindMap(map_id, nodes[0])


def scripted_collection(user_id="u_script", n_nodes=200, seed=7,
                        now=1_700_000_000_000):
    """A deterministic multi-map collection with a scripted event log:
    distinct timestamps, all three event kinds, folded subtrees."""
    rng = random.Random(seed)
    maps = []
    events = []
    # span ~53 days of events starting 120 days back, so the 90-day
    # window cuts off a real prefix
    tick = now - 120 * DAY_MS
    per_map = n_nodes // 4
    for m in range(4):
        map_id = f"map{m}"
        mindmap = build_random_tree(rng, map_id, per_map, base_time=tick)
        maps.append(mindmap)
        for node_id in mindmap.node_ids():
            tick += 17_000_000  # ~4.7 h apart, every timestamp distinct
            events.append(NodeEvent(map_id, node_id, "created", tick))
            roll = rng.random()
            if roll < 0.35:
                tick += 1_000_003
                events.append(NodeEvent(map_id, node_id, "moved", tick))
            elif roll < 0.6:
                tick += 1_000_003
                events.append(NodeEvent(map_id, node_id, "edited", tick))
    assert tick < now
    return MindMapCollection(user_id, revision_chains(maps), events=events), now


def small_corpus():
    corpus = Corpus()
    corpus.ingest_document("Quantum Flux Paradigm",
                           body_terms=["quantum", "flux", "paradigm"])
    corpus.ingest_document("Neural Network Ranking",
                           body_terms=["neural", "network", "ranking"])
    corpus.ingest_document("Search Engine Evaluation",
                           body_terms=["search", "engine", "evaluation"],
                           citations=["Quantum Flux Paradigm"])
    return corpus


@pytest.fixture
def corpus3():
    return small_corpus()


def write_cli_fixture(tmp_path, n_users=5, n_docs=30, seed=3,
                      now=1_700_000_000_000):
    """On-disk corpus + per-user mind-map dirs for CLI-level tests."""
    import json

    rng = random.Random(seed)
    titles = []
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for i in range(n_docs):
            words = rng.sample(WORDS, 3)
            title = " ".join(words) + " " + "study review".split()[i % 2]
            titles.append(title)
            handle.write(json.dumps({
                "title": title,
                "terms": rng.sample(WORDS, 4),
                "citations": [titles[rng.randrange(len(titles) - 1)]]
                if len(titles) > 1 and rng.random() < 0.4 else [],
            }) + "\n")

    maps_dir = tmp_path / "mindmaps"
    for u in range(n_users):
        user_dir = maps_dir / f"user{u:02d}"
        user_dir.mkdir(parents=True)
        children = []
        base = now - 30 * DAY_MS
        for i in range(8):
            text = " ".join(rng.sample(WORDS, 2))
            children.append(node(f"u{u}n{i}", text, created_at=base + i * DAY_MS))
        children.append(node(f"u{u}cite", "key reference",
                             link=rng.choice(titles),
                             created_at=base + 9 * DAY_MS))
        root = node(f"u{u}root", " ".join(rng.sample(WORDS, 2)),
                    children=children, created_at=base)
        mm = MindMap(f"map_u{u}", root)
        (user_dir / f"map_u{u}.mm").write_bytes(serialize_mindmap(mm))
    return corpus_path, maps_dir, now

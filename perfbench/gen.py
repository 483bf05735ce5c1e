"""Seeded input generator for the benchmark workloads.

Each ``make_*`` function takes the workload seed and an output directory,
writes the program's input files there and returns the generator's own
records of what it wrote.  The reference computations and output
checkers work from those records, never from the program's parsed view
of the files.  The same seed always gives byte-identical files;
``tree_hash`` fingerprints a directory so that can be checked.

Shapes:

* ``make_scale``: 10,000 documents over a 120-word vocabulary and 1,000
  users with one 9-node map each, whose newest node cites a corpus title
  that three of the other nodes share a word with.
  Used by ``offline_scale`` and ``recommend_cli``.
* ``make_rich``: a few thousand documents over thousands of Zipf-
  distributed pseudo-words, citing each other; a few hundred users with
  several maps, revision chains, moved/edited/folded nodes, ``events.csv``
  sidecars and a few links to titles outside the corpus.
* ``make_online``: a recommendation event log of about 120,000 rows with
  duplicates, repeated showings and every event kind, plus its sets file.
"""

import csv
import hashlib
import itertools
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

DAY_MS = 24 * 60 * 60 * 1000
HOUR_MS = 60 * 60 * 1000
NOW = 1_700_000_000_000

SCALE_DOCS = 10_000
SCALE_USERS = 1_000

RICH_DOCS = 3_000
RICH_USERS = 300
RICH_VOCAB = 6_000
# Zipf-Mandelbrot weights 1 / (rank + Q) ** S: a Zipf tail with a flattened
# head, so even the commonest term is in only about a tenth of documents.
RICH_ZIPF_S = 1.0
RICH_ZIPF_Q = 30

ONLINE_USERS = 900
ONLINE_DOCS = 3_000
ONLINE_SETS_PER_USER = 12
ONLINE_USER_POOL = 30
SET_SIZE = 10

# Stop words the generator mixes into node texts.  Each is also on the
# program's stop list, so a model built with stop-word removal must never
# contain one of them.
INJECTED_STOPWORDS = ("the", "of", "and", "for", "with", "on", "in", "to",
                      "from", "by", "about", "into")

# Common English function words kept out of the pseudo-word vocabulary, so
# that a generated term is never a stop word by accident.
_AVOID = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by can could did do does doing
down during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more most
my myself no nor not now of off on once only or other our ours ourselves
out over own same she should so some such than that the their theirs them
themselves then there these they this those through to too under until up
very was we were what when where which while who whom why will with you
your yours yourself yourselves also may might must shall would
""".split())

WORDS = """
quantum flux paradigm neural network ranking search engine citation graph
topic model retrieval index latent semantic vector space learning
evaluation precision recall corpus document feature weight algorithm
cluster entropy sampling bayes kernel gradient tensor embedding lexicon
ontology taxonomy heuristic stochastic markov inference posterior prior
likelihood regression classifier boosting bagging forest margin hyperplane
convex lattice manifold geodesic spectral wavelet fourier laplace gaussian
poisson binomial variance covariance median quantile outlier anomaly drift
session query relevance feedback pagerank crawler snippet stemming lemma
bigram trigram softmax dropout epoch batch optimizer momentum annealing
pruning quantization distillation attention transformer recurrent
convolution pooling activation sigmoid tangent relu perceptron hopfield
boltzmann genetic swarm colony tabu greedy dynamic memoization hashing
bloom trie heap stack deque partition shard replica quorum
""".split()
assert len(WORDS) == 120 and len(set(WORDS)) == 120


def cleantitle(title):
    """The documented title normalisation: lowercase a-z only, unless that
    strips more than half of the title."""
    normalized = "".join(ch for ch in title.lower() if "a" <= ch <= "z")
    return title if len(normalized) * 2 < len(title) else normalized


def tree_hash(root):
    """sha256 over every file below `root`, by sorted relative path."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# --- records -----------------------------------------------------------------

class Node:
    __slots__ = ("id", "text", "link", "folded", "created", "modified", "children")

    def __init__(self, node_id, text, created, link=None, folded=False):
        self.id = node_id
        self.text = text
        self.link = link
        self.folded = folded
        self.created = created
        self.modified = created
        self.children = []

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _element(node):
    elem = ET.Element("node", ID=node.id)
    if node.text:
        elem.set("TEXT", node.text)
    if node.folded:
        elem.set("FOLDED", "true")
    if node.link:
        elem.set("LINK", node.link)
    elem.set("CREATED", str(node.created))
    elem.set("MODIFIED", str(node.modified))
    for child in node.children:
        elem.append(_element(child))
    return elem


def map_bytes(root):
    doc = ET.Element("map")
    doc.append(_element(root))
    return ET.tostring(doc, encoding="utf-8")


def _write_corpus(path, docs):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for doc in docs:
            record = {"title": doc["title"], "terms": doc["terms"]}
            if doc["citations"]:
                record["citations"] = doc["citations"]
            handle.write(json.dumps(record) + "\n")


def _unique_title(rng, make, seen):
    while True:
        title = make()
        key = cleantitle(title)
        if key not in seen:
            seen.add(key)
            return title


# --- scale shape -------------------------------------------------------------

def make_scale(seed, out_dir):
    """Corpus and maps of the scale shape.

    Returns {"docs": [...], "users": {user_id: {"nodes", "target"}}}.
    Document i (0-based) is written on line i and cites nothing, so the
    program numbers it doc_<i+1>.
    """
    rng = random.Random(f"scale:{seed}")
    out_dir = Path(out_dir)
    seen = set()
    docs = []
    for i in range(SCALE_DOCS):
        title = _unique_title(
            rng, lambda: " ".join(rng.sample(WORDS, 4)) + f" edition {i}", seen)
        docs.append({"title": title, "terms": rng.sample(WORDS, 5), "citations": []})
    _write_corpus(out_dir / "corpus.jsonl", docs)

    users = {}
    maps_dir = out_dir / "mindmaps"
    for u in range(SCALE_USERS):
        user_id = f"user{u:04d}"
        base = NOW - 20 * DAY_MS - rng.randrange(DAY_MS)
        root = Node(f"u{u}r", "notes", base)
        target = rng.randrange(SCALE_DOCS)
        # Three notes name a word of the paper the user goes on to cite, so
        # the cited paper often ranks in the top 50 and the offline rows
        # carry ranks, not only misses.
        about = docs[target]["title"].split()[:4] + docs[target]["terms"]
        for i in range(7):
            words = rng.sample(WORDS, 2)
            if i < 3:
                words[0] = rng.choice([w for w in about if w not in words])
            root.children.append(
                Node(f"u{u}n{i}", " ".join(words), base + (i + 1) * HOUR_MS))
        root.children.append(
            Node(f"u{u}c", "cited work", base + 10 * HOUR_MS, link=docs[target]["title"]))
        user_dir = maps_dir / user_id
        user_dir.mkdir(parents=True)
        (user_dir / f"m{u}.mm").write_bytes(map_bytes(root))
        users[user_id] = {"nodes": [(n.id, n.text, n.link) for n in root.walk()],
                          "target": f"doc_{target + 1}"}
    return {"docs": docs, "users": users}


# --- rich shape --------------------------------------------------------------

def _pseudo_words(rng, n):
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    words, seen = [], set()
    while len(words) < n:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 3, 3, 4))))
        if rng.random() < 0.3:
            word += rng.choice("nrst")
        if word not in seen and word not in _AVOID:
            seen.add(word)
            words.append(word)
    return words


class _MapSim:
    """A map edited over time: node additions, edits, moves and folds."""

    def __init__(self, map_id, root):
        self.map_id = map_id
        self.root = root
        self.nodes = [root]
        self.parent = {root.id: None}
        self.log = [("created", root.id, root.created)]

    def add(self, node, parent):
        parent.children.append(node)
        self.nodes.append(node)
        self.parent[node.id] = parent
        self.log.append(("created", node.id, node.created))

    def edit(self, node, text, at):
        node.text = text
        node.modified = at
        self.log.append(("edited", node.id, at))

    def move(self, node, new_parent, at):
        old = self.parent[node.id]
        old.children.remove(node)
        new_parent.children.insert(0, node)
        self.parent[node.id] = new_parent
        node.modified = at
        self.log.append(("moved", node.id, at))

    def subtree_ids(self, node):
        return {n.id for n in node.walk()}

    def snapshot(self):
        return map_bytes(self.root)


def make_rich(seed, out_dir):
    """Corpus and maps of the rich shape.

    Returns {"docs", "users", "ghost_titles"}; each user record holds the
    final node texts per map and the titles its nodes link to.  Citations
    only point to earlier documents, so line i is doc_<i+1>.
    """
    rng = random.Random(f"rich:{seed}")
    out_dir = Path(out_dir)
    vocab = _pseudo_words(rng, RICH_VOCAB)
    cum = list(itertools.accumulate(1.0 / (r + 1 + RICH_ZIPF_Q) ** RICH_ZIPF_S
                                    for r in range(RICH_VOCAB)))

    def zipf(k):
        return rng.choices(vocab, cum_weights=cum, k=k)

    seen = set()
    docs = []
    for i in range(RICH_DOCS):
        title = _unique_title(rng, lambda: " ".join(zipf(rng.randint(4, 7))), seen)
        cited = []
        if i and rng.random() < 0.6:
            cited = sorted({docs[rng.randrange(i)]["title"] for _ in range(rng.randint(1, 4))})
        docs.append({"title": title, "terms": zipf(rng.randint(10, 20)), "citations": cited})
    _write_corpus(out_dir / "corpus.jsonl", docs)

    ghost_titles = []
    while len(ghost_titles) < 30:
        title = f"External report {' '.join(rng.sample(vocab[:500], 3))}"
        if cleantitle(title) not in seen:
            seen.add(cleantitle(title))
            ghost_titles.append(title)

    def text(topic):
        # Half the nodes speak about the user's own reading, so that some
        # cited documents can be re-found.
        words = (rng.sample(topic, rng.randint(1, 3)) if rng.random() < 0.5
                 else zipf(rng.randint(1, 4)))
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), rng.choice(INJECTED_STOPWORDS))
        return " ".join(words)

    users = {}
    maps_dir = out_dir / "mindmaps"
    for u in range(RICH_USERS):
        user_id = f"u{u:04d}"
        cites = rng.random() >= 0.1
        sidecar = rng.random() < 0.2
        reading = rng.sample(range(RICH_DOCS), 5)
        topic = sorted({w for i in reading
                        for w in docs[i]["title"].split() + docs[i]["terms"]})
        start = NOW - rng.randint(120, 200) * DAY_MS
        sims = []
        for m in range(rng.randint(2, 5)):
            root = Node(f"{user_id}m{m}n0", text(topic), start + m * HOUR_MS)
            sims.append(_MapSim(f"m{m}", root))
        # One timeline for the whole user; all roots exist before it starts,
        # so offline pruning never removes a root.
        n_ops = rng.randint(60, 200)
        clock = start + 10 * HOUR_MS
        step = (NOW - 2 * DAY_MS - clock) // n_ops
        serial = itertools.count(1)
        last_cite = n_ops - rng.randint(3, 10)
        chains = {sim.map_id: [] for sim in sims}
        chain_maps = {sim.map_id for sim in sims if rng.random() < 0.4}
        for op in range(n_ops):
            clock += rng.randint(step // 2, step)
            sim = rng.choice(sims)
            roll = rng.random()
            if roll < 0.7 or len(sim.nodes) < 4:
                link = None
                if cites and op <= last_cite and (op == last_cite or rng.random() < 0.06):
                    roll = rng.random()
                    cited = rng.choice(reading) if roll < 0.7 else rng.randrange(RICH_DOCS)
                    link = rng.choice(ghost_titles) if roll >= 0.95 else docs[cited]["title"]
                node = Node(f"{user_id}{sim.map_id}n{next(serial)}", text(topic), clock,
                            link=link, folded=rng.random() < 0.1)
                sim.add(node, rng.choice(sim.nodes))
            elif roll < 0.85:
                sim.edit(rng.choice(sim.nodes[1:]), text(topic), clock)
            else:
                node = rng.choice(sim.nodes[1:])
                banned = sim.subtree_ids(node)
                targets = [n for n in sim.nodes if n.id not in banned]
                sim.move(node, rng.choice(targets), clock)
            if sim.map_id in chain_maps and rng.random() < 0.02 and len(chains[sim.map_id]) < 2:
                chains[sim.map_id].append(sim.snapshot())
        user_dir = maps_dir / user_id
        user_dir.mkdir(parents=True)
        for sim in sims:
            revisions = chains[sim.map_id] + [sim.snapshot()]
            for r, data in enumerate(revisions, start=1):
                name = sim.map_id if r == 1 else f"{sim.map_id}__rev{r}"
                (user_dir / f"{name}.mm").write_bytes(data)
        if sidecar:
            with open(user_dir / "events.csv", "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["map_id", "node_id", "kind", "at"])
                for sim in sims:
                    for kind, node_id, at in sim.log:
                        writer.writerow([sim.map_id, node_id, kind, at])
        users[user_id] = {
            "maps": {sim.map_id: [n.text for n in sim.root.walk()] for sim in sims},
            "links": sorted({n.link for sim in sims for n in sim.root.walk() if n.link}),
        }
    return {"docs": docs, "users": users, "ghost_titles": ghost_titles}


SPACE_TEXT = """\
node_limit = 10, 50, 100
day_window = none, 30, 90
map_limit = none, 1, 2
event_kind = created, edited, moved, any
visibility = visible_only, all
extension = none, children, siblings, children+siblings
use_node_weighting = false, true
metrics = depth, siblings, depth+siblings
transform = abs, ln
feature_type = terms, both
scheme = tf_only, tf_idf, tf_iduf
remove_stopwords = false, true
model_size = 10, 25, 50
"""


# --- online shape ------------------------------------------------------------

ALGORITHMS = ("all_maps_all_terms", "docear_combined", "mindmeister_last_node",
              "stereotype")


def make_online(seed, out_dir):
    """Event log and sets file, plus the canonical (deduplicated) facts.

    Returns {"sets": {set_id: {"user", "at", "algorithm", "docs"}},
    "kinds": {kind: set of (set_id, doc_id)}}; "shown" covers every item.
    """
    rng = random.Random(f"online:{seed}")
    out_dir = Path(out_dir)
    doc_ids = [f"doc_{i}" for i in range(1, ONLINE_DOCS + 1)]
    slots = [(u, k) for u in range(ONLINE_USERS) for k in range(ONLINE_SETS_PER_USER)]
    rng.shuffle(slots)
    pools = {u: rng.sample(doc_ids, ONLINE_USER_POOL) for u in range(ONLINE_USERS)}

    sets = {}
    kinds = {kind: set() for kind in ("shown", "clicked", "linked", "annotated", "cited")}
    rows = []
    for n, (u, k) in enumerate(slots):
        set_id = f"s{n:06d}"
        user_id = f"ou{u:04d}"
        at = NOW + n * 1_000
        picked = rng.sample(pools[u], SET_SIZE)
        sets[set_id] = {"user": user_id, "at": at, "algorithm": rng.choice(ALGORITHMS),
                        "docs": picked}
        for doc_id in picked:
            rows.append((set_id, doc_id, user_id, "shown", at))
            kinds["shown"].add((set_id, doc_id))
            if rng.random() < 0.06:
                rows.append((set_id, doc_id, user_id, "clicked", at + rng.randint(0, 500)))
                kinds["clicked"].add((set_id, doc_id))
                for kind, p in (("linked", 0.3), ("annotated", 0.2), ("cited", 0.1)):
                    if rng.random() < p:
                        rows.append((set_id, doc_id, user_id, kind, at + rng.randint(500, 900)))
                        kinds[kind].add((set_id, doc_id))
    # Duplicates arrive later than the originals, so deduplication keeps
    # the original and the canonical facts above stay exact.
    for row in rng.sample(rows, len(rows) // 50):
        rows.append(row[:4] + (row[4] + rng.randint(1, 90),))
    rng.shuffle(rows)
    with open(out_dir / "events.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["set_id", "doc_id", "user_id", "kind", "at"])
        writer.writerows(rows)
    with open(out_dir / "sets.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for set_id, rec in sets.items():
            display = list(range(1, SET_SIZE + 1))
            rng.shuffle(display)
            handle.write(json.dumps({
                "set_id": set_id, "user_id": rec["user"], "created_at": rec["at"],
                "trigger": "requested", "label": "", "algorithm": rec["algorithm"],
                "items": [{"doc_id": d, "original_rank": i + 1, "display_rank": display[i]}
                          for i, d in enumerate(rec["docs"])],
            }) + "\n")
    return {"sets": sets, "kinds": kinds}

"""Mind-map tree model: parsing, structural queries, revision diffing.

The file dialect is a Freemind-style XML subset: a ``map`` root element
holding nested ``node`` elements with ID/TEXT/FOLDED/LINK/CREATED/MODIFIED
attributes.  Unknown attributes and elements are ignored.
"""

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace

from .errors import InconsistentRevisions, MalformedInput, NoRoot, UnknownNode
from .rows import read_csv
from .text import tokenize

EVENT_KINDS = ("created", "edited", "moved")


@dataclass
class MindNode:
    id: str
    text: str = ""
    link: str | None = None
    folded: bool = False
    children: list["MindNode"] = field(default_factory=list)
    created_at: int = 0
    modified_at: int = 0


@dataclass(frozen=True)
class NodeEvent:
    map_id: str
    node_id: str
    kind: str
    at: int


class MindMap:
    """A parsed mind map plus the derived structural indexes."""

    def __init__(self, map_id, root, revision=1, saved_at=0):
        self.map_id = map_id
        self.root = root
        self.revision = revision
        self.saved_at = saved_at
        self._by_id = {}
        self._parent = {}
        self._depth = {}
        self._index = {}
        self._walk(root, None, 0, 0)

    def _walk(self, node, parent_id, depth, index):
        if node.id in self._by_id:
            raise MalformedInput(f"duplicate node id {node.id!r} in map {self.map_id!r}")
        self._by_id[node.id] = node
        self._parent[node.id] = parent_id
        self._depth[node.id] = depth
        self._index[node.id] = index
        for i, child in enumerate(node.children):
            self._walk(child, node.id, depth + 1, i)

    def __contains__(self, node_id):
        return node_id in self._by_id

    def node(self, node_id):
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in map {self.map_id!r}") from None

    def node_ids(self):
        return list(self._by_id)

    def parent_id(self, node_id):
        self.node(node_id)
        return self._parent[node_id]

    def child_index(self, node_id):
        self.node(node_id)
        return self._index[node_id]


def _synthetic_id(path):
    digest = hashlib.sha1("/".join(str(i) for i in path).encode()).hexdigest()
    return "syn_" + digest[:12]


def _parse_node(elem, path):
    if elem.tag != "node":
        raise MalformedInput(f"unexpected element {elem.tag!r}")
    attrs = elem.attrib
    node = MindNode(
        id=attrs.get("ID") or _synthetic_id(path),
        text=attrs.get("TEXT", ""),
        link=attrs.get("LINK") or None,
        folded=attrs.get("FOLDED", "false").lower() == "true",
        created_at=int(float(attrs.get("CREATED", 0))),
        modified_at=int(float(attrs.get("MODIFIED", 0))),
    )
    child_index = 0
    for child in elem:
        if child.tag == "node":
            node.children.append(_parse_node(child, path + (child_index,)))
            child_index += 1
    return node


def parse_mindmap(data, map_id="map", revision=1, saved_at=0):
    """Parse raw mind-map markup into a MindMap.

    Raises MalformedInput on unparseable markup and NoRoot when the map
    element does not contain exactly one top-level node.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedInput(str(exc)) from exc
    if doc.tag != "map":
        raise MalformedInput(f"root element is {doc.tag!r}, expected 'map'")
    roots = [child for child in doc if child.tag == "node"]
    if len(roots) != 1:
        raise NoRoot(f"expected exactly one top-level node, found {len(roots)}")
    return MindMap(map_id, _parse_node(roots[0], (0,)), revision=revision, saved_at=saved_at)


def serialize_mindmap(mindmap):
    """Write a MindMap back to the XML dialect (round-trip stable)."""

    def emit(node):
        elem = ET.Element("node", ID=node.id)
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
        for child in node.children:
            elem.append(emit(child))
        return elem

    root = ET.Element("map")
    root.append(emit(mindmap.root))
    return ET.tostring(root, encoding="utf-8")


def node_depth(mindmap, node_id):
    """Distance from the root; the root itself has depth 0."""
    mindmap.node(node_id)
    return mindmap._depth[node_id]


def is_visible(mindmap, node_id):
    """True unless some strict ancestor is folded."""
    mindmap.node(node_id)
    ancestor = mindmap._parent[node_id]
    while ancestor is not None:
        if mindmap.node(ancestor).folded:
            return False
        ancestor = mindmap._parent[ancestor]
    return True


def node_stats(mindmap, node_id):
    """(children_count, sibling_count, term_count) for one node."""
    node = mindmap.node(node_id)
    parent = mindmap._parent[node_id]
    siblings = 0 if parent is None else len(mindmap.node(parent).children) - 1
    return len(node.children), siblings, len(tokenize(node.text))


def derive_events(revisions):
    """Reconstruct created/edited/moved events from a revision chain.

    Diffs consecutive revisions by node id; position is the (parent id,
    sibling index) pair.  A sidecar event log, when available, should be
    preferred over this reconstruction.
    """
    last = None
    for rev in revisions:
        if last is not None:
            if rev.map_id != last.map_id:
                raise InconsistentRevisions("revisions mix map ids")
            if rev.revision <= last.revision:
                raise InconsistentRevisions(
                    f"revision {rev.revision} after {last.revision}"
                )
        last = rev

    events = []
    for prev, cur in zip(revisions, revisions[1:]):
        at = cur.saved_at
        for node_id in cur.node_ids():
            if node_id not in prev:
                events.append(NodeEvent(cur.map_id, node_id, "created", at))
                continue
            if cur.node(node_id).text != prev.node(node_id).text:
                events.append(NodeEvent(cur.map_id, node_id, "edited", at))
            moved = (
                cur.parent_id(node_id) != prev.parent_id(node_id)
                or cur.child_index(node_id) != prev.child_index(node_id)
            )
            if moved:
                events.append(NodeEvent(cur.map_id, node_id, "moved", at))
    events.sort(key=lambda e: (e.at, e.map_id, e.node_id, e.kind))
    return events


class MindMapCollection:
    """All of one user's mind maps (with revision history) plus events."""

    def __init__(self, user_id, revisions, events=None):
        """`revisions`: iterable of MindMap, grouped internally by map_id.

        When `events` is None they are derived from the revision chains;
        an explicit event log (the canonical source) overrides derivation.
        For maps with a single revision and no explicit events, a created
        event per node is synthesized from the node's created_at.
        """
        self.user_id = user_id
        self.revisions = {}
        for rev in revisions:
            self.revisions.setdefault(rev.map_id, []).append(rev)
        for chain in self.revisions.values():
            chain.sort(key=lambda m: m.revision)
        if events is not None:
            self.events = sorted(events, key=lambda e: (e.at, e.map_id, e.node_id, e.kind))
        else:
            derived = []
            for chain in self.revisions.values():
                first = chain[0]
                for node_id in first.node_ids():
                    derived.append(
                        NodeEvent(first.map_id, node_id, "created",
                                  first.node(node_id).created_at)
                    )
                derived.extend(derive_events(chain))
            derived.sort(key=lambda e: (e.at, e.map_id, e.node_id, e.kind))
            self.events = derived

    @property
    def map_ids(self):
        return list(self.revisions)

    def latest(self, map_id):
        return self.revisions[map_id][-1]

    def latest_maps(self):
        return [chain[-1] for chain in self.revisions.values()]

    def is_empty(self):
        return not self.revisions


def read_event_log(path):
    """Read a sidecar event CSV (`map_id,node_id,kind,at`)."""
    return read_csv(path, _node_event)


def _node_event(row):
    kind = row["kind"]
    if kind not in EVENT_KINDS:
        raise ValueError(f"bad kind {kind!r}")
    return NodeEvent(row["map_id"], row["node_id"], kind, int(row["at"]))


def copy_mindmap(mindmap, drop_node_ids=(), strip_link_ids=()):
    """Deep copy, removing the given subtrees and clearing the given links."""
    drop = set(drop_node_ids)
    strip = set(strip_link_ids)

    def clone(node):
        if node.id in drop:
            return None
        kids = [c for c in (clone(child) for child in node.children) if c is not None]
        link = None if node.id in strip else node.link
        return replace(node, link=link, children=kids)

    root = clone(mindmap.root)
    if root is None:
        raise NoRoot(f"pruning removed the root of map {mindmap.map_id!r}")
    return MindMap(mindmap.map_id, root, revision=mindmap.revision, saved_at=mindmap.saved_at)

"""Mind-map tree model: parsing, structural queries, revision diffing.

The file dialect is a Freemind-style XML subset: a ``map`` root element
holding nested ``node`` elements with ID/TEXT/FOLDED/LINK/CREATED/MODIFIED
attributes.  Unknown attributes and elements are ignored.
"""

import xml.etree.ElementTree as ET
from collections import namedtuple
from dataclasses import dataclass, field, replace

from .errors import InconsistentRevisions, MalformedInput, NoRoot, UnknownNode
from .rows import integers, read_csv, real

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
    """A parsed mind map plus the derived structural indexes.

    `_by_id` holds the nodes in pre-order (a node before its children,
    children in order), and `_parent`, `_depth` and `_index` hold each
    node's parent id (None for the root), distance from the root and
    position among its siblings.  Link order and copying rely on that
    order: a node's parent always comes before it.
    """

    def __init__(self, map_id, root, revision=1, saved_at=0):
        self.map_id = map_id
        self.root = root
        self.revision = revision
        self.saved_at = saved_at
        self._by_id = {}
        self._parent = {}
        self._depth = {}
        self._index = {}
        stack = [(root, None, 0, 0)]
        while stack:
            node, parent_id, depth, index = stack.pop()
            if node.id in self._by_id:
                raise MalformedInput(f"duplicate node id {node.id!r} in map {self.map_id!r}")
            self._by_id[node.id] = node
            self._parent[node.id] = parent_id
            self._depth[node.id] = depth
            self._index[node.id] = index
            children = node.children
            for i in range(len(children) - 1, -1, -1):  # last first, so they pop in order
                stack.append((children[i], node.id, depth + 1, i))

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


def _synthetic_id(step):
    """'syn_' and the first 12 hex digits of the sha1 of a node's path, its
    index among its parent's `node` children at each depth from the root's
    0: "0/2/1".  `step` is [the parent's step (None for the root), the
    index, the sha1 of the path or None]; each sha1 made is kept in its
    step, so a map feeds each index to sha1 once, however deep it is.
    hashlib, which loads OpenSSL, is imported at the first node without ID."""
    from hashlib import sha1
    pending = []
    while step[2] is None and step[0] is not None:
        pending.append(step)
        step = step[0]
    if step[2] is None:  # the root, whose path is "0"
        step[2] = sha1(b"0")
    digest = step[2]
    for step in reversed(pending):
        digest = step[2] = digest.copy()
        digest.update(b"/%d" % step[1])
    return "syn_" + digest.hexdigest()[:12]


def _timestamp(attrs, name):
    """The whole milliseconds of a time attribute, a finite `rows.real`;
    absent reads as 0."""
    raw = attrs.get(name, "0")
    try:
        return int(real(raw))
    except (ValueError, OverflowError):
        raise MalformedInput(f"{name}={raw!r} is not a finite number") from None


def _walk_map(data, visit):
    """Check a map's markup and visit each of its nodes in pre-order.
    Bytes are decoded as their XML declaration or byte-order mark says.

    `visit(attrs, node_id, created_at, modified_at, parent)` gets a node
    element's attributes, its id (a synthetic one from its position when
    it has no ID) and its timestamps; `parent` is what `visit` returned
    for the parent node, None for the root.  Returns what it returned for
    the root.  Raises MalformedInput on unparseable markup or a declared
    encoding the parser cannot use, a root element other than `map` or a
    timestamp that is not a finite number; NoRoot when the map element
    does not contain exactly one top-level node.  Node ids are not checked.
    """
    try:
        doc = ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise MalformedInput(str(exc)) from exc
    if doc.tag != "map":
        raise MalformedInput(f"root element is {doc.tag!r}, expected 'map'")
    roots = [child for child in doc if child.tag == "node"]
    if len(roots) != 1:
        raise NoRoot(f"expected exactly one top-level node, found {len(roots)}")
    stack = [(roots[0], [None, 0, None], None)]
    while stack:
        elem, step, parent = stack.pop()
        attrs = elem.attrib
        made = visit(attrs, attrs.get("ID") or _synthetic_id(step),
                     _timestamp(attrs, "CREATED"), _timestamp(attrs, "MODIFIED"), parent)
        if step[0] is None:
            root = made
        kids = elem.findall("node")
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], [step, i, None], made))
    return root


def parse_mindmap(data, map_id="map", revision=1):
    """Parse raw mind-map markup into a MindMap saved at the latest MODIFIED
    of its nodes; faults raise as in `_walk_map`, then a repeated id in MindMap."""

    def visit(attrs, node_id, created_at, modified_at, parent):
        node = MindNode(node_id, attrs.get("TEXT", ""), attrs.get("LINK") or None,
                        attrs.get("FOLDED", "false").lower() == "true", [],
                        created_at, modified_at)
        if parent is not None:
            parent.children.append(node)
        return node

    mindmap = MindMap(map_id, _walk_map(data, visit), revision=revision)
    mindmap.saved_at = max(node.modified_at for node in mindmap._by_id.values())
    return mindmap


# The links of one map revision's nodes, in pre-order.  A namedtuple, as
# a dataclass would add about a millisecond to every command's start.
MapLinks = namedtuple("MapLinks", "map_id revision links")


def read_map_links(data, map_id="map", revision=1):
    """The MapLinks of raw mind-map markup, read without building the map;
    every fault `parse_mindmap` rejects raises the same error here."""
    links, seen, repeated = [], set(), []

    def visit(attrs, node_id, created_at, modified_at, parent):
        if node_id in seen:
            repeated.append(node_id)
        seen.add(node_id)
        link = attrs.get("LINK")
        if link:
            links.append(link)

    _walk_map(data, visit)
    if repeated:
        raise MalformedInput(f"duplicate node id {repeated[0]!r} in map {map_id!r}")
    return MapLinks(map_id, revision, links)


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


def revision_chains(revisions):
    """{map_id: [revision, ...]} of MindMaps or MapLinks, map ids in order of
    first appearance, each chain sorted by revision number.  Raises
    InconsistentRevisions when two revisions of a map share a number."""
    chains = {}
    for rev in revisions:
        chains.setdefault(rev.map_id, []).append(rev)
    for chain in chains.values():
        chain.sort(key=lambda m: m.revision)
        for prev, cur in zip(chain, chain[1:]):
            if cur.revision == prev.revision:
                raise InconsistentRevisions(f"map {cur.map_id!r}: revision {cur.revision} "
                                            f"after {prev.revision}")
    return chains


def derive_events(chain):
    """Reconstruct created/edited/moved events from one map's revision
    chain, as `revision_chains` returns it.

    Diffs consecutive revisions by node id; position is the (parent id,
    sibling index) pair.  Events come in chain order, each revision's
    nodes in pre-order.  A sidecar event log, when available, should be
    preferred over this reconstruction.
    """
    events = []
    for prev, cur in zip(chain, chain[1:]):
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
    return events


class MindMapCollection:
    """One user's mind maps, `maps` = {map_id: its latest revision}, and
    node `events`, which ascend by (at, map_id, node_id, kind): the last
    event of a node or a map in that order is its latest."""

    def __init__(self, user_id, chains, events=None):
        """`chains`: {map_id: [MindMap, ...]}, as `revision_chains` returns it.

        When `events` is None they are derived from the chains: each node
        of a map's first revision is created at its created_at, and each
        later revision adds the events of `derive_events` at its saved_at.
        An explicit event log (the canonical source) overrides derivation.
        """
        self.user_id = user_id
        if events is None:
            events = []
            for chain in chains.values():
                first = chain[0]
                events += [NodeEvent(first.map_id, node.id, "created", node.created_at)
                           for node in first._by_id.values()]
                events += derive_events(chain)
        self.events = sorted(events, key=lambda e: (e.at, e.map_id, e.node_id, e.kind))
        self.maps = {map_id: chain[-1] for map_id, chain in chains.items()}

    def latest_maps(self):
        return list(self.maps.values())

    def links(self):
        """The links of the latest maps, maps in order, nodes in pre-order."""
        return [node.link for mindmap in self.maps.values()
                for node in mindmap._by_id.values() if node.link]


def read_event_log(path):
    """Read a sidecar event CSV (`map_id,node_id,kind,at`), each distinct
    id of the file held once."""
    intern, time = {}.setdefault, integers()

    def node_event(map_id, node_id, kind, at):
        if kind not in EVENT_KINDS:
            raise ValueError(f"bad kind {kind!r}")
        return NodeEvent(intern(map_id, map_id), intern(node_id, node_id), kind, time(at))
    return read_csv(path, ("map_id", "node_id", "kind", "at"), node_event)


def copy_mindmap(mindmap, drop_node_ids=(), strip_link_ids=()):
    """Deep copy, removing the given subtrees and clearing the given links."""
    drop = set(drop_node_ids)
    strip = set(strip_link_ids)
    top = MindNode("")  # holds the copied root, if any
    clones = {None: top}
    for node_id, node in mindmap._by_id.items():
        parent = clones.get(mindmap._parent[node_id])
        if parent is None or node_id in drop:
            continue
        clone = clones[node_id] = replace(node, link=None if node_id in strip else node.link,
                                          children=[])
        parent.children.append(clone)
    if not top.children:
        raise NoRoot(f"pruning removed the root of map {mindmap.map_id!r}")
    return MindMap(mindmap.map_id, top.children[0], revision=mindmap.revision,
                   saved_at=mindmap.saved_at)

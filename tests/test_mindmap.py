import hashlib
import random
import weakref
import xml.etree.ElementTree as ET

import pytest

from mindrec import mindmap

from mindrec.errors import (
    InconsistentRevisions,
    MalformedInput,
    MalformedRow,
    NoRoot,
    UnknownNode,
)
from mindrec.mindmap import (
    MindMap,
    MindMapCollection,
    MindNode,
    NodeEvent,
    copy_mindmap,
    derive_events,
    is_visible,
    node_depth,
    parse_mindmap,
    read_event_log,
    read_map_links,
    revision_chains,
)
from mindrec.usermodel import NODE_METRICS

from conftest import figure_tree, node, serialize_mindmap, synthetic_id


class TestParse:
    def test_minimal_document(self):
        m = parse_mindmap(b'<map><node TEXT="X"/></map>')
        assert m.root.text == "X"
        assert m.root.folded is False
        assert node_depth(m, m.root.id) == 0
        assert len(m.node_ids()) == 1

    def test_folded_middle_node(self):
        raw = (
            '<map><node ID="a" TEXT="top">'
            '<node ID="b" TEXT="mid" FOLDED="true">'
            '<node ID="c" TEXT="leaf"/></node></node></map>'
        )
        m = parse_mindmap(raw)
        assert m.node("b").folded is True
        assert [child.id for child in m.node("b").children] == ["c"]
        assert m.node("c").text == "leaf"

    def test_empty_map_has_no_root(self):
        with pytest.raises(NoRoot):
            parse_mindmap(b"<map></map>")

    def test_two_top_level_nodes_rejected(self):
        with pytest.raises(NoRoot):
            parse_mindmap(b'<map><node TEXT="a"/><node TEXT="b"/></map>')

    def test_built_tree_with_a_repeated_id(self):
        root = node("r", children=[node("a"), node("b", children=[node("a")])])
        with pytest.raises(MalformedInput, match="duplicate node id 'a' in map 'm1'"):
            MindMap("m1", root)

    def test_malformed_markup(self):
        with pytest.raises(MalformedInput):
            parse_mindmap(b"<map><node")
        with pytest.raises(MalformedInput):
            parse_mindmap(b'<tree><node TEXT="x"/></tree>')

    @pytest.mark.parametrize("encoding", [b"utf-9", b"Shift_JIS"], ids=["unknown", "multi_byte"])
    def test_declared_encoding_the_parser_cannot_use(self, encoding):
        data = b'<?xml version="1.0" encoding="%s"?><map><node TEXT="x"/></map>' % encoding
        for read in (parse_mindmap, mindmap.read_map_links):
            with pytest.raises(MalformedInput):
                read(data)

    def test_unknown_attributes_ignored(self):
        m = parse_mindmap(b'<map><node TEXT="x" COLOR="#fff" STYLE="fork"/></map>')
        assert m.root.text == "x"

    def test_synthetic_ids_deterministic(self):
        raw = b'<map><node TEXT="a"><node TEXT="b"/><node TEXT="c"/></node></map>'
        ids1 = parse_mindmap(raw).node_ids()
        ids2 = parse_mindmap(raw).node_ids()
        assert ids1 == ids2
        assert len(set(ids1)) == 3

    def test_synthetic_ids_of_a_deep_chain_hash_each_step_once(self, monkeypatch):
        # Each node's whole path was once hashed anew: about 4 million
        # bytes for a chain 2,000 deep.
        fed, sha1 = [], hashlib.sha1

        class CountingSha1:
            def __init__(self, data=b""):
                self._sha1 = sha1()
                self.update(data)

            def update(self, data):
                fed.append(len(data))
                self._sha1.update(data)

            def copy(self):
                copy = CountingSha1()
                copy._sha1 = self._sha1.copy()
                return copy

            def hexdigest(self):
                return self._sha1.hexdigest()

        monkeypatch.setattr(hashlib, "sha1", CountingSha1)  # imported when first needed
        depth = 2_000
        m = parse_mindmap("<map>" + "<node>" * depth + "</node>" * depth + "</map>")
        assert sum(fed) < 3 * depth  # "0", then "/0" a level
        assert m.node_ids() == [synthetic_id((0,) * (d + 1)) for d in range(depth)]

    def test_timestamps_default_zero(self):
        m = parse_mindmap(b'<map><node TEXT="x"/></map>')
        assert m.root.created_at == 0 and m.root.modified_at == 0

    def test_roundtrip(self):
        raw = (
            '<map><node ID="a" TEXT="top" CREATED="12" MODIFIED="15">'
            '<node ID="b" TEXT="mid" FOLDED="true" LINK="Some Paper">'
            '<node ID="c" TEXT="leaf"/></node>'
            '<node ID="d" TEXT="side"/></node></map>'
        )
        m1 = parse_mindmap(raw)
        m2 = parse_mindmap(serialize_mindmap(m1))
        for nid in m1.node_ids():
            a, b = m1.node(nid), m2.node(nid)
            assert (a.id, a.text, a.folded, a.link) == (b.id, b.text, b.folded, b.link)
        assert m1.node_ids() == m2.node_ids()

    def test_random_tree_roundtrip(self):
        alphabet = "ab Zé漢&<>\"'\t\n\r"
        rng = random.Random(11)

        def text():
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))

        for trial in range(200):
            nodes = []
            for i in range(rng.randrange(1, 40)):
                nodes.append(MindNode(
                    id=f"n{i}{text()}", text=text(),
                    link=rng.choice([None, text() + "x"]),
                    folded=rng.random() < 0.3,
                    created_at=rng.choice([0, rng.randrange(2 * 10 ** 12)]),
                    modified_at=rng.choice([0, rng.randrange(2 * 10 ** 12)]),
                ))
                if i:
                    rng.choice(nodes[:i]).children.append(nodes[i])
            m = MindMap(f"map{trial}", nodes[0])
            again = parse_mindmap(serialize_mindmap(m), map_id=m.map_id)
            assert again.root == m.root
            assert again.node_ids() == m.node_ids()

    def test_tree_property(self):
        rng = random.Random(3)
        from conftest import build_random_tree
        m = build_random_tree(rng, "t", 60, base_time=0)
        ids = m.node_ids()
        assert len(set(ids)) == len(ids)
        non_root = [n for n in ids if m.parent_id(n) is not None]
        assert len(non_root) == len(ids) - 1


class TestDepthVisibilityStats:
    def test_root_depth_zero(self):
        assert node_depth(figure_tree(), "root") == 0

    def test_scopus_depth_two(self):
        assert node_depth(figure_tree(), "scopus") == 2

    def test_academic_search_engines_depth_one(self):
        assert node_depth(figure_tree(), "ase") == 1

    def test_depth_consistency(self):
        m = figure_tree()
        for nid in m.node_ids():
            parent = m.parent_id(nid)
            if parent is not None:
                assert node_depth(m, nid) == node_depth(m, parent) + 1

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            node_depth(figure_tree(), "nope")

    def test_root_visible(self):
        assert is_visible(figure_tree(), "root")

    def test_child_of_folded_hidden(self):
        m = MindMap("v", node("r", children=[
            node("f", folded=True, children=[node("c")])]))
        assert is_visible(m, "f") is True  # the folded node itself shows
        assert is_visible(m, "c") is False

    def test_grandchild_of_folded_hidden(self):
        # 4 levels: r -> f(folded) -> mid(unfolded) -> leaf
        m = MindMap("v", node("r", children=[
            node("f", folded=True, children=[
                node("mid", children=[node("leaf")])])]))
        # oracle: scan strict ancestors for any fold
        def oracle(nid):
            a = m.parent_id(nid)
            while a is not None:
                if m.node(a).folded:
                    return False
                a = m.parent_id(a)
            return True
        for nid in m.node_ids():
            assert is_visible(m, nid) == oracle(nid)
        assert is_visible(m, "leaf") is False

    def test_visibility_monotone(self):
        m = MindMap("v", node("r", children=[
            node("f", folded=True, children=[
                node("mid", children=[node("leaf")])]),
            node("open", children=[node("x")])]))
        for nid in m.node_ids():
            if not is_visible(m, nid):
                for child in m.node(nid).children:
                    assert not is_visible(m, child.id)

    def test_stats_leaf_root(self):
        m = MindMap("s", node("r", "hello world"))
        assert [NODE_METRICS[k](m, "r") for k in ("children", "siblings", "term_count")] == \
            [0, 0, 2]

    def test_two_children_each(self):
        b = node("B", "b", children=[
            node("b1", children=[node("b1a"), node("b1b")]),
            node("b2", children=[node("b2a"), node("b2b")]),
        ])
        m = MindMap("s", node("r", children=[b]))
        assert NODE_METRICS["children"](m, "B") == 2

    def test_sibling_count(self):
        m = MindMap("s", node("r", children=[node(f"c{i}") for i in range(4)]))
        assert NODE_METRICS["siblings"](m, "c0") == 3
        assert NODE_METRICS["siblings"](m, "r") == 0


class TestDeriveEvents:
    def _rev(self, root, revision, saved_at):
        return MindMap("m", root, revision=revision, saved_at=saved_at)

    def test_identical_revisions(self):
        r1 = self._rev(node("r", "a", children=[node("c", "b")]), 1, 10)
        r2 = self._rev(node("r", "a", children=[node("c", "b")]), 2, 20)
        assert derive_events([r1, r2]) == []

    def test_single_insertion(self):
        r1 = self._rev(node("r", "a"), 1, 10)
        r2 = self._rev(node("r", "a", children=[node("c", "b")]), 2, 20)
        events = derive_events([r1, r2])
        assert events == [NodeEvent("m", "c", "created", 20)]

    def test_sibling_swap_two_moves(self):
        r1 = self._rev(node("r", children=[node("a"), node("b")]), 1, 10)
        r2 = self._rev(node("r", children=[node("b"), node("a")]), 2, 20)
        events = derive_events([r1, r2])
        # oracle: diff (parent, index) per shared node
        displaced = set()
        for nid in ("a", "b", "r"):
            if (r1.parent_id(nid), r1.child_index(nid)) != \
                    (r2.parent_id(nid), r2.child_index(nid)):
                displaced.add(nid)
        assert displaced == {"a", "b"}
        assert sorted((e.node_id, e.kind) for e in events) == \
            [("a", "moved"), ("b", "moved")]

    def test_edit_and_move_together(self):
        r1 = self._rev(node("r", children=[node("a", "old"), node("b")]), 1, 10)
        r2 = self._rev(node("r", children=[node("b"), node("a", "new")]), 2, 20)
        kinds = {(e.node_id, e.kind) for e in derive_events([r1, r2])}
        assert ("a", "edited") in kinds and ("a", "moved") in kinds

    def test_inconsistent_revisions(self):
        r1 = self._rev(node("r"), 2, 10)
        r2 = self._rev(node("r"), 2, 20)
        with pytest.raises(InconsistentRevisions):
            revision_chains([r1, r2])

    def test_event_completeness(self):
        r1 = self._rev(node("r", "a"), 1, 10)
        r2 = self._rev(node("r", "a", children=[node("c")]), 2, 20)
        r3 = self._rev(node("r", "a", children=[node("c"), node("d")]), 3, 30)
        collection = MindMapCollection("u", revision_chains([r1, r2, r3]))
        created = {e.node_id for e in collection.events if e.kind == "created"}
        assert created >= set(r3.node_ids())

    def test_collection_keeps_only_the_latest_revision(self):
        r1 = self._rev(node("r", "a", created_at=5), 1, 10)
        r2 = self._rev(node("r", "a", children=[node("c")]), 2, 20)
        first = weakref.ref(r1)
        chains = revision_chains([r1, r2])
        del r1
        collection = MindMapCollection("u", chains)
        del chains
        assert first() is None
        assert collection.maps == {"m": r2}
        assert collection.events == [NodeEvent("m", "r", "created", 5),
                                     NodeEvent("m", "c", "created", 20)]


class TestEventLog:
    def test_read_sidecar(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("map_id,node_id,kind,at\nm1,n1,created,100\nm1,n1,edited,200\n")
        events = read_event_log(p)
        assert events == [NodeEvent("m1", "n1", "created", 100),
                          NodeEvent("m1", "n1", "edited", 200)]

    def test_bad_kind(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("map_id,node_id,kind,at\nm1,n1,zapped,100\n")
        with pytest.raises(MalformedRow):
            read_event_log(p)

    def test_explicit_log_overrides_derivation(self):
        m = MindMap("m", node("r", "a", created_at=50))
        explicit = [NodeEvent("m", "r", "created", 999)]
        collection = MindMapCollection("u", revision_chains([m]), events=explicit)
        assert collection.events == explicit


class TestDeepMaps:
    def test_chain_deeper_than_the_recursion_limit(self):
        nodes = [node(f"n{i}", link=f"Title {i}" if i in (700, 1_400) else None)
                 for i in range(1_500)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.children.append(child)
        m = MindMap("deep", nodes[0])
        assert m.node_ids() == [f"n{i}" for i in range(1_500)]
        assert node_depth(m, "n1499") == 1_499
        assert m.parent_id("n1499") == "n1498"
        pruned = copy_mindmap(m, drop_node_ids={"n1000"}, strip_link_ids={"n700"})
        assert pruned.node_ids() == [f"n{i}" for i in range(1_000)]
        assert pruned.node("n700").link is None and m.node("n700").link == "Title 700"
        assert MindMapCollection("u", revision_chains([copy_mindmap(m)])).links() == ["Title 700", "Title 1400"]

    def test_deep_markup(self):
        depth = 1_500
        data = "<map>" + "".join(
            f'<node ID="n{i}" LINK="Title {i}">' if i in (700, 1_400) else "<node>"
            for i in range(depth)) + "</node>" * depth + "</map>"
        m = parse_mindmap(data)
        assert len(m.node_ids()) == depth
        assert node_depth(m, "n1400") == 1_400
        assert read_map_links(data).links == ["Title 700", "Title 1400"]


# Recursive references for the walks in mindmap.py, which keep an explicit
# stack so that no map is too deep to read.  Each follows the definition:
# a node, then each of its `node` children in turn.

def _reference_walk(data):
    """(id, parent id, depth, sibling index, link) of each node of markup,
    in pre-order; a node without ID is named by its path of indexes among
    `node` children."""
    rows = []

    def walk(elem, path, parent_id):
        node_id = elem.get("ID") or synthetic_id(path)
        rows.append((node_id, parent_id, len(path) - 1, path[-1], elem.get("LINK")))
        for i, kid in enumerate(kid for kid in elem if kid.tag == "node"):
            walk(kid, path + (i,), node_id)

    walk(ET.fromstring(data).find("node"), (0,), None)
    return rows


def _reference_ids(node):
    return [node.id] + [i for child in node.children for i in _reference_ids(child)]


def _reference_copy(node, drop, strip):
    if node.id in drop:
        return None
    kids = [kid for kid in (_reference_copy(child, drop, strip) for child in node.children)
            if kid is not None]
    return MindNode(node.id, node.text, None if node.id in strip else node.link,
                    node.folded, kids, node.created_at, node.modified_at)


def _reference_serialize(mindmap):
    def emit(node):
        elem = ET.Element("node", ID=node.id)
        for name, value in (("TEXT", node.text), ("FOLDED", "true" if node.folded else ""),
                            ("LINK", node.link), ("CREATED", node.created_at or ""),
                            ("MODIFIED", node.modified_at or "")):
            if value:
                elem.set(name, str(value))
        elem.extend(emit(child) for child in node.children)
        return elem

    root = ET.Element("map")
    root.append(emit(mindmap.root))
    return ET.tostring(root, encoding="utf-8")


def _random_markup(rng, n_nodes):
    """Map markup of a random tree: some nodes without ID, some folded,
    some linked, with other elements among the `node` children."""
    kids = [[] for _ in range(n_nodes)]
    for i in range(1, n_nodes):
        kids[rng.randrange(i)].append(i)

    def emit(i):
        attrs = "" if rng.random() < 0.3 else f' ID="n{i}"'
        attrs += f' TEXT="t{rng.randrange(5)}"'
        if rng.random() < 0.2:
            attrs += ' FOLDED="true"'
        if rng.random() < 0.3:
            attrs += f' LINK="Paper {rng.randrange(10)}"'
        if rng.random() < 0.5:
            attrs += f' CREATED="{rng.randrange(1, 10 ** 6)}"'
        if rng.random() < 0.5:
            attrs += f' MODIFIED="{rng.randrange(1, 10 ** 6)}"'
        inner = [emit(kid) for kid in kids[i]]
        if rng.random() < 0.3:
            inner.insert(rng.randrange(len(inner) + 1), '<icon BUILTIN="idea"/>')
        return f"<node{attrs}>{''.join(inner)}</node>"

    return f"<map>{emit(0)}</map>"


class TestWalksMatchRecursiveReference:
    def test_random_trees(self):
        rng = random.Random(13)
        for trial in range(200):
            data = _random_markup(rng, rng.randrange(1, 60))
            m = parse_mindmap(data, map_id=f"m{trial}")
            rows = _reference_walk(data)
            assert m.node_ids() == [row[0] for row in rows]
            assert [(m.parent_id(i), node_depth(m, i), m.child_index(i), m.node(i).link)
                    for i in m.node_ids()] == [row[1:] for row in rows]
            assert read_map_links(data).links == [row[4] for row in rows if row[4]]
            assert serialize_mindmap(m) == _reference_serialize(m)

            ids = m.node_ids()
            drop = set(rng.sample(ids, rng.randrange(len(ids))))
            strip = set(rng.sample(ids, rng.randrange(len(ids) + 1)))
            expected = _reference_copy(m.root, drop, strip)
            if expected is None:
                with pytest.raises(NoRoot):
                    copy_mindmap(m, drop, strip)
                continue
            pruned = copy_mindmap(m, drop, strip)
            assert pruned.root == expected
            assert pruned.node_ids() == _reference_ids(expected)
            assert serialize_mindmap(pruned) == _reference_serialize(pruned)

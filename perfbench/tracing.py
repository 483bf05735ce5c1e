"""Span tracing from outside the program, and its traced CLI launcher.

``install`` wraps the public functions of each mindrec module so that
every call records a span (name, start, end, parent span, user or
request id) and the counts of the work it did.  Spans and counts stay in
memory and ``Tracer.dump`` writes them out once, when the process ends.
Nothing under ``src/`` changes: the wrappers replace module attributes,
so every module that imported a wrapped name sees the wrapper.

Run as a script, this file is a drop-in for ``python3 -m mindrec.cli``::

    python3 perfbench/tracing.py --out spans.json --request r1 -- offline-eval ...

``aggregate`` turns the dumps of one round into per-layer metrics.
"""

import argparse
import itertools
import json
import statistics
import sys
import time


class Tracer:
    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []          # (id, name, start, end, parent id, user or request id)
        self.counts = {}
        self.stack = []          # (span id, name, user or request id)
        self._ids = itertools.count(1)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def within(self, name):
        return any(entry[1] == name for entry in self.stack)

    def span(self, name, fn, after=None, user_of=None):
        """Wrap `fn`; `after(args, result, exc)` records counts once the
        span has ended, so counting is charged to the caller's span."""

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else (None, None, self.request_id)
            owner = user_of(args) if user_of else parent[2]
            span_id = next(self._ids)
            self.stack.append((span_id, name, owner))
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span_id, name, start, end, parent[0], owner))
                if after:
                    after(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"request": self.request_id, "spans": self.spans,
                       "counts": self.counts}, handle)


def _replace(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the layer boundaries of an imported mindrec package."""
    from mindrec import (cli, corpus, errors, evaluation, experiment, matching,
                         mindmap, text, usermodel)

    modules = [m for n, m in sys.modules.items() if n == "mindrec" or n.startswith("mindrec.")]
    t = tracer

    def wrap(module, attr, name, after=None, user_of=None):
        original = getattr(module, attr)
        _replace(modules, original, t.span(name, original, after, user_of))

    def wrap_method(cls, attr, name, after=None, user_of=None):
        setattr(cls, attr, t.span(name, getattr(cls, attr), after, user_of))

    def on_load(args, result, exc):
        if result is not None:
            t.counts["corpus.docs"] = max(t.counts.get("corpus.docs", 0), len(result))

    wrap(corpus, "load_corpus_jsonl", "corpus.load", on_load)
    wrap(text, "tokenize", "text.tokenize",
         lambda args, result, exc: t.count("text.tokenize_calls"))

    score_query = corpus.Corpus.score_query

    def traced_score_query(self, features):
        features = list(features)
        result = score_query(self, features)
        scanned = sum(self.document_frequency(f[0] if isinstance(f, tuple) else f)
                      for f in features)
        t.count("corpus.postings_scanned", scanned)
        t.count("corpus.ranked", len(result))
        return result

    corpus.Corpus.score_query = t.span(
        "corpus.score_query", traced_score_query,
        lambda args, result, exc: t.count("corpus.score_query_calls"))

    resolve = corpus.Corpus.resolve_citation

    def counted_resolve(self, reference):
        before = len(self.documents)
        doc_id = resolve(self, reference)
        t.count("corpus.resolve_citation_calls")
        if len(self.documents) > before and not t.within("corpus.load"):
            t.count("corpus.ghost_docs")
        return doc_id

    corpus.Corpus.resolve_citation = counted_resolve

    def counting(name, size=len):
        return lambda args, result, exc: result is not None and t.count(name, size(result))

    def node_count(mindmap):
        return len(mindmap.node_ids())

    wrap(mindmap, "parse_mindmap", "mindmap.parse", counting("mindmap.nodes_parsed", node_count))

    def on_collection(args, result, exc):
        if exc is None and t.within("cli.load_user_collections"):
            t.count("mindmap.events", len(args[0].events))

    wrap_method(mindmap.MindMapCollection, "__init__", "mindmap.collection", on_collection,
                user_of=lambda args: args[1])
    wrap(mindmap, "copy_mindmap", "mindmap.copy", counting("mindmap.nodes_copied", node_count))
    wrap(cli, "load_user_collections", "cli.load_user_collections")

    def on_offline(args, result, exc):
        if result is not None:
            t.count("evaluation.users")
            t.count("evaluation.hits", int(result.target_rank is not None))

    wrap(evaluation, "offline_evaluate_user", "evaluation.offline_user", on_offline,
         user_of=lambda args: args[0].user_id)

    def on_select(args, result, exc):
        t.count("usermodel.select_nodes_calls")
        if result is not None:
            t.count("usermodel.nodes_selected", len(result))

    def on_extend(args, result, exc):
        if result is not None:
            t.count("usermodel.nodes_extended", len(result) - len(args[1]))

    wrap(usermodel, "select_nodes", "usermodel.select_nodes", on_select)
    wrap(usermodel, "extend_selection", "usermodel.extend", on_extend)
    wrap(usermodel, "weigh_nodes", "usermodel.weigh_nodes")
    wrap(usermodel, "extract_features", "usermodel.extract_features",
         counting("usermodel.occurrences"))
    wrap(usermodel, "weight_features", "usermodel.weight_features")
    wrap(usermodel, "build_user_model", "usermodel.build_user_model",
         counting("usermodel.features_kept", lambda model: len(model.features)))

    def on_build(args, result, exc):
        t.count("experiment.build_model_calls")
        if isinstance(exc, (errors.NoPositiveFeatures, errors.EmptyCollection)):
            t.count("experiment.no_model")

    wrap(experiment, "build_model", "experiment.build_model", on_build)
    wrap(matching, "retrieve_candidates", "matching.retrieve", counting("matching.pool"))

    dispatch = matching.dispatch

    def traced_dispatch(*args, **kwargs):
        # A stereotype set after a model build is the fallback; without
        # one it is the random arm.
        builds = t.counts.get("experiment.build_model_calls", 0)
        result = dispatch(*args, **kwargs)
        if result.algorithm == "stereotype":
            fell_back = t.counts.get("experiment.build_model_calls", 0) > builds
            t.count("matching.stereotype_fallback" if fell_back else "matching.stereotype_arm")
        return result

    _replace(modules, dispatch, t.span("matching.dispatch", traced_dispatch,
                                       user_of=lambda a: a[0].user_id))

    wrap(cli, "replay_event_log", "cli.replay_event_log", counting("cli.event_rows"))
    wrap(evaluation, "online_metrics", "evaluation.online_metrics")
    wrap(evaluation, "reiteration_report", "evaluation.reiteration")
    wrap(cli, "cmd_export", "cli.export")
    return cli


# name, unit, better; the order BENCHMARK.json lists them in.
PER_LAYER = [
    ("corpus.load_s", "s", "lower"),
    ("corpus.docs", "count", "higher"),
    ("text.tokenize_s", "s", "lower"),
    ("text.tokenize_calls", "count", "lower"),
    ("corpus.score_query_s", "s", "lower"),
    ("corpus.score_query_calls", "count", "lower"),
    ("corpus.postings_scanned", "count", "lower"),
    ("corpus.ranked_per_query", "count", "lower"),
    ("corpus.resolve_citation_calls", "count", "lower"),
    ("corpus.ghost_docs", "count", "lower"),
    ("mindmap.parse_s", "s", "lower"),
    ("mindmap.nodes_parsed", "count", "lower"),
    ("mindmap.collection_s", "s", "lower"),
    ("mindmap.events", "count", "lower"),
    ("cli.load_user_collections_s", "s", "lower"),
    ("mindmap.copy_s", "s", "lower"),
    ("mindmap.nodes_copied", "count", "lower"),
    ("evaluation.offline_user_s", "s", "lower"),
    ("evaluation.offline_user_p50_ms", "ms", "lower"),
    ("evaluation.users", "count", "higher"),
    ("evaluation.hits", "count", "higher"),
    ("usermodel.select_nodes_s", "s", "lower"),
    ("usermodel.select_nodes_calls", "count", "lower"),
    ("usermodel.nodes_selected", "count", "lower"),
    ("usermodel.extend_s", "s", "lower"),
    ("usermodel.nodes_extended", "count", "lower"),
    ("usermodel.weigh_nodes_s", "s", "lower"),
    ("usermodel.extract_features_s", "s", "lower"),
    ("usermodel.occurrences", "count", "lower"),
    ("usermodel.weight_features_s", "s", "lower"),
    ("usermodel.build_user_model_s", "s", "lower"),
    ("usermodel.features_kept", "count", "higher"),
    ("experiment.build_model_s", "s", "lower"),
    ("experiment.no_model", "count", "lower"),
    ("matching.retrieve_s", "s", "lower"),
    ("matching.pool_over_ranked", "ratio", "higher"),
    ("matching.dispatch_s", "s", "lower"),
    ("matching.stereotype_arm", "count", "lower"),
    ("matching.stereotype_fallback", "count", "lower"),
    ("cli.replay_event_log_s", "s", "lower"),
    ("cli.event_rows", "count", "lower"),
    ("evaluation.online_metrics_s", "s", "lower"),
    ("evaluation.reiteration_s", "s", "lower"),
    ("cli.export_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that describe state every process rebuilds, not work that adds up.
_STATE_COUNTS = {"corpus.docs", "corpus.ghost_docs"}


def aggregate(dumps):
    """Per-layer metrics of one round from its processes' dumps.

    Times are self times (a span minus its child spans), summed over the
    round; counts are summed, except state counts, which take the largest
    process's value.
    """
    self_s, counts, offline_ms = {}, {}, []
    for dump in dumps:
        spans = dump["spans"]
        child = {}
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for span_id, name, start, end, _, _ in spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
            if name == "evaluation.offline_user":
                offline_ms.append((end - start) * 1000)
        for name, n in dump["counts"].items():
            counts[name] = max(counts.get(name, 0), n) if name in _STATE_COUNTS \
                else counts.get(name, 0) + n
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = self_s.get(name[:-2], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["corpus.ranked_per_query"] = (
        counts.get("corpus.ranked", 0) / counts["corpus.score_query_calls"]
        if counts.get("corpus.score_query_calls") else 0.0)
    metrics["matching.pool_over_ranked"] = (
        counts.get("matching.pool", 0) / counts["corpus.ranked"]
        if counts.get("corpus.ranked") else 0.0)
    metrics["evaluation.offline_user_p50_ms"] = (
        statistics.median(offline_ms) if offline_ms else 0.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write spans and counts")
    parser.add_argument("--request", required=True, help="request id of this process")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.request)
    cli = install(tracer)
    try:
        return tracer.span("cli.main", cli.main)(cli_args)
    finally:
        tracer.dump(args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: corpus/mind-map ingestion, recommendation runs,
offline evaluation sweeps, event-log metrics, and dataset export.

Every randomized subcommand takes --seed, and --now pins the clock, so
runs are reproducible byte for byte.
"""

import argparse
import csv
import io
import json
import random
import sys
from pathlib import Path

from . import evaluation, experiment, matching
from .corpus import load_corpus_jsonl
from .errors import (
    InvalidConfig,
    InvariantViolation,
    MalformedInput,
    MalformedRow,
    MindrecError,
    NoCitations,
)
from .evaluation import RecEvent, SetRating
from .mindmap import MindMapCollection, parse_mindmap, read_event_log


def load_user_collections(mindmaps_dir):
    """One subdirectory per user, holding that user's .mm files.

    File stem is the map id; an optional `__rev<N>` suffix marks later
    revisions.  A sidecar events.csv, when present, is the canonical
    event log for the user and overrides derivation from revisions.
    A map or sidecar that cannot be read raises a MindrecError naming it.
    """
    root = Path(mindmaps_dir)
    collections = {}
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        revisions = []
        for path in sorted(user_dir.glob("*.mm")):
            stem = path.stem
            map_id, _, rev = stem.partition("__rev")
            try:
                revision = int(rev) if rev else 1
                mindmap = parse_mindmap(path.read_bytes(), map_id=map_id,
                                        revision=revision)
            except (ValueError, MindrecError) as exc:
                raise MalformedInput(f"{path}: {exc}") from exc
            mindmap.saved_at = max(
                (mindmap.node(n).modified_at for n in mindmap.node_ids()),
                default=0,
            )
            revisions.append(mindmap)
        events = None
        sidecar = user_dir / "events.csv"
        if sidecar.exists():
            events = read_event_log(sidecar)
        collections[user_dir.name] = MindMapCollection(user_dir.name, revisions,
                                                       events=events)
    return collections


def replay_event_log(path):
    """Parse + validate an event CSV (`set_id,doc_id,user_id,kind,at`).

    Non-shown events must have a shown event for the same (set_id,
    doc_id) at an earlier-or-equal timestamp.  Returns events sorted by
    timestamp (shown first on ties).
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for i, row in enumerate(reader, start=2):
            try:
                kind = row["kind"]
                if kind not in evaluation.REC_EVENT_KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                event = RecEvent(row["set_id"], row["doc_id"], row["user_id"],
                                 kind, int(row["at"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRow(f"{path}: row {i}: {exc}") from exc
            rows.append((i, event))

    rows.sort(key=lambda pair: (pair[1].at, pair[1].kind != "shown"))
    shown = set()
    for i, event in rows:
        key = (event.set_id, event.doc_id)
        if event.kind == "shown":
            shown.add(key)
        elif key not in shown:
            raise InvariantViolation(
                f"{path}: row {i}: {event.kind!r} without prior shown for {key}"
            )
    return [event for _, event in rows]


def load_ratings(path):
    ratings = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for i, row in enumerate(reader, start=2):
            try:
                rating = int(row["rating"])
                if not 1 <= rating <= 5:
                    raise ValueError(f"rating {rating} outside 1..5")
                ratings.append(SetRating(row["set_id"], row["user_id"], rating,
                                         int(row["at"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRow(f"{path}: row {i}: {exc}") from exc
    return ratings


def _parse_file(parse, path):
    """Apply a config or space parser to a file, naming it in errors."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc


def _load_config(args):
    """--config, else --preset, else the docear_combined preset; validated."""
    if args.config:
        return _parse_file(experiment.parse_config, args.config)
    return experiment.preset(args.preset or "docear_combined")


def _preresolve_citations(corpus, collections):
    """Resolve every node link up front, users in sorted order.

    Each citation of an unknown title mints a ghost document, and the
    document count N enters every idf = ln(N/df).  Minting them all before
    any model is built fixes the order of their ids and makes N the same
    for every user, whatever order the users are evaluated in.
    """
    for user_id in sorted(collections):
        for mindmap in collections[user_id].latest_maps():
            for node_id in mindmap.node_ids():
                node = mindmap.node(node_id)
                if node.link:
                    corpus.resolve_citation(node.link)


def _stereotype_catalog(corpus, path):
    if path:
        titles = [t for t in Path(path).read_text(encoding="utf-8").splitlines() if t]
        return [corpus.resolve_citation(t) for t in titles]
    return sorted(corpus.documents)[:50]


def _write(out, text):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- subcommands -----------------------------------------------------------

def cmd_ingest_corpus(args):
    corpus = load_corpus_jsonl(args.corpus)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["doc_id", "cleantitle"])
            for doc_id in sorted(corpus.documents):
                writer.writerow([doc_id, corpus.documents[doc_id].cleantitle])
    print(f"ingested {len(corpus)} documents, "
          f"{len(corpus.term_index)} terms, {len(corpus.citation_index)} cited docs")
    return 0


def cmd_ingest_mindmaps(args):
    collections = load_user_collections(args.mindmaps)
    for user_id in sorted(collections):
        collection = collections[user_id]
        n_nodes = sum(len(m.node_ids()) for m in collection.latest_maps())
        print(f"{user_id}: {len(collection.revisions)} maps, {n_nodes} nodes, "
              f"{len(collection.events)} events")
    return 0


def cmd_recommend(args):
    corpus = load_corpus_jsonl(args.corpus)
    collections = load_user_collections(args.mindmaps)
    if args.user not in collections:
        raise MindrecError(f"unknown user {args.user!r}")
    _preresolve_citations(corpus, collections)
    config = _load_config(args)
    catalog = _stereotype_catalog(corpus, args.stereotype)
    rng = random.Random(matching.derive_seed(args.seed, args.user))
    rec_set = matching.dispatch(
        collections[args.user], corpus, config, catalog, rng,
        p_stereotype=args.p_stereotype, now=args.now,
        set_id=f"set_{args.user}_{args.seed}", label=args.label,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["set_id", "user_id", "algorithm", "doc_id",
                     "original_rank", "display_rank"])
    for item in sorted(rec_set.items, key=lambda it: it.display_rank):
        writer.writerow([rec_set.set_id, rec_set.user_id, rec_set.algorithm,
                         item.doc_id, item.original_rank, item.display_rank])
    _write(args.out, buf.getvalue())
    if args.sets_out:
        record = {
            "set_id": rec_set.set_id, "user_id": rec_set.user_id,
            "created_at": rec_set.created_at, "trigger": rec_set.trigger,
            "label": rec_set.label, "algorithm": rec_set.algorithm,
            "items": [{"doc_id": it.doc_id, "original_rank": it.original_rank,
                       "display_rank": it.display_rank} for it in rec_set.items],
        }
        with open(args.sets_out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return 0


def cmd_offline_eval(args):
    corpus = load_corpus_jsonl(args.corpus)
    collections = load_user_collections(args.mindmaps)
    _preresolve_citations(corpus, collections)
    space = None
    if args.space:
        space = _parse_file(experiment.parse_space, args.space)
    config = None if space else _load_config(args)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_id", "algorithm", "target_rank",
                     "p_at_3", "p_at_10", "mrr", "ndcg"])
    for user_id in sorted(collections):
        if space:
            rng = random.Random(matching.derive_seed(args.seed, user_id))
            config = experiment.random_config(space, rng)
        try:
            result = evaluation.offline_evaluate_user(collections[user_id], corpus, config)
        except NoCitations:
            continue
        writer.writerow(offline_result_row(result))
    _write(args.out, buf.getvalue())
    return 0


def offline_result_row(result):
    return [result.user_id, result.algorithm,
            result.target_rank if result.target_rank is not None else "",
            result.p_at_3, result.p_at_10,
            f"{result.mrr_term:.6f}", f"{result.ndcg:.6f}"]


def cmd_metrics(args):
    events = replay_event_log(args.events)
    ratings = load_ratings(args.ratings) if args.ratings else []
    set_attrs = None
    if args.sets:
        set_attrs = {}
        with open(args.sets, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    set_attrs[record["set_id"]] = record
    report = evaluation.online_metrics(events, ratings, group_by=args.group_by,
                                       set_attrs=set_attrs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "metric", "value", "n"])
    for group, metric, value, n in report:
        writer.writerow([group, metric, f"{value:.6f}", n])
    _write(args.out, buf.getvalue())
    if args.out:
        for group, metric, value, n in report:
            print(f"{group:<12} {metric:<12} {value:>10.4f}  (n={n})")
    return 0


def cmd_reiterate(args):
    events = replay_event_log(args.events)
    report = evaluation.reiteration_report(events)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "shown", "clicks", "ctr",
                     "oblivious", "first_clicks", "ctr_first"])
    for row in report:
        writer.writerow([row["iteration"], row["shown"], row["clicks"],
                         f"{row['ctr']:.6f}", row["oblivious"],
                         row["first_clicks"], f"{row['ctr_first']:.6f}"])
    _write(args.out, buf.getvalue())
    return 0


def cmd_export(args):
    sets = []
    with open(args.sets, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                sets.append(json.loads(line))
    clicked = set()
    if args.events:
        for event in replay_event_log(args.events):
            if event.kind == "clicked":
                clicked.add((event.set_id, event.doc_id))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "recommendation_sets.csv", "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["set_id", "user_id", "created_at", "trigger", "label",
                         "algorithm", "items", "clicks"])
        for record in sets:
            clicks = sum(1 for item in record["items"]
                         if (record["set_id"], item["doc_id"]) in clicked)
            writer.writerow([record["set_id"], record["user_id"],
                             record["created_at"], record["trigger"],
                             record["label"], record["algorithm"],
                             len(record["items"]), clicks])
    with open(out_dir / "recommendations.csv", "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["set_id", "doc_id", "original_rank", "display_rank",
                         "clicked"])
        for record in sets:
            for item in record["items"]:
                writer.writerow([
                    record["set_id"], item["doc_id"], item["original_rank"],
                    item["display_rank"],
                    1 if (record["set_id"], item["doc_id"]) in clicked else 0,
                ])
    print(f"exported {len(sets)} sets to {out_dir}")
    return 0


# --- argument parsing ------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="mindrec")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=False, mindmaps=False, seeded=False):
        if corpus:
            p.add_argument("--corpus", required=True)
        if mindmaps:
            p.add_argument("--mindmaps", required=True)
        if seeded:
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--now", type=int, default=0)
        p.add_argument("--out")

    def config_choice(p):
        """--config and --preset, of which at most one may be given."""
        group = p.add_mutually_exclusive_group()
        group.add_argument("--config")
        group.add_argument("--preset", choices=experiment.PRESET_NAMES)
        return group

    p = sub.add_parser("ingest-corpus")
    common(p, corpus=True)
    p.set_defaults(func=cmd_ingest_corpus)

    p = sub.add_parser("ingest-mindmaps")
    common(p, mindmaps=True)
    p.set_defaults(func=cmd_ingest_mindmaps)

    p = sub.add_parser("recommend")
    common(p, corpus=True, mindmaps=True, seeded=True)
    config_choice(p)
    p.add_argument("--user", required=True)
    p.add_argument("--stereotype")
    p.add_argument("--p-stereotype", type=float, default=0.01)
    p.add_argument("--label", default="")
    p.add_argument("--sets-out")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("offline-eval")
    common(p, corpus=True, mindmaps=True, seeded=True)
    config_choice(p).add_argument("--space")
    p.set_defaults(func=cmd_offline_eval)

    p = sub.add_parser("metrics")
    p.add_argument("--events", required=True)
    p.add_argument("--ratings")
    p.add_argument("--sets")
    p.add_argument("--group-by")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reiterate")
    p.add_argument("--events", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reiterate)

    p = sub.add_parser("export")
    p.add_argument("--sets", required=True)
    p.add_argument("--events")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MindrecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: corpus/mind-map ingestion, recommendation runs,
offline evaluation sweeps, event-log metrics, and dataset export.

Every randomized subcommand takes --seed, and --now pins the clock, so
runs are reproducible byte for byte.  `offline-eval` needs --seed only
with --space, and accepts --now but never reads it: each user is
evaluated at the time of their removed citation.
"""

import argparse
import csv
import dataclasses
import json
import os
import random
import sys
from contextlib import nullcontext
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path

from . import evaluation, experiment, matching
from .corpus import cleantitle, load_corpus_jsonl
from .errors import (InconsistentRevisions, InvalidConfig, InvariantViolation,
                     MalformedInput, MindrecError, UnknownTitle)
from .evaluation import RecEvent, SetRating
from .matching import RecommendationItem, RecommendationSet
from .mindmap import (MindMapCollection, parse_mindmap, read_event_log, read_map_links,
                      revision_chains)
from .rows import csv_row_of, integer, integers, read_csv, read_jsonl, read_text, real

SET_FIELDS = tuple(f.name for f in dataclasses.fields(RecommendationSet))
ITEM_FIELDS = tuple(f.name for f in dataclasses.fields(RecommendationItem))
# metrics --group-by: the user of an event, or a scalar field of its set
GROUP_BY = tuple(f.name for f in dataclasses.fields(RecommendationSet) if f.type is not list)


def _user_dirs(mindmaps_dir):
    return sorted(p for p in Path(mindmaps_dir).iterdir() if p.is_dir())


def _read_user(user_dir, read_map):
    """The .mm files of one user directory, each read by `read_map(data,
    map_id, revision)` in file-name order and grouped by `revision_chains`,
    and the sidecar events (None without a sidecar).

    File stem is the map id; an optional `__rev<N>` suffix marks later
    revisions.  A map or sidecar that cannot be read raises a MindrecError
    naming it; then, with or without a sidecar, two revisions of a map
    with one number raise InconsistentRevisions naming the directory.
    A directory name that is not UTF-8 raises MalformedInput first.
    """
    try:
        user_dir.name.encode("utf-8")  # the user id, which output files hold
    except UnicodeEncodeError:
        raise MalformedInput(f"{os.fsencode(user_dir)!r}: user directory is not UTF-8") from None
    revisions = []
    for path in sorted(user_dir.glob("*.mm")):
        map_id, suffix, rev = path.stem.partition("__rev")
        try:
            revision = integer(rev) if suffix else 1
            revisions.append(read_map(path.read_bytes(), map_id, revision))
        except (ValueError, MindrecError) as exc:
            raise MalformedInput(f"{path}: {exc}") from exc
    sidecar = user_dir / "events.csv"
    events = read_event_log(sidecar) if sidecar.exists() else None
    try:
        chains = revision_chains(revisions)
    except InconsistentRevisions as exc:
        raise InconsistentRevisions(f"{user_dir}: {exc}") from exc
    return chains, events


def _load_collection(user_dir):
    chains, events = _read_user(user_dir, parse_mindmap)
    return MindMapCollection(user_dir.name, chains, events=events)


def load_user_collections(mindmaps_dir):
    """{user_id: MindMapCollection}: one subdirectory per user, holding
    that user's .mm files and an optional events.csv sidecar, the
    canonical event log for the user, which overrides derivation from
    revisions.  Faults raise as in `_read_user`."""
    return {user_dir.name: _load_collection(user_dir) for user_dir in _user_dirs(mindmaps_dir)}


def load_user_links(mindmaps_dir, user_id=None):
    """(the collection of `user_id`, None without it or its directory; {user_id:
    links of the latest maps} of every user, in sorted order, for `Corpus.freeze`).

    Only `user_id` is loaded in full.  The other users' maps are read for
    their links only, but every fault `load_user_collections` rejects
    raises the same error, users in the same order.
    """
    collection, links = None, {}
    for user_dir in _user_dirs(mindmaps_dir):
        if user_dir.name == user_id:
            collection = _load_collection(user_dir)
            links[user_id] = collection.links()
        else:
            chains, _ = _read_user(user_dir, read_map_links)
            links[user_dir.name] = [link for chain in chains.values()
                                    for link in chain[-1].links]
    return collection, links


def replay_event_log(path):
    """Parse + validate an event CSV (`set_id,doc_id,user_id,kind,at`).

    Non-shown events must have a shown event for the same (set_id,
    doc_id) at an earlier-or-equal timestamp, and every row of a shown
    (set_id, doc_id) must name the user it was shown to.  Returns events
    sorted by timestamp (shown first on ties), each (set_id, doc_id,
    kind) once: its first row in that order.
    """
    events = _read_events(path)
    # Two stable passes give the order of the key (at, kind != "shown")
    # without a key tuple per event.
    events.sort(key=lambda event: event.kind != "shown")
    events.sort(key=attrgetter("at"))

    def violation(event, problem):
        # The walk meets equal rows in file order, so the first is `event`.
        index = _read_events(path).index(event)
        return InvariantViolation(f"{path}: row {csv_row_of(path, index)}: "
                                  f"{event.kind!r} {problem}")

    shown_to = {}  # set_id -> {doc_id: user_id of its first shown row}
    done = set()   # (set_id, doc_id, kind) of each replayed event not shown
    replayed = []
    for event in events:
        set_id, doc_id, kind = event.set_id, event.doc_id, event.kind
        items = shown_to.setdefault(set_id, {})
        user_id = items.get(doc_id)
        if user_id is None:
            if kind != "shown":
                raise violation(event, f"without prior shown for {(set_id, doc_id)}")
            items[doc_id] = event.user_id
            replayed.append(event)
        elif user_id != event.user_id:
            raise violation(event, f"by user {event.user_id!r}, but "
                                   f"{(set_id, doc_id)} was shown to {user_id!r}")
        elif kind != "shown" and (set_id, doc_id, kind) not in done:
            done.add((set_id, doc_id, kind))
            replayed.append(event)
    return replayed


def _read_events(path):
    """The RecEvents of an event CSV in file order, each distinct id and time held once."""
    intern, time = {}.setdefault, integers()

    def build(set_id, doc_id, user_id, kind, at):
        if kind not in evaluation.REC_EVENT_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        return RecEvent(intern(set_id, set_id), intern(doc_id, doc_id),
                        intern(user_id, user_id), intern(kind, kind), time(at))
    return read_csv(path, ("set_id", "doc_id", "user_id", "kind", "at"), build)


def _read_ratings(path, events):
    """Parse a ratings CSV (`set_id,user_id,rating,at`), each distinct id
    held once, against a replayed event log: a rating of a set that was
    not shown to the rating's user raises InvariantViolation naming the row."""
    intern, number = {}.setdefault, integers()

    def build(set_id, user_id, rating, at):
        rating = number(rating)
        if not 1 <= rating <= 5:
            raise ValueError(f"rating {rating} outside 1..5")
        return SetRating(intern(set_id, set_id), intern(user_id, user_id), rating, number(at))
    ratings = read_csv(path, ("set_id", "user_id", "rating", "at"), build)
    shown = {(event.set_id, event.user_id) for event in events if event.kind == "shown"}
    for index, rating in enumerate(ratings):
        if (rating.set_id, rating.user_id) not in shown:
            raise InvariantViolation(f"{path}: row {csv_row_of(path, index)}: rating of set "
                                     f"{rating.set_id!r}, which was not shown to "
                                     f"{rating.user_id!r}")
    return ratings


def _hashable(name, value):
    """`value`, the id in field `name`; TypeError unless it is hashable,
    as every id keys a dict or a set."""
    try:
        hash(value)
    except TypeError:
        raise TypeError(f"{name}: {type(value).__name__} {value!r} cannot be an id") from None
    return value


def _read_sets(path):
    """The RecommendationSets of a `--sets-out` file, each distinct str or int held
    once; a set_id, user_id or doc_id that is not hashable raises TypeError,
    and a key of a record or an item that is not a field, or items that are
    not a list, raise ValueError."""
    intern, item_values = {}.setdefault, itemgetter(*ITEM_FIELDS)

    def value(v):  # JSON 1, 1.0 and true are equal keys: intern none as another
        return intern(v, v) if type(v) is str or type(v) is int else v

    def check_keys(record, names):  # `record` holds every one of `names`
        if len(record) > len(names):
            raise ValueError(f"unknown key {next(k for k in record if k not in names)!r}")

    def build(record):
        fields = {name: value(record[name]) for name in SET_FIELDS}
        check_keys(record, SET_FIELDS)
        if not isinstance(record["items"], list):
            raise ValueError("items is not a list")
        fields["items"] = items = [RecommendationItem(*item_values(raw))
                                   for raw in record["items"]]
        for item, raw in zip(items, record["items"]):
            check_keys(raw, ITEM_FIELDS)
            item.doc_id = _hashable("doc_id", value(item.doc_id))
        _hashable("set_id", fields["set_id"])
        _hashable("user_id", fields["user_id"])
        return RecommendationSet(**fields)
    return read_jsonl(path, build)


def _parse_file(parse, path):
    """Apply a config or space parser to a file, naming it in errors."""
    try:
        return parse(read_text(path))
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc


def _load_config(args):
    """--config, else --preset, else the docear_combined preset; validated."""
    if args.config:
        return _parse_file(experiment.parse_config, args.config)
    return experiment.preset(args.preset or "docear_combined")


def _stereotype_catalog(corpus, args):
    """The documents the --stereotype file names, one title per line, or
    else the first 50 document ids; an empty catalog raises a MindrecError
    naming the file it came from."""
    if not args.stereotype:
        catalog = sorted(corpus.documents)[:50]
    else:
        lines = {}  # doc_id -> the number of the line that named it
        for number, title in enumerate(read_text(args.stereotype).splitlines(), start=1):
            if title:
                try:
                    doc_id = corpus.lookup(title)
                except UnknownTitle as exc:
                    raise UnknownTitle(f"{args.stereotype}: line {number}: {exc}") from exc
                if doc_id in lines:
                    raise MalformedInput(f"{args.stereotype}: line {number}: {title!r} names "
                                         f"the document of line {lines[doc_id]}")
                lines[doc_id] = number
        catalog = list(lines)
    if not catalog:
        raise MindrecError(f"{args.stereotype or args.corpus}: no document for the "
                           "stereotype catalog")
    return catalog


def _write_csv(out, header, rows):
    """Write a CSV table to the file `out`, or to stdout when it is unset."""
    target = open(out, "w", newline="", encoding="utf-8") if out else nullcontext(sys.stdout)
    with target as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -----------------------------------------------------------

def cmd_ingest_corpus(args):
    corpus = load_corpus_jsonl(args.corpus)
    if args.out:
        _write_csv(args.out, ["doc_id", "cleantitle"],
                   ([doc_id, cleantitle(corpus.documents[doc_id])]
                    for doc_id in sorted(corpus.documents)))
    print(f"ingested {len(corpus)} documents, "
          f"{len(corpus.term_index)} terms, {len(corpus.citation_index)} cited docs")
    return 0


def cmd_ingest_mindmaps(args):
    collections = load_user_collections(args.mindmaps)
    for user_id in sorted(collections):
        collection = collections[user_id]
        n_nodes = sum(len(m.node_ids()) for m in collection.maps.values())
        print(f"{user_id}: {len(collection.maps)} maps, {n_nodes} nodes, "
              f"{len(collection.events)} events")
    return 0


def cmd_recommend(args):
    corpus = load_corpus_jsonl(args.corpus)
    collection, links = load_user_links(args.mindmaps, args.user)
    if collection is None:
        raise MindrecError(f"unknown user {args.user!r}")
    corpus.freeze(links)
    config = _load_config(args)
    catalog = _stereotype_catalog(corpus, args)
    rng = random.Random(matching.derive_seed(args.seed, args.user))
    rec_set = matching.dispatch(
        collection, corpus, config, catalog, rng,
        p_stereotype=args.p_stereotype, now=args.now,
        set_id=f"set_{args.user}_{args.seed}", label=args.label,
    )
    _write_csv(args.out, ["set_id", "user_id", "algorithm", "doc_id",
                          "original_rank", "display_rank"],
               [[rec_set.set_id, rec_set.user_id, rec_set.algorithm,
                 item.doc_id, item.original_rank, item.display_rank]
                for item in sorted(rec_set.items, key=lambda it: it.display_rank)])
    if args.sets_out:
        with open(args.sets_out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dataclasses.asdict(rec_set)) + "\n")
    return 0


def cmd_offline_eval(args):
    """Every user's maps are read for their links, which freeze the corpus,
    so each map fault is raised before the options are read and before a
    worker forks.  Each block task then loads its users in full, one at a
    time: only the corpus and the links are resident at the fork."""
    if args.space and args.seed is None:
        args.usage_error("argument --space: needs --seed")
    corpus = load_corpus_jsonl(args.corpus)
    _, links = load_user_links(args.mindmaps)
    corpus.freeze(links)
    space = _parse_file(experiment.parse_space, args.space) if args.space else None
    config = None if space else _load_config(args)
    if config is not None and config.preset_name == "stereotype":
        raise InvalidConfig(f"{args.config or '--preset stereotype'}: the stereotype preset "
                            "builds no user model; only recommend serves it")

    def evaluate(users):
        """The rows of those of `users` who cite something."""
        rows = []
        for user_id in users:
            user_config = config
            if space:
                rng = random.Random(matching.derive_seed(args.seed, user_id))
                user_config = experiment.random_config(space, rng)
            collection = _load_collection(Path(args.mindmaps) / user_id)
            result = evaluation.offline_evaluate_user(collection, corpus, user_config)
            if result is not None:
                rows.append(offline_result_row(result))
        return rows

    # The sorted users in one contiguous block per CPU, never an empty block.
    users = list(links)
    n_blocks = min(_fork_cpus(), len(users))
    blocks = [users[len(users) * i // n_blocks:len(users) * (i + 1) // n_blocks]
              for i in range(n_blocks)]
    tasks = [(partial(evaluate, block),
              f"the offline-eval worker for users {block[0]} to {block[-1]}") for block in blocks]
    rows = [row for block_rows in _run_tasks(tasks) for row in block_rows]
    _write_csv(args.out, ["user_id", "algorithm", "target_rank",
                          "p_at_3", "p_at_10", "mrr", "ndcg"], rows)
    return 0


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _fork_cpus():
    """The number of processes the program may run at once: the usable
    CPUs, or 1 where there is no `os.fork`."""
    return usable_cpus() if hasattr(os, "fork") else 1


def _run_tasks(tasks):
    """[run() for run, _ in tasks]: `tasks` holds (run, worker) pairs,
    each `run` independent of the others, and `worker` names the process
    that runs it in errors.

    This process runs the first task.  Where `_fork_cpus` exceeds 1, each
    other task runs in a fork-context `multiprocessing.Process` (the
    module is imported only then) that sends back what `run` returned, or
    the MindrecError or OSError that stopped it, through a one-way Pipe
    (see `_worker`); otherwise this process runs every task, in order.
    The replies are read in task order, so the results, and the error
    raised (that of the first task that fails), are the serial loop's.  A
    worker that dies raises MindrecError naming it.  Every worker is
    joined before this returns or raises.  The program starts no thread,
    so forking is safe.
    """
    workers = []  # (process, receive end of its pipe, its name) not yet joined, in task order
    try:
        if len(tasks) > 1 and _fork_cpus() > 1:
            import multiprocessing
            fork = multiprocessing.get_context("fork")
            for run, worker in tasks[1:]:
                receive, send = fork.Pipe(duplex=False)
                process = fork.Process(target=_worker, args=(run, send))
                process.start()
                send.close()
                workers.append((process, receive, worker))
            tasks = tasks[:1]
        results = [run() for run, _ in tasks]
        while workers:
            process, receive, worker = workers[0]
            try:
                reply = receive.recv()
            except (EOFError, OSError):  # none, or cut short by the worker's death
                reply = None
            process.join()
            del workers[0]
            receive.close()
            code = process.exitcode
            if code:
                raise MindrecError(f"{worker} exited with status {code}" if code > 0 else
                                   f"{worker} was killed by signal {-code}")
            if reply is None:
                raise MindrecError(f"{worker} sent a short reply")
            if isinstance(reply, BaseException):
                raise reply
            results.append(reply)
        return results
    finally:
        for process, receive, _ in workers:
            receive.close()
            process.kill()
            process.join()


def _worker(run, send):
    """The body of a worker process: send what run() returns, or the
    MindrecError or OSError that stopped it.  Its Process does the rest:
    the standard streams are flushed before the fork, any other exception
    prints its traceback and exits with status 1, and the child always
    leaves through os._exit."""
    try:
        reply = run()
    except (MindrecError, OSError) as exc:
        reply = exc
    send.send(reply)


def offline_result_row(result):
    return [result.user_id, result.algorithm,
            result.target_rank if result.target_rank is not None else "",
            result.p_at_3, result.p_at_10,
            f"{result.mrr_term:.6f}", f"{result.ndcg:.6f}"]


def cmd_metrics(args):
    field = args.group_by if args.group_by in GROUP_BY and args.group_by != "user_id" else None

    def read_events():
        events = replay_event_log(args.events)
        return events, _read_ratings(args.ratings, events) if args.ratings else []

    def read_set_groups():
        """{set_id: its `field` as text}, or {} with no field; every set is checked."""
        sets = _read_sets(args.sets)
        return {s.set_id: str(getattr(s, field)) for s in sets} if field else {}

    tasks = [(read_events, f"the worker reading {args.events}")]
    if args.sets:  # read at once with the events, the errors in this order
        tasks.append((read_set_groups, f"the worker reading {args.sets}"))
    (events, ratings), *rest = _run_tasks(tasks)
    if args.group_by not in (None, *GROUP_BY):
        raise MindrecError(f"--group-by {args.group_by}: not one of {', '.join(GROUP_BY)}")
    if not field:
        group_of = attrgetter("user_id") if args.group_by else None
    elif not args.sets:
        raise MindrecError(f"--group-by {args.group_by}: a set field needs --sets")
    else:
        groups = rest[0]

        def group_of(record):
            return groups.get(record.set_id, "unknown")
    report = evaluation.online_metrics(events, ratings, group_of)
    _write_csv(args.out, ["group", "metric", "value", "n"],
               [[group, metric, f"{value:.6f}", n] for group, metric, value, n in report])
    if args.out:
        for group, metric, value, n in report:
            print(f"{group:<12} {metric:<12} {value:>10.4f}  (n={n})")
    return 0


def cmd_reiterate(args):
    report = evaluation.reiteration_report(replay_event_log(args.events))
    _write_csv(args.out, ["iteration", "shown", "clicks", "ctr",
                          "oblivious", "first_clicks", "ctr_first"],
               [[row["iteration"], row["shown"], row["clicks"], f"{row['ctr']:.6f}",
                 row["oblivious"], row["first_clicks"], f"{row['ctr_first']:.6f}"]
                for row in report])
    return 0


def cmd_export(args):
    def read_clicked():
        return {(event.set_id, event.doc_id) for event in replay_event_log(args.events)
                if event.kind == "clicked"}

    tasks = [(partial(_read_sets, args.sets), f"the worker reading {args.sets}")]
    if args.events:  # read at once with the sets, the errors in this order
        tasks.append((read_clicked, f"the worker reading {args.events}"))
    sets, *clicked = _run_tasks(tasks)
    clicked = clicked[0] if clicked else set()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "recommendation_sets.csv",
               ["set_id", "user_id", "created_at", "trigger", "label",
                "algorithm", "items", "clicks"],
               ([s.set_id, s.user_id, s.created_at, s.trigger, s.label, s.algorithm,
                 len(s.items), sum((s.set_id, it.doc_id) in clicked for it in s.items)]
                for s in sets))
    _write_csv(out_dir / "recommendations.csv",
               ["set_id", "doc_id", "original_rank", "display_rank", "clicked"],
               ([s.set_id, it.doc_id, it.original_rank, it.display_rank,
                 int((s.set_id, it.doc_id) in clicked)]
                for s in sets for it in s.items))
    print(f"exported {len(sets)} sets to {out_dir}")
    return 0


# --- argument parsing ------------------------------------------------------

def probability(text):
    """A `real` p with 0 <= p <= 1; `nan` fails the comparison too."""
    p = real(text)
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a probability in [0, 1]")
    return p


def utf8(text):
    """`text`; UnicodeEncodeError for argv bytes that are not UTF-8 (lone surrogates)."""
    text.encode("utf-8")
    return text


def build_parser():
    parser = argparse.ArgumentParser(prog="mindrec")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, maps=False):
        p.add_argument("--corpus", required=True)
        if maps:
            p.add_argument("--mindmaps", required=True)
            p.add_argument("--now", type=integer, default=0)
        p.add_argument("--out")

    def config_choice(p):
        """--config and --preset, of which at most one may be given."""
        group = p.add_mutually_exclusive_group()
        group.add_argument("--config")
        group.add_argument("--preset", choices=experiment.PRESET_NAMES)
        return group

    p = sub.add_parser("ingest-corpus")
    common(p)
    p.set_defaults(func=cmd_ingest_corpus)

    p = sub.add_parser("ingest-mindmaps")
    p.add_argument("--mindmaps", required=True)
    p.set_defaults(func=cmd_ingest_mindmaps)

    p = sub.add_parser("recommend")
    common(p, maps=True)
    config_choice(p)
    p.add_argument("--seed", type=integer, required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--stereotype")
    p.add_argument("--p-stereotype", type=probability, default=matching.DEFAULT_P_STEREOTYPE)
    p.add_argument("--label", type=utf8, default="")
    p.add_argument("--sets-out")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("offline-eval")
    common(p, maps=True)
    config_choice(p).add_argument("--space")
    p.add_argument("--seed", type=integer)  # read only with --space
    p.set_defaults(func=cmd_offline_eval, usage_error=p.error)

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

"""Benchmark runner for mindrec.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  The program is run from its own
source (``src/``), one CLI call per fresh process, one at a time.  The
seed makes the inputs; a run sets up several times, then
repeats whole rounds of the workload's CLI calls for about ``--seconds``
seconds, checks every output and prints, as its last line, one JSON
object: ``correct``, ``attempted`` and ``failed`` (program calls), and
the metrics.  With ``--trace 0`` those are the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced, the second half
traced (see ``tracing.py``), and the metrics are the per-layer ones.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import reference
import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 150
NOW = gen.NOW

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("request_p50_ms", "ms"),
              ("peak_rss_mb", "MB")]


class Program:
    """Runs mindrec CLI calls in fresh processes and counts them."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, args, trace_out=None, request=None):
        """(seconds, stdout) of one call; a failed call is counted and noted."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "mindrec.cli", *map(str, args)]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), "--out", str(trace_out),
                   "--request", request, "--", *map(str, args)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.problems.append(f"{args[0]}: timed out after {CALL_TIMEOUT_S} s")
            return time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            self.failed += 1
            self.problems.append(f"{args[0]} exit {done.returncode}: {done.stderr[-300:]}")
        return seconds, done.stdout


# --- workloads ---------------------------------------------------------------

class Workload:
    """Inputs, set-up calls, the calls of one round, and the checks."""

    setup_repeats = 5

    def __init__(self, seed, work):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.inputs.mkdir(parents=True)
        self.out.mkdir()
        self.first_outputs = None
        self.problems = []

    def setup_calls(self):
        return [["ingest-corpus", "--corpus", self.inputs / "corpus.jsonl"],
                ["ingest-mindmaps", "--mindmaps", self.inputs / "mindmaps"]]

    def check_setup(self, stdouts):
        return []

    def round_calls(self, k):
        """[(request id, args)] of round k, writing outputs under out/<k>/."""
        raise NotImplementedError

    def read_outputs(self, k):
        """{name: bytes} of round k's outputs, which are then removed."""
        base = self.out / str(k)
        found = {p.relative_to(base).as_posix(): p.read_bytes()
                 for p in sorted(base.rglob("*")) if p.is_file()}
        shutil.rmtree(base)
        return found

    def after_round(self, k):
        outputs = self.read_outputs(k)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            self.problems.append(f"round {k} outputs differ from round 0")

    def check(self):
        raise NotImplementedError

    def common(self):
        return ["--corpus", self.inputs / "corpus.jsonl", "--mindmaps", self.inputs / "mindmaps",
                "--seed", self.seed, "--now", NOW]


def _ingest_problems(stdouts, n_docs, user_lines):
    """`ingest-corpus` must report the generated document count and
    `ingest-mindmaps` "<user>: <maps> maps, <nodes> nodes" as generated
    (its event counts are the program's own derivation)."""
    problems = []
    if not stdouts[0].startswith(f"ingested {n_docs} documents"):
        problems.append(f"ingest-corpus: {stdouts[0].strip()!r}")
    if [line.rsplit(",", 1)[0] for line in stdouts[1].splitlines()] != user_lines:
        problems.append("ingest-mindmaps summaries differ from the generated maps")
    return problems


class OfflineScale(Workload):
    preset = "all_maps_all_terms"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.records = gen.make_scale(seed, self.inputs)

    def check_setup(self, stdouts):
        lines = [f"{u}: 1 maps, 9 nodes" for u in self.records["users"]]
        return _ingest_problems(stdouts, gen.SCALE_DOCS, lines)

    def round_calls(self, k):
        (self.out / str(k)).mkdir()
        return [(f"r{k}-offline", ["offline-eval", *self.common(), "--preset", self.preset,
                                   "--out", self.out / str(k) / "offline.csv"])]

    def check(self):
        index = reference.ReferenceIndex(self.records["docs"])
        expected = {}
        for user_id, rec in self.records["users"].items():
            query = reference.all_terms_query([text for _, text, _ in rec["nodes"]])
            ranking = index.rank(query, top=checks.POOL_SIZE)
            expected[user_id] = reference.offline_row(ranking, rec["target"])
        return self.problems + checks.offline_scale(
            self.first_outputs["offline.csv"].decode(), expected)


class RecommendCli(OfflineScale):
    """Closed loop, one client: each round asks for four users' sets, two
    per preset, then repeats one of the four requests."""

    presets = ("docear_combined", "all_maps_all_terms")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.order = sorted(self.records["users"])
        random.Random(f"requests:{seed}").shuffle(self.order)
        self.requests = []       # (user, preset, csv bytes, repeat of index or None)

    def round_calls(self, k):
        (self.out / str(k)).mkdir()
        calls = []
        plan = [(self.order[(4 * k + i) % len(self.order)], self.presets[i % 2])
                for i in range(4)]
        plan.append(plan[k % 4])
        for i, (user, preset) in enumerate(plan):
            calls.append((f"r{k}-{i}-{user}", [
                "recommend", *self.common(), "--preset", preset, "--user", user,
                "--out", self.out / str(k) / f"{i}.csv",
                "--sets-out", self.out / "sets.jsonl"]))
        self.plan = plan
        return calls

    def after_round(self, k):
        outputs = self.read_outputs(k)
        start = len(self.requests)
        for i, (user, preset) in enumerate(self.plan):
            repeat = start + k % 4 if i == 4 else None
            self.requests.append((user, preset, outputs[f"{i}.csv"], repeat))

    def check(self):
        index = reference.ReferenceIndex(self.records["docs"])
        catalog = sorted(f"doc_{i}" for i in range(1, gen.SCALE_DOCS + 1))[:checks.POOL_SIZE]
        problems = list(self.problems)
        for user, preset, data, repeat in self.requests:
            if repeat is not None:
                if data != self.requests[repeat][2]:
                    problems.append(f"repeated request for {user} wrote other bytes")
                continue
            query = reference.all_terms_query(
                [text for _, text, _ in self.records["users"][user]["nodes"]])
            ranking = index.rank(query, top=checks.POOL_SIZE)
            problems += checks.recommendation(data.decode(), user, preset, self.seed,
                                              ranking, catalog)
        lines = (self.out / "sets.jsonl").read_text(encoding="utf-8").splitlines()
        problems += checks.sets_file(lines, [data.decode() for _, _, data, _ in self.requests])
        return problems


class OfflineRich(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.records = gen.make_rich(seed, self.inputs)
        (self.inputs / "space.txt").write_text(gen.SPACE_TEXT, encoding="utf-8")

    def check_setup(self, stdouts):
        lines = [f"{u}: {len(rec['maps'])} maps, {sum(map(len, rec['maps'].values()))} nodes"
                 for u, rec in self.records["users"].items()]
        return _ingest_problems(stdouts, gen.RICH_DOCS, lines)

    def round_calls(self, k):
        base = self.out / str(k)
        base.mkdir()
        return [
            (f"r{k}-combined", ["offline-eval", *self.common(), "--preset", "docear_combined",
                                "--out", base / "combined.csv"]),
            (f"r{k}-space", ["offline-eval", *self.common(), "--space",
                             self.inputs / "space.txt", "--out", base / "space.csv"]),
        ]

    def check(self):
        citing = [u for u, rec in self.records["users"].items() if rec["links"]]
        problems = list(self.problems)
        problems += checks.offline_consistent(
            self.first_outputs["combined.csv"].decode(), citing, "docear_combined")
        problems += checks.offline_consistent(
            self.first_outputs["space.csv"].decode(), citing, "custom")
        return problems + self.check_in_process()

    def check_in_process(self):
        """Models and candidate pools through the program's public functions."""
        sys.path.insert(0, str(ROOT / "src"))
        from mindrec import cli, corpus as corpus_mod, errors, experiment, matching

        corpus = corpus_mod.load_corpus_jsonl(self.inputs / "corpus.jsonl")
        collections = cli.load_user_collections(self.inputs / "mindmaps")
        for user_id in sorted(collections):
            for mindmap in collections[user_id].latest_maps():
                for node_id in mindmap.node_ids():
                    link = mindmap.node(node_id).link
                    if link:
                        corpus.resolve_citation(link)
        ghosts = {gen.cleantitle(link) for rec in self.records["users"].values()
                  for link in rec["links"] if link in self.records["ghost_titles"]}
        problems = []
        if len(corpus) != gen.RICH_DOCS + len(ghosts):
            problems.append(f"corpus holds {len(corpus)} documents, "
                            f"expected {gen.RICH_DOCS} + {len(ghosts)} minted")
        index = reference.ReferenceIndex(self.records["docs"], extra_docs=len(ghosts))
        combined = experiment.preset("docear_combined")
        models = {}
        for user_id, collection in collections.items():
            try:
                model = experiment.build_model(collection, corpus, combined, NOW)
            except errors.NoPositiveFeatures:
                continue
            models[user_id] = model
            problems += [f"{user_id}: {p}" for p in
                         checks.combined_model(model.feature_list(), self.records["users"][user_id])]
        if len(models) < len(collections) // 2:
            problems.append(f"only {len(models)} combined models built")
        sample = random.Random(f"sample:{self.seed}").sample(sorted(collections), 40)
        for user_id in sample:
            for name in ("docear_combined", "all_maps_all_terms"):
                model = models.get(user_id) if name == "docear_combined" else \
                    experiment.build_model(collections[user_id], corpus,
                                           experiment.preset(name), NOW)
                if model is None:
                    continue
                pool = matching.retrieve_candidates(corpus, model, pool_size=checks.POOL_SIZE)
                query = [(f, 1.0 if w is None else w) for f, w in model.features]
                if pool != index.rank(query, top=checks.POOL_SIZE):
                    problems.append(f"{user_id}/{name}: candidates differ from the reference")
        return problems[:20]


class OnlineReport(Workload):
    setup_repeats = 9
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.records = gen.make_online(seed, self.inputs)

    def setup_calls(self):
        # No input is loaded ahead of the timed calls, so set-up is the
        # program's start-up: interpreter, imports, argument parsing.
        return [["--help"]]

    def round_calls(self, k):
        base = self.out / str(k)
        base.mkdir()
        events, sets = self.inputs / "events.csv", self.inputs / "sets.jsonl"
        return [
            (f"r{k}-by-user", ["metrics", "--events", events, "--group-by", "user_id",
                               "--out", base / "by_user.csv"]),
            (f"r{k}-by-algorithm", ["metrics", "--events", events, "--sets", sets,
                                    "--group-by", "algorithm", "--out", base / "by_algorithm.csv"]),
            (f"r{k}-reiterate", ["reiterate", "--events", events, "--out", base / "reit.csv"]),
            (f"r{k}-export", ["export", "--sets", sets, "--events", events,
                              "--out", base / "export"]),
        ]

    def check(self):
        want = reference.online_expectations(self.records)
        got = {name: data.decode() for name, data in self.first_outputs.items()}
        return (self.problems
                + checks.metrics_report(got["by_user.csv"], want["user"])
                + checks.metrics_report(got["by_algorithm.csv"], want["algorithm"])
                + checks.reiteration(got["reit.csv"], want["reiteration"])
                + checks.export(got["export/recommendation_sets.csv"],
                                got["export/recommendations.csv"], self.records))


WORKLOADS = {"offline_scale": OfflineScale, "offline_rich": OfflineRich,
             "recommend_cli": RecommendCli, "online_report": OnlineReport}


# --- measuring ---------------------------------------------------------------

def timed_rounds(program, workload, budget, first_round, trace_dir=None):
    """Whole rounds until `budget` seconds have passed, so a run measures
    at least `budget` seconds and at most one round more.  Returns round
    seconds, call seconds, and the per-layer metrics of each traced round."""
    rounds, calls, layers = [], [], []
    start = time.perf_counter()
    k = first_round
    while True:
        round_start = time.perf_counter()
        dumps = []
        for request, args in workload.round_calls(k):
            out = None if trace_dir is None else trace_dir / f"{request}.json"
            seconds, _ = program.call(args, trace_out=out, request=request)
            calls.append(seconds)
            if out is not None and out.exists():
                dumps.append(json.loads(out.read_text(encoding="utf-8")))
        rounds.append(time.perf_counter() - round_start)
        workload.after_round(k)
        if trace_dir is not None:
            layers.append(tracing.aggregate(dumps))
        k += 1
        if time.perf_counter() - start >= budget:
            return rounds, calls, layers


def run(name, seed, seconds, trace):
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    program = Program()
    workload = WORKLOADS[name](seed, work)

    metrics = {}
    if trace:
        plain, _, _ = timed_rounds(program, workload, seconds / 2, 0)
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced, _, layers = timed_rounds(program, workload, seconds / 2, len(plain), trace_dir)
        for metric, unit, _ in tracing.PER_LAYER:
            value = statistics.median(layer[metric] for layer in layers)
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"]["value"] = statistics.median(traced) - statistics.median(plain)
    else:
        setups = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            stdouts = [program.call(args)[1] for args in workload.setup_calls()]
            setups.append(time.perf_counter() - start)
        workload.problems += workload.check_setup(stdouts)
        rounds, calls, _ = timed_rounds(program, workload, seconds, 0)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"setup_s": statistics.median(setups), "run_s": statistics.median(rounds),
                  "request_p50_ms": statistics.median(calls) * 1000,
                  "peak_rss_mb": peak_kb / 1024}
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}

    problems = program.problems + workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not problems:
        if trace:
            kept = work.parent / f"trace-{name}"
            shutil.rmtree(kept, ignore_errors=True)
            (work / "trace").rename(kept)
            print(f"spans of the traced rounds kept in {kept}", file=sys.stderr)
        shutil.rmtree(work)
    return {"correct": not problems, "attempted": program.attempted,
            "failed": program.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="mindrec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mindrec" / "cli.py").is_file():
        print(f"error: no mindrec source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:<14} {metric:<32} {entry['value']:>14.6f} {entry['unit']}")
    print(f"{args.workload:<14} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

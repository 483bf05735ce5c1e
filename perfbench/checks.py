"""Output checkers.  Each returns a list of problems; empty means correct.

The checks compare the program's outputs with the reference computations
in ``reference.py`` or with properties the method must have, working from
the generator's records.
"""

import csv
import hashlib
import io
import json
import random

import gen
import reference

OFFLINE_HEADER = ["user_id", "algorithm", "target_rank", "p_at_3", "p_at_10", "mrr", "ndcg"]
POOL_SIZE = 50
SET_SIZE = 10
P_STEREOTYPE = 0.01


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def offline_scale(text, expected):
    """Every row equals the reference scorer's result for that user;
    `expected` maps user_id -> (rank, p@3, p@10, mrr, ndcg)."""
    rows = _rows(text)
    problems = []
    if rows[:1] != [OFFLINE_HEADER]:
        return [f"offline header {rows[:1]}"]
    seen = {row[0] for row in rows[1:]}
    if seen != set(expected):
        problems.append(f"{len(seen ^ set(expected))} users missing or extra")
    for row in rows[1:]:
        want = expected.get(row[0])
        if want is not None and (row[1] != "all_maps_all_terms" or tuple(row[2:]) != want):
            problems.append(f"{row[0]}: {row[1:]} != reference {list(want)}")
    return problems[:20]


def offline_consistent(text, users_with_citations, algorithm):
    """Rank in 1..50 or empty, precision values that agree with it,
    mrr = 1/rank, 0 <= ndcg <= 1, and a row for every citing user."""
    rows = _rows(text)
    if rows[:1] != [OFFLINE_HEADER]:
        return [f"offline header {rows[:1]}"]
    problems = []
    seen = set()
    for user, alg, rank, p3, p10, mrr, ndcg in rows[1:]:
        seen.add(user)
        if alg != algorithm:
            problems.append(f"{user}: algorithm {alg!r}")
        if rank:
            r = int(rank)
            ok = (1 <= r <= POOL_SIZE and p3 == str(int(r <= 3)) and p10 == str(int(r <= 10))
                  and mrr == f"{1 / r:.6f}")
        else:
            ok = p3 == p10 == "0" and mrr == "0.000000"
        if not ok or not 0.0 <= float(ndcg) <= 1.0:
            problems.append(f"{user}: inconsistent row {[rank, p3, p10, mrr, ndcg]}")
    if seen != set(users_with_citations):
        problems.append(f"rows for {len(seen)} users, {len(users_with_citations)} cite")
    return problems[:20]


def combined_model(features, user_record):
    """Properties of a docear_combined model built on one user's maps."""
    problems = []
    token_sets = [set(reference.tokenize(" ".join(texts)))
                  for texts in user_record["maps"].values()]
    if len(features) > 35:
        problems.append(f"{len(features)} features")
    for feature in features:
        if feature in gen.INJECTED_STOPWORDS:
            problems.append(f"stop word {feature!r}")
        holders = sum(feature in tokens for tokens in token_sets)
        if holders == 0:
            problems.append(f"{feature!r} is no token of the user's nodes")
        elif holders == len(token_sets):
            problems.append(f"{feature!r} appears in all {holders} maps")
    return problems


def arm_draw(seed, user_id):
    """First draw of the per-user generator `recommend` seeds from
    sha256("<seed>:<user>"); below p_stereotype it serves the stereotype arm."""
    digest = hashlib.sha256(f"{seed}:{user_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big")).random()


def recommendation(text, user_id, preset, seed, ranking, catalog):
    """One `recommend` CSV: distinct documents, display ranks a
    permutation, original ranks that match the reference ranking (or the
    stereotype catalogue), and the path the request must have taken."""
    rows = _rows(text)
    if rows[:1] != [["set_id", "user_id", "algorithm", "doc_id", "original_rank",
                     "display_rank"]]:
        return [f"recommend header {rows[:1]}"]
    items = rows[1:]
    problems = []
    algorithms = {row[2] for row in items}
    stereotype = preset == "docear_combined" or arm_draw(seed, user_id) < P_STEREOTYPE
    want = "stereotype" if stereotype else preset
    if algorithms != {want}:
        problems.append(f"{user_id}/{preset}: algorithm {algorithms} != {want!r}")
    pool = catalog if stereotype else [doc_id for doc_id, _ in ranking[:POOL_SIZE]]
    if len(items) != min(SET_SIZE, len(pool)):
        problems.append(f"{user_id}: {len(items)} items")
    if any(row[0] != f"set_{user_id}_{seed}" or row[1] != user_id for row in items):
        problems.append(f"{user_id}: wrong set or user id")
    if len({row[3] for row in items}) != len(items):
        problems.append(f"{user_id}: repeated documents")
    if sorted(int(row[5]) for row in items) != list(range(1, len(items) + 1)):
        problems.append(f"{user_id}: display ranks are no permutation")
    for row in items:
        rank = int(row[4])
        if not 1 <= rank <= len(pool) or pool[rank - 1] != row[3]:
            problems.append(f"{user_id}: {row[3]} at original rank {rank}")
    return problems


def sets_file(lines, outputs):
    """Every request appended one record that matches its CSV."""
    if len(lines) != len(outputs):
        return [f"{len(lines)} set records for {len(outputs)} requests"]
    problems = []
    for line, text in zip(lines, outputs):
        record = json.loads(line)
        items = [[record["set_id"], record["user_id"], record["algorithm"], it["doc_id"],
                  str(it["original_rank"]), str(it["display_rank"])]
                 for it in sorted(record["items"], key=lambda it: it["display_rank"])]
        if items != _rows(text)[1:]:
            problems.append(f"set record {record['set_id']} differs from its CSV")
    return problems


def _close(value, want):
    return abs(float(value) - want) <= 5.01e-7


def metrics_report(text, expected):
    rows = _rows(text)
    if rows[:1] != [["group", "metric", "value", "n"]]:
        return [f"metrics header {rows[:1]}"]
    if len(rows) - 1 != len(expected):
        return [f"{len(rows) - 1} metric rows, expected {len(expected)}"]
    problems = []
    for row, (group, metric, value, n) in zip(rows[1:], expected):
        if row[:2] != [group, metric] or row[3] != str(n) or not _close(row[2], value):
            problems.append(f"metric {row} != {[group, metric, value, n]}")
    return problems[:20]


def reiteration(text, expected):
    rows = _rows(text)
    problems = [] if len(rows) - 1 == len(expected) else [f"{len(rows) - 1} iterations"]
    for row, (i, shown, clicks, ctr, oblivious, first, ctr_first) in zip(rows[1:], expected):
        ints = [str(i), str(shown), str(clicks)]
        if (row[:3] != ints or row[4:6] != [str(oblivious), str(first)]
                or not _close(row[3], ctr) or not _close(row[6], ctr_first)):
            problems.append(f"reiteration {row}")
    return problems


def export(sets_text, items_text, records):
    sets, clicked = records["sets"], records["kinds"]["clicked"]
    problems = []
    rows = _rows(sets_text)[1:]
    if [row[0] for row in rows] != list(sets):
        problems.append("recommendation_sets.csv lists other sets")
    for set_id, user, created, _, _, algorithm, items, clicks in rows:
        rec = sets.get(set_id)
        if rec is None:
            continue
        want = [rec["user"], str(rec["at"]), rec["algorithm"], str(len(rec["docs"])),
                str(sum((set_id, d) in clicked for d in rec["docs"]))]
        if [user, created, algorithm, items, clicks] != want:
            problems.append(f"set row {set_id}")
    rows = _rows(items_text)[1:]
    if len(rows) != sum(len(rec["docs"]) for rec in sets.values()):
        problems.append(f"{len(rows)} recommendation rows")
    for set_id, doc_id, _, _, flag in rows:
        if flag != str(int((set_id, doc_id) in clicked)):
            problems.append(f"clicked flag {set_id}/{doc_id}")
    return problems[:20]

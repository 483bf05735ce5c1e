"""Turn a user model into a delivered recommendation set.

Retrieval pulls a ranked candidate pool, a random subset of it is kept
(variety over pure relevance), and the survivors are shuffled for display
so that on-screen position is independent of rank.  A curated stereotype
catalog backs both the random stereotype arm and the fallback for users
no model can be built for.
"""

import hashlib
import random
from dataclasses import dataclass

from .errors import EmptyModel, EmptyPool, NoPositiveFeatures
from .experiment import build_model

DEFAULT_POOL_SIZE = 50
DEFAULT_SET_SIZE = 10
DEFAULT_P_STEREOTYPE = 0.01


@dataclass
class RecommendationItem:
    doc_id: str
    original_rank: int   # 1-based rank in the candidate pool
    display_rank: int    # 1-based on-screen position


@dataclass
class RecommendationSet:
    """One delivered set; `asdict` of it is a `--sets-out` record."""
    set_id: str
    user_id: str
    created_at: int
    trigger: str
    label: str
    algorithm: str
    items: list          # RecommendationItem, in pool-sampling order


def retrieve_candidates(corpus, model, pool_size=DEFAULT_POOL_SIZE):
    """Ranked candidate pool for a user model, truncated to pool_size."""
    if not model.features:
        raise EmptyModel(f"user model for {model.user_id!r} is empty")
    query = [(f, 1.0 if w is None else w) for f, w in model.features]
    return corpus.score_query(query)[:pool_size]


def select_and_shuffle(pool, k=DEFAULT_SET_SIZE, rng=None):
    """Sample min(k, |pool|) pool entries without replacement, then shuffle.

    The generator is consumed in a fixed order (sample, then permutation)
    so one seed reproduces the delivered set exactly.
    """
    if not pool:
        raise EmptyPool("candidate pool is empty")
    rng = rng or random.Random()
    n = min(k, len(pool))
    picked = rng.sample(range(len(pool)), n)
    display = list(range(1, n + 1))
    rng.shuffle(display)
    return [
        RecommendationItem(doc_id=pool[idx][0], original_rank=idx + 1,
                           display_rank=display[i])
        for i, idx in enumerate(picked)
    ]


def derive_seed(global_seed, user_id):
    """Stable per-user seed: a user's draws do not depend on the other users."""
    digest = hashlib.sha256(f"{global_seed}:{user_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def dispatch(collection, corpus, config, stereotype_catalog, rng,
             p_stereotype=DEFAULT_P_STEREOTYPE, now=0, set_id="",
             pool_size=DEFAULT_POOL_SIZE, k=DEFAULT_SET_SIZE,
             label="", trigger="requested"):
    """Deliver one recommendation set for a user.

    With probability p_stereotype the curated catalog is served instead of
    the content-based route; the catalog is also the fallback when the
    content-based route yields no model or no candidates.  The generator
    is consumed in the fixed order: arm choice, sampling, shuffle.
    """
    use_stereotype = (
        config.preset_name == "stereotype" or rng.random() < p_stereotype
    )
    items = None
    if not use_stereotype:
        try:
            model = build_model(collection, corpus, config, now)
            pool = retrieve_candidates(corpus, model, pool_size=pool_size)
            if not pool:
                raise EmptyPool("no candidates for user model")
            items = select_and_shuffle(pool, k=k, rng=rng)
            algorithm = config.preset_name or "random"
        except (NoPositiveFeatures, EmptyPool):
            pass  # fall back to the stereotype catalog
    if items is None:
        catalog_pool = [(doc_id, 0.0) for doc_id in stereotype_catalog]
        items = select_and_shuffle(catalog_pool, k=k, rng=rng)
        algorithm = "stereotype"
    return RecommendationSet(set_id, collection.user_id, now, trigger, label,
                             algorithm, items)

"""Turn a user model into a delivered recommendation set.

Retrieval pulls a ranked candidate pool, a random subset of it is kept
(variety over pure relevance), and the survivors are shuffled for display
so that on-screen position is independent of rank.  A curated stereotype
catalog backs both the random stereotype arm and the fallback for users
no model can be built for.
"""

from dataclasses import dataclass

from .errors import NoModel
from .experiment import build_model

DEFAULT_POOL_SIZE = 50
DEFAULT_SET_SIZE = 10
DEFAULT_P_STEREOTYPE = 0.01


@dataclass(slots=True)
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
    return corpus.rank(model.features, top=pool_size)


def content_pool(collection, corpus, config, now):
    """The content route's candidate pool at `now`; [] when no model can
    be built (NoModel), as for a model that retrieves nothing."""
    try:
        return retrieve_candidates(corpus, build_model(collection, corpus, config, now=now))
    except NoModel:
        return []


def select_and_shuffle(pool, rng, k=DEFAULT_SET_SIZE):
    """Sample min(k, |pool|) pool entries without replacement, then shuffle.

    The generator is consumed in a fixed order (sample, then permutation)
    so one seed reproduces the delivered set exactly; an empty pool gives
    no items and draws nothing.
    """
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
    """Stable per-user seed: a user's draws do not depend on the other users.
    hashlib, which loads OpenSSL, is imported only when a seed is derived."""
    from hashlib import sha256
    digest = sha256(f"{global_seed}:{user_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def dispatch(collection, corpus, config, stereotype_catalog, rng,
             p_stereotype=DEFAULT_P_STEREOTYPE, now=0, set_id="", label=""):
    """Deliver one recommendation set for a user.

    With probability p_stereotype the curated catalog is served instead of
    the content-based route.  The catalog is also served, labelled
    `stereotype`, when `content_pool` is empty.  The generator is consumed
    in the fixed order: arm choice, sampling, shuffle.
    """
    use_stereotype = (
        config.preset_name == "stereotype" or rng.random() < p_stereotype
    )
    pool = [] if use_stereotype else content_pool(collection, corpus, config, now)
    algorithm = config.algorithm
    if not pool:
        pool = [(doc_id, 0.0) for doc_id in stereotype_catalog]
        algorithm = "stereotype"
    return RecommendationSet(set_id, collection.user_id, now, "requested", label,
                             algorithm, select_and_shuffle(pool, rng))

"""Dataset cleansing: language filter, retweet zeroing, owner-reply removal.

Applying cleanse to its own output changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import Dataset


@dataclass(frozen=True)
class CleanseReport:
    language_removed: int = 0
    orphan_replies_removed: int = 0
    retweets_zeroed: int = 0
    owner_replies_removed: int = 0


def cleanse(
    dataset: Dataset,
    keep_missing_language: bool = False,
) -> tuple[Dataset, CleanseReport]:
    """Return a cleansed copy of the dataset plus counts of what changed.

    Rules, in order:
      1. Tweets whose language is not "en" are removed along with their
         replies.  A missing language counts as non-English unless
         ``keep_missing_language`` is set.
      2. Retweets keep their text for domain discovery but their engagement
         counts are zeroed; the engagement belongs to the original author.
      3. Replies written by the tweet's own author are removed.
    """

    def is_english(language: str | None) -> bool:
        if language is None:
            return keep_missing_language
        return language == "en"

    kept_tweets = []
    zeroed = 0
    for t in dataset.tweets:
        if not is_english(t.language):
            continue
        if t.is_retweet and (t.retweet_count or t.favorite_count or t.replies_count):
            t = t._replace(retweet_count=0, favorite_count=0, replies_count=0)
            zeroed += 1
        kept_tweets.append(t)
    language_removed = len(dataset.tweets) - len(kept_tweets)

    authors = {t.tweet_id: t.author_id for t in kept_tweets}
    kept_replies = []
    removed_orphans = 0
    removed_owner = 0
    for r in dataset.replies:
        author = authors.get(r.parent_tweet_id)
        if author is None:
            removed_orphans += 1
            continue
        if r.author_id == author:
            removed_owner += 1
            continue
        kept_replies.append(r)

    cleaned = Dataset(
        users=dataset.users,
        tweets=tuple(kept_tweets),
        replies=tuple(kept_replies),
        capture_at=dataset.capture_at,
        provenance=dataset.provenance,
    )
    report = CleanseReport(
        language_removed=language_removed,
        orphan_replies_removed=removed_orphans,
        retweets_zeroed=zeroed,
        owner_replies_removed=removed_owner,
    )
    return cleaned, report

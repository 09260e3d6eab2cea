"""Dataset cleansing: language filter, retweet zeroing, owner-reply removal.

Applying cleanse to its own output changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .types import DatasetColumns


@dataclass(frozen=True)
class CleanseReport:
    language_removed: int = 0
    orphan_replies_removed: int = 0
    retweets_zeroed: int = 0
    owner_replies_removed: int = 0


def cleanse(
    columns: DatasetColumns,
    keep_missing_language: bool = False,
) -> tuple[DatasetColumns, CleanseReport]:
    """Return the cleansed columns of a dataset plus counts of what changed.

    Rules, in order:
      1. Tweets whose language is not "en" are removed along with their
         replies.  A missing language counts as non-English unless
         ``keep_missing_language`` is set.
      2. Retweets keep their text for domain discovery but their engagement
         counts are zeroed; the engagement belongs to the original author.
      3. Replies written by the tweet's own author are removed.
    """
    users, tweets, replies = columns.kinds()
    english = ("en", None) if keep_missing_language else ("en",)
    kept = [language in english for language in columns.languages]
    tweet_ids, authors, posted, texts, *engagement, is_retweet, languages = (
        tuple(compress(column, kept)) for column in tweets
    )
    engagement = list(map(list, engagement))
    zeroed = [i for i, flag in enumerate(is_retweet) if flag and any(c[i] for c in engagement)]
    for column in engagement:
        for i in zeroed:
            column[i] = 0

    owner_of = dict(zip(tweet_ids, authors))
    owners = [owner_of.get(parent) for parent in columns.reply_parents]
    kept_replies = [
        owner is not None and author != owner
        for owner, author in zip(owners, columns.reply_authors)
    ]

    tweets = (tweet_ids, authors, posted, texts, *map(tuple, engagement), is_retweet, languages)
    replies = (tuple(compress(column, kept_replies)) for column in replies)
    cleaned = DatasetColumns(*users, *tweets, *replies, columns.capture_at, columns.provenance)
    orphans = owners.count(None)
    report = CleanseReport(
        language_removed=len(kept) - len(tweet_ids),
        orphan_replies_removed=orphans,
        retweets_zeroed=len(zeroed),
        owner_replies_removed=len(owners) - orphans - sum(kept_replies),
    )
    return cleaned, report

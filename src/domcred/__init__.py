"""Time-aware, domain-based credibility features and influencer prediction.

The pipeline: load a tweet archive into a canonical dataset, cleanse it,
annotate tweets with subject domains and replies with sentiment, distribute
each tweet's engagement across its domains in proportion to the annotation
scores, accumulate per-user per-period features, and train classifiers that
predict which users are domain influencers.
"""

__version__ = "1.0.0"

"""Archive data model, IO, cleansing, timeline partitioning, and synthesis."""

"""Data layer: records, ingestion, folds, grouping, sequences, sampling."""

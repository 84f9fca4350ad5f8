"""Federated training: strategies, aggregation, clients, engines."""

"""Experiment orchestration: configs, sweeps with caching, emission, checks."""

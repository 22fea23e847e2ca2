"""Mutation gates for bolkit: see ``table.py`` and ``run.py``."""

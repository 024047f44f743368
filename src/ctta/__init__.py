"""Streaming continual test-time adaptation with dual prompt pools.

A frozen linear source model is adapted online to a stream of unlabeled,
domain-shifting batches by learning additive input prompts. Per batch, prompts
are retrieved from (or fissioned into) a class pool keyed by pseudo-labels and
a domain pool keyed by batch feature statistics, optimized against an
alignment-plus-entropy objective, and fused back under capacity limits.

Each name is imported from the module that defines it, such as
``ctta.pools.ClassPromptPool``; the package root holds no names.
"""

"""Segment-conditioned flow matching over latent frame sequences.

A desk-scale system: timed prompt broadcasting into frame windows, sentence-
level lyric alignment, conditional flow-matching training with condition
dropout, dual classifier-free-guidance Euler sampling, LRC timing tools, a
manifest data pipeline, and alignment metrics over a synthetic controllable
task. Each name is imported from its own module, e.g. `songflow.cli.main`.
"""

__version__ = "0.1.0"

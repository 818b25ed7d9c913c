"""Peer-to-peer golden-image distribution (broadcast trees).

Replaces the star-topology warehouse pull with k-ary broadcast trees
over per-host cluster uplinks, plus popularity-driven proactive
replica placement.  See ``DESIGN.md`` ("Image distribution") for the
construction and failure-fallback rules.
"""

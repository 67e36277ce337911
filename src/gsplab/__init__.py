"""Desk-scale laboratory for multi-metric ad auctions.

Implements the GSP allocate/price framework with pluggable rank scores
(classic squashed GSP, utility-based uGSP, and a learned bid-multiplier
network) in ``gsplab.auction``, a synthetic market simulator
(``gsplab.simulator.World``), a single-step actor-critic trainer
(``gsplab.trainer.train``), and an economic-property audit suite
(``gsplab.audit``).  The package itself binds no names.
"""

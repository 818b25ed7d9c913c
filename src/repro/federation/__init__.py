"""Federated multi-site control plane.

The paper's §3.1 architecture scales plant selection "directly, or
indirectly through VMBrokers"; this package builds the *indirect*
story at grid scale: an N-site grid where every site owns its own
VMShop, warehouse replica, cluster and vnet address block, each site
bids through the existing :class:`~repro.shop.broker.VMBroker` tree,
and a request leaves its site only over the spill ring —

* :mod:`repro.federation.addressing` — hierarchical vnet allocation
  (site prefix → subnet block → host range) so guest addresses stay
  globally unique past the flat ``192.168/16`` ceiling;
* :mod:`repro.federation.site` — one site's wiring: rack-level broker
  hierarchy in front of the site shop, the site's subnet block, and
  the gateway;
* :mod:`repro.federation.gateway` — site-local-first placement on one
  bid round, and the decision whether a request spills (the site
  declines, or its best bid is above the gateway's
  ``spill_threshold``);
* :mod:`repro.federation.admission` — overload shedding and
  preemption at the gateway's door;
* :mod:`repro.federation.scenario` — the grid shard scenario: one
  site per kernel :class:`~repro.sim.kernel.Environment` on the shard
  runner, spilled requests and their acks crossing
  :class:`~repro.sim.network.BoundaryLink`\\ s of a ring with
  lookahead.  The only way a request leaves a site.
"""

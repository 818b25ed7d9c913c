"""The VMShop front-end service and its bidding machinery.

The shop is the client's single logical point of contact (Section
3.1): it accepts Create/Query/Destroy requests, discovers plants
through a registry (:mod:`repro.shop.registry`), collects cost bids
(:mod:`repro.shop.bidding`, optionally through
:mod:`repro.shop.broker` aggregators), and routes service calls over a
latency-charging transport (:mod:`repro.shop.protocol`).
"""

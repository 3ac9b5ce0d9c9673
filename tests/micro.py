"""Small random solver instances, for cross-checking solvers against the oracles.

Integer prices and fairness factors keep every objective a small exact
rational, so agreement can be asserted with zero tolerance.  The seed and
size of the corpus that acceptance criterion 1 checks are here too.
"""

from fractions import Fraction
from typing import Optional

import numpy as np

from faircda.model import ConsumerBid, ExtendedConsumerBid, ProviderBid
from faircda.wdp_solver import WdpInstance

# Shape and value ranges of a micro instance (inclusive).
MICRO_MAX_CONSUMERS = 4
MICRO_MAX_PROVIDERS = 2
MICRO_MAX_TYPES = 2
MICRO_MAX_QUANTITY = 2
MICRO_PRICE_RANGE = (1, 20)
MICRO_FACTOR_RANGE = (-10, 10)

CORPUS_SIZE = 500
CORPUS_SEED = 20240


def random_micro_instance(
    rng: np.random.Generator, num_consumers: Optional[int] = None
) -> WdpInstance:
    """A small random instance: ``num_consumers`` consumers, or 1 to
    ``MICRO_MAX_CONSUMERS`` drawn, each wanting at least one unit."""
    if num_consumers is None:
        N = int(rng.integers(1, MICRO_MAX_CONSUMERS, endpoint=True))
    else:
        N = num_consumers
    M = int(rng.integers(1, MICRO_MAX_PROVIDERS, endpoint=True))
    L = int(rng.integers(1, MICRO_MAX_TYPES, endpoint=True))
    plo, phi = MICRO_PRICE_RANGE
    flo, fhi = MICRO_FACTOR_RANGE
    consumers = []
    for n in range(N):
        quantities = [int(q) for q in rng.integers(0, MICRO_MAX_QUANTITY, size=L, endpoint=True)]
        if not any(quantities):
            quantities[int(rng.integers(0, L))] = 1
        prices = [Fraction(int(p)) for p in rng.integers(plo, phi, size=L, endpoint=True)]
        factor = Fraction(int(rng.integers(flo, fhi, endpoint=True)))
        consumers.append(
            ExtendedConsumerBid(
                bid=ConsumerBid(n, tuple(prices), tuple(quantities)),
                fairness_factor=factor,
            )
        )
    providers = []
    for m in range(M):
        quantities = [int(q) for q in rng.integers(0, MICRO_MAX_QUANTITY, size=L, endpoint=True)]
        prices = [Fraction(int(p)) for p in rng.integers(plo, phi, size=L, endpoint=True)]
        providers.append(ProviderBid(m, tuple(prices), tuple(quantities)))
    return WdpInstance(consumer_bids=tuple(consumers), provider_bids=tuple(providers))

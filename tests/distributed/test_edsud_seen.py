"""e-DSUD's vectorized seen-list scan against the per-tuple reference.

``EDSUD._admit`` picks the seen tuples dominating a newcomer with one
numpy compare over their min-space coordinates.  It must tighten the
same factors in the same order as testing every seen tuple with
:func:`~repro.core.dominance.dominates`, so a whole run — answer,
emission order, message books — stays bit-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import Preference
from repro.distributed.edsud import EDSUD, EDSUDConfig, _Resident, _SeenTuple
from repro.distributed.query import build_sites

from ..conftest import make_random_database


class _LoopEDSUD(EDSUD):
    """The scan as a plain loop over every seen tuple."""

    def _admit(self, quaternion):
        resident = _Resident(quaternion=quaternion)
        for seen in self._seen:
            self._apply_seen_to(resident, seen)
        entry = _SeenTuple(quaternion=quaternion)
        if self.config.eager_bound_refresh:
            for other in self._residents.values():
                self._apply_seen_to(other, entry)
        self._seen.append(entry)
        self._seen_by_key.setdefault(quaternion.tuple.key, entry)
        self._residents[quaternion.site] = resident


def _fingerprint(cls, partitions, preference, config, batch_size):
    sites = build_sites(partitions, preference)
    coordinator = cls(sites, 0.3, preference, config=config, batch_size=batch_size)
    result = coordinator.run()
    return (
        [(m.key, m.probability.hex()) for m in result.answer],
        [(e.key, e.global_probability.hex()) for e in result.progress.events],
        result.stats.tuples_transmitted,
        result.stats.messages,
        dict(result.stats.by_kind),
        coordinator.expunged_total,
        coordinator.iterations,
    )


PREFERENCES = [
    None,
    Preference.of("min,max,min"),
    Preference(subspace=(2, 0)),
]


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    sites=st.integers(min_value=1, max_value=5),
    preference=st.sampled_from(PREFERENCES),
    eager=st.booleans(),
    reuse=st.booleans(),
    batch_size=st.sampled_from([1, 3]),
)
@settings(max_examples=30, deadline=None)
def test_vectorized_scan_matches_the_dominates_loop(
    seed, sites, preference, eager, reuse, batch_size
):
    # A coarse grid forces ties, the case a strictness slip would miss.
    db = make_random_database(90, 3, seed=seed, grid=5)
    partitions = [db[i::sites] for i in range(sites)]
    config = EDSUDConfig(eager_bound_refresh=eager, reuse_probe_factors=reuse)
    assert _fingerprint(EDSUD, partitions, preference, config, batch_size) == (
        _fingerprint(_LoopEDSUD, partitions, preference, config, batch_size)
    )

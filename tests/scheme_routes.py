"""The scheme over a chosen suborbit route, whatever the cone route would do
with the input: the fold over the transversal table, and the enumeration
oracle, an independent route to p for small levels."""

from selfsim.orbits import oracle_suborbits, orbit_transversal, suborbits_from_transversal
from selfsim.scheme import scheme_from_partition


def fold_scheme(pres, n, ray):
    """The scheme from the transversal table and the suborbit fold."""
    return scheme_from_partition(suborbits_from_transversal(pres, orbit_transversal(pres, n, ray)))


def oracle_scheme(pres, n, ray):
    """The scheme from the full level group's suborbits and label rows."""
    return scheme_from_partition(oracle_suborbits(pres, n, ray))

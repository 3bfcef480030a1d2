"""Suborbit structure, orbital schemes and quasi-regular decompositions for
self-similar groups presented by wreath recursions."""

__version__ = "0.1.0"

from .catalog import CatalogEntry, builtin, keys
from .errors import (IntegrityError, NotTransitiveError, NumericalError,
                     PresentationError, SelfSimError, SizeCapError,
                     UnknownGroupError)
from .orbits import (SuborbitPartition, Transversal, bfs_group_order,
                     oracle_suborbits, orbit_transversal, stabilizer_suborbits)
from .render import orbital_graph_dot, portrait_dot
from .scheme import (OrbitalScheme, build_scheme, is_commutative,
                     verify_scheme_axioms)
from .spectral import (DEFAULT_SEED, SpectralData, dense_commutant_oracle,
                       intersection_matrices, spectral_data)
from .tree import DEFAULT_LEVEL_CAP, Ray, Vertex, all_d_ray, parse_ray
from .verify import SuiteResult, run_verification
from .wreath import (GeneratorRule, PortraitNode, Word, WreathPresentation,
                     act, cycle_notation, free_reduce, level_permutation,
                     load_presentation, order_at_level, parse_presentation,
                     portrait, section)

__all__ = [name for name in dir() if not name.startswith("_")]

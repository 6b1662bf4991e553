"""Fault-tolerant diameter oracles.

Preprocess a graph once, then answer diam(G-F) for failure sets F of up to
f edges, exactly or within a proven stretch.  See README for the oracle
family, file formats, and the CLI.

The oracle modules load with the package.  The brute-force checks of
``fdo.verify`` (``audit``, ``brute_diam``, ...) and the generators of
``fdo.instances`` (``gen_random``, ``GadgetInstance``, ...) load on first
use of one of their names, so a process that only loads and queries an
oracle never imports them.
"""

from .graph import (Graph, GraphError, INF, ShortestPathTree, build_graph,
                    diameter, distances, eccentricity, extract_path, in_tree,
                    is_connected, load_graph, parse_graph, save_graph, sssp,
                    strong_bridges)
from .dso import SampledFDSO, build_sampled_fdso
from .single import (SingleFDO, build_approx_fdo, build_ecc_fdo,
                     build_exact_fdo, build_spanner_fdo, deterministic_pivots,
                     greedy_hitting_set, random_pivots)
from .multi import MultiFDO, build_multi_fdo
from .lowdiam import LowDiamFDO, build_lowdiam_fdo
from .serialize import (dumps_oracle, load_oracle, loads_oracle, save_oracle)

__version__ = "0.1.0"

_LAZY = {
    "verify": ("AuditReport", "audit", "brute_diam", "brute_replacement",
               "enumerate_failures"),
    "instances": ("GadgetInstance", "gen_dense_lb", "gen_multi_lb",
                  "gen_multi_lb_f1", "gen_random", "gen_sparse_lb",
                  "gen_weighted_lb", "random_payload"),
}
_LAZY_NAMES = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name):
    # Looked up on every access and not stored here, so a name always
    # follows its module's current binding (a wrapper installed there too).
    mod = name if name in _LAZY else _LAZY_NAMES.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{mod}", __name__)
    return module if mod == name else getattr(module, name)

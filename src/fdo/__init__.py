"""Fault-tolerant diameter oracles.

Preprocess a graph once, then answer diam(G-F) for failure sets F of up to
f edges, exactly or within a proven stretch.  See README for the oracle
family, file formats, and the CLI.

Every public name loads its module on first use: a process that loads and
queries a ``multi`` oracle imports ``fdo.graph``, ``fdo.serialize`` and
``fdo.multi``, and none of the other builders, the brute-force checks of
``fdo.verify`` (``audit``, ``brute_diam``, ...) or the generators of
``fdo.instances`` (``gen_random``, ``GadgetInstance``, ...).
"""

__version__ = "0.1.0"

_LAZY = {
    "graph": ("Graph", "GraphError", "INF", "ShortestPathTree", "build_graph",
              "diameter", "distances", "eccentricity", "in_tree",
              "is_connected", "load_graph", "parse_graph", "save_graph",
              "sssp", "strong_bridges"),
    "dso": ("SampledFDSO", "build_sampled_fdso"),
    "single": ("SingleFDO", "build_approx_fdo", "build_ecc_fdo",
               "build_exact_fdo", "build_spanner_fdo", "deterministic_pivots",
               "greedy_hitting_set", "random_pivots"),
    "multi": ("MultiFDO", "build_multi_fdo"),
    "lowdiam": ("LowDiamFDO", "build_lowdiam_fdo"),
    "serialize": ("dumps_oracle", "load_oracle", "loads_oracle",
                  "save_oracle"),
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

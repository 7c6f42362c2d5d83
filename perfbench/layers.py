"""The layers the traced run measures, and what each should move.

``SPANS`` names every traced public function: the span name, the module it
is defined in, its attribute path there, and the workloads whose traced
run must call it at least once (the coverage guard).

``INTERACTIONS`` is the prediction written down before measuring: which
layer metric should move which end-to-end metric, on which workload, and
where no change is predicted.
"""

ALL = ("sweep", "odd-mmm", "point-queries")

SPANS = (
    ("cli.run", "mmmkit.cli", "run", ALL),
    ("hopfmodel.hopf_model", "mmmkit.hopfmodel", "hopf_model", ALL),
    ("hopfmodel.reduced_coproduct", "mmmkit.hopfmodel", "HopfModel.reduced_coproduct", ("sweep",)),
    ("hopfmodel.from_primitive_basis", "mmmkit.hopfmodel", "HopfModel.from_primitive_basis", ALL),
    ("hopfmodel.restrict", "mmmkit.hopfmodel", "restrict", ALL),
    ("hopfmodel.l_class_component", "mmmkit.hopfmodel", "l_class_component", ("odd-mmm", "point-queries")),
    ("gradedalg.poly_mul", "mmmkit.gradedalg", "Polynomial.__mul__", ALL),
    ("gradedalg.tensor_mul", "mmmkit.gradedalg", "TensorElement.__mul__", ("sweep",)),
    ("gradedalg.substitute", "mmmkit.gradedalg", "Polynomial.substitute", ALL),
    ("gradedalg.enumerate_monomials", "mmmkit.gradedalg", "enumerate_monomials", ALL),
    ("gradedalg.parse_poly", "mmmkit.gradedalg", "parse_poly", ("odd-mmm", "point-queries")),
    ("gradedalg.format_poly", "mmmkit.gradedalg", "format_poly", ("point-queries",)),
    ("exactq.rref_int", "mmmkit.exactq", "_core.rref_int", ALL),
    ("exactq.kernel_basis", "mmmkit.exactq", "kernel_basis", ("sweep", "odd-mmm")),
    ("exactq.from_vectors", "mmmkit.exactq", "Subspace.from_vectors", ALL),
    ("exactq.solve_in_span", "mmmkit.exactq", "solve_in_span", ("odd-mmm", "point-queries")),
    ("exactq.subspace_intersection", "mmmkit.exactq", "subspace_intersection", ("odd-mmm",)),
    ("nearprim.verify_equivalence", "mmmkit.nearprim", "verify_equivalence", ("sweep",)),
    ("nearprim.kernel", "mmmkit.nearprim", "near_primitive_kernel", ("sweep",)),
    ("nearprim.span", "mmmkit.nearprim", "near_primitive_span", ("sweep", "point-queries")),
    ("nearprim.restricted", "mmmkit.nearprim", "near_primitive_kernel_restricted", ("sweep",)),
    ("nearprim.npd", "mmmkit.nearprim", "npd", ("odd-mmm", "point-queries")),
    ("mmm.algebra_init", "mmmkit.mmm", "MMMAlgebra.__init__", ("odd-mmm", "point-queries")),
    ("mmm.k_ideal_generators", "mmmkit.mmm", "MMMAlgebra.k_ideal_generators", ("odd-mmm",)),
    ("mmm.k_ideal_slice", "mmmkit.mmm", "MMMAlgebra.k_ideal_slice", ("odd-mmm",)),
    ("mmm.bordism_invariant_space", "mmmkit.mmm", "MMMAlgebra.bordism_invariant_space", ("odd-mmm",)),
    ("mmm.is_bordism_invariant", "mmmkit.mmm", "MMMAlgebra.is_bordism_invariant", ("odd-mmm", "point-queries")),
    ("bundles.projectivize", "mmmkit.bundles", "projectivize", ("point-queries",)),
    ("bundles.verify_motivating_identity", "mmmkit.bundles", "verify_motivating_identity", ("point-queries",)),
    ("bundles.mmm_number", "mmmkit.bundles", "mmm_number", ("point-queries",)),
    ("bundles.total_space_char_numbers", "mmmkit.bundles", "total_space_char_numbers", ("point-queries",)),
)

# Exact counts; they repeat from run to run on the same query list.
COUNTS = (
    ("exactq.rref_int.cells", "count"),  # sum of rows x cols over eliminations
    ("exactq.rref_int.rank", "count"),  # sum of ranks
    ("exactq.rref_int.max_rows", "count"),
    ("exactq.rref_int.max_bits", "bits"),  # largest entry of any reduced row
    ("gradedalg.poly_mul.pairs", "count"),  # term pairs in Polynomial products
    ("gradedalg.tensor_mul.pairs", "count"),  # term pairs in TensorElement products
    ("gradedalg.degree.calls", "count"),  # GeneratorAlphabet.degree calls
)

# lru_cache tables read with cache_info() at the end of each query.
CACHES = (
    ("cache.delta_bar_slice", "mmmkit.nearprim", "_delta_bar_slice"),
    ("cache.restricted_monomial", "mmmkit.nearprim", "_restricted_monomial"),
    ("cache.hopf_model", "mmmkit.hopfmodel", "hopf_model"),
)

# Whole-query figures of the traced run.
TRACE = (
    ("process.import_s", "s"),  # import of mmmkit.cli inside each traced query
    ("trace.wall_s", "s"),  # traced pass, timed like the untraced one
    ("trace.overhead_s", "s"),  # trace.wall_s minus the untraced pass wall_s
    ("trace.unattributed_s", "s"),  # in-process query time outside import and spans
)

INTERACTIONS = (
    {
        "workload": "sweep",
        "layer_metrics": [
            "exactq.rref_int.*",
            "exactq.kernel_basis.self_s",
            "exactq.from_vectors.self_s",
            "nearprim.kernel.self_s",
            "nearprim.restricted.self_s",
            "gradedalg.degree.calls",
        ],
        "moves": ["wall_s", "cpu_s"],
        "no_change_on": ["odd-mmm", "point-queries"],
        "why": "integer elimination, Fraction boxing and matrix assembly are most of a sweep",
    },
    {
        "workload": "sweep",
        "layer_metrics": [
            "hopfmodel.reduced_coproduct.*",
            "gradedalg.tensor_mul.*",
            "cache.delta_bar_slice.hits",
        ],
        "moves": ["wall_s", "peak_rss_mb"],
        "no_change_on": ["odd-mmm", "point-queries"],
        "why": "the coproduct tables are built and held per degree for the whole sweep",
    },
    {
        "workload": "odd-mmm",
        "layer_metrics": [
            "hopfmodel.l_class_component.*",
            "mmm.k_ideal_generators.*",
            "gradedalg.poly_mul.pairs",
        ],
        "moves": ["wall_s"],
        "no_change_on": ["sweep"],
        "why": "a few huge Polynomial products build the L-class and the K ideal",
    },
    {
        "workload": "point-queries",
        "layer_metrics": ["hopfmodel.hopf_model.self_s", "gradedalg.substitute.self_s"],
        "moves": ["query_p50_s"],
        "no_change_on": [],
        "why": "model tables are rebuilt by every short query",
    },
    {
        "workload": "point-queries",
        "layer_metrics": ["process.import_s", "cli.run.self_s", "bundles.*"],
        "moves": ["query_p50_s", "setup_s"],
        "no_change_on": [],
        "why": "start-up, import and document assembly are most of a short query",
    },
    {
        "workload": "sweep, odd-mmm",
        "layer_metrics": ["gradedalg.poly_mul.*"],
        "moves": ["wall_s"],
        "no_change_on": [],
        "why": "odd-mmm does a few huge products, sweep about 20k two-term ones;"
        " a gain for one shape that costs the other shows on the other workload",
    },
    {
        "workload": "sweep, odd-mmm, point-queries",
        "layer_metrics": ["exactq.*"],
        "moves": ["wall_s"],
        "no_change_on": [],
        "why": "sweep eliminates matrices of hundreds of rows, the others only tiny"
        " solve_in_span systems; a gain for one shape that costs the other shows",
    },
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in report order."""
    metrics = []
    for name, *_ in SPANS:
        metrics += [(f"{name}.calls", "count"), (f"{name}.incl_s", "s"), (f"{name}.self_s", "s")]
    metrics += list(COUNTS)
    for name, *_ in CACHES:
        metrics += [(f"{name}.hits", "count"), (f"{name}.misses", "count")]
    metrics += list(TRACE)
    return metrics

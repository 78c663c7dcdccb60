"""Exact lattice computations for moduli of sheaves on K3 surfaces and
their Hilbert schemes: Fujiki products, Mukai vectors, wall classes,
slope reduction and admissible-parameter searches. All arithmetic is
integer or Fraction based; nothing here touches floats.

Importing the package loads only errors, jsonio and lattice, which every
entry point reads. Every other public name loads its module on first use
(PEP 562), so a CLI process compiles only what its subcommand runs.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_NAMES = {
    "errors": ("InputError", "MathCheckError", "NoAdmissibleParameter", "SearchCapExceeded"),
    "jsonio": ("canonical_json", "load_json_file", "to_rational"),
    "lattice": ("IntLattice", "LatVec", "content", "lattice", "lattice_from_json",
                "latvec_from_json", "norm", "pair", "primitive_part", "saturation_check", "vec"),
    "fujiki": ("FUJIKI_CONSTANTS", "FujikiSetup", "discriminant_sum_identity",
               "double_factorial", "fiber_restriction_integral", "fujiki_constant",
               "matchings_sum", "modular_delta_integral", "parse_kind", "perfect_matchings",
               "propsemi_bound_check", "top_intersection"),
    "hilb2": ("F2Invariants", "McKaySquare", "ambient_divisibility", "f2_invariants",
              "h_polarization", "hilb2_ns", "mckay_ext_dims", "potenza_solve", "resemibis_ranks",
              "restrango_check", "rosetta_check", "unicita_report"),
    "mukai": ("MukaiNumerics", "MukaiVector", "from_chern", "mukai_from_json", "mukai_pairing",
              "mukai_square", "normalize_twist", "numerics", "twist_by_mf"),
    "nl": ("DEFAULT_SEARCH_CAP", "Admissibility", "NefIsotropicClasses", "buonacompt_bound",
           "buonacompt_min_d", "divisibility_type", "econ_check", "governing_divisibility",
           "m0_s0", "nef_isotropic_classes", "nl_hk_admissible", "nl_k3_admissible",
           "propriostab_admissible", "rigsuk_bound", "rigsuk_min_d0"),
    "pipelines": ("Scenario", "TwistResult", "casoprim_pipeline", "load_scenario",
                  "multacca_normalize", "run_scenario", "scenario_from_json", "vbk3ell_pipeline"),
    "reduction": ("AtiyahResult", "HomCountResult", "ModificationStep", "ReductionTrace",
                  "atiyah_exists", "bezout_r0_d0", "elementary_modification", "hom_count_check",
                  "nonlocally_free_dim_identity", "reduction_trace", "rigid_vector"),
    "report": ("Check", "TheoremReport"),
    "verify": ("VerifySummary", "verify_all"),
    "walls": ("EllipticNS", "SuitabilityReport", "WallClass", "as_elliptic",
              "enumerate_wall_classes", "is_suitable", "min_negative_norm", "no_wall_threshold",
              "orthogonal_wall", "suitability_for", "wall_ray"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# Every entry point reads these three modules, so they load with the package.
# Bound after its submodule, `lattice` is the function, not the module.
for _name in (*_NAMES["errors"], *_NAMES["jsonio"], *_NAMES["lattice"]):
    __getattr__(_name)
del _name

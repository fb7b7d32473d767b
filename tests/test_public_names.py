"""The package exports exactly the names its modules list in ``__all__``."""

import importlib
import inspect

import lucewalks

PUBLIC = {
    "BlockOrderedSetPartition", "ChamberChain", "ConvergenceReport", "DefectiveMassWarning",
    "DistanceReport", "FaceWeightTable", "LucewalksError", "Permutation", "PreconditionError",
    "RngStream", "SEQUENCE_FAMILIES", "SignVector", "ToleranceError", "WeightSequence",
    "WeightVector", "all_permutations", "brown_diaconis_sample", "brown_diaconis_sample_many",
    "bruhat_covers", "chamber_index", "collision_lambda", "constant_weights",
    "convergence_test", "d_inf_bound", "d_inf_exact", "distance_report",
    "ehrenfest_face_weights", "elementary_symmetric", "enumerate_chambers", "f_eval",
    "finite_n_bottom_pmf", "graph_coloring_face_weights", "is_separating", "limit_bottom_pmf",
    "limit_bottom_pmf_mc", "linear_weights", "log_loglog_weights", "log_weights", "luce_pmf",
    "normalize", "permutation_rank_many", "prefix_prob_p", "prefix_prob_q", "project_boolean",
    "project_braid", "restrict", "riffle_face_weights", "sample_exponential",
    "sample_exponential_many", "sample_spacings", "sample_spacings_many", "sample_urn",
    "sample_urn_many", "second_card_marginal", "stationary_exact", "sukhatme_last_card_table",
    "sukhatme_weights", "transition_matrix", "tsetlin_face_weights", "tv_exact",
    "tv_poisson_approx", "tv_uniform_exact", "walk_step",
}
MODULES = ("core", "exceptions", "topk", "bottomk", "arrangements")


def test_package_names_pinned():
    names = {n for n, v in vars(lucewalks).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert len(PUBLIC) == 63
    assert names == PUBLIC


def test_module_lists_are_the_package_names():
    lists = [importlib.import_module(f"lucewalks.{m}").__all__ for m in MODULES]
    assert sorted(n for names in lists for n in names) == sorted(PUBLIC)  # each listed once

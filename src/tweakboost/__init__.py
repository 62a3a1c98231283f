"""Boosted tree ensembles with minimal counterfactual explanations.

Train an AdaBoost ensemble of CART trees on tabular binary-classification
data, then answer "what is the smallest change to this instance that flips
the ensemble's prediction?" by epsilon-tweaking the instance along
opposite-sign root-to-leaf paths. The boosting structure itself (per-round
alphas and sample-weight trajectories) drives an optional truncation of the
search to the first K' trees.
"""

from .boost import (
    MODEL_VERSION,
    Ensemble,
    alpha,
    ensemble_margins,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_ensemble,
    save_model,
    staged_predictions,
    train_adaboost,
    update_weights,
    weight_trajectory,
)
from .cart import Internal, Leaf, Tree, fit_tree
from .data import (
    DataError,
    Dataset,
    FeatureSchema,
    compute_schema,
    load_csv,
    make_dataset,
    make_demo_dataset,
    parse_label_map,
    save_csv,
)
from .prune import (
    PruneReport,
    agreement_rate,
    combine_reports,
    margin_certificate,
    select_kprime_alpha_mass,
    select_kprime_trajectory,
)
from .tweak import (
    Candidates,
    Counterfactual,
    EpsilonPolicy,
    GridGuardError,
    NotFound,
    brute_force_oracle,
    distance,
    explain,
    generate_candidates,
    oracle_grid,
)

__version__ = "0.1.0"

__all__ = [
    "MODEL_VERSION",
    "Ensemble",
    "alpha",
    "ensemble_margins",
    "load_model",
    "predict_ensemble",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "staged_predictions",
    "train_adaboost",
    "update_weights",
    "weight_trajectory",
    "Internal",
    "Leaf",
    "Tree",
    "fit_tree",
    "DataError",
    "Dataset",
    "FeatureSchema",
    "compute_schema",
    "load_csv",
    "make_dataset",
    "make_demo_dataset",
    "parse_label_map",
    "save_csv",
    "PruneReport",
    "agreement_rate",
    "combine_reports",
    "margin_certificate",
    "select_kprime_alpha_mass",
    "select_kprime_trajectory",
    "Candidates",
    "Counterfactual",
    "EpsilonPolicy",
    "GridGuardError",
    "NotFound",
    "brute_force_oracle",
    "distance",
    "explain",
    "generate_candidates",
    "oracle_grid",
    "__version__",
]

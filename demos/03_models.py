"""Train the four from-scratch learners on a synthetic benchmark and
compare their held-out discrimination on the hospitalization task.

Hyperparameters are dialed down from the defaults so the whole script
finishes in well under a minute.
"""

import time

import numpy as np

from edbench.clean_split import (apply_cleaning, apply_exclusions,
                                 apply_imputer, fit_imputer,
                                 load_cleaning_config, split_records)
from edbench.cohort import build_master
from edbench.evaluate import auroc
from edbench.ingest import link_tables
from edbench.models import (build_feature_matrix, predict_proba,
                            rf_variable_importance, train_model)
from edbench.synthdata import SynthConfig, generate_with_truth

LIGHT = {
    "logistic": {},
    "random_forest": {"n_trees": 30},
    "boosting": {"n_stages": 40},
    "mlp": {"epochs": 8},
}


def main():
    gen = generate_with_truth(SynthConfig(n_patients=1500, seed=11))
    records = build_master(link_tables(gen.tables))
    kept, _ = apply_exclusions(records)
    apply_cleaning(kept, load_cleaning_config())
    train, test, _ = split_records(kept, test_fraction=0.2, seed=0)
    imputer = fit_imputer(train)
    apply_imputer(train, imputer)
    apply_imputer(test, imputer)

    tr = build_feature_matrix(train, "hospitalization")
    te = build_feature_matrix(test, "hospitalization")
    print(f"feature matrix: {tr.X.shape[0]} train rows, "
          f"{te.X.shape[0]} test rows, {len(tr.columns)} variables "
          f"({tr.time_point} time point)\n")

    labels = te.y.astype(np.float64)
    forest_model = None
    for kind, overrides in LIGHT.items():
        started = time.perf_counter()
        model = train_model(tr, kind, seed=0, **overrides)
        seconds = time.perf_counter() - started
        a = auroc(predict_proba(model, te), labels)
        print(f"  {kind:14s} test AUROC = {a:.3f}   (fit in {seconds:.2f}s)")
        if kind == "random_forest":
            forest_model = model

    print("\ntop forest variables by impurity-decrease importance:")
    for col, imp in rf_variable_importance(forest_model)[:8]:
        print(f"  {imp:.4f}  {col}")


if __name__ == "__main__":
    main()

"""Compute the five early-warning scores and the acuity baseline for a
handful of visits, showing the per-component point breakdown."""

from edbench.cohort import build_master
from edbench.ingest import link_tables
from edbench.scores import (SCORE_NAMES, compute_score, esi_risk,
                            load_score_definition)
from edbench.synthdata import SynthConfig, generate_with_truth


def main():
    gen = generate_with_truth(SynthConfig(n_patients=40, seed=3))
    records = build_master(link_tables(gen.tables))
    definitions = {name: load_score_definition(name) for name in SCORE_NAMES}

    # one visit in detail
    rec = next(r for r in records if r["outcome_critical"])
    print(f"stay {rec['stay_id']}: age {rec['age']}, "
          f"acuity {rec['triage_acuity']}, critical outcome\n")
    for name in SCORE_NAMES:
        result = compute_score(definitions[name], rec, vitals_source="triage")
        parts = ", ".join(f"{c}={p}" for c, p in
                          result.component_points.items())
        print(f"  {name.upper():5s} = {result.total:2d}   ({parts})")
        if result.missing:
            print(f"        missing inputs: {result.missing}")
    print(f"  ESI risk (6 - acuity)   = {esi_risk(rec['triage_acuity'])}")

    # scores separate outcomes at the cohort level
    print("\nmean NEWS by outcome:")
    news = definitions["news"]
    for flag in (False, True):
        vals = [compute_score(news, r).total for r in records
                if bool(r["outcome_hospitalization"]) is flag]
        tag = "hospitalized" if flag else "discharged"
        print(f"  {tag:12s} n={len(vals):3d}  "
              f"mean={sum(vals) / len(vals):.2f}")

    # substituted components are carried on the definition
    news2 = definitions["news2"]
    if news2.omitted:
        print("\nnews2 substitutions:", news2.omitted)


if __name__ == "__main__":
    main()

"""Randomized study: when does the one-sided rule certify real symmetry?

The explorer draws seeded (sequence, symbol) pairs, evaluates the one-sided
and two-index coefficient rules, and compares both against the operator
residual. Every record reseeds from (seed, trial), so any disagreement can
be regenerated alone. A final pass probes dense random conjugations, where
no coefficient rule is available at all and the raw residual is the only
signal.

Run:  python demos/criterion_discrepancy.py
"""

import numpy as np

from hardyconj import (
    explore_symmetry,
    run_trial,
    sequence_condition,
    summarize_exploration,
    trial_draws,
)

SEED, TRIALS, N, BAND = 42, 120, 24, 4

records = explore_symmetry(TRIALS, N, BAND, seed=SEED, mode="mixed")
summary = summarize_exploration(records)

print(f"{TRIALS} mixed trials at N = {N}, band = {BAND}, seed = {SEED}")
print(f"  one-sided rule matched the oracle : {summary['onesided_agreements']}")
print(f"  one-sided rule contradicted it    : {summary['onesided_disagreements']}")
print(f"  two-index rule mismatches         : {len(summary['entrywise_mismatch_trials'])}"
      "  (always zero: it is the faithful finite-section condition)")

# ---------------------------------------------------------------------------
# Split the disagreements by trial style. Mixed mode cycles generic /
# symmetrized / constant; only the symmetrized style with a non-constant
# sequence can satisfy the one-sided rule while the operator identity fails.
# ---------------------------------------------------------------------------
by_mode = {}
for r in records:
    if r.report.agree is False:
        by_mode[r.mode] = by_mode.get(r.mode, 0) + 1
print(f"  disagreements by trial style      : {by_mode}")

# ---------------------------------------------------------------------------
# Reproduce one disagreement from its seed alone: run_trial rebuilds the
# record, and trial_draws the sequence and symbol it was checked on.
# ---------------------------------------------------------------------------
culprits = [r for r in records if r.report.agree is False]
if culprits:
    first = culprits[0]
    again = run_trial(first.trial, N, BAND, seed=SEED, mode="mixed")
    zeta, symbol = trial_draws(first.trial, N, BAND, seed=SEED, mode="mixed")
    replayed = sequence_condition(symbol, zeta).max_violation
    print(f"\nreplaying trial {first.trial} from seed {first.seed}:")
    print(f"  one-sided violation {again.report.max_coeff_violation:.3e} "
          f"(holds: {again.report.coeff_condition_holds})")
    print(f"  from its draws      {replayed:.3e} "
          f"(record: {first.report.max_coeff_violation:.3e})")
    print(f"  residual            {again.report.residual:.3e}")
    print(f"  identical verdicts  {again.report.agree == first.report.agree}")

# ---------------------------------------------------------------------------
# Dense conjugations: residuals only. Random dense conjugations are
# essentially never symmetric for a random symbol, and nothing like the
# diagonal coefficient rules is known to certify them.
# ---------------------------------------------------------------------------
dense = explore_symmetry(20, N, BAND, seed=SEED + 1, mode="unitary")
residuals = np.array([r.report.residual for r in dense])
print(f"\ndense random conjugations, 20 trials: residual range "
      f"[{residuals.min():.3f}, {residuals.max():.3f}]")
print("no coefficient criterion exists for this case; the records keep the "
      "raw residuals and seeds for further study")

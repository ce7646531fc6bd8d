"""Monte Carlo study: when does hierarchical risk parity beat naive
inverse-variance weighting?

Runs regime-conditioned simulations, compares out-of-sample volatility,
fits a linear surrogate on correlation-structure features and explains
it with exact Shapley values.  The qualitative finding: HRP wins when
the correlation matrix carries a strong, heterogeneous hierarchy
(normal and rally regimes) and is on par with IVP in a stressed market
where one factor dominates and there is little structure to exploit.
"""

import numpy as np

from corrlab import mc
from corrlab.facts import FEATURE_NAMES

config = mc.McConfig(count_per_regime=100, dim=24, seed=2024)
print(f"Running {3 * config.count_per_regime} simulations "
      f"(dim {config.dim}, {config.t_in} in / {config.t_out} out days)...\n")
records = mc.run(config)

findings = mc.regime_findings(records)
print("HRP vs IVP, out-of-sample volatility:")
for name, f in findings.items():
    lo, hi = f["win_rate_ci95"]
    print(f"  {name:9s} win rate {f['hrp_win_rate']:.3f}  "
          f"95% CI [{lo:.3f}, {hi:.3f}]  mean vol gap {f['mean_gap']:+.4f}")

print("\nLinear surrogate on the feature vector (target: HRP minus IVP "
      "out-of-sample vol):")
model = mc.fit_surrogate(records, target="outperformance")
print(f"  R2 = {model.r2:.3f}")
order = np.argsort(-np.abs(model.coefficients))
for i in order[:4]:
    print(f"  {FEATURE_NAMES[i]:20s} coefficient {model.coefficients[i]:+.5f}")

bg = mc.design_matrix(records)
record = records[0]
att = mc.shapley(model, record.features.to_array(), bg)
print(f"\nExact Shapley attribution for one {record.regime.value} draw "
      f"(prediction {att.prediction:+.5f}, baseline {att.baseline:+.5f}):")
for i in np.argsort(-np.abs(att.phi)):
    print(f"  {FEATURE_NAMES[i]:20s} phi {att.phi[i]:+.5f}")
print("\nNegative phi pushes toward HRP outperformance; dispersion in the "
      "first eigenvector and cluster structure are the load-bearing "
      "features.")

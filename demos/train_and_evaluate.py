"""Train the conditional GAN on the surrogate corpus and evaluate it.

A deliberately small run (200 epochs, 100 matrices per regime) that still
shows the full loop: corpus, training, conditional sampling, elliptope
projection, stylized-fact comparison and the classifier fidelity gate.
The shipped full-scale configuration is 300 epochs on 300 per regime.
"""

import numpy as np

from corrlab import corpus, evaluation, gan
from corrlab.facts import stylized_report
from corrlab.gan import GanConfig, REGIMES

print("Building surrogate corpus (100 per regime, dim 16)...")
corp = corpus.build_surrogate(100, 16, seed=7)

print("Training conditional GAN (200 epochs)...")
config = GanConfig(dim=16, epochs=200, seed=7)
ckpt = gan.train(gan.build(config), corp)
g_loss, d_loss = ckpt.loss_history[-1]
print(f"  final losses: generator {g_loss:.3f}  discriminator {d_loss:.3f}"
      f"  mode collapse flag: {ckpt.mode_collapse_flag}\n")

print("Conditional sampling, 50 per regime, projected onto the elliptope:")
items = []
for regime in REGIMES:
    batch = gan.sample(ckpt, regime, 50, seed=13)
    items += [corpus.CorpusItem(m, regime) for m in batch.matrices]
    real = np.mean([stylized_report(m).sf1_mean_offdiag
                    for m in corp.matrices(regime)])
    synth = np.mean([stylized_report(m).sf1_mean_offdiag
                     for m in batch.matrices])
    disp = np.mean(batch.displacements)
    print(f"  {regime.value:9s} mean rho: synthetic {synth:.3f} vs corpus "
          f"{real:.3f}   mean projection displacement {disp:.4f}")

synth = corpus.LabeledCorpus(16, items, corpus.CorpusSource.SURROGATE)
fid = evaluation.classifier_fidelity(evaluation.corpus_features(corp),
                                     evaluation.corpus_features(synth), seed=3)
print(f"\nConditioning fidelity: a feature classifier trained on the real "
      f"corpus labels\nsynthetic samples with accuracy {fid.accuracy:.3f} "
      f"(real holdout {fid.real_holdout_accuracy:.3f}).")
print("Confusion (rows = requested regime, cols = predicted):")
print(fid.confusion)

"""The wireless leg and how quality is scored.

Samples block-fading traces, pushes symbols through transmit/equalize,
and shows how PSNR and the Frechet proxy react as the link degrades.
"""

import numpy as np

from megsim import channel as ch
from megsim import corpus, metrics

rng = np.random.default_rng(0)

print("== fading traces ==")
gains = ch.fading_gains("rayleigh_block", 8, rng)
print("per-block gains:", np.round(gains, 3))
big = ch.fading_gains("rayleigh_block", 100_000, rng)
print("E[h^2] over 1e5 blocks:", round(float(np.mean(big ** 2)), 4))

print("\n== transmit, equalize, and the noise amplification of deep fades ==")
x = rng.standard_normal(2048)
for snr_db in (20.0, 0.0, -10.0):
    noise_std = ch.snr_to_noise_std(snr_db)
    errs = []
    for h in (1.2, 0.6, 0.15):
        y = ch.transmit(x, h, 1.0, rng.normal(0.0, noise_std, x.shape))
        errs.append(float(np.std(ch.equalize(y, h, 1.0) - x)))
    print(f"  snr {snr_db:>6} dB: residual std at h=1.2/0.6/0.15 ->",
          [round(e, 3) for e in errs])

print("\n== image metrics under a noise ladder ==")
images = corpus.build_corpus(8, 2, 32, 32, seed=1)[1]
extractor = metrics.FeatureExtractor(2 * 32 * 32)
for sigma in (0.0, 0.05, 0.2, 0.8):
    noisy = np.clip(images + sigma * rng.standard_normal(images.shape), 0, 1)
    psnr = metrics.psnr(noisy[0], images[0], 1.0)
    fid = metrics.fid(noisy.astype(np.float32), images, extractor)
    print(f"  pixel noise {sigma:4.2f}: psnr {psnr:8.2f} dB   "
          f"fid proxy {fid:8.4f}")

print("\ntransmitted symbols per generation (desk geometry):")
for mode in ("centralized", "raw_feature", "meg"):
    count = metrics.symbol_count(mode, (2, 32, 32), 4,
                                 rate=0.5, latent_channels=2)
    print(f"  {mode:<12} {count:>6,}")

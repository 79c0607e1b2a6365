"""Train the compression codec against the channel it must survive.

Latents are squeezed to half their size, power-normalized into a seed,
pushed through Rayleigh fading plus noise at the training SNR, and the
decoder learns to undo the damage. Training at the wrong SNR visibly
hurts.
"""

from dataclasses import replace

import numpy as np

from megsim import config, seedcodec

rng = np.random.default_rng(0)
latents = rng.standard_normal((120, 2, 8, 8)).astype(np.float32)

print("seed lengths at a 128-element latent:",
      {r: seedcodec.seed_length(128, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)})

print("\ntraining one codec per SNR (rate 0.5) ...")
codecs = {}
for train_snr in (0.0, 20.0, None):
    cfg = replace(config.desk_config(), codec_epochs=120,
                  codec_train_snr_db=train_snr)
    codecs[train_snr], hist = seedcodec.train_codec(latents, cfg, rate=0.5,
                                                    seed=1)
    label = "clean" if train_snr is None else f"{train_snr:g} dB"
    print(f"  trained at {label:>6}: loss {hist[0]:.3f} -> {hist[-1]:.3f}")


def channel_loss(pair, test_snr_db, trials=300):
    tr = np.random.default_rng(9)
    std = np.sqrt(10 ** (-test_snr_db / 10.0))
    flat = latents.reshape(len(latents), -1)
    total = 0.0
    for i in range(trials):
        gain = max(tr.rayleigh(1 / np.sqrt(2)), 1e-3)
        eff = tr.normal(0, std, pair.seed_len) / gain
        total += seedcodec.transmission_loss(pair, flat[i % len(flat)][None],
                                             eff[None])
    return total / trials


print("\nrecovery error when tested at 0 dB over Rayleigh fading:")
for train_snr, pair in codecs.items():
    label = "clean" if train_snr is None else f"{train_snr:g} dB"
    print(f"  codec trained at {label:>6}: {channel_loss(pair, 0.0):.3f}")
print("matching the training SNR to the operating point wins.")

print("\nseed anatomy:")
(symbols,), (scale,) = codecs[0.0].compress(latents[:1])
print(f"  {symbols.size} unit-power symbols "
      f"(mean square {np.mean(symbols ** 2):.6f}), "
      f"scale {scale:.3f} rides in the frame header")

"""Walk through the latent diffusion machinery.

Builds a noise schedule, corrupts a latent with the closed-form forward
jump, inverts it exactly with an oracle noise predictor, then trains a
small conditional denoiser on the synthetic corpus and samples a latent
from a text prompt.
"""

from dataclasses import replace

import numpy as np

from megsim import config, corpus, genmodel

rng = np.random.default_rng(0)

print("== noise schedule ==")
schedule = genmodel.make_schedule(10)
print("betas head:", np.round(schedule.betas[:3], 5))
print("signal retention sqrt(abar_t):",
      np.round(np.sqrt(schedule.alpha_bars[[1, 5, 10]]), 3))

print("\n== forward jump and exact inversion ==")
z0 = rng.standard_normal(128)
eps = rng.standard_normal(128)
z_noisy = genmodel.diffuse_forward(z0, 10, eps, schedule)
print("correlation of z_10 with z0:",
      round(float(np.corrcoef(z_noisy, z0)[0, 1]), 3))


class OracleDenoiser:
    """Returns the exact noise, so the reverse pass must recover z0."""

    def predict(self, z_t, t, pooled):
        return eps


z = z_noisy
for t in range(10, 0, -1):
    z = genmodel.ddim_step(OracleDenoiser(), z, t, None, schedule)
print("max |recovered - z0| after full reverse pass:",
      float(np.max(np.abs(z - z0))))

print("\n== train a small denoiser on the synthetic corpus ==")
prompts, images = corpus.build_corpus(16, 2, 32, 32, seed=1)
# every training setting lives in the experiment config, the 10-step
# [diffusion] schedule that the denoiser trains and samples on included
cfg = replace(config.desk_config(), ae_steps=300, ae_encoder_hidden=256,
              dn_steps=400)
pair, _ = genmodel.train_autoencoder(images, cfg, seed=2)
denoiser, history = genmodel.train_denoiser(
    pair, list(zip(prompts, images)), cfg, seed=3)
print(f"noise-prediction loss: {history[0]:.3f} -> {history[-1]:.3f}",
      "(predicting zero would score ~1.0)")

print("\n== sample latents from a batch of prompts ==")
noise = rng.standard_normal((2, 8, 8)).astype(np.float32)
prompts = ["large rings center", "tiny stripes left"]
# one noise draw for both prompts, so only the prompt differs
batch = np.stack([noise, noise])
latent, other = genmodel.generate_latent(denoiser, prompts, batch)
again, _ = genmodel.generate_latent(denoiser, prompts, batch)
print("deterministic resample identical:", np.array_equal(latent, again))
print("different prompt changes the latent by (max abs):",
      round(float(np.max(np.abs(latent - other))), 4))
(image,) = pair.decode(latent[None])
print("decoded image shape:", image.shape, "in [%.2f, %.2f]"
      % (image.min(), image.max()))

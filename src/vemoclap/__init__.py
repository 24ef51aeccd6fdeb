"""Video emotion classification from pretrained multimodal features.

The package ingests per-video feature containers (CLIP frames, BEATs audio
chunks, facial-expression vectors, OCR/ASR sentiment vectors), fuses them
with multi-head cross-attention and trains a 6-class emotion classifier.
Everything numeric runs on a small self-contained reverse-mode autograd
core (`vemoclap.autograd`); all randomness flows from an explicit 64-bit
seed (`vemoclap.rng`), so runs are bit-reproducible.

Import names from their modules (`vemoclap.container`, `vemoclap.model`,
...). The package re-exports nothing, so a leaf module such as
`vemoclap.container` imports without the autograd core.
"""

__version__ = "0.1.0"
